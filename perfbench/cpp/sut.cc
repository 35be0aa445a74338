#include "sut.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <vector>

#include "workload/smallbank.h"
#include "workload/tpcc.h"

namespace perfbench {

using harmony::HarmonyBC;
using harmony::Result;
using harmony::Status;

namespace {

std::vector<WorkloadSpec> Catalogue() {
  std::vector<WorkloadSpec> v;
  WorkloadSpec sb;
  sb.name = "smallbank_disk";
  sb.accounts = 300000;
  sb.pool_pages = 1024;
  sb.threads = 64;
  sb.open_rate_tps = 10000;
  sb.pass_txns = 40000;
  v.push_back(sb);

  WorkloadSpec tp;
  tp.name = "tpcc_disk";
  tp.tpcc = true;
  tp.warehouses = 40;
  tp.pool_pages = 4096;
  tp.threads = 64;
  tp.open_rate_tps = 1000;
  tp.pass_txns = 6000;
  v.push_back(tp);

  WorkloadSpec mw;
  mw.name = "smallbank_mem_wire";
  mw.accounts = 300000;
  mw.in_memory = true;
  mw.wire = true;
  mw.threads = 4;
  mw.open_rate_tps = 30000;
  mw.pass_txns = 120000;
  v.push_back(mw);
  return v;
}

std::vector<uint32_t> ProcedureIds(const WorkloadSpec& spec) {
  using harmony::SmallbankWorkload;
  using harmony::TpccWorkload;
  if (spec.tpcc) {
    return {TpccWorkload::kProcNewOrder, TpccWorkload::kProcPayment,
            TpccWorkload::kProcOrderStatus, TpccWorkload::kProcDelivery,
            TpccWorkload::kProcStockLevel};
  }
  return {SmallbankWorkload::kProcAmalgamate,
          SmallbankWorkload::kProcBalance,
          SmallbankWorkload::kProcDepositChecking,
          SmallbankWorkload::kProcSendPayment,
          SmallbankWorkload::kProcTransactSavings,
          SmallbankWorkload::kProcWriteCheck};
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

std::optional<WorkloadSpec> FindWorkload(const std::string& name,
                                         double scale) {
  for (WorkloadSpec s : Catalogue()) {
    if (s.name != name) continue;
    if (scale != 1.0) {
      s.accounts = std::max<uint64_t>(
          1000, static_cast<uint64_t>(static_cast<double>(s.accounts) * scale));
      s.warehouses = std::max<uint32_t>(
          2, static_cast<uint32_t>(static_cast<double>(s.warehouses) * scale));
      s.open_rate_tps = std::max(200.0, s.open_rate_tps * scale);
      s.pass_txns = std::max<size_t>(
          1500, static_cast<size_t>(static_cast<double>(s.pass_txns) * scale));
    }
    return s;
  }
  return std::nullopt;
}

std::unique_ptr<harmony::Workload> MakeWorkload(const WorkloadSpec& spec,
                                                uint64_t seed,
                                                bool procedures_only) {
  if (spec.tpcc) {
    harmony::TpccConfig cfg;
    cfg.warehouses = procedures_only ? 0 : spec.warehouses;
    if (procedures_only) cfg.items = 0;
    cfg.seed = seed;
    return std::make_unique<harmony::TpccWorkload>(cfg);
  }
  harmony::SmallbankConfig cfg;
  // The generator needs one account, so the procedures-only Setup loads
  // account 0's rows; ReopenDigest puts the recovered ones back.
  cfg.num_accounts = procedures_only ? 1 : spec.accounts;
  cfg.skew = procedures_only ? 0.0 : 0.6;
  cfg.seed = seed;
  return std::make_unique<harmony::SmallbankWorkload>(cfg);
}

HarmonyBC::Options FacadeOptions(const WorkloadSpec& spec,
                                 const std::string& dir, bool tracing) {
  HarmonyBC::Options o;
  o.dir = dir;
  o.protocol = harmony::DccKind::kHarmony;
  o.in_memory = spec.in_memory;
  o.disk = spec.in_memory ? harmony::DiskModel::RamDisk()
                          : harmony::DiskModel::Ssd();
  o.pool_pages = spec.pool_pages;
  o.threads = spec.threads;
  o.block_size = 100;
  o.max_block_delay_us = 2000;
  o.checkpoint_every = 10;
  o.block_compression = harmony::Compression::kHlz;
  o.enable_tracing = tracing;
  return o;
}

harmony::ReplicaOptions ReplicaOptionsFor(const WorkloadSpec& spec,
                                          const std::string& dir) {
  const HarmonyBC::Options f = FacadeOptions(spec, dir, false);
  harmony::ReplicaOptions ro;
  ro.dir = dir;
  ro.dcc = f.protocol;
  ro.in_memory = f.in_memory;
  ro.disk = f.disk;
  ro.pool_pages = f.pool_pages;
  ro.threads = f.threads;
  ro.checkpoint_every = f.checkpoint_every;
  ro.orderer_secret = f.orderer_secret;
  ro.block_compression = f.block_compression;
  return ro;
}

void RegisterProcedureStubs(const WorkloadSpec& spec, HarmonyBC* db) {
  for (uint32_t id : ProcedureIds(spec)) {
    db->RegisterProcedure(id, "stub", [](harmony::TxnContext&,
                                         const harmony::ProcArgs&) {
      return Status::Aborted("procedure stub was not replaced by Setup");
    });
  }
}

Result<std::unique_ptr<Instance>> Instance::Open(const WorkloadSpec& spec,
                                                 const std::string& dir,
                                                 uint64_t seed, bool tracing) {
  std::unique_ptr<Instance> inst(new Instance(spec));
  const auto t0 = std::chrono::steady_clock::now();
  auto db = HarmonyBC::Open(FacadeOptions(spec, dir, tracing));
  HARMONY_RETURN_NOT_OK(db.status());
  inst->db_ = std::move(*db);
  RegisterProcedureStubs(spec, inst->db_.get());
  HARMONY_RETURN_NOT_OK(MakeWorkload(spec, seed)->Setup(*inst->db_->replica()));
  auto tip = inst->db_->Recover();
  HARMONY_RETURN_NOT_OK(tip.status());
  if (spec.wire) {
    harmony::net::NetServerOptions so;
    so.reactor_threads = 1;
    inst->server_ =
        std::make_unique<harmony::net::NetServer>(inst->db_.get(), so);
    HARMONY_RETURN_NOT_OK(inst->server_->Start());
    harmony::net::NetClientOptions co;
    co.port = inst->server_->port();
    co.batch_max_txns = 32;
    co.batch_max_delay_us = 200;
    auto client = harmony::net::NetClient::Connect(co);
    HARMONY_RETURN_NOT_OK(client.status());
    inst->client_ = std::move(*client);
  } else {
    inst->session_ = inst->db_->OpenSession();
  }
  inst->setup_s_ = SecondsSince(t0);
  return inst;
}

Instance::~Instance() { Close(); }

void Instance::Submit(harmony::TxnRequest req, harmony::ReceiptCallback cb) {
  if (client_ != nullptr) {
    client_->Submit(std::move(req), std::move(cb));
  } else {
    session_->Submit(std::move(req), std::move(cb));
  }
}

Status Instance::Sync() {
  if (client_ != nullptr) {
    return client_->Sync(/*timeout_us=*/60'000'000)
               ? Status::OK()
               : Status::IOError("wire SYNC timed out or connection lost");
  }
  return db_->Sync();
}

void Instance::Close() {
  client_.reset();
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  session_.reset();
  db_.reset();
}

Result<harmony::Digest> ReopenDigest(const WorkloadSpec& spec,
                                     const std::string& dir,
                                     const std::string& scratch_dir,
                                     uint64_t seed) {
  namespace fs = std::filesystem;
  std::string open_dir = dir;
  if (spec.in_memory) {
    std::error_code ec;
    fs::remove_all(scratch_dir, ec);
    fs::create_directories(scratch_dir, ec);
    if (ec) return Status::IOError("mkdir " + scratch_dir);
    fs::copy_file(dir + "/replica.chain", scratch_dir + "/replica.chain", ec);
    if (ec) return Status::IOError("copy chain log: " + ec.message());
    open_dir = scratch_dir;
  }
  auto db = HarmonyBC::Open(FacadeOptions(spec, open_dir, false));
  HARMONY_RETURN_NOT_OK(db.status());
  RegisterProcedureStubs(spec, db->get());
  // In place, Setup must only register procedures: keep aside the rows its
  // minimal genesis overwrites (Smallbank's account 0) and restore them.
  harmony::StateBackend* backend = (*db)->replica()->backend();
  std::vector<std::pair<harmony::Key, std::string>> kept;
  if (!spec.in_memory && !spec.tpcc) {
    for (uint8_t table : {harmony::SmallbankWorkload::kSavings,
                          harmony::SmallbankWorkload::kChecking}) {
      const harmony::Key k = harmony::MakeKey(table, 0);
      std::string v;
      HARMONY_RETURN_NOT_OK(backend->Get(k, &v));
      kept.emplace_back(k, std::move(v));
    }
  }
  HARMONY_RETURN_NOT_OK(
      MakeWorkload(spec, seed, /*procedures_only=*/!spec.in_memory)
          ->Setup(*(*db)->replica()));
  for (const auto& [k, v] : kept) {
    HARMONY_RETURN_NOT_OK(backend->Put(k, v, nullptr));
  }
  auto tip = (*db)->Recover();
  HARMONY_RETURN_NOT_OK(tip.status());
  return (*db)->StateDigest();
}

}  // namespace perfbench
