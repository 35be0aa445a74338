#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <vector>

#include "chain/block_store.h"
#include "common/clock.h"
#include "consensus/orderer.h"
#include "ingest/mempool.h"
#include "replica/replica.h"

namespace perfbench {

using harmony::Block;
using harmony::Result;
using harmony::Status;
using harmony::TxnRequest;

namespace {

constexpr size_t kBlockSize = 100;

void AddSpan(SpanLog* spans, SpanName name, int64_t t0, int64_t t1) {
  spans->AddOwn(Span{spans->NewId(), 0, 0, t0, t1, name});
}

Status RunReplica(const WorkloadSpec& spec, uint64_t seed,
                  const harmony::ReplicaOptions& ro,
                  const std::vector<Block>& blocks, SpanLog* spans,
                  ReplicaPass* out) {
  harmony::Replica replica(ro);
  HARMONY_RETURN_NOT_OK(replica.Open());
  HARMONY_RETURN_NOT_OK(MakeWorkload(spec, seed)->Setup(replica));
  // Genesis durable first, as HarmonyBC::Recover does on a fresh chain.
  HARMONY_RETURN_NOT_OK(replica.Checkpoint());
  // The first fifth of the stream (whole checkpoint periods) warms the
  // pool and is not timed, as the pipeline's warm-up is not.
  const size_t warm = blocks.size() / 5 / 10 * 10;
  for (size_t i = 0; i < warm; i++) {
    HARMONY_RETURN_NOT_OK(replica.SubmitBlock(blocks[i]));
  }
  HARMONY_RETURN_NOT_OK(replica.Drain());
  const harmony::ProtocolStats& st = replica.protocol_stats();
  const uint64_t blocks0 = st.blocks.load();
  const uint64_t sim0 = st.sim_micros.load();
  const uint64_t commit0 = st.commit_micros.load();

  const int64_t t0 = NowNanos();
  for (size_t i = warm; i < blocks.size(); i++) {
    const int64_t s0 = NowNanos();
    HARMONY_RETURN_NOT_OK(replica.SubmitBlock(blocks[i]));
    AddSpan(spans, SpanName::kPassSubmitBlock, s0, NowNanos());
  }
  const int64_t d0 = NowNanos();
  HARMONY_RETURN_NOT_OK(replica.Drain());
  const int64_t t1 = NowNanos();
  AddSpan(spans, SpanName::kPassDrain, d0, t1);

  // The stream ends mid checkpoint period, so this flushes real work.
  const int64_t c0 = NowNanos();
  HARMONY_RETURN_NOT_OK(replica.Checkpoint());
  const int64_t c1 = NowNanos();
  AddSpan(spans, SpanName::kCheckpoint, c0, c1);

  out->wall_s = static_cast<double>(t1 - t0) / 1e9;
  out->blocks = st.blocks.load() - blocks0;
  out->txns = 0;
  for (size_t i = warm; i < blocks.size(); i++) {
    out->txns += blocks[i].batch.txns.size();
  }
  if (out->blocks > 0) {
    out->sim_us_per_block = static_cast<double>(st.sim_micros.load() - sim0) /
                            static_cast<double>(out->blocks);
    out->commit_us_per_block =
        static_cast<double>(st.commit_micros.load() - commit0) /
        static_cast<double>(out->blocks);
  }
  out->checkpoint_ms = static_cast<double>(c1 - c0) / 1e6;
  return Status::OK();
}

}  // namespace

Result<LayerPasses> RunLayerPasses(const WorkloadSpec& spec, uint64_t seed,
                                   const std::string& dir, SpanLog* spans) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("mkdir " + dir);

  // The seeded stream, cut to end half-way through a checkpoint period.
  size_t blocks_n = spec.pass_txns / kBlockSize;
  blocks_n = blocks_n / 10 * 10 + 5;
  std::vector<TxnRequest> stream;
  stream.reserve(blocks_n * kBlockSize);
  auto gen = MakeWorkload(spec, seed);
  for (size_t i = 0; i < blocks_n * kBlockSize; i++) {
    TxnRequest t = gen->Next();
    t.client_id = 1;
    t.client_seq = i + 1;
    stream.push_back(std::move(t));
  }
  LayerPasses out;
  out.txns = stream.size();

  // Ingest: admission's queue alone, filled and drained in block-sized cuts.
  {
    harmony::Mempool pool{harmony::MempoolOptions{}};
    std::vector<TxnRequest> copy = stream;
    std::vector<TxnRequest> batch;
    const int64_t t0 = NowNanos();
    constexpr size_t kChunk = 10000;
    for (size_t base = 0; base < copy.size(); base += kChunk) {
      const size_t end = std::min(copy.size(), base + kChunk);
      for (size_t i = base; i < end; i++) {
        HARMONY_RETURN_NOT_OK(pool.Add(std::move(copy[i])));
      }
      while (!pool.empty()) {
        batch.clear();
        pool.TakeBatch(kBlockSize, &batch);
      }
    }
    const int64_t t1 = NowNanos();
    AddSpan(spans, SpanName::kPassIngest, t0, t1);
    out.ingest_us_per_txn =
        static_cast<double>(t1 - t0) / 1e3 / static_cast<double>(out.txns);
  }

  // Consensus: seal the stream into hash-chained signed blocks.
  std::vector<Block> blocks;
  {
    const harmony::HarmonyBC::Options fo = FacadeOptions(spec, dir, false);
    harmony::KafkaOrderer orderer(fo.orderer_secret, harmony::NetworkModel{});
    blocks.reserve(blocks_n);
    double total_us = 0;
    for (size_t b = 0; b < blocks_n; b++) {
      std::vector<TxnRequest> txns(
          stream.begin() + static_cast<std::ptrdiff_t>(b * kBlockSize),
          stream.begin() + static_cast<std::ptrdiff_t>((b + 1) * kBlockSize));
      const int64_t t0 = NowNanos();
      blocks.push_back(
          orderer.SealBlock(std::move(txns), harmony::NowMicros()));
      const int64_t t1 = NowNanos();
      AddSpan(spans, SpanName::kPassSeal, t0, t1);
      total_us += static_cast<double>(t1 - t0) / 1e3;
    }
    out.seal_us_per_block = total_us / static_cast<double>(blocks_n);
  }

  // Chain: append every block with the workload's modelled fsync latency.
  {
    const harmony::HarmonyBC::Options fo = FacadeOptions(spec, dir, false);
    harmony::BlockStore store(dir + "/pass.chain", fo.disk.fsync_latency_us,
                              fo.block_compression);
    HARMONY_RETURN_NOT_OK(store.Open());
    double total_us = 0;
    for (const Block& b : blocks) {
      const int64_t t0 = NowNanos();
      HARMONY_RETURN_NOT_OK(store.Append(b));
      const int64_t t1 = NowNanos();
      AddSpan(spans, SpanName::kPassChain, t0, t1);
      total_us += static_cast<double>(t1 - t0) / 1e3;
    }
    out.chain_us_per_block = total_us / static_cast<double>(blocks_n);
  }

  // DCC: a fresh replica of the workload's engine fed the sealed blocks.
  {
    harmony::ReplicaOptions ro = ReplicaOptionsFor(spec, dir + "/dcc");
    fs::create_directories(ro.dir, ec);
    HARMONY_RETURN_NOT_OK(RunReplica(spec, seed, ro, blocks, spans, &out.dcc));
  }
  if (!spec.in_memory) {
    WorkloadSpec mem = spec;
    mem.in_memory = true;
    harmony::ReplicaOptions ro = ReplicaOptionsFor(mem, dir + "/dcc_memory");
    fs::create_directories(ro.dir, ec);
    HARMONY_RETURN_NOT_OK(
        RunReplica(mem, seed, ro, blocks, spans, &out.dcc_memory));
    out.has_memory = true;
  }
  return out;
}

}  // namespace perfbench
