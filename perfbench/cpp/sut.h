// The system under test: one HarmonyBC instance opened through the public
// facade, with its workload's genesis loaded and (for the wire workload) an
// in-process NetServer plus one loopback NetClient in front of it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/harmonybc.h"
#include "net/client.h"
#include "net/server.h"
#include "workload/workload.h"

namespace perfbench {

/// One benchmark workload: the paper's transaction mix plus the engine and
/// load shape it runs under (README.md gives the reason for each).
struct WorkloadSpec {
  std::string name;
  bool tpcc = false;        ///< TPC-C; otherwise Smallbank (H-Store mix)
  bool in_memory = false;   ///< memory engine + RamDisk model
  bool wire = false;        ///< driven through NetServer/NetClient
  uint64_t accounts = 0;    ///< Smallbank customers (2 rows each)
  uint32_t warehouses = 0;  ///< TPC-C warehouses
  size_t pool_pages = 4096;
  size_t threads = 64;          ///< replica worker threads
  double open_rate_tps = 0;     ///< open-loop phase offered rate
  size_t pass_txns = 0;         ///< standalone layer-pass stream length
};

/// Closed-loop window: four 100-txn blocks in flight.
constexpr size_t kClosedInflight = 400;

/// Looks up a workload by name (empty when unknown). `scale` shrinks the
/// data set, offered rate and pass length together (1.0 = full size).
std::optional<WorkloadSpec> FindWorkload(const std::string& name,
                                         double scale);

/// The workload generator for `spec`, seeded with `seed`. With
/// `procedures_only`, Setup registers the stored procedures and loads the
/// smallest genesis the generator allows: none for TPC-C, account 0 for
/// Smallbank (the reopen path, where state comes from checkpoint + log).
std::unique_ptr<harmony::Workload> MakeWorkload(const WorkloadSpec& spec,
                                                uint64_t seed,
                                                bool procedures_only = false);

/// Facade options shared by every instance of a workload.
harmony::HarmonyBC::Options FacadeOptions(const WorkloadSpec& spec,
                                          const std::string& dir,
                                          bool tracing);

/// Replica options matching FacadeOptions (standalone DCC pass).
harmony::ReplicaOptions ReplicaOptionsFor(const WorkloadSpec& spec,
                                          const std::string& dir);

/// Admission needs each procedure id allowed through the facade; the real
/// procedures live in the workload's translation unit, so a stub is
/// registered first and Workload::Setup then overwrites it on the replica.
void RegisterProcedureStubs(const WorkloadSpec& spec, harmony::HarmonyBC* db);

class Instance {
 public:
  /// Opens `dir` (fresh): Open -> procedures -> genesis -> Recover, then the
  /// server and client on the wire workload. setup_seconds() times it all.
  static harmony::Result<std::unique_ptr<Instance>> Open(
      const WorkloadSpec& spec, const std::string& dir, uint64_t seed,
      bool tracing);

  ~Instance();
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// Submits through the workload's path (session or wire client). The
  /// callback fires exactly once per call.
  void Submit(harmony::TxnRequest req, harmony::ReceiptCallback cb);

  /// Seals and waits for everything submitted so far.
  harmony::Status Sync();

  /// Stops the client and server (wire) and closes the database.
  void Close();

  harmony::HarmonyBC* db() { return db_.get(); }
  harmony::net::NetServer* server() { return server_.get(); }
  harmony::net::NetClient* client() { return client_.get(); }
  const WorkloadSpec& spec() const { return spec_; }
  double setup_seconds() const { return setup_s_; }

 private:
  explicit Instance(const WorkloadSpec& spec) : spec_(spec) {}

  WorkloadSpec spec_;
  double setup_s_ = 0;
  std::unique_ptr<harmony::HarmonyBC> db_;
  std::unique_ptr<harmony::Session> session_;
  std::unique_ptr<harmony::net::NetServer> server_;
  std::unique_ptr<harmony::net::NetClient> client_;
};

/// Reopens a closed instance's directory with Recover() and returns the
/// recovered StateDigest (the correctness gate's reopen check). The disk
/// engine recovers in place (checkpoint + log tail); the memory engine keeps
/// no state on disk, so its chain log is copied into `scratch_dir` and
/// replayed from genesis there.
harmony::Result<harmony::Digest> ReopenDigest(const WorkloadSpec& spec,
                                              const std::string& dir,
                                              const std::string& scratch_dir,
                                              uint64_t seed);

}  // namespace perfbench
