// Standalone layer passes: each layer alone, fed the workload's seeded
// stream, so its cost per transaction and its capacity can be read without
// the rest of the pipeline in the way.
#pragma once

#include <cstdint>
#include <string>

#include "spans.h"
#include "sut.h"

namespace perfbench {

struct ReplicaPass {
  double wall_s = 0;         ///< first timed SubmitBlock -> Drain returned
  uint64_t txns = 0;         ///< transactions timed (each once, no retries)
  uint64_t blocks = 0;
  double sim_us_per_block = 0;     ///< ProtocolStats::sim_micros / blocks
  double commit_us_per_block = 0;  ///< ProtocolStats::commit_micros / blocks
  double checkpoint_ms = 0;  ///< explicit Replica::Checkpoint() at the end
  double us_per_txn() const {
    return txns == 0 ? 0 : wall_s * 1e6 / static_cast<double>(txns);
  }
};

struct LayerPasses {
  uint64_t txns = 0;  ///< stream length every pass sees
  double ingest_us_per_txn = 0;  ///< Mempool::Add + TakeBatch
  double seal_us_per_block = 0;  ///< KafkaOrderer::SealBlock
  double chain_us_per_block = 0; ///< BlockStore::Append (modelled fsync)
  ReplicaPass dcc;               ///< fresh Replica, the workload's engine
  /// Disk engine only: the same replica pass on the memory engine, so
  /// dcc.us_per_txn() - dcc_memory.us_per_txn() is the storage engine's
  /// share (buffer pool, page I/O, flushes, modelled device latency).
  bool has_memory = false;
  ReplicaPass dcc_memory;
};

/// Runs every pass under `dir` (created fresh). Spans go to `spans`.
harmony::Result<LayerPasses> RunLayerPasses(const WorkloadSpec& spec,
                                            uint64_t seed,
                                            const std::string& dir,
                                            SpanLog* spans);

}  // namespace perfbench
