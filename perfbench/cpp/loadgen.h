// Load generation and the exactly-once receipt ledger.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "spans.h"
#include "sut.h"

namespace perfbench {

/// One submitted transaction as the client sees it.
struct Slot {
  uint64_t sched_us = 0;  ///< when it was due (open loop) or sent (closed)
  uint64_t send_us = 0;   ///< when the Submit call started
  std::atomic<uint64_t> done_us{0};
  std::atomic<uint32_t> resolves{0};
  std::atomic<uint32_t> retries{0};
  std::atomic<uint8_t> outcome{0};
};

/// Exactly-once ledger keyed by (client, seq): one client per instance, seq
/// 1..issued. Every receipt must land on an issued seq exactly once.
class ReceiptLedger {
 public:
  ReceiptLedger();
  ReceiptLedger(const ReceiptLedger&) = delete;
  ReceiptLedger& operator=(const ReceiptLedger&) = delete;

  /// Reserves the next seq (generator thread only).
  uint64_t Issue(uint64_t sched_us, uint64_t send_us);
  Slot& slot(uint64_t seq) { return chunks_[seq >> kChunkBits][seq & kMask]; }
  const Slot& slot(uint64_t seq) const {
    return chunks_[seq >> kChunkBits][seq & kMask];
  }

  /// Receipt callback body (any thread).
  void OnReceipt(const harmony::TxnReceipt& r, uint64_t now_us);

  /// Swallows the receipt of `seq` as if it were never delivered (the
  /// self-test's injected fault).
  void InjectLostReceipt(uint64_t seq) { lose_seq_ = seq; }

  uint64_t issued() const { return issued_.load(std::memory_order_acquire); }
  uint64_t delivered() const {
    return delivered_.load(std::memory_order_acquire);
  }
  /// Waits until every issued seq has a receipt (or the timeout passes).
  bool WaitAllDelivered(uint64_t timeout_us) const;

  struct Verdict {
    uint64_t lost = 0;        ///< issued, no receipt
    uint64_t duplicated = 0;  ///< more than one receipt
    uint64_t unknown = 0;     ///< receipt for a seq never issued
    uint64_t foreign = 0;     ///< receipt naming another client
    bool ok() const {
      return lost == 0 && duplicated == 0 && unknown == 0 && foreign == 0;
    }
  };
  Verdict Check() const;

 private:
  static constexpr uint64_t kChunkBits = 16;
  static constexpr uint64_t kMask = (uint64_t{1} << kChunkBits) - 1;
  static constexpr size_t kMaxChunks = 4096;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::atomic<uint64_t> issued_{0};
  std::atomic<uint64_t> delivered_{0};
  std::atomic<uint64_t> unknown_{0};
  std::atomic<uint64_t> foreign_{0};
  std::atomic<uint64_t> client_id_{0};  ///< first receipt's client id
  std::atomic<uint64_t> lose_seq_{0};
};

/// A measured phase: [start, end) is the submit window; [warm, end) is
/// what the metrics cover.
struct Phase {
  uint64_t start_us = 0;
  uint64_t warm_us = 0;
  uint64_t end_us = 0;
  uint64_t first_seq = 0;  ///< first seq issued in the phase
  uint64_t last_seq = 0;   ///< last seq issued in the phase
  double max_lag_ms = 0;   ///< open loop: latest a send ran behind schedule
};

/// Drives one instance from one generator thread.
class LoadGen {
 public:
  LoadGen(Instance* inst, harmony::Workload* gen, ReceiptLedger* ledger,
          SpanLog* spans)
      : inst_(inst), gen_(gen), ledger_(ledger), spans_(spans) {}

  /// Keeps `window` transactions in flight for `seconds`.
  Phase RunClosed(size_t window, double seconds, double warmup_s);
  /// Sends at `rate_tps` on a fixed schedule for `seconds`, whatever the
  /// system's progress; latency is timed from each send's due time.
  Phase RunOpen(double rate_tps, double seconds, double warmup_s);

 private:
  void SubmitOne(uint64_t sched_us, uint64_t parent_span);

  Instance* inst_;
  harmony::Workload* gen_;
  ReceiptLedger* ledger_;
  SpanLog* spans_;  ///< null in the untraced run
  std::atomic<uint64_t> inflight_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> waiting_{false};
  /// Receipt callbacks wake the closed-loop generator once the window has
  /// drained to this many in flight.
  std::atomic<uint64_t> wake_below_{0};
  static constexpr size_t kRefill = 32;
};

/// Executed receipts (committed + logic-aborted) resolved in [from, to),
/// per second, in thousands.
double ThroughputKtps(const ReceiptLedger& ledger, const Phase& p);

/// ThroughputKtps of each of `windows` equal slices of [warm, end).
std::vector<double> WindowThroughputsKtps(const ReceiptLedger& ledger,
                                          const Phase& p, size_t windows);

/// Due-time-to-receipt latencies (ms) of executed receipts whose sends
/// were due in [warm, end), split by due time into `windows` equal slices.
std::vector<std::vector<double>> OpenLoopLatencyWindowsMs(
    const ReceiptLedger& ledger, const Phase& p, size_t windows);

/// Send-to-receipt latencies (us) of every executed receipt in the phases.
std::vector<double> RoundTripsUs(const ReceiptLedger& ledger,
                                 const std::vector<Phase>& phases);

struct Outcomes {
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t logic_aborted = 0;
  uint64_t rejected = 0;
  uint64_t dropped = 0;
  uint64_t unresolved = 0;
  uint64_t committed_retries = 0;  ///< sum of TxnReceipt::retries
  uint64_t failed() const { return rejected + dropped + unresolved; }
};
Outcomes CountOutcomes(const ReceiptLedger& ledger);

/// Percentile (p in [0, 100]) of `v` by nearest rank; sorts `v`.
double Percentile(std::vector<double>* v, double p);

/// Median over the slices of each slice's percentile p (slices with fewer
/// than `min_samples` samples are skipped).
double MedianOfPercentiles(std::vector<std::vector<double>>* slices, double p,
                           size_t min_samples);

}  // namespace perfbench
