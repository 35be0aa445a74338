// In-memory span log for the traced run: one record per call the benchmark
// makes into the system (name, start, end, parent span, request id), kept
// in memory and written out once the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : uint8_t {
  kClosedPhase,
  kOpenPhase,
  kSubmit,   ///< Session::Submit / NetClient::Submit
  kReceipt,  ///< the benchmark's receipt callback
  kSync,
  kCheckpoint,
  kPassIngest,  ///< Mempool::Add + TakeBatch over the stream
  kPassSeal,    ///< KafkaOrderer::SealBlock, one span per block
  kPassChain,   ///< BlockStore::Append, one span per block
  kPassSubmitBlock,  ///< Replica::SubmitBlock, one span per block
  kPassDrain,        ///< Replica::Drain after the last block
  kCount,
};

inline const char* SpanNameString(SpanName n) {
  static const char* const kNames[] = {
      "closed_phase", "open_phase",  "submit",       "receipt",
      "sync",         "checkpoint",  "pass.ingest",  "pass.seal",
      "pass.chain",   "pass.submit_block", "pass.drain"};
  return kNames[static_cast<size_t>(n)];
}

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t request = 0; ///< client_seq for per-request spans, else 0
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanName name = SpanName::kCount;
};

/// Span ids: request spans derive theirs from the request id (submit =
/// 2*seq, receipt = 2*seq + 1, so a receipt's parent is its submit); the
/// other spans draw from a counter above that range.
class SpanLog {
 public:
  static uint64_t SubmitId(uint64_t seq) { return 2 * seq; }
  static uint64_t ReceiptId(uint64_t seq) { return 2 * seq + 1; }

  void Reserve(size_t n) {
    gen_.reserve(n);
    std::lock_guard<std::mutex> lk(cb_mu_);
    cb_.reserve(n);
  }

  uint64_t NewId() { return next_id_++; }

  /// Generator-thread spans (submit, phases, passes): unsynchronized.
  void AddOwn(const Span& s) { gen_.push_back(s); }
  /// Receipt-callback spans: any thread.
  void AddShared(const Span& s) {
    std::lock_guard<std::mutex> lk(cb_mu_);
    cb_.push_back(s);
  }

  /// Durations in microseconds of every span with `name`.
  std::vector<double> DurationsUs(SpanName name) const {
    std::lock_guard<std::mutex> lk(cb_mu_);
    std::vector<double> out;
    for (const auto* v : {&gen_, &cb_}) {
      for (const Span& s : *v) {
        if (s.name == name) {
          out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
        }
      }
    }
    return out;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lk(cb_mu_);
    return gen_.size() + cb_.size();
  }

  /// One tab-separated line per span. Returns false on an I/O error.
  bool WriteTsv(const std::string& path) const {
    std::lock_guard<std::mutex> lk(cb_mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
    for (const auto* v : {&gen_, &cb_}) {
      for (const Span& s : *v) {
        std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     SpanNameString(s.name), static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  uint64_t next_id_ = uint64_t{1} << 62;
  std::vector<Span> gen_;
  mutable std::mutex cb_mu_;
  std::vector<Span> cb_;
};

}  // namespace perfbench
