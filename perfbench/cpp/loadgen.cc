#include "loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/clock.h"

namespace perfbench {

using harmony::NowMicros;
using harmony::ReceiptOutcome;

ReceiptLedger::ReceiptLedger() : chunks_(kMaxChunks) {}

uint64_t ReceiptLedger::Issue(uint64_t sched_us, uint64_t send_us) {
  const uint64_t seq = issued_.load(std::memory_order_relaxed) + 1;
  const uint64_t chunk = seq >> kChunkBits;
  if (chunk >= kMaxChunks) std::abort();  // > 268M txns in one run
  if (chunks_[chunk] == nullptr) {
    chunks_[chunk] = std::make_unique<Slot[]>(size_t{1} << kChunkBits);
  }
  Slot& s = slot(seq);
  s.sched_us = sched_us;
  s.send_us = send_us;
  issued_.store(seq, std::memory_order_release);
  return seq;
}

void ReceiptLedger::OnReceipt(const harmony::TxnReceipt& r, uint64_t now_us) {
  const uint64_t seq = r.client_seq;
  if (seq != 0 && seq == lose_seq_.load(std::memory_order_relaxed)) return;
  if (seq == 0 || seq > issued()) {
    unknown_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  uint64_t expected = 0;
  if (!client_id_.compare_exchange_strong(expected, r.client_id,
                                          std::memory_order_relaxed) &&
      expected != r.client_id) {
    foreign_.fetch_add(1, std::memory_order_relaxed);
  }
  Slot& s = slot(seq);
  if (s.resolves.fetch_add(1, std::memory_order_acq_rel) == 0) {
    s.done_us.store(now_us, std::memory_order_relaxed);
    s.retries.store(r.retries, std::memory_order_relaxed);
    s.outcome.store(static_cast<uint8_t>(r.outcome),
                    std::memory_order_relaxed);
    delivered_.fetch_add(1, std::memory_order_release);
  }
}

bool ReceiptLedger::WaitAllDelivered(uint64_t timeout_us) const {
  const uint64_t deadline = NowMicros() + timeout_us;
  while (delivered() < issued()) {
    if (NowMicros() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

ReceiptLedger::Verdict ReceiptLedger::Check() const {
  Verdict v;
  v.unknown = unknown_.load();
  v.foreign = foreign_.load();
  const uint64_t n = issued();
  for (uint64_t seq = 1; seq <= n; seq++) {
    const uint32_t k = slot(seq).resolves.load(std::memory_order_acquire);
    if (k == 0) v.lost++;
    if (k > 1) v.duplicated += k - 1;
  }
  return v;
}

void LoadGen::SubmitOne(uint64_t sched_us, uint64_t parent_span) {
  harmony::TxnRequest req = gen_->Next();
  const int64_t t0 = spans_ != nullptr ? NowNanos() : 0;
  const uint64_t seq = ledger_->Issue(sched_us, NowMicros());
  req.client_seq = seq;
  inflight_.fetch_add(1, std::memory_order_relaxed);
  ReceiptLedger* ledger = ledger_;
  SpanLog* spans = spans_;
  inst_->Submit(std::move(req), [this, ledger, spans](
                                    const harmony::TxnReceipt& r) {
    const int64_t c0 = spans != nullptr ? NowNanos() : 0;
    ledger->OnReceipt(r, NowMicros());
    const uint64_t left = inflight_.fetch_sub(1, std::memory_order_acq_rel) - 1;
    if (left <= wake_below_.load(std::memory_order_relaxed) &&
        waiting_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lk(mu_);
      cv_.notify_one();
    }
    if (spans != nullptr) {
      Span s;
      s.id = SpanLog::ReceiptId(r.client_seq);
      s.parent = SpanLog::SubmitId(r.client_seq);
      s.request = r.client_seq;
      s.start_ns = c0;
      s.end_ns = NowNanos();
      s.name = SpanName::kReceipt;
      spans->AddShared(s);
    }
  });
  if (spans_ != nullptr) {
    Span s;
    s.id = SpanLog::SubmitId(seq);
    s.parent = parent_span;
    s.request = seq;
    s.start_ns = t0;
    s.end_ns = NowNanos();
    s.name = SpanName::kSubmit;
    spans_->AddOwn(s);
  }
}

Phase LoadGen::RunClosed(size_t window, double seconds, double warmup_s) {
  Phase p;
  const uint64_t phase_span = spans_ != nullptr ? spans_->NewId() : 0;
  const int64_t span_t0 = NowNanos();
  p.start_us = NowMicros();
  p.warm_us = p.start_us + static_cast<uint64_t>(warmup_s * 1e6);
  const uint64_t end = p.start_us + static_cast<uint64_t>(seconds * 1e6);
  p.first_seq = ledger_->issued() + 1;
  const uint64_t refill_at = window - std::min<size_t>(window / 2, kRefill);
  wake_below_.store(refill_at, std::memory_order_relaxed);
  while (true) {
    const uint64_t now = NowMicros();
    if (now >= end) break;
    if (inflight_.load(std::memory_order_acquire) < window) {
      SubmitOne(now, phase_span);
      continue;
    }
    // Refill in bursts: one wake per kRefill receipts, not one per receipt.
    std::unique_lock<std::mutex> lk(mu_);
    waiting_.store(true, std::memory_order_release);
    cv_.wait_for(lk, std::chrono::milliseconds(1), [&] {
      return inflight_.load(std::memory_order_acquire) <= refill_at;
    });
    waiting_.store(false, std::memory_order_release);
  }
  p.end_us = NowMicros();
  p.last_seq = ledger_->issued();
  if (spans_ != nullptr) {
    spans_->AddOwn(Span{phase_span, 0, 0, span_t0, NowNanos(),
                        SpanName::kClosedPhase});
  }
  return p;
}

Phase LoadGen::RunOpen(double rate_tps, double seconds, double warmup_s) {
  Phase p;
  const uint64_t phase_span = spans_ != nullptr ? spans_->NewId() : 0;
  const int64_t span_t0 = NowNanos();
  p.start_us = NowMicros();
  p.warm_us = p.start_us + static_cast<uint64_t>(warmup_s * 1e6);
  p.end_us = p.start_us + static_cast<uint64_t>(seconds * 1e6);
  p.first_seq = ledger_->issued() + 1;
  const double interval_us = 1e6 / rate_tps;
  uint64_t max_lag = 0;
  for (uint64_t i = 0;; i++) {
    const uint64_t due =
        p.start_us + static_cast<uint64_t>(std::llround(i * interval_us));
    if (due >= p.end_us) break;
    uint64_t now = NowMicros();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::microseconds(due - now));
      now = NowMicros();
    }
    if (now > due) max_lag = std::max(max_lag, now - due);
    SubmitOne(due, phase_span);
  }
  p.last_seq = ledger_->issued();
  p.max_lag_ms = static_cast<double>(max_lag) / 1e3;
  if (spans_ != nullptr) {
    spans_->AddOwn(
        Span{phase_span, 0, 0, span_t0, NowNanos(), SpanName::kOpenPhase});
  }
  return p;
}

namespace {
bool Executed(const Slot& s) {
  const auto o = static_cast<ReceiptOutcome>(s.outcome.load());
  return s.resolves.load() > 0 && (o == ReceiptOutcome::kCommitted ||
                                   o == ReceiptOutcome::kLogicAborted);
}
}  // namespace

double ThroughputKtps(const ReceiptLedger& ledger, const Phase& p) {
  uint64_t n = 0;
  const uint64_t last = ledger.issued();
  for (uint64_t seq = 1; seq <= last; seq++) {
    const Slot& s = ledger.slot(seq);
    if (!Executed(s)) continue;
    const uint64_t d = s.done_us.load();
    if (d >= p.warm_us && d < p.end_us) n++;
  }
  const double secs = static_cast<double>(p.end_us - p.warm_us) / 1e6;
  return secs > 0 ? static_cast<double>(n) / secs / 1e3 : 0;
}

std::vector<double> WindowThroughputsKtps(const ReceiptLedger& ledger,
                                          const Phase& p, size_t windows) {
  std::vector<double> out;
  const uint64_t width = (p.end_us - p.warm_us) / windows;
  for (size_t i = 0; i < windows && width > 0; i++) {
    Phase sub = p;
    sub.warm_us = p.warm_us + i * width;
    sub.end_us = sub.warm_us + width;
    out.push_back(ThroughputKtps(ledger, sub));
  }
  return out;
}

std::vector<std::vector<double>> OpenLoopLatencyWindowsMs(
    const ReceiptLedger& ledger, const Phase& p, size_t windows) {
  std::vector<std::vector<double>> out(windows);
  const uint64_t width = (p.end_us - p.warm_us) / windows;
  if (width == 0) return out;
  for (uint64_t seq = p.first_seq; seq <= p.last_seq; seq++) {
    const Slot& s = ledger.slot(seq);
    if (s.sched_us < p.warm_us || !Executed(s)) continue;
    const uint64_t w = (s.sched_us - p.warm_us) / width;
    if (w >= windows) continue;
    out[w].push_back(static_cast<double>(s.done_us.load() - s.sched_us) / 1e3);
  }
  return out;
}

std::vector<double> RoundTripsUs(const ReceiptLedger& ledger,
                                 const std::vector<Phase>& phases) {
  std::vector<double> out;
  for (const Phase& p : phases) {
    for (uint64_t seq = p.first_seq; seq <= p.last_seq; seq++) {
      const Slot& s = ledger.slot(seq);
      if (!Executed(s)) continue;
      out.push_back(static_cast<double>(s.done_us.load() - s.send_us));
    }
  }
  return out;
}

Outcomes CountOutcomes(const ReceiptLedger& ledger) {
  Outcomes o;
  o.attempted = ledger.issued();
  for (uint64_t seq = 1; seq <= o.attempted; seq++) {
    const Slot& s = ledger.slot(seq);
    if (s.resolves.load() == 0) {
      o.unresolved++;
      continue;
    }
    switch (static_cast<ReceiptOutcome>(s.outcome.load())) {
      case ReceiptOutcome::kCommitted:
        o.committed++;
        o.committed_retries += s.retries.load();
        break;
      case ReceiptOutcome::kLogicAborted:
        o.logic_aborted++;
        break;
      case ReceiptOutcome::kDropped:
        o.dropped++;
        break;
      case ReceiptOutcome::kRejected:
        o.rejected++;
        break;
    }
  }
  return o;
}

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v->size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return (*v)[std::min(idx, v->size() - 1)];
}

double MedianOfPercentiles(std::vector<std::vector<double>>* slices, double p,
                           size_t min_samples) {
  std::vector<double> per;
  for (std::vector<double>& v : *slices) {
    if (v.size() >= min_samples) per.push_back(Percentile(&v, p));
  }
  return Percentile(&per, 50);
}

}  // namespace perfbench
