// Session-pipeline benchmark.
//
//   pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//                    [--scale F] [--inject-lost-receipt]
//
// --trace 0 measures the end-to-end metrics on an untraced instance: rounds
// of a closed-loop capacity slice and an open-loop fixed-rate latency slice.
// --trace 1 measures the per-layer metrics: an untraced closed-loop
// baseline, a traced instance running the same rounds, and standalone
// passes of each layer over the same seeded stream. Every run ends with the
// correctness gate; if it fails the program exits non-zero and prints no
// result line. Data files live under .bench_build/work in the working
// directory. README.md describes every metric.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "loadgen.h"
#include "report.h"
#include "spans.h"
#include "storage/state_backend.h"
#include "sut.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using harmony::Status;

// Result-line metric names; BENCHMARK.json lists the same names.
// lat_p99_ms is printed by both modes but carried by the traced one: on a
// shared host its run-to-run spread is wider than any bound (README.md,
// "Noise"), so it is recorded without one.
const std::vector<std::string> kEndToEnd = {"tput_ktps", "lat_p50_ms",
                                            "setup_s", "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "lat_p99_ms",
    "ingest.submit_us_p50",       "ingest.submit_us_p99",
    "ingest.txns_per_block",      "ingest.deadline_seal_frac",
    "ingest.retry_frac",          "ingest.queue_wait_us_p50",
    "consensus.seal_us_per_block", "consensus.capacity_ktps",
    "dcc.simulate_us_per_block",  "dcc.commit_us_per_block",
    "dcc.cc_abort_frac",          "dcc.retries_per_commit",
    "dcc.dangerous_hit_frac",     "dcc.capacity_ktps",
    "replica.checkpoint_ms",      "replica.commit_lag_us_p50",
    "storage.read_wait_us_per_txn_modelled",
    "storage.dirty_evictions",    "storage.flushed_pages_per_checkpoint",
    "chain.append_us_per_block",  "chain.bytes_per_txn",
    "chain.compress_ratio",       "proc.cpu_ms_per_ktxn",
    "loadgen.max_lag_ms",         "trace.overhead_frac",
    "trace.tput_spread_frac"};

constexpr char kHost[] = "host-measured";
constexpr char kCounter[] = "program counter";
constexpr char kModelled[] = "modelled (DiskModel)";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  double scale = 1.0;
  bool inject_lost_receipt = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; i++) {
    const std::string k = argv[i];
    auto next = [&](const char** v) {
      if (i + 1 >= argc) return false;
      *v = argv[++i];
      return true;
    };
    const char* v = nullptr;
    if (k == "--inject-lost-receipt") {
      a->inject_lost_receipt = true;
    } else if (!next(&v)) {
      return false;
    } else if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--scale") {
      a->scale = std::atof(v);
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && a->scale > 0 &&
         (a->trace == 0 || a->trace == 1);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double HistP50(const harmony::obs::MetricsSnapshot& snap, const char* name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return h.Percentile(50);
  }
  return 0;
}

/// Every counter the per-layer metrics are differences of.
struct Counters {
  uint64_t sealed_blocks = 0, sealed_txns = 0, deadline_seals = 0,
           sealed_retry_txns = 0;
  uint64_t blocks = 0, simulated = 0, cc_aborted = 0, dangerous_hits = 0,
           sim_micros = 0, commit_micros = 0;
  uint64_t hits = 0, misses = 0, dirty_evictions = 0, flushed_pages = 0,
           flushes = 0;
  uint64_t page_reads = 0, page_writes = 0, fsyncs = 0;
  uint64_t chain_raw = 0, chain_disk = 0;

  static Counters Read(harmony::HarmonyBC* db) {
    Counters c;
    const harmony::IngestStats& in = db->ingest_stats();
    c.sealed_blocks = in.sealed_blocks.load();
    c.sealed_txns = in.sealed_txns.load();
    c.deadline_seals = in.deadline_seals.load();
    c.sealed_retry_txns = in.sealed_retry_txns.load();
    const harmony::ProtocolStats& ps = db->stats();
    c.blocks = ps.blocks.load();
    c.simulated = ps.simulated.load();
    c.cc_aborted = ps.cc_aborted.load();
    c.dangerous_hits = ps.dangerous_hits.load();
    c.sim_micros = ps.sim_micros.load();
    c.commit_micros = ps.commit_micros.load();
    harmony::StateBackend* be = db->replica()->backend();
    const harmony::BufferPoolStats bp = be->pool_stats();
    c.hits = bp.hits;
    c.misses = bp.misses;
    c.dirty_evictions = bp.dirty_evictions;
    c.flushed_pages = bp.flushed_pages;
    c.flushes = bp.flushes;
    if (auto* disk = dynamic_cast<harmony::DiskBackend*>(be)) {
      c.page_reads = disk->disk()->stats().page_reads.load();
      c.page_writes = disk->disk()->stats().page_writes.load();
      c.fsyncs = disk->disk()->stats().fsyncs.load();
    }
    c.chain_raw = db->replica()->block_store()->appended_raw_bytes();
    c.chain_disk = db->replica()->block_store()->appended_disk_bytes();
    return c;
  }

  Counters Minus(const Counters& o) const {
    Counters d;
    d.sealed_blocks = sealed_blocks - o.sealed_blocks;
    d.sealed_txns = sealed_txns - o.sealed_txns;
    d.deadline_seals = deadline_seals - o.deadline_seals;
    d.sealed_retry_txns = sealed_retry_txns - o.sealed_retry_txns;
    d.blocks = blocks - o.blocks;
    d.simulated = simulated - o.simulated;
    d.cc_aborted = cc_aborted - o.cc_aborted;
    d.dangerous_hits = dangerous_hits - o.dangerous_hits;
    d.sim_micros = sim_micros - o.sim_micros;
    d.commit_micros = commit_micros - o.commit_micros;
    d.hits = hits - o.hits;
    d.misses = misses - o.misses;
    d.dirty_evictions = dirty_evictions - o.dirty_evictions;
    d.flushed_pages = flushed_pages - o.flushed_pages;
    d.flushes = flushes - o.flushes;
    d.page_reads = page_reads - o.page_reads;
    d.page_writes = page_writes - o.page_writes;
    d.fsyncs = fsyncs - o.fsyncs;
    d.chain_raw = chain_raw - o.chain_raw;
    d.chain_disk = chain_disk - o.chain_disk;
    return d;
  }
};

/// One instance under load, with the ledger and generator that outlive it:
/// members are destroyed in reverse order, so the instance (whose shutdown
/// may still fire receipt callbacks) goes first.
struct Run {
  ReceiptLedger ledger;
  std::unique_ptr<harmony::Workload> gen;
  std::unique_ptr<LoadGen> loadgen;
  std::unique_ptr<Instance> inst;
  ~Run() {
    if (inst != nullptr) inst->Close();
  }
};

bool Fail(const std::string& why) {
  std::fprintf(stderr, "correctness gate: %s\n", why.c_str());
  return false;
}

/// Opens a fresh instance in `dir` and the generator that drives it.
bool OpenRun(const Args& a, const WorkloadSpec& spec, const std::string& dir,
             bool tracing, SpanLog* spans, Run* run) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  auto inst = Instance::Open(spec, dir, a.seed, tracing);
  if (!inst.ok()) {
    std::fprintf(stderr, "open %s: %s\n", dir.c_str(),
                 inst.status().ToString().c_str());
    return false;
  }
  run->inst = std::move(*inst);
  run->gen = MakeWorkload(spec, a.seed);
  run->loadgen = std::make_unique<LoadGen>(run->inst.get(), run->gen.get(),
                                           &run->ledger, spans);
  if (a.inject_lost_receipt) run->ledger.InjectLostReceipt(1);
  return true;
}

/// Opens and closes `n` more fresh instances in `dir`, appending each
/// set-up time to `times`.
bool TimeSetups(const Args& a, const WorkloadSpec& spec, const std::string& dir,
                int n, std::vector<double>* times) {
  for (int k = 0; k < n; k++) {
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    auto inst = Instance::Open(spec, dir, a.seed, false);
    if (!inst.ok()) {
      std::fprintf(stderr, "open %s: %s\n", dir.c_str(),
                   inst.status().ToString().c_str());
      return false;
    }
    times->push_back((*inst)->setup_seconds());
  }
  return true;
}

/// Gate part 1 (instance still open): every attempted transaction resolves
/// exactly once.
bool DrainAndCheckLedger(Run* run, SpanLog* spans) {
  const int64_t t0 = NowNanos();
  Status s = run->inst->Sync();
  if (spans != nullptr) {
    spans->AddOwn(Span{spans->NewId(), 0, 0, t0, NowNanos(), SpanName::kSync});
  }
  if (!s.ok()) return Fail("Sync: " + s.ToString());
  // Sync returns once every admitted transaction has resolved; the wire
  // client may still be reading the last receipts off the socket.
  run->ledger.WaitAllDelivered(/*timeout_us=*/5'000'000);
  const ReceiptLedger::Verdict v = run->ledger.Check();
  std::printf(
      "ledger: attempted %llu, lost %llu, duplicated %llu, unknown %llu, "
      "foreign %llu\n",
      static_cast<unsigned long long>(run->ledger.issued()),
      static_cast<unsigned long long>(v.lost),
      static_cast<unsigned long long>(v.duplicated),
      static_cast<unsigned long long>(v.unknown),
      static_cast<unsigned long long>(v.foreign));
  if (!v.ok()) return Fail("receipt ledger is not exactly-once");
  return true;
}

/// Gate part 2: the chain audits, and closing + reopening with Recover()
/// reproduces the state digest.
bool AuditAndReopen(const Args& a, const WorkloadSpec& spec,
                    const std::string& dir, Run* run) {
  harmony::HarmonyBC* db = run->inst->db();
  if (Status s = db->AuditChain(); !s.ok()) {
    return Fail("AuditChain: " + s.ToString());
  }
  auto before = db->StateDigest();
  if (!before.ok()) return Fail("StateDigest: " + before.status().ToString());
  run->inst->Close();
  auto after = ReopenDigest(spec, dir, dir + ".replay", a.seed);
  std::error_code ec;
  fs::remove_all(dir + ".replay", ec);
  if (!after.ok()) return Fail("reopen: " + after.status().ToString());
  if (*after != *before) {
    return Fail("recovered digest " + harmony::DigestToHex(*after) +
                " != pre-close digest " + harmony::DigestToHex(*before));
  }
  std::printf("gate: chain audit OK, reopen digest %s matches\n",
              harmony::DigestToHex(*after).substr(0, 16).c_str());
  return true;
}

// How --seconds is spent: kRounds rounds, each a closed-loop slice then an
// open-loop slice. Interleaving spreads both kinds of window over the whole
// run, so a host disturbance lasting a few seconds (CPU steal on a shared
// host is the usual one) reaches a minority of either, and the medians
// below step over it.
constexpr int kRounds = 4;
constexpr double kClosedShare = 0.4;
constexpr double kInitialWarmupS = 1.0;  ///< closed loop, before round 1
constexpr double kSliceWarmupShare = 0.1;  ///< of a round, per slice
constexpr size_t kTputWindowsPerSlice = 3;

/// Latency windows per open slice: as many as keep >= 1,250 samples in
/// each (so >= 12 lie beyond its p99), at most four.
size_t LatWindowsPerSlice(const Args& a, const WorkloadSpec& spec) {
  const double slice_s =
      a.seconds / kRounds * (1 - kClosedShare - kSliceWarmupShare);
  const double n = std::floor(spec.open_rate_tps * slice_s / 1250);
  return static_cast<size_t>(std::clamp(n, 1.0, 4.0));
}

constexpr int kSetupRuns = 5;  ///< set-ups timed per --trace 0 run

struct Rounds {
  std::vector<Phase> closed;
  std::vector<Phase> open;
};

Rounds RunRounds(const Args& a, const WorkloadSpec& spec, Run* run) {
  Rounds r;
  run->loadgen->RunClosed(kClosedInflight, kInitialWarmupS, kInitialWarmupS);
  const double round_s = a.seconds / kRounds;
  const double warm_s = round_s * kSliceWarmupShare;
  for (int i = 0; i < kRounds; i++) {
    r.closed.push_back(run->loadgen->RunClosed(
        kClosedInflight, round_s * kClosedShare, warm_s));
    r.open.push_back(run->loadgen->RunOpen(
        spec.open_rate_tps, round_s * (1 - kClosedShare), warm_s));
  }
  return r;
}

/// The closed-loop windows' throughputs, every slice's windows together.
std::vector<double> ThroughputWindows(const ReceiptLedger& ledger,
                                      const std::vector<Phase>& closed,
                                      size_t per_slice) {
  std::vector<double> out;
  for (const Phase& p : closed) {
    for (double t : WindowThroughputsKtps(ledger, p, per_slice)) {
      out.push_back(t);
    }
  }
  return out;
}

/// Spread of throughput within a run: IQR / median of its windows.
double ThroughputSpread(std::vector<double> w) {
  if (w.size() < 4) return 0;
  const double q1 = Percentile(&w, 25), q3 = Percentile(&w, 75);
  return Ratio(q3 - q1, Percentile(&w, 50));
}

void PrintWindows(const char* what, const std::vector<double>& v) {
  std::printf("%s:", what);
  for (double x : v) std::printf(" %.4g", x);
  std::printf("\n");
}

struct FsyncProbe {
  double p50_ms = 0;
  double p99_ms = 0;
};

/// Times 64 small write+fsync pairs in `dir`: the one host device cost on
/// the pipeline's path (the checkpoint manifest is fsync'd for real), so a
/// slow-device period shows up next to the figures it slows.
FsyncProbe ProbeFsync(const std::string& dir) {
  FsyncProbe out;
  const std::string path = dir + "/fsync_probe";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return out;
  std::vector<double> ms;
  for (int i = 0; i < 64; i++) {
    std::fputs("probe", f);
    std::fflush(f);
    const int64_t t0 = NowNanos();
    ::fsync(::fileno(f));
    ms.push_back(static_cast<double>(NowNanos() - t0) / 1e6);
  }
  std::fclose(f);
  std::remove(path.c_str());
  out.p50_ms = Percentile(&ms, 50);
  out.p99_ms = Percentile(&ms, 99);
  return out;
}

int RunEndToEnd(const Args& a, const WorkloadSpec& spec,
                const std::string& root) {
  Report rep;
  const std::string dir = root + "/run";
  std::vector<double> setups;
  double peak_rss = 0;
  Outcomes out;
  double tput = 0, p50 = 0, p99 = 0, lag = 0;
  size_t samples = 0, windows = 0;
  const FsyncProbe probe = ProbeFsync(root);
  {
    Run run;
    if (!OpenRun(a, spec, dir, false, nullptr, &run)) return 2;
    setups.push_back(run.inst->setup_seconds());
    const Rounds rounds = RunRounds(a, spec, &run);
    // The run's own peak: before the gate's reopen and the extra set-ups.
    peak_rss = PeakRssMb();
    if (!DrainAndCheckLedger(&run, nullptr)) return 3;
    std::vector<double> tw =
        ThroughputWindows(run.ledger, rounds.closed, kTputWindowsPerSlice);
    PrintWindows("throughput windows (ktxn/s)", tw);
    tput = Percentile(&tw, 50);
    std::vector<std::vector<double>> lw;
    for (const Phase& p : rounds.open) {
      for (auto& w : OpenLoopLatencyWindowsMs(run.ledger, p,
                                              LatWindowsPerSlice(a, spec))) {
        samples += w.size();
        lw.push_back(std::move(w));
      }
    }
    windows = lw.size();
    std::vector<double> w99;
    for (auto& w : lw) w99.push_back(Percentile(&w, 99));
    PrintWindows("latency window p99s (ms)", w99);
    p50 = MedianOfPercentiles(&lw, 50, 100);
    p99 = MedianOfPercentiles(&lw, 99, 100);
    for (const Phase& p : rounds.open) lag = std::max(lag, p.max_lag_ms);
    out = CountOutcomes(run.ledger);
    if (!AuditAndReopen(a, spec, dir, &run)) return 3;
  }
  if (!TimeSetups(a, spec, dir, kSetupRuns - 1, &setups)) return 2;
  const double setup_s = Percentile(&setups, 50);
  const std::string n = std::to_string(samples) + " samples in " +
                        std::to_string(windows) + " windows";
  rep.Add("tput_ktps", tput, "ktxn/s",
          std::string(kHost) + ", closed loop, " +
              std::to_string(kClosedInflight) +
              " in flight, median of " +
              std::to_string(kRounds * kTputWindowsPerSlice) + " windows");
  rep.Add("lat_p50_ms", p50, "ms",
          std::string(kHost) + ", open loop at " +
              std::to_string(static_cast<int>(spec.open_rate_tps)) +
              " txn/s, median of window p50s, " + n);
  rep.Add("lat_p99_ms", p99, "ms",
          std::string(kHost) + ", open loop, median of window p99s");
  rep.Add("host.fsync_ms_p50", probe.p50_ms, "ms",
          "environment probe: host fsync before the run");
  rep.Add("host.fsync_ms_p99", probe.p99_ms, "ms",
          "environment probe: host fsync before the run");
  rep.Add("failed_frac", Ratio(static_cast<double>(out.failed()),
                               static_cast<double>(out.attempted)),
          "frac", "rejected + dropped + never resolved over attempted");
  std::printf("outcomes: committed %llu, logic-aborted %llu, rejected %llu, "
              "dropped %llu, unresolved %llu\n",
              static_cast<unsigned long long>(out.committed),
              static_cast<unsigned long long>(out.logic_aborted),
              static_cast<unsigned long long>(out.rejected),
              static_cast<unsigned long long>(out.dropped),
              static_cast<unsigned long long>(out.unresolved));
  rep.Add("setup_s", setup_s, "s",
          std::string(kHost) + ", median of " + std::to_string(kSetupRuns));
  rep.Add("peak_rss_mb", peak_rss, "MiB",
          "getrusage ru_maxrss after the phases");
  rep.Add("loadgen.max_lag_ms", lag, "ms", "open-loop generator lateness");
  rep.PrintText();
  return rep.PrintJson(true, out.attempted, out.failed(), kEndToEnd) ? 0 : 4;
}

struct Baseline {
  double tput = 0;             ///< ktxn/s over the measured window
  double spread = 0;           ///< ThroughputSpread
  double cpu_ms_per_ktxn = 0;  ///< process CPU over the whole phase
  Outcomes outcomes;
};

/// An untraced closed-loop phase on a fresh instance of `spec`.
bool RunBaseline(const Args& a, const WorkloadSpec& spec,
                 const std::string& dir, Baseline* b) {
  Run run;
  if (!OpenRun(a, spec, dir, false, nullptr, &run)) return false;
  run.loadgen->RunClosed(kClosedInflight, kInitialWarmupS, kInitialWarmupS);
  // As long as the closed slices of a measured run together, with as many
  // windows.
  const double cpu0 = CpuSeconds();
  const Phase closed = run.loadgen->RunClosed(
      kClosedInflight, a.seconds * kClosedShare,
      a.seconds / kRounds * kSliceWarmupShare);
  const double cpu_s = CpuSeconds() - cpu0;
  if (!DrainAndCheckLedger(&run, nullptr)) return false;
  std::vector<double> w =
      ThroughputWindows(run.ledger, {closed}, kRounds * kTputWindowsPerSlice);
  b->spread = ThroughputSpread(w);
  b->tput = Percentile(&w, 50);
  Phase whole = closed;
  whole.warm_us = closed.start_us;
  const double executed_k =
      ThroughputKtps(run.ledger, whole) *
      static_cast<double>(whole.end_us - whole.start_us) / 1e6;
  b->cpu_ms_per_ktxn = Ratio(cpu_s * 1e3, executed_k);
  b->outcomes = CountOutcomes(run.ledger);
  return true;
}

int RunLayers(const Args& a, const WorkloadSpec& spec,
              const std::string& root) {
  Report rep;
  const bool disk = !spec.in_memory;

  // A: untraced closed-loop baseline on the workload's own path (tracing
  // overhead, CPU per receipt); on the wire workload also in-process, which
  // prices the wire.
  Baseline plain, inproc;
  if (!RunBaseline(a, spec, root + "/baseline", &plain)) return 3;
  if (spec.wire) {
    WorkloadSpec local = spec;
    local.wire = false;
    if (!RunBaseline(a, local, root + "/baseline", &inproc)) return 3;
  }
  uint64_t attempted = plain.outcomes.attempted + inproc.outcomes.attempted;
  uint64_t failed = plain.outcomes.failed() + inproc.outcomes.failed();

  // B: the traced instance, the same rounds, spans around every call.
  SpanLog spans;
  spans.Reserve(static_cast<size_t>(
      (plain.tput * 1e3 * kClosedShare + spec.open_rate_tps) * a.seconds *
      1.3));
  const std::string dir = root + "/traced";
  Counters d;
  Outcomes o;
  harmony::obs::MetricsSnapshot snap;
  double tput_traced = 0, sub_p50 = 0, sub_p99 = 0, rtt_p50 = 0, p99 = 0;
  double max_lag = 0, frames = 0, batch_frames = 0;
  {
    Run run;
    if (!OpenRun(a, spec, dir, true, &spans, &run)) return 2;
    const Counters c0 = Counters::Read(run.inst->db());
    const Rounds rounds = RunRounds(a, spec, &run);
    if (!DrainAndCheckLedger(&run, &spans)) return 3;
    d = Counters::Read(run.inst->db()).Minus(c0);
    snap = run.inst->db()->CollectMetrics();
    if (run.inst->server() != nullptr) {
      frames = static_cast<double>(run.inst->server()->stats().submits.load());
      batch_frames =
          static_cast<double>(run.inst->server()->stats().batch_submits.load());
    }
    std::vector<double> tw =
        ThroughputWindows(run.ledger, rounds.closed, kTputWindowsPerSlice);
    tput_traced = Percentile(&tw, 50);
    for (const Phase& p : rounds.open) {
      max_lag = std::max(max_lag, p.max_lag_ms);
    }
    std::vector<double> sub = spans.DurationsUs(SpanName::kSubmit);
    sub_p50 = Percentile(&sub, 50);
    sub_p99 = Percentile(&sub, 99);
    std::vector<std::vector<double>> lw;
    for (const Phase& p : rounds.open) {
      for (auto& w : OpenLoopLatencyWindowsMs(run.ledger, p,
                                              LatWindowsPerSlice(a, spec))) {
        lw.push_back(std::move(w));
      }
    }
    p99 = MedianOfPercentiles(&lw, 99, 100);
    std::vector<Phase> all = rounds.closed;
    all.insert(all.end(), rounds.open.begin(), rounds.open.end());
    std::vector<double> rtt = RoundTripsUs(run.ledger, all);
    rtt_p50 = Percentile(&rtt, 50);
    o = CountOutcomes(run.ledger);
    attempted += o.attempted;
    failed += o.failed();
    if (!AuditAndReopen(a, spec, dir, &run)) return 3;
  }

  // C: each layer alone over the same seeded stream.
  auto passes = RunLayerPasses(spec, a.seed, root + "/passes", &spans);
  if (!passes.ok()) {
    std::fprintf(stderr, "layer passes: %s\n",
                 passes.status().ToString().c_str());
    return 2;
  }
  const LayerPasses& lp = *passes;
  const std::string spans_path = root + "/spans.tsv";
  if (!spans.WriteTsv(spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    return 2;
  }

  const double executed = static_cast<double>(o.committed + o.logic_aborted);
  const harmony::DiskModel model = FacadeOptions(spec, dir, false).disk;
  const double overhead = 1.0 - Ratio(tput_traced, plain.tput);
  rep.Add("lat_p99_ms", p99, "ms",
          std::string(kHost) + ", traced run, open loop, median of window "
                               "p99s");
  rep.Add("ingest.submit_us_p50", sub_p50, "us", "span around Submit");
  rep.Add("ingest.submit_us_p99", sub_p99, "us", "span around Submit");
  rep.Add("ingest.txns_per_block",
          Ratio(static_cast<double>(d.sealed_txns),
                static_cast<double>(d.sealed_blocks)),
          "txn/block", kCounter);
  rep.Add("ingest.deadline_seal_frac",
          Ratio(static_cast<double>(d.deadline_seals),
                static_cast<double>(d.sealed_blocks)),
          "frac", kCounter);
  rep.Add("ingest.retry_frac",
          Ratio(static_cast<double>(d.sealed_retry_txns),
                static_cast<double>(d.sealed_txns)),
          "frac", kCounter);
  rep.Add("ingest.queue_wait_us_p50",
          HistP50(snap, harmony::obs::kHistQueueWait), "us",
          "txn.queue_wait_us histogram");
  rep.Add("consensus.seal_us_per_block", lp.seal_us_per_block, "us",
          "standalone SealBlock pass");
  rep.Add("consensus.capacity_ktps", Ratio(100e3, lp.seal_us_per_block),
          "ktxn/s", "standalone SealBlock pass");
  rep.Add("dcc.simulate_us_per_block",
          Ratio(static_cast<double>(d.sim_micros),
                static_cast<double>(d.blocks)),
          "us",
          std::string(kCounter) + (disk ? ", includes modelled reads" : ""));
  rep.Add("dcc.commit_us_per_block",
          Ratio(static_cast<double>(d.commit_micros),
                static_cast<double>(d.blocks)),
          "us", kCounter);
  rep.Add("dcc.cc_abort_frac",
          Ratio(static_cast<double>(d.cc_aborted),
                static_cast<double>(d.simulated)),
          "frac", kCounter);
  rep.Add("dcc.retries_per_commit",
          Ratio(static_cast<double>(o.committed_retries),
                static_cast<double>(o.committed)),
          "retries", "mean TxnReceipt::retries over commits");
  rep.Add("dcc.dangerous_hit_frac",
          Ratio(static_cast<double>(d.dangerous_hits),
                static_cast<double>(d.simulated)),
          "frac", kCounter);
  rep.Add("dcc.capacity_ktps",
          Ratio(static_cast<double>(lp.dcc.txns), lp.dcc.wall_s) / 1e3,
          "ktxn/s", "standalone fresh-Replica pass");
  rep.Add("replica.checkpoint_ms", lp.dcc.checkpoint_ms, "ms",
          "span around Replica::Checkpoint in the pass");
  rep.Add("replica.commit_lag_us_p50",
          HistP50(snap, harmony::obs::kHistCommitLag), "us",
          "txn.commit_lag_us histogram");
  if (disk) {
    rep.Add("storage.pool_hit_frac",
            Ratio(static_cast<double>(d.hits),
                  static_cast<double>(d.hits + d.misses)),
            "frac", kCounter);
    rep.Add("storage.page_reads_per_txn",
            Ratio(static_cast<double>(d.page_reads),
                  static_cast<double>(d.simulated)),
            "pages", kCounter);
    rep.Add("storage.page_writes_per_txn",
            Ratio(static_cast<double>(d.page_writes),
                  static_cast<double>(d.simulated)),
            "pages", kCounter);
    rep.Add("storage.fsyncs_per_block",
            Ratio(static_cast<double>(d.fsyncs),
                  static_cast<double>(d.blocks)),
            "fsyncs", kCounter);
  }
  rep.Add("storage.read_wait_us_per_txn_modelled",
          Ratio(static_cast<double>(d.page_reads) *
                    static_cast<double>(model.read_latency_us),
                static_cast<double>(d.simulated)),
          "us", kModelled);
  rep.Add("storage.dirty_evictions", static_cast<double>(d.dirty_evictions),
          "count", kCounter);
  rep.Add("storage.flushed_pages_per_checkpoint",
          Ratio(static_cast<double>(d.flushed_pages),
                static_cast<double>(d.flushes)),
          "pages", kCounter);
  rep.Add("chain.append_us_per_block", lp.chain_us_per_block, "us",
          "standalone Append pass, fsync modelled at " +
              std::to_string(model.fsync_latency_us) + " us");
  rep.Add("chain.bytes_per_txn",
          Ratio(static_cast<double>(d.chain_disk),
                static_cast<double>(d.sealed_txns)),
          "B/txn", kCounter);
  rep.Add("chain.compress_ratio",
          Ratio(static_cast<double>(d.chain_disk),
                static_cast<double>(d.chain_raw)),
          "ratio", "appended disk bytes / raw bytes");
  if (spec.wire) {
    rep.Add("net.txns_per_frame", Ratio(frames, batch_frames), "txn/frame",
            kCounter);
    rep.Add("net.overhead_us_p50",
            rtt_p50 - HistP50(snap, harmony::obs::kHistResolve), "us",
            "client round trip p50 - txn.resolve_us p50");
    rep.Add("net.flush_us_p50", HistP50(snap, harmony::obs::kHistWireFlush),
            "us", "net.flush_us histogram");
    rep.Add("net.wire_vs_inprocess", Ratio(plain.tput, inproc.tput), "ratio",
            "untraced closed-loop tput, wire / in-process session");
  }
  rep.Add("proc.cpu_ms_per_ktxn", plain.cpu_ms_per_ktxn, "ms/ktxn",
          "getrusage CPU over the untraced closed phase");
  rep.Add("loadgen.max_lag_ms", max_lag, "ms", "open-loop generator lateness");
  rep.Add("trace.overhead_frac", overhead, "frac",
          "1 - tput(traced) / tput(untraced)");
  rep.Add("trace.tput_spread_frac", plain.spread, "frac",
          "IQR / median of the untraced baseline's throughput windows");
  rep.PrintText();

  // The binding-layer ledger: each layer's cost per executed receipt (every
  // layer handles every attempt, retries included) next to the end-to-end
  // cost. The layer that costs most per receipt binds.
  const double attempts = Ratio(static_cast<double>(d.sealed_txns), executed);
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  struct Row {
    std::string layer;
    double us_per_receipt;
    std::string source;
    bool sub;  ///< a share of the row above it, not a layer of its own
  };
  std::vector<Row> rows = {
      {"ingest", lp.ingest_us_per_txn * attempts, "Mempool::Add + TakeBatch",
       false},
      {"consensus", lp.seal_us_per_block / 100 * attempts,
       "KafkaOrderer::SealBlock", false},
      {"chain", lp.chain_us_per_block / 100 * attempts,
       "BlockStore::Append, modelled fsync", false},
      {"replica", lp.dcc.us_per_txn() * attempts,
       "fresh Replica fed sealed blocks", false},
  };
  // The replica's shares: its serial commit step and its simulate step
  // (per 100-txn block of the pass), and on the disk engine the storage
  // engine's share, measured against the same pass on the memory engine.
  rows.push_back({"dcc.commit", lp.dcc.commit_us_per_block / 100 * attempts,
                  "ProtocolStats::commit_micros in the pass", true});
  rows.push_back({"dcc.simulate", lp.dcc.sim_us_per_block / 100 * attempts,
                  "ProtocolStats::sim_micros in the pass", true});
  if (lp.has_memory) {
    rows.push_back({"storage",
                    (lp.dcc.us_per_txn() - lp.dcc_memory.us_per_txn()) *
                        attempts,
                    "replica minus the same pass on the memory engine", true});
  }
  if (spec.wire) {
    rows.push_back({"net", Ratio(1e3, plain.tput) - Ratio(1e3, inproc.tput),
                    "1/tput(wire) - 1/tput(in-process)", false});
  }
  const double cpu_us = plain.cpu_ms_per_ktxn / static_cast<double>(cores);
  std::printf("\nlayer ledger (%s, %.3f attempts per executed receipt)\n",
              spec.name.c_str(), attempts);
  std::printf("  %-14s %12s %12s  %s\n", "layer", "us/receipt", "cap ktxn/s",
              "source");
  const Row* top = nullptr;
  for (const Row& r : rows) {
    std::printf("  %-14s %12.3f %12.2f  %s\n",
                ((r.sub ? "  " : "") + r.layer).c_str(), r.us_per_receipt,
                Ratio(1e3, r.us_per_receipt), r.source.c_str());
    if (!r.sub && (top == nullptr || r.us_per_receipt > top->us_per_receipt)) {
      top = &r;
    }
  }
  const double e2e_us = Ratio(1e3, plain.tput);
  std::printf("  %-14s %12.3f %12.2f  process CPU per receipt / %u cores\n",
              "cpu", cpu_us, Ratio(1e3, cpu_us), cores);
  std::printf("  %-14s %12.3f %12.2f  1 / tput_ktps, untraced\n", "e2e",
              e2e_us, plain.tput);
  // Name the binding layer: the costliest layer, or the processor when
  // the process keeps (nearly) every core busy. A binding replica is named
  // by its costliest share.
  std::string binding = top->layer;
  double binding_us = top->us_per_receipt;
  if (binding == "replica") {
    const Row* share = nullptr;
    for (const Row& r : rows) {
      if (!r.sub) continue;
      if (share == nullptr || r.us_per_receipt > share->us_per_receipt) {
        share = &r;
      }
    }
    binding = "replica/" + share->layer;
  }
  const double cpu_busy = Ratio(cpu_us, e2e_us);
  if (cpu_busy >= 0.9) {
    binding = "cpu (" + binding + " and the rest share " +
              std::to_string(cores) + " cores)";
  }
  std::printf("binding layer: %s (%.3f us/receipt; cores %.0f%% busy)\n",
              binding.c_str(), binding_us, cpu_busy * 100);
  // The standalone passes run apart from the pipeline; 10 % covers their
  // run-to-run noise.
  const bool consistent = e2e_us >= binding_us * 0.9;
  std::printf("ledger check: e2e %.3f us/receipt vs binding %.3f: %s\n",
              e2e_us, binding_us,
              consistent ? "consistent (e2e is no cheaper than its binding "
                           "layer)"
                         : "INCONSISTENT (e2e cheaper than its binding layer)");
  std::printf("tracing overhead %.4f vs run-to-run spread %.4f: %s\n",
              overhead, plain.spread,
              std::fabs(overhead) <= plain.spread
                  ? "unresolved (within the spread)"
                  : "resolved");
  std::printf("spans: %zu written to %s\n", spans.size(), spans_path.c_str());
  return rep.PrintJson(true, attempted, failed, kPerLayer) ? 0 : 4;
}
}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--scale F] [--inject-lost-receipt]\n",
                 argv[0]);
    return 2;
  }
  const std::optional<WorkloadSpec> spec = FindWorkload(a.workload, a.scale);
  if (!spec.has_value()) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  const std::string root = ".bench_build/work/" + spec->name;
  std::error_code ec;
  fs::create_directories(root, ec);
  std::printf("workload %s seed %llu seconds %.1f trace %d scale %g\n",
              spec->name.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace, a.scale);
  const int rc = a.trace == 0 ? RunEndToEnd(a, *spec, root)
                              : RunLayers(a, *spec, root);
  // Data files are only needed while the run lasts (spans.tsv stays).
  for (const char* sub : {"run", "baseline", "traced", "passes"}) {
    fs::remove_all(root + "/" + sub, ec);
  }
  return rc;
}
