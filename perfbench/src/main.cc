// nse_perfbench: CPU-bound benchmark of the library's two pipelines.
//
//   execution path: scripts -> RunEngine -> policy RequestAccess/Commit/
//                   Abort -> committed trace
//   audit path:     log bytes -> ReadHistoryFile -> StreamingChecker
//                   (-> CheckHistoryBatch)
//
// Usage:
//   nse_perfbench --workload <uniform_batch|uniform_stream> --seed <n>
//                 --seconds <s> --trace <0|1> --work-dir <dir> [--smoke]
//
// Every run drives both pipelines on inputs generated from the seed. The
// execution path runs strict 2PL, snapshot isolation and SGT at 1 and 4
// workers; the audit path reads a seeded lane log from a file in
// --work-dir. After a warm-up round, round after round of all seven units
// runs until --seconds have passed (at least three rounds); each rate is
// the work of all those rounds over their time. Every engine trace and
// every audit verdict
// is checked (linear time: trace export + streaming check, or the SI
// ledger; verdict agreement between the streaming and the batch checker).
// Peak memory is measured per unit in processes forked before the rounds.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs each engine
// configuration untraced and then traced in every round, prints the
// per-layer metrics, and writes the spans of the last traced round to
// <work-dir>/spans_<workload>.tsv. The last line
// of stdout is the result object; the line before it holds the run's
// metadata (host cores, compiler, build type, seed, input sizes).

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/streaming_checker.h"
#include "engine/engine.h"
#include "history/batch_check.h"
#include "history/history_io.h"
#include "history/trace_export.h"
#include "lane_log.h"
#include "scheduler/sgt_policy.h"
#include "scheduler/snapshot_isolation.h"
#include "scheduler/two_phase_locking.h"
#include "scheduler/workload.h"
#include "tracing_policy.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- statistics --------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Work done over the time it took, summed over samples.
struct Rate {
  double work = 0;
  double seconds = 0;

  void Add(double more_work, double more_seconds) {
    work += more_work;
    seconds += more_seconds;
  }
  double PerSecond() const { return seconds > 0 ? work / seconds : 0; }
};

/// Nearest-rank quantile; sorts in place.
double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

// ---- workloads ---------------------------------------------------------

enum class PolicyKind { kS2pl, kSi, kSgt };
constexpr PolicyKind kPolicies[] = {PolicyKind::kS2pl, PolicyKind::kSi,
                                    PolicyKind::kSgt};
constexpr size_t kThreadCounts[] = {1, 4};

const char* PolicyName(PolicyKind policy) {
  switch (policy) {
    case PolicyKind::kS2pl: return "s2pl";
    case PolicyKind::kSi: return "si";
    case PolicyKind::kSgt: return "sgt";
  }
  return "?";
}

// The engine declares a run stalled after stall_patience consecutive wait
// timeouts (200 us each by default) in which no worker made progress. The
// default, 64, is ~13 ms: shorter than the time a loaded shared host may
// leave a lock holder descheduled, so strict 2PL at 4 workers on the
// uniform mix then fails with "engine stalled" although no transaction is
// stuck (3 of 1080 runs with 8-10 copies of it on 4 cores; 0 of 1200 at
// this patience). 25'000 timeouts (>= 5 s) keeps the watchdog for real
// stalls; it is only consulted while a worker waits, so it does not change
// throughput.
constexpr uint64_t kStallPatience = 25'000;

std::unique_ptr<nse::SchedulerPolicy> MakePolicy(PolicyKind policy,
                                                 size_t num_txns) {
  switch (policy) {
    case PolicyKind::kS2pl:
      return std::make_unique<nse::StrictTwoPhaseLocking>();
    case PolicyKind::kSi:
      return std::make_unique<nse::SnapshotIsolationPolicy>(num_txns);
    case PolicyKind::kSgt:
      return std::make_unique<nse::SgtPolicy>(num_txns);
  }
  return nullptr;
}

struct WorkloadSpec {
  std::string name;
  /// Script generator settings; num_txns is taken from `txns`.
  nse::PartitionedWorkloadConfig scripts;
  size_t txns[3] = {0, 0, 0};  ///< per policy, indexed like kPolicies
  uint64_t log_ops = 0;         ///< reads and writes in the audit log
  uint64_t log_seed = 0;
  /// The audit path ends with CheckHistoryBatch (else parse + stream only).
  bool batch = false;
  /// Stream-only workloads: events of the log prefix on which streaming
  /// and batch verdicts are cross-checked once per run, untimed.
  size_t crosscheck_events = 0;
};

std::optional<WorkloadSpec> SpecFor(const std::string& name, uint64_t seed,
                                    bool smoke) {
  WorkloadSpec spec;
  spec.name = name;
  spec.scripts.items_per_partition = 2;
  spec.scripts.partitions_per_txn = 3;
  spec.scripts.cross_read_probability = 0.2;
  spec.scripts.seed = seed;
  spec.log_seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  // Both workloads run the uniform mix: 512 partitions, no hot spot. The
  // hot-spot mix (64 partitions, hot spot 0.6) is not run: strict 2PL at
  // 4 workers on it falls, in phases of several seconds, into a
  // deadlock-restart regime about 25x slower, so its figures are bimodal
  // from run to run; and SGT at 4k txns stalls on it.
  spec.scripts.num_partitions = 512;
  spec.scripts.hotspot_probability = 0.0;
  if (name == "uniform_batch") {
    spec.txns[0] = 30'000;
    spec.txns[1] = 10'000;
    spec.txns[2] = 2'000;
    spec.log_ops = 10'000;
    spec.batch = true;
  } else if (name == "uniform_stream") {
    // Strict 2PL on 100k transactions: at 4 workers its throughput falls
    // with run length (~165k txn/s at 30k transactions, ~50k at 100k), and
    // this size keeps that cost in the figure.
    spec.txns[0] = 100'000;
    spec.txns[1] = 10'000;
    spec.txns[2] = 2'000;
    spec.log_ops = 250'000;
    spec.crosscheck_events = 20'000;
  } else {
    return std::nullopt;
  }
  if (smoke) {
    for (size_t& txns : spec.txns) txns = std::min<size_t>(txns, 200);
    spec.log_ops = 2'000;
    if (spec.crosscheck_events > 0) spec.crosscheck_events = 1'000;
  }
  return spec;
}

/// Everything a run feeds the program, generated from the seed.
struct Inputs {
  nse::Database db;                      ///< script item catalog
  std::vector<nse::TxnScript> scripts[3];  ///< per policy
  uint64_t script_ops[3] = {0, 0, 0};
  nse::History log;  ///< the audit log (also written to the log file)
};

Inputs MakeInputs(const WorkloadSpec& spec, const std::string& log_path) {
  Inputs inputs;
  // Scripts are generated in chunks, each from its own derived seed, so
  // the generator's programs (which the benchmark never runs) stay small
  // instead of setting the process's peak memory.
  constexpr size_t kChunk = 1'000;
  const size_t total =
      *std::max_element(std::begin(spec.txns), std::end(spec.txns));
  std::vector<nse::TxnScript> scripts;
  for (size_t chunk = 0; scripts.size() < total; ++chunk) {
    nse::PartitionedWorkloadConfig config = spec.scripts;
    config.num_txns = std::min(kChunk, total - scripts.size());
    config.seed = spec.scripts.seed ^ (chunk * 0x9E3779B97F4A7C15ULL);
    nse::Result<nse::Workload> workload =
        nse::MakePartitionedWorkload(config);
    NSE_CHECK_MSG(workload.ok(), "%s", workload.status().ToString().c_str());
    std::move(workload->scripts.begin(), workload->scripts.end(),
              std::back_inserter(scripts));
    if (chunk == 0) inputs.db = std::move(workload->db);
  }
  for (size_t p = 0; p < 3; ++p) {
    inputs.scripts[p].assign(scripts.begin(), scripts.begin() + spec.txns[p]);
    for (const nse::TxnScript& script : inputs.scripts[p]) {
      inputs.script_ops[p] += script.steps.size();
    }
  }

  inputs.log = MakeLaneLog(spec.log_ops, spec.log_seed);
  const std::string text = nse::SerializeHistory(inputs.log);
  std::ofstream out(log_path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  NSE_CHECK_MSG(out.good(), "cannot write %s", log_path.c_str());
  return inputs;
}

// ---- failure accounting ------------------------------------------------

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Fail(uint64_t units, const std::string& why) {
    failed += units;
    std::cerr << "perfbench: FAILED: " << why << "\n";
  }
};

// ---- execution path ----------------------------------------------------

/// Linear-time output checks on one engine result; empty = correct.
std::string CheckEngineOutput(const Inputs& inputs, PolicyKind policy,
                              const nse::EngineResult& result) {
  const size_t p = static_cast<size_t>(policy);
  const std::vector<nse::TxnScript>& scripts = inputs.scripts[p];
  if (result.completed != scripts.size()) return "completed != scripts";
  if (result.total_ops + result.committed_skipped_ops != inputs.script_ops[p]) {
    return "op ledger does not balance";
  }
  if (policy == PolicyKind::kSi) {
    for (size_t i = 0; i < scripts.size(); ++i) {
      const bool read_only = std::none_of(
          scripts[i].steps.begin(), scripts[i].steps.end(),
          [](const nse::AccessStep& s) {
            return s.action == nse::OpAction::kWrite;
          });
      if (read_only && result.txn_restarts[i] != 0) {
        return "read-only transaction restarted";
      }
    }
    return "";
  }
  nse::StreamingReport report =
      nse::CheckHistoryStreaming(nse::HistoryFromEngine(inputs.db, result));
  if (!report.ok()) return "committed trace is not conflict serializable";
  return "";
}

struct ExecRun {
  double commits = 0;
  double wall_s = 0;
  std::vector<std::vector<Span>> spans;  ///< traced runs only
};

std::optional<ExecRun> RunExec(const Inputs& inputs, PolicyKind policy,
                               size_t threads, bool traced, Tally& tally) {
  const std::vector<nse::TxnScript>& scripts =
      inputs.scripts[static_cast<size_t>(policy)];
  std::unique_ptr<nse::SchedulerPolicy> inner =
      MakePolicy(policy, scripts.size());
  SpanRecorder recorder;
  std::optional<TracingPolicy> tracing;
  nse::SchedulerPolicy* driven = inner.get();
  if (traced) driven = &tracing.emplace(*inner, recorder);

  nse::EngineConfig config;
  config.threads = threads;
  config.stall_patience = kStallPatience;
  const auto start = Clock::now();
  nse::Result<nse::EngineResult> result =
      nse::RunEngine(*driven, scripts, config);
  const double wall_s = SecondsSince(start);

  tally.attempted += scripts.size();
  const std::string label =
      std::string(PolicyName(policy)) + " t" + std::to_string(threads);
  if (!result.ok()) {
    tally.Fail(scripts.size(), label + ": " + result.status().ToString());
    return std::nullopt;
  }
  const std::string wrong = CheckEngineOutput(inputs, policy, *result);
  if (!wrong.empty()) {
    tally.Fail(scripts.size(), label + ": " + wrong);
    return std::nullopt;
  }
  ExecRun run;
  run.wall_s = wall_s;
  run.commits = static_cast<double>(result->completed);
  if (traced) run.spans = recorder.TakeBuffers();
  return run;
}

/// Per-layer metrics of one traced engine run, rebuilt from its spans.
/// Keys carry no policy/thread suffix.
std::map<std::string, double> ExecLayerMetrics(const ExecRun& run,
                                               size_t threads) {
  std::vector<double> request_ns, commit_ns, wait_us, txn_us, commit_at;
  double busy_ns = 0;
  uint64_t waits = 0, aborts = 0;
  for (const std::vector<Span>& buffer : run.spans) {
    // A worker runs one transaction at a time, restarts included, so its
    // buffer reads as consecutive per-transaction segments.
    nse::TxnId current = 0;
    int64_t txn_start = 0;
    std::optional<int64_t> wait_since;
    for (const Span& span : buffer) {
      const double ns = static_cast<double>(span.end_ns - span.start_ns);
      busy_ns += ns;
      switch (span.kind) {
        case SpanKind::kRequest:
          request_ns.push_back(ns);
          if (span.txn != current) {
            current = span.txn;
            txn_start = span.start_ns;
            wait_since.reset();
          }
          if (wait_since) {
            wait_us.push_back((span.start_ns - *wait_since) / 1e3);
            wait_since.reset();
          }
          if (span.verdict == nse::AccessVerdict::kWait) {
            ++waits;
            wait_since = span.end_ns;
          }
          break;
        case SpanKind::kCommit:
          commit_ns.push_back(ns);
          commit_at.push_back(static_cast<double>(span.end_ns));
          txn_us.push_back((span.end_ns - txn_start) / 1e3);
          current = 0;
          break;
        case SpanKind::kAbort:
          ++aborts;
          break;
      }
    }
  }
  std::map<std::string, double> m;
  const double commits = std::max<double>(1, commit_ns.size());
  m["scheduler.request_ns.p50"] = Quantile(request_ns, 0.5);
  m["scheduler.request_ns.p99"] = Quantile(request_ns, 0.99);
  m["scheduler.commit_ns.p99"] = Quantile(commit_ns, 0.99);
  // Commit rate of the last quarter of commits over that of the first.
  std::sort(commit_at.begin(), commit_at.end());
  const size_t q = commit_at.size() / 4;
  double decay = 0;
  if (q >= 1) {
    const double first = commit_at[q] - commit_at[0];
    const double last =
        commit_at.back() - commit_at[commit_at.size() - 1 - q];
    decay = last > 0 ? first / last : 0;
  }
  m["scheduler.commit_rate_decay"] = decay;
  m["engine.txn_us.p50"] = Quantile(txn_us, 0.5);
  m["engine.txn_us.p99"] = Quantile(txn_us, 0.99);
  m["engine.outside_policy_share"] =
      1.0 - busy_ns / (run.wall_s * 1e9 * static_cast<double>(threads));
  if (threads > 1) {
    m["engine.wait_us.p99"] = Quantile(wait_us, 0.99);
    m["engine.waits_per_commit"] = waits / commits;
    m["engine.rollbacks_per_commit"] = aborts / commits;
  }
  return m;
}

void WriteSpans(const std::string& path,
                const std::map<std::string, std::vector<std::vector<Span>>>&
                    by_config) {
  std::ofstream out(path, std::ios::trunc);
  out << "config\tthread\tkind\trequest_id\tverdict\tstart_ns\tend_ns\n";
  static const char* kKinds[] = {"request", "commit", "abort"};
  static const char* kVerdicts[] = {"granted", "wait", "abort_self", "skip"};
  for (const auto& [config, buffers] : by_config) {
    for (size_t t = 0; t < buffers.size(); ++t) {
      for (const Span& span : buffers[t]) {
        out << config << '\t' << t << '\t'
            << kKinds[static_cast<int>(span.kind)] << '\t' << span.txn << '\t'
            << (span.kind == SpanKind::kRequest
                    ? kVerdicts[static_cast<int>(span.verdict)]
                    : "-")
            << '\t' << span.start_ns << '\t' << span.end_ns << '\n';
      }
    }
  }
  if (!out.good()) std::cerr << "perfbench: cannot write " << path << "\n";
}

// ---- audit path --------------------------------------------------------

/// Peak rise of the malloc heap in use while it is alive, sampled every
/// millisecond on a helper thread.
class HeapPeakSampler {
 public:
  HeapPeakSampler() : base_(InUse()), peak_(base_) {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        peak_ = std::max(peak_, InUse());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  HeapPeakSampler(const HeapPeakSampler&) = delete;
  HeapPeakSampler& operator=(const HeapPeakSampler&) = delete;
  ~HeapPeakSampler() { Stop(); }

  /// Stops sampling; returns the peak rise in MB.
  double Stop() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_release);
      thread_.join();
      peak_ = std::max(peak_, InUse());
    }
    return static_cast<double>(peak_ - base_) / (1 << 20);
  }

 private:
  static size_t InUse() {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  }

  const size_t base_;
  size_t peak_;  // written by the sampler thread until joined
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct AuditRun {
  double events = 0;
  double seconds = 0;
  std::map<std::string, double> layers;  ///< traced runs only
};

/// Empty when the streaming and batch verdicts agree and are clean.
std::string CompareVerdicts(const nse::StreamingReport& stream,
                            const nse::BatchReport& batch) {
  if (stream.full.ok != batch.full.ok) return "full-plane verdicts disagree";
  if (stream.planes.size() != batch.planes.size()) return "plane count";
  for (size_t p = 0; p < stream.planes.size(); ++p) {
    if (stream.planes[p].ok != batch.planes[p].ok) {
      return "plane " + std::to_string(p) + " verdicts disagree";
    }
  }
  if (stream.aborted_reads != batch.aborted_reads) {
    return "aborted reads disagree";
  }
  if (!stream.ok()) return "a clean-by-construction log was flagged";
  return "";
}

std::optional<AuditRun> RunAudit(const WorkloadSpec& spec,
                                 const std::string& log_path, bool traced,
                                 Tally& tally) {
  AuditRun run;
  std::vector<double> feed_ns;
  const auto start = Clock::now();
  nse::Result<nse::History> log = nse::ReadHistoryFile(log_path);
  const double parse_s = SecondsSince(start);
  if (!log.ok()) {
    tally.attempted += 1;
    tally.Fail(1, "audit: " + log.status().ToString());
    return std::nullopt;
  }
  const uint64_t events = log->events.size();
  tally.attempted += events;

  nse::StreamingOptions options;
  options.planes = HalfPlanes(log->db);
  nse::StreamingChecker checker(log->db, options);
  std::string wrong;
  if (traced) feed_ns.reserve(events);
  for (const nse::HistoryEvent& event : log->events) {
    const auto fed_at = traced ? Clock::now() : Clock::time_point();
    nse::Status fed = checker.Feed(event);
    if (traced) {
      feed_ns.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - fed_at)
              .count());
    }
    if (!fed.ok()) {
      wrong = "streaming checker rejected an event: " + fed.ToString();
      break;
    }
  }
  nse::StreamingReport report = checker.Finish();
  double batch_s = 0;
  double batch_growth_mb = 0;
  if (wrong.empty() && spec.batch) {
    std::optional<HeapPeakSampler> sampler;
    if (traced) sampler.emplace();
    const auto batch_start = Clock::now();
    nse::BatchReport batch = nse::CheckHistoryBatch(*log, options.planes);
    batch_s = SecondsSince(batch_start);
    if (sampler) batch_growth_mb = sampler->Stop();
    wrong = CompareVerdicts(report, batch);
  } else if (wrong.empty() && !report.ok()) {
    wrong = "a clean-by-construction log was flagged";
  }
  const double total_s = SecondsSince(start);
  if (!wrong.empty()) {
    tally.Fail(events, "audit: " + wrong);
    return std::nullopt;
  }
  run.events = static_cast<double>(events);
  run.seconds = total_s;
  if (traced) {
    const nse::StreamingStats& stats = report.stats;
    run.layers["history.parse_ns_per_event"] = parse_s * 1e9 / events;
    run.layers["streaming.feed_ns.p50"] = Quantile(feed_ns, 0.5);
    run.layers["streaming.feed_ns.p99"] = Quantile(feed_ns, 0.99);
    run.layers["streaming.evictions_per_commit"] =
        static_cast<double>(stats.evictions) /
        static_cast<double>(std::max<uint64_t>(1, stats.commits));
    run.layers["streaming.peak_retained"] =
        static_cast<double>(stats.peak_retained);
    if (spec.batch) {
      run.layers["batch.check_s"] = batch_s;
      run.layers["batch.rss_growth_mb"] = batch_growth_mb;
    }
  }
  return run;
}

/// Stream-only workloads: streaming vs batch on a log prefix, once per
/// run and untimed. Returns the batch layer's metrics.
std::map<std::string, double> CrossCheckPrefix(const WorkloadSpec& spec,
                                               const nse::History& log,
                                               Tally& tally) {
  nse::History prefix;
  prefix.db = log.db;
  const size_t n = std::min(spec.crosscheck_events, log.events.size());
  prefix.events.assign(log.events.begin(), log.events.begin() + n);
  tally.attempted += n;

  nse::StreamingOptions options;
  options.planes = HalfPlanes(prefix.db);
  nse::StreamingReport stream = nse::CheckHistoryStreaming(prefix, options);
  HeapPeakSampler sampler;
  const auto start = Clock::now();
  nse::BatchReport batch = nse::CheckHistoryBatch(prefix, options.planes);
  std::map<std::string, double> m;
  m["batch.check_s"] = SecondsSince(start);
  m["batch.rss_growth_mb"] = sampler.Stop();
  const std::string wrong = CompareVerdicts(stream, batch);
  if (!wrong.empty()) tally.Fail(n, "audit prefix cross-check: " + wrong);
  return m;
}

// ---- output ------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string ConfigName(PolicyKind policy, size_t threads) {
  return std::string(PolicyName(policy)) + ".t" + std::to_string(threads);
}

// ---- peak memory -------------------------------------------------------

/// Returns freed heap to the kernel and resets the kernel's peak-resident
/// mark of this process (VmHWM) to its current resident size.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  return clear.good();
}

/// Peak resident memory (VmHWM) since the last ResetPeakRss, in MB; 0 if
/// it cannot be read.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return 0;
}

/// Peak memory of one unit of work, in MB, measured in a child process
/// forked from the current state: the child resets the peak mark, runs
/// `unit` once and reads the mark. The figure is thus the unit's own
/// working set on top of what this process holds, not an earlier unit's,
/// and every measurement starts from the same state (in one process the
/// heap fragments unit after unit, and malloc_trim does not undo it).
/// nullopt if the child fails. Call only while this process has one
/// thread.
template <typename Unit>
std::optional<double> MeasurePeakMb(Unit&& unit) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    double mb = -1;
    if (ResetPeakRss()) {
      unit();
      mb = PeakRssMb();
    }
    const bool sent = write(fds[1], &mb, sizeof(mb)) == sizeof(mb);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double mb = -1;
  ssize_t n;
  while ((n = read(fds[0], &mb, sizeof(mb))) < 0 && errno == EINTR) {
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (n != sizeof(mb) || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      mb <= 0) {
    return std::nullopt;
  }
  return mb;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".";
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return std::nullopt;
    }
  }
  return args;
}

int Run(const Args& args) {
  std::optional<WorkloadSpec> spec =
      SpecFor(args.workload, args.seed, args.smoke);
  if (!spec) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const std::string log_path =
      args.work_dir + "/audit_" + spec->name + ".jsonl";

  // Set-up, repeated so its time is a median; the last inputs are used.
  // One copy of the inputs is alive at a time.
  const int setups = args.smoke ? 1 : 5;
  std::vector<double> setup_s;
  std::optional<Inputs> inputs;
  for (int i = 0; i < setups; ++i) {
    inputs.reset();
    const auto start = Clock::now();
    inputs = MakeInputs(*spec, log_path);
    setup_s.push_back(SecondsSince(start));
    std::cerr << "setup " << i + 1 << ": " << setup_s.back() << " s\n";
  }

  Tally tally;
  std::map<std::string, double> crosscheck_layers;
  if (spec->crosscheck_events > 0) {
    crosscheck_layers = CrossCheckPrefix(*spec, inputs->log, tally);
  }
  const uint64_t log_events = inputs->log.events.size();
  inputs->log = nse::History();  // the timed path reads the file

  // Peak memory, per unit, before any thread starts. Measured from the
  // set-up state, a unit's peak repeats to within ~1%, so once suffices.
  // The children's failures are counted by the rounds below, which repeat
  // their work.
  std::map<std::string, double> unit_peak_mb;  // by config, and "audit"
  for (PolicyKind policy : kPolicies) {
    for (size_t threads : kThreadCounts) {
      std::optional<double> mb = MeasurePeakMb([&] {
        Tally ignored;
        RunExec(*inputs, policy, threads, false, ignored);
      });
      if (!mb) {
        std::cerr << "perfbench: peak-memory measurement failed\n";
        return 1;
      }
      unit_peak_mb[ConfigName(policy, threads)] = *mb;
    }
  }
  std::optional<double> audit_peak_mb = MeasurePeakMb([&] {
    Tally ignored;
    RunAudit(*spec, log_path, false, ignored);
  });
  if (!audit_peak_mb) {
    std::cerr << "perfbench: peak-memory measurement failed\n";
    return 1;
  }
  double exec_peak_mb = 0;
  for (const auto& [unit, mb] : unit_peak_mb) {
    std::cerr << "peak rss of " << unit << ": " << mb << " MB\n";
    exec_peak_mb = std::max(exec_peak_mb, mb);
  }
  std::cerr << "peak rss of audit: " << *audit_peak_mb << " MB\n";
  const double peak_rss_mb = std::max(exec_peak_mb, *audit_peak_mb);

  std::map<std::string, Rate> tps;  // untraced
  std::map<std::string, Rate> traced_tps;
  Rate audit_rate;
  // Per-layer samples, one map per traced run, keyed by config ("audit"
  // for the audit path).
  std::map<std::string, std::vector<std::map<std::string, double>>> layers;
  std::map<std::string, std::vector<std::vector<Span>>> last_spans;

  // Round 0 warms caches and the allocator; its samples are checked and
  // counted but not kept. The clock starts after it.
  const int first_round = args.smoke ? 1 : 0;
  const int min_rounds = args.smoke ? 1 : 3;
  int rounds = first_round;
  auto start = Clock::now();
  for (int round = first_round;
       round <= min_rounds ||
       (!args.smoke && SecondsSince(start) < args.seconds);
       ++round) {
    if (round == 1) start = Clock::now();
    rounds = round;
    const bool keep = round > 0;
    for (PolicyKind policy : kPolicies) {
      for (size_t threads : kThreadCounts) {
        const std::string config = ConfigName(policy, threads);
        if (auto run = RunExec(*inputs, policy, threads, false, tally)) {
          if (keep) tps[config].Add(run->commits, run->wall_s);
          std::cerr << "round " << round << " " << config << ": "
                    << run->commits / run->wall_s << " txn/s in "
                    << run->wall_s << " s\n";
        }
        if (!args.trace) continue;
        auto run = RunExec(*inputs, policy, threads, true, tally);
        if (run && keep) {
          traced_tps[config].Add(run->commits, run->wall_s);
          layers[config].push_back(ExecLayerMetrics(*run, threads));
          last_spans[config] = std::move(run->spans);
        }
      }
    }
    if (auto run = RunAudit(*spec, log_path, args.trace, tally)) {
      std::cerr << "round " << round << " audit: "
                << run->events / run->seconds << " events/s\n";
      if (keep) audit_rate.Add(run->events, run->seconds);
      if (keep && args.trace) {
        // Stream-only workloads take the batch layer from the prefix
        // cross-check.
        std::map<std::string, double> audit = crosscheck_layers;
        for (const auto& [name, value] : run->layers) audit[name] = value;
        layers["audit"].push_back(std::move(audit));
      }
    }
  }

  std::vector<std::pair<std::string, Metric>> metrics;
  if (!args.trace) {
    for (PolicyKind policy : kPolicies) {
      for (size_t threads : kThreadCounts) {
        const std::string config = ConfigName(policy, threads);
        metrics.push_back({"commit_tps." + config,
                           Metric{tps[config].PerSecond(), "txn/s"}});
      }
    }
    metrics.push_back({"audit_events_per_s",
                       Metric{audit_rate.PerSecond(), "events/s"}});
    metrics.push_back({"peak_rss_mb", Metric{peak_rss_mb, "MB"}});
    metrics.push_back({"setup_s", Metric{Median(setup_s), "s"}});
  } else {
    static const std::map<std::string, std::string> kUnits = {
        {"scheduler.request_ns.p50", "ns"},
        {"scheduler.request_ns.p99", "ns"},
        {"scheduler.commit_ns.p99", "ns"},
        {"scheduler.commit_rate_decay", "ratio"},
        {"engine.wait_us.p99", "us"},
        {"engine.waits_per_commit", "ratio"},
        {"engine.rollbacks_per_commit", "ratio"},
        {"engine.txn_us.p50", "us"},
        {"engine.txn_us.p99", "us"},
        {"engine.outside_policy_share", "ratio"},
        {"history.parse_ns_per_event", "ns"},
        {"streaming.feed_ns.p50", "ns"},
        {"streaming.feed_ns.p99", "ns"},
        {"streaming.evictions_per_commit", "ratio"},
        {"streaming.peak_retained", "count"},
        {"batch.check_s", "s"},
        {"batch.rss_growth_mb", "MB"},
    };
    for (const auto& [scope, runs] : layers) {
      std::map<std::string, std::vector<double>> values;
      for (const auto& run : runs) {
        for (const auto& [name, value] : run) values[name].push_back(value);
      }
      for (const auto& [name, samples] : values) {
        const std::string full =
            scope == "audit" ? name : name + "." + scope;
        metrics.push_back({full, Metric{Median(samples), kUnits.at(name)}});
      }
    }
    for (const auto& [config, traced] : traced_tps) {
      metrics.push_back({"trace.overhead." + config,
                         Metric{tps[config].PerSecond() / traced.PerSecond(),
                                "ratio"}});
    }
    // Peak memory split by pipeline.
    metrics.push_back({"memory.exec_peak_mb", Metric{exec_peak_mb, "MB"}});
    metrics.push_back(
        {"memory.audit_peak_mb", Metric{*audit_peak_mb, "MB"}});
    WriteSpans(args.work_dir + "/spans_" + spec->name + ".tsv", last_spans);
  }

  std::ostringstream meta;
  meta << "{\"meta\": {\"workload\": \"" << spec->name
       << "\", \"seed\": " << args.seed
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": \"" << PERFBENCH_COMPILER
       << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
       << "\", \"smoke\": " << (args.smoke ? "true" : "false")
       << ", \"rounds\": " << rounds << ", \"partitions\": "
       << spec->scripts.num_partitions << ", \"hotspot_probability\": "
       << Number(spec->scripts.hotspot_probability) << ", \"txns\": {";
  for (size_t p = 0; p < 3; ++p) {
    meta << (p ? ", " : "") << "\"" << PolicyName(kPolicies[p])
         << "\": " << spec->txns[p];
  }
  meta << "}, \"log_ops\": " << spec->log_ops
       << ", \"log_events\": " << log_events
       << ", \"audit_batch\": " << (spec->batch ? "true" : "false")
       << ", \"crosscheck_events\": " << spec->crosscheck_events << "}}";
  std::cout << meta.str() << "\n";

  std::ostringstream out;
  out << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].first
        << "\": {\"value\": " << Number(metrics[i].second.value)
        << ", \"unit\": \"" << metrics[i].second.unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::optional<perfbench::Args> args;
  try {
    args = perfbench::ParseArgs(argc, argv);
  } catch (const std::exception&) {
    args.reset();  // a malformed number
  }
  if (!args || args->workload.empty()) {
    std::cerr << "usage: nse_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir> [--smoke]\n";
    return 2;
  }
  return perfbench::Run(*args);
}
