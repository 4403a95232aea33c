// Benchmark-local tracing for the execution path: a SchedulerPolicy
// wrapper that times every call into the policy it wraps and records one
// span per call, in the style of DelayedReadScheduler around PW-2PL.
//
// Spans go to per-thread buffers (no shared lock on the hot path, so
// tracing does not serialize the engine's workers); the buffers are taken
// and merged once the run has quiesced. Every span carries the
// transaction id as its request id, which is what lets the derived engine
// metrics (wait time, transaction latency) be rebuilt from the spans.
//
// DrainCondemned is non-virtual on SchedulerPolicy, so condemnations
// queued on the wrapped policy would never reach the engine: wrap only
// policies that never Condemn (strict 2PL, snapshot isolation and SGT
// qualify; wound-wait and SGT-victim do not).

#ifndef PERFBENCH_TRACING_POLICY_H_
#define PERFBENCH_TRACING_POLICY_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "scheduler/scheduler.h"

namespace perfbench {

enum class SpanKind : uint8_t { kRequest, kCommit, kAbort };

/// One policy call. Times are nanoseconds since the recorder's origin.
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  nse::TxnId txn = 0;  ///< request id: the transaction the call served
  SpanKind kind = SpanKind::kRequest;
  nse::AccessVerdict verdict = nse::AccessVerdict::kGranted;  ///< requests
};

/// Per-thread span buffers for one traced run.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// Appends to the calling thread's buffer (registered on first use).
  void Record(const Span& span);

  /// The buffers, one per thread that recorded, each in time order. Call
  /// only after every recording thread has joined.
  std::vector<std::vector<Span>> TakeBuffers();

 private:
  const uint64_t id_;
  const std::chrono::steady_clock::time_point origin_;
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;  // guarded by mu_
};

/// Forwards RequestAccess, Commit, Abort, Blockers, veto_events and Poke
/// to `inner`, recording a span around each RequestAccess/Commit/Abort.
class TracingPolicy : public nse::SchedulerPolicy {
 public:
  TracingPolicy(nse::SchedulerPolicy& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  std::string name() const override { return inner_.name(); }

  nse::Result<nse::AccessGrant> RequestAccess(nse::TxnId txn,
                                              const nse::TxnScript& script,
                                              size_t step) override;

  std::vector<nse::TxnId> Blockers(nse::TxnId txn,
                                   const nse::TxnScript& script,
                                   size_t step) const override {
    return inner_.Blockers(txn, script, step);
  }

  uint64_t veto_events() const override { return inner_.veto_events(); }

  /// Wakes the inner policy's waiters (every wait ticket points at the
  /// inner hub). Skipped right after DoCommit/DoAbort, whose inner
  /// Commit/Abort already poked it.
  void Poke() override;

 protected:
  void DoCommit(nse::TxnId txn) override;
  void DoAbort(nse::TxnId txn) override;

 private:
  nse::SchedulerPolicy& inner_;
  SpanRecorder& spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_POLICY_H_
