#include "tracing_policy.h"

#include <atomic>

namespace perfbench {
namespace {

std::atomic<uint64_t> next_recorder_id{1};

/// The calling thread's buffer, valid while `owner` names a live recorder.
struct LocalBuffer {
  uint64_t owner = 0;
  std::vector<Span>* spans = nullptr;
};
thread_local LocalBuffer local_buffer;

/// Set by DoCommit/DoAbort, whose inner Commit/Abort already poked the
/// inner hub; consumed by the Poke the base class makes right after, on
/// the same thread.
thread_local bool inner_already_poked = false;

}  // namespace

SpanRecorder::SpanRecorder()
    : id_(next_recorder_id.fetch_add(1)),
      origin_(std::chrono::steady_clock::now()) {}

void SpanRecorder::Record(const Span& span) {
  if (local_buffer.owner != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buffers_.back()->reserve(1 << 16);
    local_buffer = LocalBuffer{id_, buffers_.back().get()};
  }
  local_buffer.spans->push_back(span);
}

std::vector<std::vector<Span>> SpanRecorder::TakeBuffers() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<Span>> out;
  out.reserve(buffers_.size());
  for (auto& buffer : buffers_) out.push_back(std::move(*buffer));
  buffers_.clear();
  return out;
}

nse::Result<nse::AccessGrant> TracingPolicy::RequestAccess(
    nse::TxnId txn, const nse::TxnScript& script, size_t step) {
  const int64_t start = spans_.NowNs();
  nse::Result<nse::AccessGrant> grant = inner_.RequestAccess(txn, script, step);
  Span span;
  span.start_ns = start;
  span.end_ns = spans_.NowNs();
  span.txn = txn;
  span.kind = SpanKind::kRequest;
  if (grant.ok()) span.verdict = grant->verdict;
  spans_.Record(span);
  return grant;
}

void TracingPolicy::DoCommit(nse::TxnId txn) {
  const int64_t start = spans_.NowNs();
  inner_.Commit(txn);
  spans_.Record(Span{start, spans_.NowNs(), txn, SpanKind::kCommit,
                     nse::AccessVerdict::kGranted});
  inner_already_poked = true;
}

void TracingPolicy::DoAbort(nse::TxnId txn) {
  const int64_t start = spans_.NowNs();
  inner_.Abort(txn);
  spans_.Record(Span{start, spans_.NowNs(), txn, SpanKind::kAbort,
                     nse::AccessVerdict::kGranted});
  inner_already_poked = true;
}

void TracingPolicy::Poke() {
  if (inner_already_poked) {
    inner_already_poked = false;
    return;
  }
  inner_.Poke();
}

}  // namespace perfbench
