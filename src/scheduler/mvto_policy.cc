#include "scheduler/mvto_policy.h"

#include <algorithm>

namespace nse {

MvtoPolicy::MvtoPolicy(size_t num_txns)
    : ts_(num_txns + 1), written_(num_txns + 1) {}

uint64_t MvtoPolicy::EnsureTimestamp(TxnId txn) {
  if (!ts_[txn].has_value()) ts_[txn] = ++clock_;
  return *ts_[txn];
}

uint64_t MvtoPolicy::OldestActiveStamp() const {
  uint64_t oldest = clock_;
  for (const std::optional<uint64_t>& t : ts_) {
    if (t.has_value()) oldest = std::min(oldest, *t);
  }
  return oldest;
}

Result<AccessGrant> MvtoPolicy::RequestAccess(TxnId txn,
                                              const TxnScript& script,
                                              size_t step) {
  NSE_RETURN_IF_ERROR(CheckStep(script, step));
  NSE_RETURN_IF_ERROR(CheckTxn(txn, ts_.size() - 1));
  WaitTicket ticket = MakeTicket();  // before the decision: a wait may follow
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t ts = EnsureTimestamp(txn);
  const AccessStep& access = script.steps[step];
  if (access.action == OpAction::kRead) {
    Result<VersionView> peek = store_.Peek(access.item, ts);
    NSE_RETURN_IF_ERROR(peek.status());
    if (!peek->committed && peek->writer != txn) {
      // The version this read must be served is still in flight. Waiting
      // out the writer is the recoverable alternative to a dirty read;
      // the writer never waits, so this edge can never close a cycle.
      ++read_waits_;
      return WaitOn(ticket);
    }
    Result<VersionView> view = store_.ReadAtTimestamp(access.item, ts);
    NSE_RETURN_IF_ERROR(view.status());
    return GrantedRead(view->writer, view->value);
  }
  Result<bool> barrier = store_.HasReadBarrier(access.item, ts);
  NSE_RETURN_IF_ERROR(barrier.status());
  if (*barrier) {
    // A transaction younger than ts already read a version older than ts:
    // installing this write now would invalidate that read. Restart with
    // a fresh (larger) stamp, like single-version TO. Note what is *not*
    // here: no newer-write conflict — a stale write simply lands as an
    // older version (the Thomas rule, structurally).
    ++rejections_;
    return AbortSelf();
  }
  AccessGrant grant = Granted();  // seq drawn under mu_: embeds grant order
  NSE_RETURN_IF_ERROR(store_.InstallVersion(
      access.item, ts, txn, static_cast<int64_t>(grant.trace_seq),
      /*committed=*/false));
  std::vector<ItemId>& footprint = written_[txn];
  if (std::find(footprint.begin(), footprint.end(), access.item) ==
      footprint.end()) {
    footprint.push_back(access.item);
  }
  return grant;
}

void MvtoPolicy::DoCommit(TxnId txn) {
  if (!InPopulation(txn, ts_.size() - 1)) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (ts_[txn].has_value()) {
    for (ItemId item : written_[txn]) {
      Status committed = store_.CommitVersion(item, *ts_[txn]);
      NSE_CHECK_MSG(committed.ok(), "commit lost an installed version");
    }
    written_[txn].clear();
    written_[txn].shrink_to_fit();
    ts_[txn].reset();
  }
  // Epoch advance: everything below the oldest still-active stamp is
  // unreachable by any current or future reader (restarts draw fresh,
  // larger stamps), so the chains fold down to one survivor per item once
  // the run quiesces.
  store_.TruncateBelow(OldestActiveStamp());
}

void MvtoPolicy::DoAbort(TxnId txn) {
  if (!InPopulation(txn, ts_.size() - 1)) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!ts_[txn].has_value()) return;  // idempotent: already retracted
  for (ItemId item : written_[txn]) {
    Status removed = store_.RemoveVersion(item, *ts_[txn]);
    NSE_CHECK_MSG(removed.ok(), "abort failed to retract a version");
  }
  written_[txn].clear();
  written_[txn].shrink_to_fit();
  ts_[txn].reset();
  // Read stamps the incarnation left behind are kept: retracting rts
  // could only admit writes the retracted reads no longer forbid, and
  // keeping them is merely conservative (at worst one extra restart).
}

std::vector<TxnId> MvtoPolicy::Blockers(TxnId txn, const TxnScript& script,
                                        size_t step) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (step >= script.steps.size()) return {};
  if (!InPopulation(txn, ts_.size() - 1) || !ts_[txn].has_value()) return {};
  const AccessStep& access = script.steps[step];
  if (access.action != OpAction::kRead) return {};
  Result<VersionView> peek = store_.Peek(access.item, *ts_[txn]);
  if (!peek.ok()) return {};
  if (!peek->committed && peek->writer != txn) {
    return {static_cast<TxnId>(peek->writer)};
  }
  return {};
}

uint64_t MvtoPolicy::rejections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejections_;
}

uint64_t MvtoPolicy::read_waits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return read_waits_;
}

size_t MvtoPolicy::active_stamp_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t active = 0;
  for (const std::optional<uint64_t>& t : ts_) {
    if (t.has_value()) ++active;
  }
  return active;
}

std::optional<uint64_t> MvtoPolicy::timestamp(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  return txn < ts_.size() ? ts_[txn] : std::nullopt;
}

}  // namespace nse
