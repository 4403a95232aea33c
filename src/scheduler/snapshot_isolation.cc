#include "scheduler/snapshot_isolation.h"

#include <algorithm>

namespace nse {

SnapshotIsolationPolicy::SnapshotIsolationPolicy(size_t num_txns)
    : snapshot_(num_txns + 1), writes_(num_txns + 1) {}

uint64_t SnapshotIsolationPolicy::EnsureSnapshot(TxnId txn) {
  if (!snapshot_[txn].has_value()) snapshot_[txn] = commit_clock_;
  return *snapshot_[txn];
}

uint64_t SnapshotIsolationPolicy::OldestActiveSnapshot() const {
  uint64_t oldest = commit_clock_;
  for (const std::optional<uint64_t>& s : snapshot_) {
    if (s.has_value()) oldest = std::min(oldest, *s);
  }
  return oldest;
}

Result<AccessGrant> SnapshotIsolationPolicy::RequestAccess(
    TxnId txn, const TxnScript& script, size_t step) {
  NSE_RETURN_IF_ERROR(CheckStep(script, step));
  NSE_RETURN_IF_ERROR(CheckTxn(txn, snapshot_.size() - 1));
  WaitTicket ticket = MakeTicket();  // before the decision: a wait may follow
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t snapshot = EnsureSnapshot(txn);
  const AccessStep& access = script.steps[step];
  if (access.action == OpAction::kRead) {
    // Own pending write first: a transaction sees its own updates.
    for (const PendingWrite& pending : writes_[txn]) {
      if (pending.item == access.item) {
        return GrantedRead(txn, pending.value);
      }
    }
    Result<VersionView> view = store_.ReadCommittedAt(access.item, snapshot);
    NSE_RETURN_IF_ERROR(view.status());
    return GrantedRead(view->writer, view->value);
  }
  auto claim = write_claims_.find(access.item);
  if (claim != write_claims_.end() && claim->second != txn) {
    // First-updater-wins, phase one: an active transaction already claims
    // the item. Wait it out — if it commits, our retry fails validation;
    // if it aborts, the claim is ours.
    ++write_write_waits_;
    return WaitOn(ticket);
  }
  Result<VersionView> newest = store_.Peek(access.item, UINT64_MAX);
  NSE_RETURN_IF_ERROR(newest.status());
  if (newest->writer_ts > snapshot) {
    // First-committer-wins: a concurrent transaction already committed a
    // version of this item past our snapshot. Restart with a fresh one.
    ++validation_aborts_;
    return AbortSelf();
  }
  AccessGrant grant = Granted();  // seq drawn under mu_: embeds grant order
  write_claims_[access.item] = txn;
  const int64_t value = static_cast<int64_t>(grant.trace_seq);
  for (PendingWrite& pending : writes_[txn]) {
    if (pending.item == access.item) {
      pending.value = value;  // overwrite of its own buffered write
      return grant;
    }
  }
  writes_[txn].push_back(PendingWrite{access.item, value});
  return grant;
}

void SnapshotIsolationPolicy::ReleaseWriteSet(TxnId txn) {
  for (const PendingWrite& pending : writes_[txn]) {
    auto claim = write_claims_.find(pending.item);
    if (claim != write_claims_.end() && claim->second == txn) {
      write_claims_.erase(claim);
    }
  }
  writes_[txn].clear();
  writes_[txn].shrink_to_fit();
}

void SnapshotIsolationPolicy::DoCommit(TxnId txn) {
  if (!InPopulation(txn, snapshot_.size() - 1)) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (snapshot_[txn].has_value()) {
    if (!writes_[txn].empty()) {
      // One fresh commit stamp for the whole write set: the version chain
      // order *is* commit order, which is what makes the trace's per-item
      // write order a well-defined version order for the MVSR checker.
      const uint64_t commit_ts = ++commit_clock_;
      for (const PendingWrite& pending : writes_[txn]) {
        Status installed = store_.InstallVersion(
            pending.item, commit_ts, txn, pending.value, /*committed=*/true);
        NSE_CHECK_MSG(installed.ok(), "SI commit failed to install");
      }
    }
    ReleaseWriteSet(txn);
    snapshot_[txn].reset();
  }
  store_.TruncateBelow(OldestActiveSnapshot());
}

void SnapshotIsolationPolicy::DoAbort(TxnId txn) {
  if (!InPopulation(txn, snapshot_.size() - 1)) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!snapshot_[txn].has_value()) return;  // idempotent: already retracted
  ReleaseWriteSet(txn);
  snapshot_[txn].reset();
}

std::vector<TxnId> SnapshotIsolationPolicy::Blockers(TxnId txn,
                                                     const TxnScript& script,
                                                     size_t step) const {
  if (!InPopulation(txn, snapshot_.size() - 1)) return {};
  std::lock_guard<std::mutex> lock(mu_);
  if (step >= script.steps.size()) return {};
  const AccessStep& access = script.steps[step];
  if (access.action != OpAction::kWrite) return {};
  auto claim = write_claims_.find(access.item);
  if (claim != write_claims_.end() && claim->second != txn) {
    return {claim->second};
  }
  return {};
}

uint64_t SnapshotIsolationPolicy::validation_aborts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return validation_aborts_;
}

uint64_t SnapshotIsolationPolicy::write_write_waits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_write_waits_;
}

size_t SnapshotIsolationPolicy::active_snapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t active = 0;
  for (const std::optional<uint64_t>& s : snapshot_) {
    if (s.has_value()) ++active;
  }
  return active;
}

size_t SnapshotIsolationPolicy::pending_writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const std::vector<PendingWrite>& set : writes_) total += set.size();
  return total;
}

size_t SnapshotIsolationPolicy::held_write_claims() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_claims_.size();
}

}  // namespace nse
