#include "scheduler/priority_locking.h"

#include <utility>

#include "common/logging.h"

namespace nse {

PriorityLockingPolicy::PriorityLockingPolicy(size_t num_txns)
    : stamp_(num_txns + 1) {}

uint64_t PriorityLockingPolicy::EnsureStamp(TxnId txn) {
  if (!stamp_[txn].has_value()) stamp_[txn] = ++clock_;
  return *stamp_[txn];
}

uint64_t PriorityLockingPolicy::StampOf(TxnId txn) const {
  NSE_CHECK_MSG(stamp_[txn].has_value(),
                "lock holder %u without a priority stamp", txn);
  return *stamp_[txn];
}

Result<AccessGrant> PriorityLockingPolicy::RequestAccess(
    TxnId txn, const TxnScript& script, size_t step) {
  NSE_RETURN_IF_ERROR(CheckStep(script, step));
  NSE_RETURN_IF_ERROR(CheckTxn(txn, stamp_.size() - 1));
  WaitTicket ticket = MakeTicket();
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t ts = EnsureStamp(txn);
  const AccessStep& access = script.steps[step];
  const LockMode mode =
      access.action == OpAction::kWrite ? LockMode::kExclusive
                                        : LockMode::kShared;
  if (locks_.TryAcquire(txn, access.item, mode)) {
    return Granted();
  }
  // The mutex keeps releases out of this window: the holders we compare
  // stamps against are exactly the holders that denied the grant.
  std::vector<TxnId> holders = locks_.Blockers(txn, access.item, mode);
  NSE_CHECK_MSG(!holders.empty(), "lock denied with no blocking holder");
  AccessVerdict verdict = OnConflict(txn, ts, holders);
  if (verdict == AccessVerdict::kWait) return WaitOn(ticket);
  return AbortSelf();
}

void PriorityLockingPolicy::DoCommit(TxnId txn) {
  if (!InPopulation(txn, stamp_.size() - 1)) return;
  std::lock_guard<std::mutex> lock(mu_);
  locks_.ReleaseAll(txn);
}

void PriorityLockingPolicy::DoAbort(TxnId txn) {
  // Wound or death: drop the locks but *keep* the stamp — the restarted
  // incarnation inherits its age, which is what rules out starvation.
  if (!InPopulation(txn, stamp_.size() - 1)) return;
  std::lock_guard<std::mutex> lock(mu_);
  locks_.ReleaseAll(txn);
}

std::vector<TxnId> PriorityLockingPolicy::Blockers(TxnId txn,
                                                   const TxnScript& script,
                                                   size_t step) const {
  if (step >= script.steps.size()) return {};
  if (!InPopulation(txn, stamp_.size() - 1)) return {};
  std::lock_guard<std::mutex> lock(mu_);
  const AccessStep& access = script.steps[step];
  const LockMode mode =
      access.action == OpAction::kWrite ? LockMode::kExclusive
                                        : LockMode::kShared;
  return locks_.Blockers(txn, access.item, mode);
}

std::optional<uint64_t> PriorityLockingPolicy::priority(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  return txn < stamp_.size() ? stamp_[txn] : std::nullopt;
}

AccessVerdict WoundWaitPolicy::OnConflict(TxnId, uint64_t ts,
                                          const std::vector<TxnId>& holders) {
  // Wound every younger holder in the way; wait for the rest. After the
  // driver drains the wounds, the surviving blockers are all older, so
  // every standing wait points young -> old — acyclic by the total
  // priority order.
  for (TxnId holder : holders) {
    if (StampOf(holder) > ts) {
      Condemn(holder);
      ++wounds_issued_;
    }
  }
  return AccessVerdict::kWait;
}

AccessVerdict WaitDiePolicy::OnConflict(TxnId, uint64_t ts,
                                        const std::vector<TxnId>& holders) {
  // Wait only when older than every conflicting holder (waits point
  // old -> young, acyclic); otherwise die and retry under the original
  // stamp.
  for (TxnId holder : holders) {
    if (StampOf(holder) < ts) {
      ++deaths_;
      return AccessVerdict::kAbortSelf;
    }
  }
  return AccessVerdict::kWait;
}

}  // namespace nse
