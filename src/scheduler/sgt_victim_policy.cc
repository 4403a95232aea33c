#include "scheduler/sgt_victim_policy.h"

#include <utility>

#include "common/logging.h"

namespace nse {

SgtVictimPolicy::SgtVictimPolicy(size_t num_txns)
    : SgtVictimPolicy(num_txns, Options()) {}

SgtVictimPolicy::SgtVictimPolicy(size_t num_txns, Options options)
    : SgtPolicy(num_txns, options) {}

Result<AccessGrant> SgtVictimPolicy::RequestAccess(TxnId txn,
                                                   const TxnScript& script,
                                                   size_t step) {
  NSE_RETURN_IF_ERROR(CheckStep(script, step));
  NSE_RETURN_IF_ERROR(CheckTxn(txn, committed_.size() - 1));
  WaitTicket ticket = MakeTicket();
  std::lock_guard<std::mutex> lock(mu_);
  // Hot path is the baseline's short-circuiting probe: admissions and
  // below-threshold waits (the overwhelming majority of calls, re-probed
  // every blocked round) never enumerate the vetoing edges.
  VetoProbe probe = ProbeAccess(txn, script, step);
  if (!probe.vetoed) {
    consecutive_vetoes_[txn] = 0;
    AdmitAccess(txn, script, step);
    return Granted();
  }
  ++vetoes_;
  // Escalation timing is the baseline's, unchanged: wait while some
  // vetoing edge has an active source (its abort would retract the edge)
  // and the veto streak is below the threshold; escalate on committed-only
  // sources at once. What changes is the *resolution*: instead of always
  // restarting the requester, trace the would-be cycles and sacrifice the
  // cheapest active participant.
  if (probe.active_blocker &&
      ++consecutive_vetoes_[txn] < options_.max_consecutive_vetoes) {
    return WaitOn(ticket);
  }
  consecutive_vetoes_[txn] = 0;
  // Escalation (cold): enumerate the vetoing edges and pick the victim
  // across every would-be cycle — (score, txn id) lexicographic under the
  // configured cost rule. The requester heads each witness path, so the
  // candidate set is never empty; committed participants are immovable,
  // but the requester itself is always active.
  const bool predictive =
      options_.victim_cost == Options::VictimCost::kPredictive;
  // Every other cycle participant has admitted at least one access (it has
  // conflict edges), so its script length is on record; the requester may
  // be vetoed on its very first step, so seed its entry from the script in
  // hand.
  if (predictive) script_total_[txn] = script.steps.size();
  auto cost_of = [&](TxnId node) -> uint64_t {
    if (!predictive) return steps_recorded_[node];
    const uint64_t total = script_total_[node];
    const uint64_t done = steps_recorded_[node];
    const uint64_t remaining = total > done ? total - done : 0;
    return remaining + options_.victim_backoff * restart_count_[node];
  };
  std::vector<TxnId> vetoing = VetoingPredecessors(txn, script, step);
  NSE_CHECK_MSG(!vetoing.empty(), "probe vetoed but no vetoing edge found");
  TxnId victim = 0;
  std::pair<uint64_t, TxnId> best{UINT64_MAX, 0};
  for (TxnId from : vetoing) {
    auto path = graph().WouldCloseCycleWitness(from, txn);
    NSE_CHECK_MSG(path.has_value(),
                  "vetoing edge without a reachable cycle path");
    for (TxnId node : *path) {
      if (committed_[node]) continue;
      std::pair<uint64_t, TxnId> cost{cost_of(node), node};
      if (cost < best) {
        best = cost;
        victim = node;
      }
    }
  }
  NSE_CHECK_MSG(victim != 0, "cycle path had no active participant");
  if (victim == txn || cost_of(victim) >= cost_of(txn)) {
    // The requester is the cheapest loss (strictly-cheaper rule: a tie
    // goes to the baseline verdict): restart it, exactly like the
    // baseline escalation.
    ++restarts_requested_;
    return AbortSelf();
  }
  // Condemn the strictly cheaper participant: the driver rolls it back
  // right after this call returns (its Abort retracts the vetoing
  // edges), and the requester retries against a graph the retraction has
  // already uncycled. Under the sunk-cost rule every wound sacrifices
  // strictly less recorded work than the baseline's requester-restart
  // would have at this same decision point — the per-decision contract
  // wound_savings() accounts for; under the predictive rule the same
  // accumulator records the score margin.
  ++wounds_requested_;
  wound_savings_ += cost_of(txn) - cost_of(victim);
  Condemn(victim);
  return WaitOn(ticket);
}

}  // namespace nse
