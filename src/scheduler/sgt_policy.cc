#include "scheduler/sgt_policy.h"

#include <algorithm>

#include "common/logging.h"

namespace nse {

namespace {

std::vector<TxnId> AllTxnIds(size_t num_txns) {
  std::vector<TxnId> ids;
  ids.reserve(num_txns);
  for (TxnId id = 1; id <= num_txns; ++id) ids.push_back(id);
  return ids;
}

}  // namespace

SgtPolicy::SgtPolicy(size_t num_txns) : SgtPolicy(num_txns, Options()) {}

SgtPolicy::SgtPolicy(size_t num_txns, Options options)
    : options_(options),
      graph_(AllTxnIds(num_txns), CycleMode::kIncremental),
      committed_(num_txns + 1, false),
      trimmed_(num_txns + 1, false),
      consecutive_vetoes_(num_txns + 1, 0),
      steps_recorded_(num_txns + 1, 0),
      script_total_(num_txns + 1, 0),
      restart_count_(num_txns + 1, 0) {
  NSE_CHECK_MSG(options_.max_consecutive_vetoes >= 1,
                "SGT veto threshold must be at least 1");
}

std::vector<TxnId> SgtPolicy::VetoingPredecessors(TxnId txn,
                                                  const TxnScript& script,
                                                  size_t step) const {
  const AccessStep& access = script.steps[step];
  std::vector<TxnId> vetoing;
  index_.ForEachConflict(
      txn, access.action == OpAction::kWrite, access.item,
      [&](uint32_t from) {
        // Only a *new* edge can close a cycle: an edge already present
        // was admitted while the graph stayed acyclic.
        if (!graph_.HasEdge(from, txn) && graph_.WouldCloseCycle(from, txn)) {
          vetoing.push_back(from);
        }
      });
  return vetoing;
}

SgtPolicy::VetoProbe SgtPolicy::ProbeAccess(TxnId txn,
                                            const TxnScript& script,
                                            size_t step) const {
  // Decision-only variant of VetoingPredecessors: the remaining
  // (graph-search) probes are skipped once the decision is settled — this
  // is the per-access hot path on contended items.
  const AccessStep& access = script.steps[step];
  VetoProbe probe;
  index_.ForEachConflict(
      txn, access.action == OpAction::kWrite, access.item,
      [&](uint32_t from) {
        if (probe.vetoed && (probe.active_blocker || committed_[from])) {
          return;
        }
        if (!graph_.HasEdge(from, txn) && graph_.WouldCloseCycle(from, txn)) {
          probe.vetoed = true;
          if (!committed_[from]) probe.active_blocker = true;
        }
      });
  return probe;
}

Result<AccessGrant> SgtPolicy::RequestAccess(TxnId txn,
                                             const TxnScript& script,
                                             size_t step) {
  NSE_RETURN_IF_ERROR(CheckStep(script, step));
  NSE_RETURN_IF_ERROR(CheckTxn(txn, committed_.size() - 1));
  WaitTicket ticket = MakeTicket();
  std::lock_guard<std::mutex> lock(mu_);
  VetoProbe probe = ProbeAccess(txn, script, step);
  if (probe.vetoed) {
    ++vetoes_;
    // Wait only while some vetoing edge's source is still running (its
    // abort would retract that edge directly); with committed-only
    // sources, restart at once — always safe, and independent of the
    // driver's stall patience. Recurring vetoes against active sources
    // restart at the threshold — the livelock guard. Either way the
    // restarted transaction re-enters *after* its former successors and
    // the cycle cannot re-form from the same conflicts.
    if (!probe.active_blocker ||
        ++consecutive_vetoes_[txn] >= options_.max_consecutive_vetoes) {
      consecutive_vetoes_[txn] = 0;
      ++restarts_requested_;
      return AbortSelf();
    }
    return WaitOn(ticket);
  }
  consecutive_vetoes_[txn] = 0;
  AdmitAccess(txn, script, step);
  return Granted();
}

void SgtPolicy::AdmitAccess(TxnId txn, const TxnScript& script, size_t step) {
  // Materialize the step's conflict edges and record the access. Every new
  // edge ends at `txn`, so a simple cycle could use at most one of them —
  // each was individually cleared by WouldCloseCycle, and the graph stays
  // acyclic.
  const AccessStep& access = script.steps[step];
  const bool is_write = access.action == OpAction::kWrite;
  index_.ForEachConflict(txn, is_write, access.item, [&](uint32_t from) {
    graph_.AddEdge(from, txn);
  });
  index_.Record(txn, is_write, access.item);
  ++steps_recorded_[txn];
  script_total_[txn] = script.steps.size();
  NSE_CHECK_MSG(!graph_.has_cycle(),
                "SGT admitted an access that closed a conflict cycle");
}

void SgtPolicy::TrimCommitted(std::vector<TxnId> seeds) {
  if (!options_.gc_committed) return;
  // A committed node issues no new accesses, so its in-edge set is final —
  // once empty, no future cycle can pass through it (a cycle would need a
  // path *into* the node) and its out-edges / item histories are dead
  // weight. Only a trim or an abort's retraction can empty a predecessor
  // set, so processing the seeds and, transitively, the committed
  // successors each trim frees reaches the same fixpoint as the old full
  // scan — in time proportional to the footprint actually reclaimed.
  while (!seeds.empty()) {
    TxnId id = seeds.back();
    seeds.pop_back();
    if (id == 0 || id >= committed_.size()) continue;
    if (!committed_[id] || trimmed_[id]) continue;
    if (!graph_.Predecessors(id).empty()) continue;
    std::vector<TxnId> successors = graph_.Successors(id);
    graph_.RemoveEdgesOf(id);
    index_.Erase(id);
    trimmed_[id] = true;
    ++gc_trimmed_;
    --live_committed_;
    for (TxnId succ : successors) {
      if (committed_[succ] && !trimmed_[succ]) seeds.push_back(succ);
    }
  }
}

void SgtPolicy::DoCommit(TxnId txn) {
  if (!InPopulation(txn, committed_.size() - 1)) return;
  std::lock_guard<std::mutex> lock(mu_);
  // Committed edges stay: later accesses must still serialize after txn
  // (until the GC proves the node can never rejoin a cycle).
  committed_[txn] = true;
  consecutive_vetoes_[txn] = 0;
  ++live_committed_;
  max_live_committed_ = std::max(max_live_committed_, live_committed_);
  // The commit changed only this node's eligibility (predecessor sets are
  // untouched), so it is the whole worklist.
  TrimCommitted({txn});
}

void SgtPolicy::DoAbort(TxnId txn) {
  if (!InPopulation(txn, committed_.size() - 1)) return;
  std::lock_guard<std::mutex> lock(mu_);
  // Retract the aborted transaction's whole footprint; it restarts from
  // scratch with a clean node. The retraction can strand committed
  // successors without predecessors, so they seed the trim.
  std::vector<TxnId> successors;
  if (options_.gc_committed) {
    for (TxnId succ : graph_.Successors(txn)) {
      if (committed_[succ] && !trimmed_[succ]) successors.push_back(succ);
    }
  }
  graph_.RemoveEdgesOf(txn);
  index_.Erase(txn);
  committed_[txn] = false;
  consecutive_vetoes_[txn] = 0;
  steps_recorded_[txn] = 0;
  ++restart_count_[txn];
  TrimCommitted(std::move(successors));
}

std::vector<TxnId> SgtPolicy::Blockers(TxnId txn, const TxnScript& script,
                                       size_t step) const {
  if (step >= script.steps.size()) return {};
  if (!InPopulation(txn, committed_.size() - 1)) return {};
  std::lock_guard<std::mutex> lock(mu_);
  // A vetoed access waits on the still-running sources of its cycle-closing
  // edges (a committed source can never unblock it — that case escalates to
  // kAbortSelf via the veto threshold instead).
  std::vector<TxnId> blockers;
  for (TxnId from : VetoingPredecessors(txn, script, step)) {
    if (!committed_[from]) blockers.push_back(from);
  }
  return blockers;
}

}  // namespace nse
