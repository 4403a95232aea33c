#include "analysis/analysis_context.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace nse {

AnalysisContext::AnalysisContext(const Database* db,
                                 const IntegrityConstraint* ic,
                                 const Schedule* schedule,
                                 AnalysisOptions options)
    : db_(db), ic_(ic), schedule_(schedule), options_(options) {
  if (ic_ != nullptr) {
    projections_.resize(ic_->num_conjuncts());
    projection_graphs_.resize(ic_->num_conjuncts());
  }
}

AnalysisContext::AnalysisContext(const Database& db,
                                 const IntegrityConstraint& ic,
                                 const Schedule& schedule,
                                 AnalysisOptions options)
    : AnalysisContext(&db, &ic, &schedule, options) {}

AnalysisContext::AnalysisContext(const Database& db,
                                 const IntegrityConstraint& ic,
                                 Schedule&& schedule_owned,
                                 AnalysisOptions options)
    : AnalysisContext(&db, &ic, nullptr, options) {
  owned_schedule_ = std::move(schedule_owned);
  schedule_ = &*owned_schedule_;
}

AnalysisContext::AnalysisContext(const IntegrityConstraint& ic,
                                 const Schedule& schedule,
                                 AnalysisOptions options)
    : AnalysisContext(nullptr, &ic, &schedule, options) {}

AnalysisContext::AnalysisContext(const Schedule& schedule,
                                 AnalysisOptions options)
    : AnalysisContext(nullptr, nullptr, &schedule, options) {}

const Database& AnalysisContext::db() const {
  NSE_CHECK_MSG(db_ != nullptr, "analysis context has no database");
  return *db_;
}

const IntegrityConstraint& AnalysisContext::ic() const {
  NSE_CHECK_MSG(ic_ != nullptr, "analysis context has no integrity constraint");
  return *ic_;
}

const ConflictGraph& AnalysisContext::conflict_graph() {
  if (!conflict_graph_.has_value()) {
    if (ic_ != nullptr && ic_->disjoint()) {
      BuildCoreGraphs();
    } else {
      conflict_graph_ =
          ConflictGraph::Build(*schedule_, CycleMode::kIncremental);
      ++stats_.conflict_graph_builds;
    }
  }
  return *conflict_graph_;
}

const std::vector<ReadsFromEdge>& AnalysisContext::reads_from() {
  if (!reads_from_.has_value()) {
    if (ic_ != nullptr && ic_->disjoint()) {
      BuildCoreGraphs();
    } else {
      reads_from_ = ReadsFromPairs(*schedule_);
      ++stats_.reads_from_builds;
    }
  }
  return *reads_from_;
}

const ScheduleProjection& AnalysisContext::projection(size_t e) {
  NSE_CHECK_MSG(e < projections_.size(), "conjunct index %zu out of range %zu",
                e, projections_.size());
  if (!projections_[e].has_value()) {
    projections_[e] = schedule_->ProjectWithPositions(ic().data_set(e));
    ++stats_.projection_builds;
  }
  return *projections_[e];
}

const ConflictGraph& AnalysisContext::projection_graph(size_t e) {
  NSE_CHECK_MSG(e < projection_graphs_.size(),
                "conjunct index %zu out of range %zu", e,
                projection_graphs_.size());
  if (!projection_graphs_[e].has_value()) {
    if (ic().disjoint()) {
      BuildCoreGraphs();
    } else {
      projection_graphs_[e] =
          ConflictGraph::Build(projection(e).schedule, CycleMode::kIncremental);
      ++stats_.projection_graph_builds;
    }
  }
  return *projection_graphs_[e];
}

void AnalysisContext::BuildCoreGraphs() {
  // Conflicts are same-item, so the full conflict graph and every projected
  // conflict graph are regroupings of the same per-item access histories,
  // and the reads-from relation falls out of the same last-write tracking.
  // With disjoint conjuncts each item feeds exactly one conjunct, so one
  // conflict sweep over the schedule feeds all of them without
  // materializing a single projected schedule.
  size_t num_conjuncts = projection_graphs_.size();
  bool need_full = !conflict_graph_.has_value();
  bool need_rf = !reads_from_.has_value();
  bool need_proj = false;
  for (const auto& graph : projection_graphs_) {
    if (!graph.has_value()) need_proj = true;
  }
  if (!need_full && !need_rf && !need_proj) return;

  const std::vector<TxnId>& txn_ids = schedule_->txn_ids();
  const uint32_t n = static_cast<uint32_t>(txn_ids.size());
  const OpSequence& ops = schedule_->ops();
  arena_.Reset();

  // Pass 1, O(ops): the conjunct of every touched item, the txn membership
  // of each conjunct (the projected graphs' node sets), and reads-from.
  // local[e * n + idx] is txn idx's node index in conjunct e's graph, or
  // kNotMember.
  constexpr uint32_t kNotMember = UINT32_MAX;
  ArenaVector<uint32_t> local(need_proj ? num_conjuncts * n : 0, kNotMember,
                              ArenaAllocator<uint32_t>(&arena_));
  std::vector<ReadsFromEdge> rf;  // kept artifact, not scratch
  struct ItemState {
    int conjunct = -2;  // -2 = not looked up yet, -1 = unconstrained
    std::optional<size_t> last_write;
  };
  ArenaVector<ItemState> items{ArenaAllocator<ItemState>(&arena_)};
  for (size_t pos = 0; pos < ops.size(); ++pos) {
    const Operation& op = ops[pos];
    if (op.entity >= items.size()) items.resize(op.entity + 1);
    ItemState& item = items[op.entity];
    if (item.conjunct == -2) {
      std::optional<size_t> e = ic().ConjunctOf(op.entity);
      item.conjunct = e.has_value() ? static_cast<int>(*e) : -1;
    }
    if (need_proj && item.conjunct >= 0) {
      const size_t idx = static_cast<size_t>(
          std::lower_bound(txn_ids.begin(), txn_ids.end(), op.txn) -
          txn_ids.begin());
      local[static_cast<size_t>(item.conjunct) * n + idx] = 0;
    }
    if (op.is_write()) {
      item.last_write = pos;
    } else if (need_rf && item.last_write.has_value()) {
      rf.push_back(ReadsFromEdge{pos, *item.last_write});
    }
  }
  if (need_rf) {
    reads_from_ = std::move(rf);
    ++stats_.reads_from_builds;
  }
  if (!need_full && !need_proj) return;

  // Pass 2: the conflict sweep feeds every unbuilt graph directly.
  // AddEdgeByIndexAt dedupes, so each graph's first successful insert of an
  // edge happens at the operation that first creates it — the recorded
  // first cycle is the earliest one the schedule closes.
  ConflictGraph* full = nullptr;
  if (need_full) {
    conflict_graph_.emplace(txn_ids, CycleMode::kIncremental);
    full = &*conflict_graph_;
    ++stats_.conflict_graph_builds;
  }
  std::vector<ConflictGraph*> proj(num_conjuncts, nullptr);
  for (size_t e = 0; e < num_conjuncts; ++e) {
    if (projection_graphs_[e].has_value()) continue;
    std::vector<TxnId> nodes;
    for (uint32_t idx = 0; idx < n; ++idx) {
      uint32_t& slot = local[e * n + idx];
      if (slot == kNotMember) continue;
      slot = static_cast<uint32_t>(nodes.size());
      nodes.push_back(txn_ids[idx]);
    }
    projection_graphs_[e].emplace(std::move(nodes), CycleMode::kIncremental);
    proj[e] = &*projection_graphs_[e];
    ++stats_.projection_graph_builds;
  }
  internal::SweepConflicts(
      *schedule_, [&](uint32_t from, uint32_t to, size_t pos) {
        if (full != nullptr) full->AddEdgeByIndexAt(from, to, pos);
        const int e = items[ops[pos].entity].conjunct;
        if (e < 0 || proj[e] == nullptr) return;
        // The positions are full-schedule positions (the sweep runs over
        // S), so a projected graph's cycle_op_pos needs no mapping here.
        const size_t base = static_cast<size_t>(e) * n;
        proj[e]->AddEdgeByIndexAt(local[base + from], local[base + to], pos);
      });
}

const DataAccessGraph& AnalysisContext::access_graph() {
  if (!access_graph_.has_value()) {
    access_graph_ = DataAccessGraph::Build(*schedule_, ic());
    ++stats_.access_graph_builds;
  }
  return *access_graph_;
}

const ConsistencyChecker& AnalysisContext::consistency_checker() {
  if (!solver_.has_value()) {
    solver_.emplace(db(), ic(), options_.solver_cache);
    ++stats_.solver_builds;
  }
  return *solver_;
}

const CsrReport& AnalysisContext::csr_report() {
  if (!csr_.has_value()) {
    csr_ = CsrReportFromGraph(conflict_graph());
    ++stats_.csr_builds;
  }
  return *csr_;
}

const PwsrReport& AnalysisContext::pwsr_report() {
  if (!pwsr_.has_value()) {
    PwsrReport report;
    report.conjuncts_disjoint = ic().disjoint();
    report.is_pwsr = true;
    for (size_t e = 0; e < ic().num_conjuncts(); ++e) {
      ConjunctSerializability entry;
      entry.conjunct = e;
      entry.csr = CsrReportFromGraph(projection_graph(e));
      if (!entry.csr.serializable) {
        report.is_pwsr = false;
        // Witness mapping: the disjoint fused sweep records full-schedule
        // positions directly; a graph built from a materialized projection
        // records projection-local ones — map those through
        // source_positions so every verdict renders at positions of S.
        if (entry.csr.cycle_op_pos.has_value() && !ic().disjoint()) {
          const std::vector<size_t>& source = projection(e).source_positions;
          if (*entry.csr.cycle_op_pos < source.size()) {
            entry.csr.cycle_op_pos = source[*entry.csr.cycle_op_pos];
          }
        }
      }
      report.per_conjunct.push_back(std::move(entry));
    }
    pwsr_ = std::move(report);
    ++stats_.pwsr_builds;
  }
  return *pwsr_;
}

const std::optional<DrViolation>& AnalysisContext::dr_violation() {
  if (!dr_violation_.has_value()) {
    std::optional<DrViolation> violation;
    for (const ReadsFromEdge& edge : reads_from()) {
      TxnId writer = schedule_->at(edge.writer_pos).txn;
      TxnId reader = schedule_->at(edge.reader_pos).txn;
      if (writer == reader) continue;  // cannot occur under the access rules
      if (!schedule_->CompletedBy(writer, edge.reader_pos)) {
        violation = DrViolation{edge.reader_pos, edge.writer_pos, writer};
        break;
      }
    }
    dr_violation_ = std::move(violation);
    ++stats_.dr_builds;
  }
  return *dr_violation_;
}

const std::optional<DrViolation>& AnalysisContext::strict_violation() {
  if (!strict_violation_.has_value()) {
    strict_violation_ = FindStrictViolation(*schedule_);
    ++stats_.strict_builds;
  }
  return *strict_violation_;
}

const Result<StrongCorrectnessReport>& AnalysisContext::strong_correctness() {
  if (!strong_.has_value()) {
    strong_ = CheckScheduleOverInitialStates(consistency_checker(), *schedule_,
                                             options_.initial_state_limit);
    ++stats_.strong_correctness_builds;
  }
  return *strong_;
}

}  // namespace nse
