#include "analysis/conflict_graph.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fuzz_env.h"

namespace nse {
namespace {

class ConflictGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.AddIntItems({"a", "b", "c"}, -8, 8).ok());
  }
  Database db_;
};

TEST_F(ConflictGraphTest, EdgesFollowConflictOrder) {
  ScheduleBuilder sb(db_);
  sb.R(1, "a", Value(0)).W(2, "a", Value(1)).W(1, "b", Value(2));
  ConflictGraph g = ConflictGraph::Build(sb.Build());
  EXPECT_TRUE(g.HasEdge(1, 2));   // r1(a) before w2(a)
  EXPECT_FALSE(g.HasEdge(2, 1));
  EXPECT_EQ(g.Edges().size(), 1u);
  EXPECT_TRUE(g.IsAcyclic());
  EXPECT_EQ(g.ToString(), "T1 -> T2");
}

TEST_F(ConflictGraphTest, ReadsDoNotConflict) {
  ScheduleBuilder sb(db_);
  sb.R(1, "a", Value(0)).R(2, "a", Value(0));
  ConflictGraph g = ConflictGraph::Build(sb.Build());
  EXPECT_TRUE(g.Edges().empty());
}

TEST_F(ConflictGraphTest, ClassicNonSerializableCycle) {
  // r1(a) w2(a) r2(b) w1(b): T1 -> T2 (on a), T2 -> T1 (on b).
  ScheduleBuilder sb(db_);
  sb.R(1, "a", Value(0))
      .W(2, "a", Value(1))
      .R(2, "b", Value(0))
      .W(1, "b", Value(1));
  ConflictGraph g = ConflictGraph::Build(sb.Build());
  EXPECT_FALSE(g.IsAcyclic());
  EXPECT_EQ(g.TopologicalOrder(), std::nullopt);
  auto cycle = g.FindCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_GE(cycle->size(), 3u);
  EXPECT_EQ(cycle->front(), cycle->back());
  EXPECT_TRUE(g.AllTopologicalOrders(10).empty());
}

TEST_F(ConflictGraphTest, TopologicalOrderRespectsEdges) {
  ScheduleBuilder sb(db_);
  sb.W(1, "a", Value(1))
      .R(2, "a", Value(1))
      .W(2, "b", Value(2))
      .R(3, "b", Value(2));
  ConflictGraph g = ConflictGraph::Build(sb.Build());
  auto order = g.TopologicalOrder();
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<TxnId>{1, 2, 3}));
}

TEST_F(ConflictGraphTest, AllTopologicalOrdersOfIndependentTxns) {
  // No conflicts: both orders of two transactions are serialization orders.
  ScheduleBuilder sb(db_);
  sb.R(1, "a", Value(0)).R(2, "b", Value(0));
  ConflictGraph g = ConflictGraph::Build(sb.Build());
  auto orders = g.AllTopologicalOrders(10);
  EXPECT_EQ(orders.size(), 2u);
  auto limited = g.AllTopologicalOrders(1);
  EXPECT_EQ(limited.size(), 1u);
}

TEST_F(ConflictGraphTest, SingleAndEmptySchedules) {
  ScheduleBuilder sb(db_);
  sb.R(1, "a", Value(0));
  ConflictGraph g = ConflictGraph::Build(sb.Build());
  EXPECT_TRUE(g.IsAcyclic());
  EXPECT_EQ(*g.TopologicalOrder(), (std::vector<TxnId>{1}));

  ConflictGraph empty = ConflictGraph::Build(Schedule());
  EXPECT_TRUE(empty.IsAcyclic());
  EXPECT_TRUE(empty.TopologicalOrder()->empty());
  EXPECT_FALSE(empty.FindCycle().has_value());
}

TEST_F(ConflictGraphTest, AllTopologicalOrdersExactlyAtTheLimitBoundary) {
  // Three independent transactions: exactly 3! = 6 serialization orders.
  // Pin the contract at the boundary: below the limit the enumeration is
  // complete, exactly at the limit it returns exactly `limit` (and may be
  // incomplete), above the limit it returns the true count.
  ScheduleBuilder sb(db_);
  sb.R(1, "a", Value(0)).R(2, "b", Value(0)).R(3, "c", Value(0));
  ConflictGraph g = ConflictGraph::Build(sb.Build());

  EXPECT_EQ(g.AllTopologicalOrders(5).size(), 5u);
  EXPECT_EQ(g.AllTopologicalOrders(6).size(), 6u);
  EXPECT_EQ(g.AllTopologicalOrders(7).size(), 6u);
  EXPECT_EQ(g.AllTopologicalOrders(1000).size(), 6u);
  EXPECT_EQ(g.AllTopologicalOrders(1).size(), 1u);
  EXPECT_TRUE(g.AllTopologicalOrders(0).empty());

  // All six orders are distinct permutations of {1, 2, 3}.
  auto orders = g.AllTopologicalOrders(6);
  std::sort(orders.begin(), orders.end());
  EXPECT_EQ(std::unique(orders.begin(), orders.end()), orders.end());
}

TEST_F(ConflictGraphTest, ThreeTxnCycleFound) {
  // T1 -> T2 -> T3 -> T1.
  ScheduleBuilder sb(db_);
  sb.R(1, "a", Value(0))
      .W(2, "a", Value(1))   // T1 -> T2
      .R(2, "b", Value(0))
      .W(3, "b", Value(1))   // T2 -> T3
      .R(3, "c", Value(0))
      .W(1, "c", Value(1));  // T3 -> T1
  ConflictGraph g = ConflictGraph::Build(sb.Build());
  EXPECT_FALSE(g.IsAcyclic());
  auto cycle = g.FindCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 4u);  // 3 nodes + repeated head
}

// Double-release hardening: a crash-at-op fault can re-run the abort
// retraction for an accessor whose footprint is already gone, so repeated
// Erase of the same (or a never-recorded) accessor must be a no-op that
// leaves every other accessor's history — and conflict emission order —
// untouched.
TEST(ConflictAccessIndexTest, EraseIsIdempotent) {
  auto conflicts_for = [](const ConflictAccessIndex& index, uint32_t who) {
    std::vector<uint32_t> out;
    index.ForEachConflict(who, /*is_write=*/true, /*item=*/0,
                          [&](uint32_t prior) { out.push_back(prior); });
    return out;
  };
  ConflictAccessIndex index;
  index.Record(1, /*is_write=*/true, 0);
  index.Record(2, /*is_write=*/false, 0);
  index.Record(3, /*is_write=*/true, 0);
  EXPECT_EQ(conflicts_for(index, 9), (std::vector<uint32_t>{1, 3, 2}));

  index.Erase(1);
  index.Erase(1);   // second abort of the same quiescent accessor
  index.Erase(7);   // accessor that never recorded anything
  index.Erase(64);  // beyond every grown bitset word
  EXPECT_EQ(conflicts_for(index, 9), (std::vector<uint32_t>{3, 2}));

  // Re-recording after a double erase starts from a clean slate and lands
  // at the back of the history again.
  index.Record(1, /*is_write=*/true, 0);
  EXPECT_EQ(conflicts_for(index, 9), (std::vector<uint32_t>{3, 1, 2}));
}

// Brute-force conflict-graph oracle: the paper's rule applied to every
// operation pair i < j (same item, distinct transactions, at least one
// write), with no shared code path with Build. Also records the first
// schedule position after which the edge set is cyclic — where an
// incremental Build must report its cycle_op_pos.
struct OracleGraph {
  std::vector<TxnId> nodes;
  std::set<std::pair<TxnId, TxnId>> edges;
  std::optional<size_t> first_cyclic_pos;
};

/// The canonical serialization order of an edge set (smallest ready txn
/// first), or nullopt when it is cyclic.
std::optional<std::vector<TxnId>> OracleTopologicalOrder(
    const std::vector<TxnId>& nodes,
    const std::set<std::pair<TxnId, TxnId>>& edges) {
  std::vector<TxnId> order;
  std::set<TxnId> left(nodes.begin(), nodes.end());
  while (!left.empty()) {
    std::optional<TxnId> ready;
    for (TxnId node : left) {  // ascending: the first ready one is smallest
      bool has_in = false;
      for (const auto& [from, to] : edges) {
        if (to == node && left.count(from) > 0) has_in = true;
      }
      if (!has_in) {
        ready = node;
        break;
      }
    }
    if (!ready.has_value()) return std::nullopt;
    order.push_back(*ready);
    left.erase(*ready);
  }
  return order;
}

OracleGraph BruteForceOracle(const Schedule& s) {
  OracleGraph oracle;
  const OpSequence& ops = s.ops();
  std::set<TxnId> nodes;
  for (const Operation& op : ops) nodes.insert(op.txn);
  oracle.nodes.assign(nodes.begin(), nodes.end());
  for (size_t j = 0; j < ops.size(); ++j) {
    bool grew = false;
    for (size_t i = 0; i < j; ++i) {
      if (ops[i].entity == ops[j].entity && ops[i].txn != ops[j].txn &&
          (ops[i].is_write() || ops[j].is_write())) {
        grew |= oracle.edges.insert({ops[i].txn, ops[j].txn}).second;
      }
    }
    if (grew && !oracle.first_cyclic_pos.has_value() &&
        !OracleTopologicalOrder(oracle.nodes, oracle.edges).has_value()) {
      oracle.first_cyclic_pos = j;
    }
  }
  return oracle;
}

/// True iff `cycle` is a closed walk (first == last) over oracle edges.
bool IsOracleCycle(const OracleGraph& oracle,
                   const std::vector<TxnId>& cycle) {
  if (cycle.size() < 3 || cycle.front() != cycle.back()) return false;
  for (size_t k = 0; k + 1 < cycle.size(); ++k) {
    if (oracle.edges.count({cycle[k], cycle[k + 1]}) == 0) return false;
  }
  return true;
}

// Build against the brute-force pairwise oracle, in both cycle modes:
// same nodes and edges (in (from, to) order), same acyclicity, the
// canonical topological order, real cycle witnesses, and — incrementally —
// the first cycle recorded at the operation that closes it. Swept over two
// shapes: a few txns on a few items (contended histories) and many txns
// hammering one or two items (long per-item histories).
TEST(ConflictGraphDenseSweepFuzz, DenseBuildMatchesReferenceOnRandomSchedules) {
  const size_t seeds = FuzzSeedCount(12);
  size_t cyclic = 0;
  for (uint64_t seed = 1; seed <= 2 * seeds; ++seed) {
    Rng rng(seed * 7919 + 3);
    const bool hot = seed > seeds;
    const size_t num_txns =
        hot ? 20 + rng.NextBelow(44) : 2 + rng.NextBelow(18);
    const size_t num_items = hot ? 1 + rng.NextBelow(2) : 1 + rng.NextBelow(5);
    const size_t num_ops = hot ? 20 + rng.NextBelow(100) : 4 + rng.NextBelow(60);
    OpSequence ops;
    for (size_t i = 0; i < num_ops; ++i) {
      TxnId txn = static_cast<TxnId>(1 + rng.NextBelow(num_txns));
      ItemId item = static_cast<ItemId>(rng.NextBelow(num_items));
      if (rng.NextBool(hot ? 0.2 : 0.5)) {
        ops.push_back(Operation::Write(txn, item, Value(0)));
      } else {
        ops.push_back(Operation::Read(txn, item, Value(0)));
      }
    }
    Schedule s(std::move(ops));
    const OracleGraph oracle = BruteForceOracle(s);
    const std::vector<std::pair<TxnId, TxnId>> want_edges(
        oracle.edges.begin(), oracle.edges.end());
    const bool want_acyclic = !oracle.first_cyclic_pos.has_value();
    for (CycleMode mode : {CycleMode::kBatch, CycleMode::kIncremental}) {
      ConflictGraph g = ConflictGraph::Build(s, mode);
      ASSERT_EQ(g.nodes(), oracle.nodes) << "seed " << seed;
      ASSERT_EQ(g.Edges(), want_edges) << "seed " << seed;
      ASSERT_EQ(g.num_edges(), want_edges.size());
      ASSERT_EQ(g.IsAcyclic(), want_acyclic) << "seed " << seed;
      ASSERT_EQ(g.TopologicalOrder(),
                OracleTopologicalOrder(oracle.nodes, oracle.edges))
          << "seed " << seed;
      if (mode == CycleMode::kIncremental) {
        ASSERT_EQ(g.cycle_op_pos(), oracle.first_cyclic_pos)
            << "seed " << seed;
      } else {
        ASSERT_FALSE(g.cycle_op_pos().has_value());
      }
      if (want_acyclic) {
        ASSERT_FALSE(g.FindCycle().has_value()) << "seed " << seed;
        continue;
      }
      ++cyclic;
      ASSERT_TRUE(IsOracleCycle(oracle, *g.FindCycle())) << "seed " << seed;
      if (mode == CycleMode::kIncremental) {
        ASSERT_TRUE(IsOracleCycle(oracle, *g.cycle())) << "seed " << seed;
        ASSERT_EQ(oracle.edges.count(*g.cycle_edge()), 1u);
      }
    }
  }
  // The sweep must actually have produced cyclic graphs, or the witness
  // comparisons above were vacuous.
  EXPECT_GT(cyclic, 0u);
}

}  // namespace
}  // namespace nse
