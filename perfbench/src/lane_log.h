// Seeded audit logs for the benchmark's audit path. A lane log runs
// 8 serial lanes of transactions, each over its own private item
// block, interleaved at random, plus reads of a small hot set that one
// setup transaction writes before any reader begins. Conflict edges only
// flow forward along a lane and out of the setup transaction, so the log
// is conflict serializable on every plane by construction: a checker that
// reports a violation (or a dirty read — the log has no aborts) is wrong,
// and every event pays the checkers' full bookkeeping instead of a
// post-violation fast path.

#ifndef PERFBENCH_LANE_LOG_H_
#define PERFBENCH_LANE_LOG_H_

#include <cstdint>
#include <vector>

#include "history/history.h"
#include "state/database.h"

namespace perfbench {

/// The complete log of at least `target_ops` reads and writes (a pure
/// function of its arguments).
nse::History MakeLaneLog(uint64_t target_ops, uint64_t seed);

/// Two projected planes: the catalog split into contiguous halves.
std::vector<nse::DataSet> HalfPlanes(const nse::Database& db);

}  // namespace perfbench

#endif  // PERFBENCH_LANE_LOG_H_
