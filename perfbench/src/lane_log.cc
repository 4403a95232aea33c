#include "lane_log.h"

#include <string>

#include "common/logging.h"
#include "common/rng.h"

namespace perfbench {

using nse::HistoryEvent;
using nse::ItemId;
using nse::TxnId;
using nse::Value;

namespace {
constexpr uint32_t kLanes = 8;
constexpr uint32_t kItemsPerLane = 64;
constexpr uint32_t kHotItems = 4;
constexpr int64_t kMinOps = 2;  // operations per transaction, uniform
constexpr int64_t kMaxOps = 6;
constexpr double kHotReadFraction = 0.2;
constexpr double kWriteFraction = 0.5;
}  // namespace

nse::History MakeLaneLog(uint64_t target_ops, uint64_t seed) {
  nse::History log;
  std::vector<std::string> names;
  for (uint32_t lane = 0; lane < kLanes; ++lane) {
    for (uint32_t i = 0; i < kItemsPerLane; ++i) {
      names.push_back("l" + std::to_string(lane) + "_" + std::to_string(i));
    }
  }
  for (uint32_t h = 0; h < kHotItems; ++h) {
    names.push_back("hot" + std::to_string(h));
  }
  NSE_CHECK(log.db.AddIntItems(names, 0, 1 << 30).ok());

  nse::Rng rng(seed);
  const ItemId hot_base = kLanes * kItemsPerLane;
  TxnId next_txn = 1;
  int64_t next_value = 1;
  uint64_t ops = 0;
  auto emit = [&](HistoryEvent event) { log.events.push_back(event); };

  const TxnId setup = next_txn++;
  emit(HistoryEvent::Begin(setup));
  for (uint32_t h = 0; h < kHotItems; ++h) {
    emit(HistoryEvent::Write(setup, hot_base + h, Value(next_value++)));
    ++ops;
  }
  emit(HistoryEvent::Commit(setup));

  struct Lane {
    TxnId txn = 0;
    uint32_t ops_left = 0;
  };
  std::vector<Lane> lanes(kLanes);
  while (ops < target_ops) {
    const uint32_t index = static_cast<uint32_t>(rng.NextBelow(kLanes));
    Lane& lane = lanes[index];
    if (lane.txn == 0) {
      lane.txn = next_txn++;
      lane.ops_left =
          static_cast<uint32_t>(rng.NextInt(kMinOps, kMaxOps));
      emit(HistoryEvent::Begin(lane.txn));
    } else if (lane.ops_left == 0) {
      emit(HistoryEvent::Commit(lane.txn));
      lane.txn = 0;
    } else {
      --lane.ops_left;
      ++ops;
      if (rng.NextBool(kHotReadFraction)) {
        const ItemId item =
            hot_base + static_cast<ItemId>(rng.NextBelow(kHotItems));
        emit(HistoryEvent::Read(lane.txn, item, Value(0), setup));
        continue;
      }
      const ItemId item =
          index * kItemsPerLane +
          static_cast<ItemId>(rng.NextBelow(kItemsPerLane));
      if (rng.NextBool(kWriteFraction)) {
        emit(HistoryEvent::Write(lane.txn, item, Value(next_value++)));
      } else {
        emit(HistoryEvent::Read(lane.txn, item, Value(0)));
      }
    }
  }
  for (const Lane& lane : lanes) {
    if (lane.txn != 0) emit(HistoryEvent::Commit(lane.txn));
  }
  return log;
}

std::vector<nse::DataSet> HalfPlanes(const nse::Database& db) {
  const ItemId half = static_cast<ItemId>(db.num_items() / 2);
  std::vector<nse::DataSet> planes(2);
  for (ItemId item = 0; item < db.num_items(); ++item) {
    planes[item < half ? 0 : 1].Insert(item);
  }
  return planes;
}

}  // namespace perfbench
