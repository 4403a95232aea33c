#include "scheduler/timestamp_ordering.h"

#include <algorithm>

namespace nse {

TimestampOrderingPolicy::TimestampOrderingPolicy(size_t num_txns)
    : TimestampOrderingPolicy(num_txns, Options()) {}

TimestampOrderingPolicy::TimestampOrderingPolicy(size_t num_txns,
                                                 Options options)
    : options_(options), ts_(num_txns + 1), touched_(num_txns + 1) {}

uint64_t TimestampOrderingPolicy::EnsureTimestamp(TxnId txn) {
  if (!ts_[txn].has_value()) ts_[txn] = ++clock_;
  return *ts_[txn];
}

uint64_t TimestampOrderingPolicy::MaxOtherTs(const std::vector<Stamp>& stamps,
                                             TxnId self) {
  uint64_t max_ts = 0;
  for (const Stamp& s : stamps) {
    if (s.txn != self) max_ts = std::max(max_ts, s.ts);
  }
  return max_ts;
}

void TimestampOrderingPolicy::RecordStamp(std::vector<Stamp>& stamps,
                                          TxnId txn, uint64_t ts) {
  for (Stamp& s : stamps) {
    if (s.txn == txn) {
      s.ts = ts;  // same incarnation: ts is unchanged anyway
      return;
    }
  }
  stamps.push_back({txn, ts});
}

Result<AccessGrant> TimestampOrderingPolicy::RequestAccess(
    TxnId txn, const TxnScript& script, size_t step) {
  NSE_RETURN_IF_ERROR(CheckStep(script, step));
  NSE_RETURN_IF_ERROR(CheckTxn(txn, ts_.size() - 1));
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t ts = EnsureTimestamp(txn);
  const AccessStep& access = script.steps[step];
  if (access.item >= items_.size()) items_.resize(access.item + 1);
  ItemState& item = items_[access.item];
  // Timestamps are unique per incarnation and a transaction's own accesses
  // never conflict with it, so all comparisons exclude `txn` itself.
  if (access.action == OpAction::kRead) {
    if (std::max(item.committed_wts, MaxOtherTs(item.writers, txn)) > ts) {
      // The item was already written by a younger transaction: this read
      // arrived too late for timestamp order. Restart with a fresh stamp.
      ++rejections_;
      return AbortSelf();
    }
    RecordStamp(item.readers, txn, ts);
    RecordTouched(txn, access.item);
    return Granted();
  }
  if (std::max(item.committed_rts, MaxOtherTs(item.readers, txn)) > ts) {
    // A younger transaction already read the item; writing now would hand
    // it a value from its past. Always fatal — Thomas cannot help.
    ++rejections_;
    return AbortSelf();
  }
  if (std::max(item.committed_wts, MaxOtherTs(item.writers, txn)) > ts) {
    if (options_.thomas_write_rule) {
      // Obsolete write: in timestamp order it would be immediately
      // overwritten by the newer write that already happened. Elide it —
      // nothing is recorded here or in the trace.
      ++skipped_writes_;
      return Skip();
    }
    ++rejections_;
    return AbortSelf();
  }
  RecordStamp(item.writers, txn, ts);
  RecordTouched(txn, access.item);
  return Granted();
}

void TimestampOrderingPolicy::RecordTouched(TxnId txn, ItemId item) {
  // Deduplicated: a transaction re-accessing an item (read then write, or
  // repeated script steps) must not grow its footprint list — commit/abort
  // walk this list, and RecordStamp keeps one stamp per txn anyway.
  std::vector<ItemId>& footprint = touched_[txn];
  if (std::find(footprint.begin(), footprint.end(), item) ==
      footprint.end()) {
    footprint.push_back(item);
  }
}

void TimestampOrderingPolicy::DoCommit(TxnId txn) {
  if (!InPopulation(txn, ts_.size() - 1)) return;
  std::lock_guard<std::mutex> lock(mu_);
  // Committed stamps can never retract, so only their per-item maxima
  // matter for future checks: fold them into the committed scalars and
  // drop the per-entry bookkeeping — later-starting but older-stamped
  // stragglers are still rejected against the folded maxima, while each
  // item's stamp lists stay bounded by its *active* accessors.
  auto drop = [txn](const Stamp& s) { return s.txn == txn; };
  for (ItemId item_id : touched_[txn]) {
    ItemState& item = items_[item_id];
    for (const Stamp& s : item.readers) {
      if (s.txn == txn) item.committed_rts = std::max(item.committed_rts, s.ts);
    }
    for (const Stamp& s : item.writers) {
      if (s.txn == txn) item.committed_wts = std::max(item.committed_wts, s.ts);
    }
    item.readers.erase(
        std::remove_if(item.readers.begin(), item.readers.end(), drop),
        item.readers.end());
    item.writers.erase(
        std::remove_if(item.writers.begin(), item.writers.end(), drop),
        item.writers.end());
  }
  touched_[txn].clear();
  touched_[txn].shrink_to_fit();
}

void TimestampOrderingPolicy::DoAbort(TxnId txn) {
  if (!InPopulation(txn, ts_.size() - 1)) return;
  std::lock_guard<std::mutex> lock(mu_);
  // The incarnation's footprint vanishes (its trace ops are removed by the
  // driver's restart path); the restart draws a fresh, larger stamp, so
  // the transaction eventually outranks whatever kept rejecting it. Only
  // the items this incarnation actually stamped are touched.
  auto drop = [txn](const Stamp& s) { return s.txn == txn; };
  for (ItemId item_id : touched_[txn]) {
    ItemState& item = items_[item_id];
    item.readers.erase(
        std::remove_if(item.readers.begin(), item.readers.end(), drop),
        item.readers.end());
    item.writers.erase(
        std::remove_if(item.writers.begin(), item.writers.end(), drop),
        item.writers.end());
  }
  touched_[txn].clear();
  touched_[txn].shrink_to_fit();
  ts_[txn].reset();
}

std::vector<TxnId> TimestampOrderingPolicy::Blockers(TxnId, const TxnScript&,
                                                     size_t) const {
  // TO never waits: every verdict is proceed, skip, or abort-restart.
  return {};
}

std::optional<uint64_t> TimestampOrderingPolicy::timestamp(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  return txn < ts_.size() ? ts_[txn] : std::nullopt;
}

}  // namespace nse
