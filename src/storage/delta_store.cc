#include "storage/delta_store.h"

#include <algorithm>
#include <utility>

namespace ofi::storage {

namespace {

/// Clustering order for sealed rows (leading column first, xmin breaking
/// ties so the encode order is deterministic across hash-map dump walks).
bool RowLess(const sql::Row& a, const sql::Row& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

/// True when folding `xid` can never collide with an Algorithm-1
/// DOWNGRADE: either the xid is local-only (no gxid binding) or its
/// global transaction is below the GTM safe horizon, so every present and
/// future merged snapshot already resolves it committed.
bool GxidSafe(const txn::CommitLog& clog, txn::Xid xid, txn::Gxid safe) {
  txn::Gxid g = clog.GxidFor(xid);
  return g == txn::kNoGxid || g < safe;
}

}  // namespace

DeltaShard::DeltaShard(sql::Schema schema)
    : schema_(std::move(schema)),
      sealed_(std::make_shared<const ColumnTable>(schema_)) {}

DeltaShard::FoldClass DeltaShard::Classify(txn::Xid xmin, txn::Xid xmax,
                                           const txn::CommitLog& clog,
                                           txn::Xid local_horizon,
                                           txn::Gxid global_safe) {
  if (clog.IsAborted(xmin)) return FoldClass::kDead;
  const bool xmin_folds = clog.IsCommitted(xmin) && xmin < local_horizon &&
                          GxidSafe(clog, xmin, global_safe);
  if (!xmin_folds) return FoldClass::kDelta;
  if (xmax == txn::kInvalidXid || clog.IsAborted(xmax)) {
    return FoldClass::kSealedLive;
  }
  if (clog.IsCommitted(xmax) && xmax < local_horizon &&
      GxidSafe(clog, xmax, global_safe)) {
    return FoldClass::kDead;
  }
  return FoldClass::kSealedWithXmax;
}

void DeltaShard::InstallBase(HeapDump dump, const txn::CommitLog* clog,
                             txn::Xid local_horizon, txn::Gxid global_safe) {
  struct SealEntry {
    sql::Value key;
    sql::Row row;
    txn::Xid xmin;
    txn::Xid xmax;
  };
  std::vector<SealEntry> seal;
  std::vector<DeltaRecord> tail;
  for (auto& [key, chain] : dump) {
    for (auto& v : chain) {
      switch (Classify(v.xmin, v.xmax, *clog, local_horizon, global_safe)) {
        case FoldClass::kDead:
          break;
        case FoldClass::kSealedLive:
          seal.push_back({key, std::move(v.data), v.xmin, txn::kInvalidXid});
          break;
        case FoldClass::kSealedWithXmax:
          seal.push_back({key, std::move(v.data), v.xmin, v.xmax});
          break;
        case FoldClass::kDelta:
          tail.push_back(DeltaRecord{v.xmin, v.xmax, key, std::move(v.data)});
          break;
      }
    }
  }
  std::sort(seal.begin(), seal.end(), [](const SealEntry& a, const SealEntry& b) {
    if (RowLess(a.row, b.row)) return true;
    if (RowLess(b.row, a.row)) return false;
    return a.xmin < b.xmin;
  });
  std::sort(tail.begin(), tail.end(), [](const DeltaRecord& a, const DeltaRecord& b) {
    if (a.xmin != b.xmin) return a.xmin < b.xmin;
    return a.key.Compare(b.key) < 0;
  });

  auto table = std::make_shared<ColumnTable>(schema_);
  std::vector<sql::Value> keys;
  std::vector<txn::Xid> xmins, xmaxs;
  keys.reserve(seal.size());
  xmins.reserve(seal.size());
  xmaxs.reserve(seal.size());
  for (auto& e : seal) {
    (void)table->Append(e.row);
    keys.push_back(e.key);
    xmins.push_back(e.xmin);
    xmaxs.push_back(e.xmax);
  }
  table->Seal();

  std::unique_lock lock(mu_);
  sealed_ = std::move(table);
  sealed_keys_ = std::move(keys);
  sealed_xmin_ = std::move(xmins);
  sealed_xmax_ = std::move(xmaxs);
  sealed_index_.clear();
  marked_rows_.clear();
  for (uint32_t r = 0; r < sealed_keys_.size(); ++r) {
    sealed_index_[sealed_keys_[r]].push_back(r);
    if (sealed_xmax_[r] != txn::kInvalidXid) marked_rows_.push_back(r);
  }
  delta_ = std::move(tail);
  delta_index_.clear();
  for (size_t i = 0; i < delta_.size(); ++i) {
    delta_index_[delta_[i].key].push_back(i);
  }
  ++version_;
  // Mutations that raced the build arrived after the dump: apply them now,
  // in heap order, before scans are allowed in.
  for (const HeapChange& c : pending_) ApplyLocked(c);
  pending_.clear();
  ready_ = true;
}

void DeltaShard::OnHeapChange(const HeapChange& change) {
  std::unique_lock lock(mu_);
  if (!ready_) {
    pending_.push_back(change);
    return;
  }
  ApplyLocked(change);
}

void DeltaShard::MarkSealedLocked(uint32_t row, txn::Xid xid) {
  if (sealed_xmax_[row] == txn::kInvalidXid) {
    auto it = std::lower_bound(marked_rows_.begin(), marked_rows_.end(), row);
    marked_rows_.insert(it, row);
  }
  sealed_xmax_[row] = xid;
}

void DeltaShard::ClearSealedMarkLocked(uint32_t row) {
  sealed_xmax_[row] = txn::kInvalidXid;
  auto it = std::lower_bound(marked_rows_.begin(), marked_rows_.end(), row);
  if (it != marked_rows_.end() && *it == row) marked_rows_.erase(it);
}

void DeltaShard::ApplyLocked(const HeapChange& change) {
  switch (change.op) {
    case HeapChange::Op::kInsert: {
      delta_index_[change.key].push_back(delta_.size());
      delta_.push_back(
          DeltaRecord{change.xid, txn::kInvalidXid, change.key, change.row});
      return;
    }
    case HeapChange::Op::kMarkDeleted: {
      // The heap marked the version created by target_xmin. Newest-first
      // through the tail (a key's latest matching version is the one a
      // writer's FindVisible returned), then the sealed sidecar.
      auto dit = delta_index_.find(change.key);
      if (dit != delta_index_.end()) {
        for (auto it = dit->second.rbegin(); it != dit->second.rend(); ++it) {
          DeltaRecord& rec = delta_[*it];
          if (rec.xmin == change.target_xmin &&
              (rec.xmax == txn::kInvalidXid || rec.xmax == change.xid)) {
            rec.xmax = change.xid;
            return;
          }
        }
      }
      auto sit = sealed_index_.find(change.key);
      if (sit != sealed_index_.end()) {
        for (uint32_t r : sit->second) {
          if (sealed_xmin_[r] == change.target_xmin) {
            MarkSealedLocked(r, change.xid);
            return;
          }
        }
      }
      return;
    }
    case HeapChange::Op::kClearXmax: {
      auto dit = delta_index_.find(change.key);
      if (dit != delta_index_.end()) {
        for (size_t i : dit->second) {
          if (delta_[i].xmax == change.xid) delta_[i].xmax = txn::kInvalidXid;
        }
      }
      auto sit = sealed_index_.find(change.key);
      if (sit != sealed_index_.end()) {
        for (uint32_t r : sit->second) {
          if (sealed_xmax_[r] == change.xid) ClearSealedMarkLocked(r);
        }
      }
      return;
    }
    case HeapChange::Op::kClearXmaxAll: {
      for (DeltaRecord& rec : delta_) {
        if (rec.xmax == change.xid) rec.xmax = txn::kInvalidXid;
      }
      for (size_t i = marked_rows_.size(); i > 0; --i) {
        uint32_t r = marked_rows_[i - 1];
        if (sealed_xmax_[r] == change.xid) ClearSealedMarkLocked(r);
      }
      return;
    }
  }
}

DeltaShard::View DeltaShard::Snapshot(const txn::VisibilityChecker& vis) const {
  View v;
  std::shared_lock lock(mu_);
  v.sealed = sealed_;
  for (uint32_t r : marked_rows_) {
    if (vis.XidVisible(sealed_xmax_[r])) v.excluded.push_back(r);
  }
  v.delta_examined = delta_.size();
  for (const DeltaRecord& rec : delta_) {
    if (vis.TupleVisible(rec.xmin, rec.xmax)) v.delta_rows.push_back(rec.row);
  }
  return v;
}

DeltaShard::MergeResult DeltaShard::Merge(const txn::CommitLog& clog,
                                          txn::Xid local_horizon,
                                          txn::Gxid global_safe) {
  std::lock_guard merge_lock(merge_mu_);
  MergeResult result;

  // Phase 1: snapshot the shard state. The sealed table is immutable; the
  // tail prefix [0, base_count) is stable in place until we install (only
  // installs erase records, and merge_mu_ serializes installs).
  std::shared_ptr<const ColumnTable> base;
  std::vector<DeltaRecord> prefix;
  std::vector<txn::Xid> xmin_copy, xmax_copy;
  std::vector<sql::Value> keys_copy;
  uint64_t v0;
  {
    std::shared_lock lock(mu_);
    base = sealed_;
    prefix.assign(delta_.begin(), delta_.end());
    xmin_copy = sealed_xmin_;
    xmax_copy = sealed_xmax_;
    keys_copy = sealed_keys_;
    v0 = version_;
  }
  const size_t base_count = prefix.size();

  // Phase 2: classify, outside every lock. Scans and tail appends proceed.
  std::vector<uint8_t> drop_rec(base_count, 0);
  std::vector<uint8_t> fold_rec(base_count, 0);
  size_t n_fold = 0;
  for (size_t i = 0; i < base_count; ++i) {
    switch (Classify(prefix[i].xmin, prefix[i].xmax, clog, local_horizon,
                     global_safe)) {
      case FoldClass::kDead:
        drop_rec[i] = 1;
        ++result.dropped;
        break;
      case FoldClass::kSealedLive:
      case FoldClass::kSealedWithXmax:
        fold_rec[i] = 1;
        ++n_fold;
        break;
      case FoldClass::kDelta:
        break;
    }
  }
  // Sealed rows whose deleter is below every horizon are reclaimable.
  std::vector<uint8_t> drop_row(xmax_copy.size(), 0);
  size_t n_drop_rows = 0;
  for (uint32_t r = 0; r < xmax_copy.size(); ++r) {
    txn::Xid x = xmax_copy[r];
    if (x == txn::kInvalidXid) continue;
    if (clog.IsCommitted(x) && x < local_horizon &&
        GxidSafe(clog, x, global_safe)) {
      drop_row[r] = 1;
      ++n_drop_rows;
    }
  }
  result.dropped += n_drop_rows;
  if (n_fold == 0 && n_drop_rows == 0 && result.dropped == 0) return result;
  result.folded = n_fold;

  // Folds encode in clustering order among themselves.
  std::vector<size_t> fold_order;
  fold_order.reserve(n_fold);
  for (size_t i = 0; i < base_count; ++i) {
    if (fold_rec[i]) fold_order.push_back(i);
  }
  std::sort(fold_order.begin(), fold_order.end(), [&](size_t a, size_t b) {
    if (RowLess(prefix[a].row, prefix[b].row)) return true;
    if (RowLess(prefix[b].row, prefix[a].row)) return false;
    return prefix[a].xmin < prefix[b].xmin;
  });

  // Phase 2b: build the replacement sealed table. Cheap path: copy the
  // compressed chunks (no re-encode) and append the folds as a fresh
  // chunk. Rewrite path (dead sealed rows): re-encode the survivors +
  // folds so exclusions do not accumulate and the sel=nullptr metadata
  // fast paths come back.
  auto table = std::make_shared<ColumnTable>(schema_);
  std::vector<sql::Value> new_keys;
  std::vector<txn::Xid> new_xmin;
  // Where each surviving old sealed row / folded record landed.
  std::vector<uint32_t> row_map(xmax_copy.size(), UINT32_MAX);
  std::vector<std::pair<size_t, uint32_t>> fold_map;  // delta idx -> new row
  fold_map.reserve(n_fold);
  if (n_drop_rows == 0) {
    *table = *base;  // value copy of the compressed chunks
    for (uint32_t r = 0; r < xmax_copy.size(); ++r) row_map[r] = r;
    new_keys = keys_copy;
    new_xmin = xmin_copy;
    uint32_t next = static_cast<uint32_t>(base->sealed_rows());
    for (size_t i : fold_order) {
      (void)table->Append(prefix[i].row);
      new_keys.push_back(prefix[i].key);
      new_xmin.push_back(prefix[i].xmin);
      fold_map.emplace_back(i, next++);
    }
    table->Seal();
  } else {
    result.rewrote = true;
    struct Entry {
      const sql::Row* row;
      const sql::Value* key;
      txn::Xid xmin;
      bool from_delta;
      size_t src;  // old sealed row id or delta index
    };
    std::vector<uint32_t> survivors;
    for (uint32_t r = 0; r < xmax_copy.size(); ++r) {
      if (!drop_row[r]) survivors.push_back(r);
    }
    std::vector<sql::Row> gathered = base->Gather(survivors).ValueOrDie();
    std::vector<Entry> entries;
    entries.reserve(survivors.size() + n_fold);
    for (size_t j = 0; j < survivors.size(); ++j) {
      entries.push_back(Entry{&gathered[j], &keys_copy[survivors[j]],
                              xmin_copy[survivors[j]], false, survivors[j]});
    }
    for (size_t i : fold_order) {
      entries.push_back(Entry{&prefix[i].row, &prefix[i].key, prefix[i].xmin,
                              true, i});
    }
    std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
      if (RowLess(*a.row, *b.row)) return true;
      if (RowLess(*b.row, *a.row)) return false;
      return a.xmin < b.xmin;
    });
    uint32_t next = 0;
    for (const Entry& e : entries) {
      (void)table->Append(*e.row);
      new_keys.push_back(*e.key);
      new_xmin.push_back(e.xmin);
      if (e.from_delta) {
        fold_map.emplace_back(e.src, next);
      } else {
        row_map[e.src] = next;
      }
      ++next;
    }
    table->Seal();
  }

  // Phase 3: the exclusive install. Re-read every xmax from the live state
  // so marks and rollbacks that landed mid-merge carry over, splice the
  // unfolded prefix records onto the tail suffix, and swap.
  std::unique_lock lock(mu_);
  if (version_ != v0) return MergeResult{};  // lost a racing install
  const size_t n_new = new_keys.size();
  std::vector<txn::Xid> new_xmax(n_new, txn::kInvalidXid);
  for (uint32_t r = 0; r < row_map.size(); ++r) {
    if (row_map[r] != UINT32_MAX) new_xmax[row_map[r]] = sealed_xmax_[r];
  }
  for (const auto& [delta_idx, new_row] : fold_map) {
    new_xmax[new_row] = delta_[delta_idx].xmax;
  }
  std::vector<DeltaRecord> new_delta;
  new_delta.reserve(delta_.size() - n_fold - result.dropped + n_drop_rows);
  for (size_t i = 0; i < base_count; ++i) {
    if (!drop_rec[i] && !fold_rec[i]) new_delta.push_back(std::move(delta_[i]));
  }
  for (size_t i = base_count; i < delta_.size(); ++i) {
    new_delta.push_back(std::move(delta_[i]));
  }
  sealed_ = std::move(table);
  sealed_keys_ = std::move(new_keys);
  sealed_xmin_ = std::move(new_xmin);
  sealed_xmax_ = std::move(new_xmax);
  sealed_index_.clear();
  marked_rows_.clear();
  for (uint32_t r = 0; r < sealed_keys_.size(); ++r) {
    sealed_index_[sealed_keys_[r]].push_back(r);
    if (sealed_xmax_[r] != txn::kInvalidXid) marked_rows_.push_back(r);
  }
  delta_ = std::move(new_delta);
  delta_index_.clear();
  for (size_t i = 0; i < delta_.size(); ++i) {
    delta_index_[delta_[i].key].push_back(i);
  }
  ++version_;
  return result;
}

}  // namespace ofi::storage
