/// \file delta_store.h
/// \brief Per-shard columnar delta store: sealed column chunks plus an
/// append-only row-format delta tail, the software reproduction of
/// Polynesia's update-propagation design (see PAPERS.md). The owning
/// MvccTable streams every heap mutation into the tail through a
/// HeapChangeListener, so a columnar scan can union the sealed kernels
/// with a row-path pass over the tail and return exactly what the row
/// store would — at any snapshot, with no staleness fallback.
///
/// Invariants the union correctness rests on:
///  * Every heap version is represented exactly once: either folded into
///    the sealed chunks (with its xmin/xmax mirrored in sidecars) or held
///    as a DeltaRecord in the tail. The listener mirrors heap ops in the
///    heap's own serialization order (it fires under the heap's exclusive
///    lock), and AttachChangeListener's atomic dump+install guarantees no
///    mutation falls between the base snapshot and the first notification.
///  * A version folds into sealed chunks only when its xmin is visible to
///    EVERY present and future snapshot: committed, below the DN-local
///    xmin horizon, and — when the xid is bound to a global transaction —
///    below the GTM's SafeHorizon (an Algorithm-1 DOWNGRADE can force a
///    locally committed gxid-bound xid invisible for a reader whose global
///    snapshot predates the GTM commit; folding such an xid would
///    over-expose rows). Sealed rows therefore need no xmin check at scan
///    time; only their xmax sidecar is consulted (the `excluded` list).
///  * Merges build the new sealed table outside any lock and install it
///    under the exclusive shard lock with a version-validated swap, so
///    scans never block on a merge — they either see the old sealed+tail
///    or the new one, both complete.
///
/// Vacuum needs no notification: it removes versions without changing
/// visibility (the commit log retains commit states past pruning), and
/// the tail's own dead records are pruned by the next merge.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "storage/column_store.h"
#include "storage/mvcc_table.h"
#include "txn/commit_log.h"
#include "txn/snapshot.h"
#include "txn/types.h"

namespace ofi::storage {

/// One row-format change record in the delta tail — an MVCC version that
/// is not (yet) foldable into the sealed chunks.
struct DeltaRecord {
  txn::Xid xmin = txn::kInvalidXid;
  txn::Xid xmax = txn::kInvalidXid;
  sql::Value key;
  sql::Row row;
};

/// \brief One DN's columnar copy of one table: sealed ColumnTable chunks,
/// xmin/xmax sidecars for the sealed rows, and the row-format delta tail.
///
/// Thread safety: all public methods are safe to call concurrently. The
/// shard lock (shared for scans, exclusive for tail appends and merge
/// installs) is only ever taken AFTER the heap lock (the listener fires
/// under it) — nothing here calls back into the heap.
class DeltaShard {
 public:
  explicit DeltaShard(sql::Schema schema);

  /// Build: installs the base state from an atomic heap dump (see
  /// MvccTable::AttachChangeListener). Universally visible versions seal
  /// into clustered chunks; everything else (in flight, recently
  /// committed, pending deletes) lands in the tail. Listener events that
  /// raced the build are buffered and drained here, in heap order.
  void InstallBase(HeapDump dump, const txn::CommitLog* clog,
                   txn::Xid local_horizon, txn::Gxid global_safe);

  /// The heap listener entry point. Runs under the heap's exclusive lock.
  void OnHeapChange(const HeapChange& change);

  /// One scan's consistent view of this shard: the sealed table (shared,
  /// immutable), the sealed rows this reader must NOT see (sorted row
  /// ids whose xmax sidecar is visible to it), and the tail rows it MUST
  /// see. Never blocks on a merge.
  struct View {
    std::shared_ptr<const ColumnTable> sealed;
    std::vector<uint32_t> excluded;
    std::vector<sql::Row> delta_rows;
    /// Tail records examined (ScanStats::delta_rows; >= delta_rows.size()).
    size_t delta_examined = 0;
  };
  View Snapshot(const txn::VisibilityChecker& vis) const;

  struct MergeResult {
    /// Tail records folded into sealed chunks.
    size_t folded = 0;
    /// Records and sealed rows dropped as aborted or universally dead.
    size_t dropped = 0;
    /// True when dead sealed rows forced a full re-encode (which also
    /// restores clustering and the zone-map fast paths).
    bool rewrote = false;

    bool changed() const { return folded + dropped > 0; }
  };

  /// Compacts the foldable tail prefix into sealed chunks. Serialized
  /// against other merges by an internal mutex; concurrent scans and tail
  /// appends proceed untouched until the brief exclusive install at the
  /// end, which re-reads xmax sidecars so marks that landed mid-merge are
  /// never lost. `local_horizon` is the DN's snapshot xmin (Vacuum's
  /// convention) and `global_safe` the GTM SafeHorizon at merge time.
  MergeResult Merge(const txn::CommitLog& clog, txn::Xid local_horizon,
                    txn::Gxid global_safe);

  size_t delta_size() const {
    std::shared_lock lock(mu_);
    return delta_.size();
  }
  size_t sealed_rows() const {
    std::shared_lock lock(mu_);
    return sealed_->sealed_rows();
  }
  const sql::Schema& schema() const { return schema_; }

  /// Claims the single background-merge slot (the write path schedules at
  /// most one pool task per shard at a time). Release with MergeTaskDone.
  bool TryScheduleMerge() {
    bool expected = false;
    return merge_scheduled_.compare_exchange_strong(expected, true);
  }
  void MergeTaskDone() { merge_scheduled_.store(false); }

 private:
  enum class FoldClass : uint8_t {
    kDead,            // aborted xmin, or deleted below every horizon
    kSealedLive,      // folds with no deleter
    kSealedWithXmax,  // folds, deleter mirrored into the xmax sidecar
    kDelta,           // not universally visible yet — stays in the tail
  };
  static FoldClass Classify(txn::Xid xmin, txn::Xid xmax,
                            const txn::CommitLog& clog, txn::Xid local_horizon,
                            txn::Gxid global_safe);

  void ApplyLocked(const HeapChange& change);
  void MarkSealedLocked(uint32_t row, txn::Xid xid);
  void ClearSealedMarkLocked(uint32_t row);

  const sql::Schema schema_;
  mutable std::shared_mutex mu_;
  std::mutex merge_mu_;  // serializes Merge() callers, never scans

  // Sealed side (guarded by mu_; the table itself is immutable — merges
  // swap the shared_ptr).
  std::shared_ptr<const ColumnTable> sealed_;
  std::vector<sql::Value> sealed_keys_;
  std::vector<txn::Xid> sealed_xmin_;
  std::vector<txn::Xid> sealed_xmax_;
  std::unordered_map<sql::Value, std::vector<uint32_t>> sealed_index_;
  /// Sorted sealed row ids whose xmax sidecar is set — the candidate set
  /// for a scan's `excluded` list, so delete-free scans pay nothing.
  std::vector<uint32_t> marked_rows_;

  // Tail side (guarded by mu_).
  std::vector<DeltaRecord> delta_;
  std::unordered_map<sql::Value, std::vector<size_t>> delta_index_;

  bool ready_ = false;
  std::vector<HeapChange> pending_;  // events buffered until InstallBase
  uint64_t version_ = 0;             // bumped per install (merge validation)

  std::atomic<bool> merge_scheduled_{false};
};

}  // namespace ofi::storage
