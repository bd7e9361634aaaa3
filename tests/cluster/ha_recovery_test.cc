/// High availability (replication + failover) and 2PC in-doubt recovery —
/// failure-injection tests for the MPP substrate.
#include <gtest/gtest.h>

#include "cluster/cluster.h"

namespace ofi::cluster {
namespace {

using sql::Column;
using sql::Schema;
using sql::TypeId;
using sql::Value;

Schema KvSchema() {
  return Schema({Column{"k", TypeId::kInt64, ""}, Column{"v", TypeId::kInt64, ""}});
}

Value KeyOnShard(const Cluster& cluster, int shard, int64_t start = 0) {
  for (int64_t k = start;; ++k) {
    if (cluster.ShardFor(Value(k)) == shard) return Value(k);
  }
}

class HaTest : public ::testing::Test {
 protected:
  HaTest() : cluster_(3, Protocol::kGtmLite) {
    EXPECT_TRUE(cluster_.CreateTable("t", KvSchema()).ok());
    EXPECT_TRUE(cluster_.EnableReplication().ok());
    for (int shard = 0; shard < 3; ++shard) {
      keys_.push_back(KeyOnShard(cluster_, shard));
      Txn t = cluster_.Begin(TxnScope::kSingleShard);
      EXPECT_TRUE(t.Insert("t", keys_[shard], {keys_[shard], Value(shard * 10)}).ok());
      EXPECT_TRUE(t.Commit().ok());
    }
  }

  Cluster cluster_;
  std::vector<Value> keys_;
};

TEST_F(HaTest, CommittedWritesShipToBackupShadow) {
  EXPECT_GT(cluster_.shadow(0).records_applied(), 0u);
  EXPECT_GT(cluster_.shadow(0).bytes_received(), 0u);
  EXPECT_EQ(cluster_.shadow(0).live_rows(), 1u);
}

TEST_F(HaTest, FailoverServesCommittedData) {
  ASSERT_TRUE(cluster_.FailDn(0).ok());
  EXPECT_TRUE(cluster_.IsDown(0));
  EXPECT_EQ(cluster_.EffectiveDn(0), 1);

  // The committed row of shard 0 is readable from the promoted backup.
  Txn r = cluster_.Begin(TxnScope::kSingleShard);
  auto row = r.Read("t", keys_[0]);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ((*row)[1].AsInt(), 0);
  ASSERT_TRUE(r.Commit().ok());
}

TEST_F(HaTest, DroppedTableDoesNotComeBackAtFailover) {
  ASSERT_TRUE(cluster_.DropTable("t").ok());
  EXPECT_EQ(cluster_.shadow(0).live_rows(), 0u);
  EXPECT_TRUE(cluster_.DropTable("t").IsNotFound());

  // The re-created table starts empty, and promotion replays nothing of
  // the dropped one into it.
  ASSERT_TRUE(cluster_.CreateTable("t", KvSchema()).ok());
  ASSERT_TRUE(cluster_.FailDn(0).ok());
  Txn r = cluster_.Begin(TxnScope::kSingleShard);
  EXPECT_TRUE(r.Read("t", keys_[0]).status().IsNotFound());
  ASSERT_TRUE(r.Commit().ok());
}

TEST_F(HaTest, WritesContinueAfterFailover) {
  ASSERT_TRUE(cluster_.FailDn(0).ok());
  Txn w = cluster_.Begin(TxnScope::kSingleShard);
  ASSERT_TRUE(w.Update("t", keys_[0], {keys_[0], Value(777)}).ok());
  ASSERT_TRUE(w.Commit().ok());

  Txn r = cluster_.Begin(TxnScope::kSingleShard);
  EXPECT_EQ(r.Read("t", keys_[0]).ValueOrDie()[1].AsInt(), 777);
  ASSERT_TRUE(r.Commit().ok());
}

TEST_F(HaTest, UncommittedWorkIsLostOnFailure) {
  // An in-flight transaction on DN0 never replicates.
  Txn inflight = cluster_.Begin(TxnScope::kSingleShard);
  ASSERT_TRUE(inflight.Update("t", keys_[0], {keys_[0], Value(999)}).ok());
  ASSERT_TRUE(cluster_.FailDn(0).ok());

  Txn r = cluster_.Begin(TxnScope::kSingleShard);
  EXPECT_EQ(r.Read("t", keys_[0]).ValueOrDie()[1].AsInt(), 0);  // old value
  ASSERT_TRUE(r.Commit().ok());
}

TEST_F(HaTest, DeletesReplicateAsTombstones) {
  Txn d = cluster_.Begin(TxnScope::kSingleShard);
  ASSERT_TRUE(d.Delete("t", keys_[0]).ok());
  ASSERT_TRUE(d.Commit().ok());
  ASSERT_TRUE(cluster_.FailDn(0).ok());

  Txn r = cluster_.Begin(TxnScope::kSingleShard);
  EXPECT_TRUE(r.Read("t", keys_[0]).status().IsNotFound());
  ASSERT_TRUE(r.Commit().ok());
}

TEST_F(HaTest, DoubleFailureRejected) {
  ASSERT_TRUE(cluster_.FailDn(0).ok());
  EXPECT_TRUE(cluster_.FailDn(0).IsInvalidArgument());
  // DN2's backup is DN0, which is down: failing DN2 would lose data.
  EXPECT_TRUE(cluster_.FailDn(2).IsUnavailable());
  // DN1's backup is DN2 (alive): failing DN1 is survivable.
  ASSERT_TRUE(cluster_.FailDn(1).ok());
}

TEST_F(HaTest, MultiShardTxnAcrossFailover) {
  ASSERT_TRUE(cluster_.FailDn(0).ok());
  Txn t = cluster_.Begin(TxnScope::kMultiShard);
  ASSERT_TRUE(t.Update("t", keys_[0], {keys_[0], Value(1)}).ok());  // on backup
  ASSERT_TRUE(t.Update("t", keys_[2], {keys_[2], Value(1)}).ok());
  ASSERT_TRUE(t.Commit().ok());

  Txn r = cluster_.Begin(TxnScope::kMultiShard);
  EXPECT_EQ(r.Read("t", keys_[0]).ValueOrDie()[1].AsInt(), 1);
  EXPECT_EQ(r.Read("t", keys_[2]).ValueOrDie()[1].AsInt(), 1);
  ASSERT_TRUE(r.Commit().ok());
}

TEST(HaConfigTest, ReplicationNeedsTwoNodes) {
  Cluster single(1, Protocol::kGtmLite);
  EXPECT_TRUE(single.EnableReplication().IsInvalidArgument());
  Cluster pair(2, Protocol::kGtmLite);
  EXPECT_TRUE(pair.FailDn(0).IsInvalidArgument());  // not enabled yet
}

// ---------------------------------------------------------------------------
// 2PC in-doubt recovery.
// ---------------------------------------------------------------------------
class InDoubtTest : public ::testing::Test {
 protected:
  InDoubtTest() : cluster_(2, Protocol::kGtmLite) {
    EXPECT_TRUE(cluster_.CreateTable("t", KvSchema()).ok());
    ka_ = KeyOnShard(cluster_, 0);
    kb_ = KeyOnShard(cluster_, 1);
    for (const Value& k : {ka_, kb_}) {
      Txn t = cluster_.Begin(TxnScope::kSingleShard);
      EXPECT_TRUE(t.Insert("t", k, {k, Value(0)}).ok());
      EXPECT_TRUE(t.Commit().ok());
    }
  }
  Cluster cluster_;
  Value ka_, kb_;
};

TEST_F(InDoubtTest, RecoveryCommitsGloballyCommittedTxns) {
  cluster_.set_delay_commit_confirmations(true);
  Txn w = cluster_.Begin(TxnScope::kMultiShard);
  ASSERT_TRUE(w.Update("t", ka_, {ka_, Value(5)}).ok());
  ASSERT_TRUE(w.Update("t", kb_, {kb_, Value(5)}).ok());
  ASSERT_TRUE(w.Commit().ok());
  // "Coordinator crashed" before confirmations: both DNs hold prepared state.
  ASSERT_GT(cluster_.dn(0)->pending_commit_count(), 0u);

  int resolved = cluster_.RecoverInDoubtTransactions();
  EXPECT_EQ(resolved, 2);
  EXPECT_EQ(cluster_.dn(0)->pending_commit_count(), 0u);

  cluster_.set_delay_commit_confirmations(false);
  Txn r = cluster_.Begin(TxnScope::kMultiShard);
  EXPECT_EQ(r.Read("t", ka_).ValueOrDie()[1].AsInt(), 5);
  EXPECT_EQ(r.Read("t", kb_).ValueOrDie()[1].AsInt(), 5);
  ASSERT_TRUE(r.Commit().ok());
}

TEST_F(InDoubtTest, RecoveryRollsBackGloballyAbortedTxns) {
  // Build a prepared-but-globally-aborted state by hand.
  DataNode* dn0 = cluster_.dn(0);
  txn::Gxid gxid = cluster_.gtm().BeginGlobal();
  txn::Xid xid = dn0->txn_mgr().Begin();
  dn0->txn_mgr().BindGxid(xid, gxid);
  txn::Snapshot snap = dn0->txn_mgr().TakeSnapshot();
  txn::VisibilityChecker vis(&snap, &dn0->txn_mgr().clog(), xid);
  auto table = dn0->GetTable("t");
  ASSERT_TRUE((*table)->Update(ka_, {ka_, Value(42)}, xid, vis).ok());
  ASSERT_TRUE(dn0->txn_mgr().Prepare(xid).ok());
  ASSERT_TRUE(cluster_.gtm().AbortGlobal(gxid).ok());

  EXPECT_EQ(cluster_.RecoverInDoubtTransactions(), 1);
  EXPECT_TRUE(dn0->txn_mgr().clog().IsAborted(xid));

  // The write was rolled back: the key is still writable and reads old data.
  Txn r = cluster_.Begin(TxnScope::kSingleShard);
  EXPECT_EQ(r.Read("t", ka_).ValueOrDie()[1].AsInt(), 0);
  ASSERT_TRUE(r.Commit().ok());
  Txn w = cluster_.Begin(TxnScope::kSingleShard);
  EXPECT_TRUE(w.Update("t", ka_, {ka_, Value(1)}).ok());
  ASSERT_TRUE(w.Commit().ok());
}

TEST_F(InDoubtTest, RecoveryLeavesLiveTransactionsPrepared) {
  DataNode* dn0 = cluster_.dn(0);
  txn::Gxid gxid = cluster_.gtm().BeginGlobal();
  txn::Xid xid = dn0->txn_mgr().Begin();
  dn0->txn_mgr().BindGxid(xid, gxid);
  ASSERT_TRUE(dn0->txn_mgr().Prepare(xid).ok());

  EXPECT_EQ(cluster_.RecoverInDoubtTransactions(), 0);
  EXPECT_TRUE(dn0->txn_mgr().clog().IsPrepared(xid));
  ASSERT_TRUE(cluster_.gtm().AbortGlobal(gxid).ok());
  EXPECT_EQ(cluster_.RecoverInDoubtTransactions(), 1);
}

}  // namespace
}  // namespace ofi::cluster
