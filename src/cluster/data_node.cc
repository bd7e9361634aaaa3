#include "cluster/data_node.h"

namespace ofi::cluster {

Status DataNode::CreateTable(const std::string& name, const sql::Schema& schema) {
  if (tables_.count(name)) return Status::AlreadyExists("table exists: " + name);
  tables_[name] = std::make_unique<storage::MvccTable>(schema);
  return Status::OK();
}

Status DataNode::DropTable(const std::string& name) {
  if (tables_.count(name) == 0) {
    return Status::NotFound("dn" + std::to_string(id_) + ": no table " + name);
  }
  DropColumnar(name);
  DropIndexes(name);
  tables_.erase(name);
  return Status::OK();
}

Result<storage::MvccTable*> DataNode::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("dn" + std::to_string(id_) + ": no table " + name);
  }
  return it->second.get();
}

void DataNode::BeginExternal(txn::Xid xid) { txn_mgr_.BeginExternal(xid); }

txn::TxnState DataNode::FinishPendingCommit(txn::Xid xid) {
  for (auto it = pending_commits_.begin(); it != pending_commits_.end(); ++it) {
    if (it->xid == xid) {
      txn::Gxid gxid = it->gxid;
      pending_commits_.erase(it);
      txn_mgr_.Commit(xid, gxid);
      return txn::TxnState::kCommitted;
    }
  }
  return txn_mgr_.clog().State(xid);
}

int DataNode::RecoverInDoubt(const txn::Gtm& gtm) {
  int resolved = 0;
  for (const auto& [xid, gxid] : txn_mgr_.clog().PreparedXids()) {
    if (gxid == txn::kNoGxid) continue;  // not a 2PC participant
    if (gtm.IsCommitted(gxid)) {
      // Clear any still-queued confirmation, then commit.
      (void)FinishPendingCommit(xid);
      (void)txn_mgr_.Commit(xid, gxid);
      ++resolved;
    } else if (gtm.IsAborted(gxid)) {
      for (auto& [name, table] : tables_) table->RollbackXid(xid);
      (void)txn_mgr_.Abort(xid);
      ++resolved;
    }
    // Still in progress globally: stay prepared.
  }
  return resolved;
}

void DataNode::DeliverAllPendingCommits() {
  while (!pending_commits_.empty()) {
    PendingCommit pc = pending_commits_.front();
    pending_commits_.pop_front();
    txn_mgr_.Commit(pc.xid, pc.gxid);
  }
}

}  // namespace ofi::cluster
