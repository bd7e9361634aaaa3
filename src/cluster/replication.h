/// \file replication.h
/// \brief High availability for the MPP cluster (paper §I: "FI-MPPDB
/// provides high availability through smart replication scheme").
///
/// Each data node's shard has a backup on another node. Committed write
/// sets ship to the backup as logical log records, maintaining a shadow
/// copy of the latest committed row per key. When a primary fails, the
/// backup PROMOTES: the shadow materializes into a fresh MVCC table under a
/// recovery transaction and routing fails over. Committed transactions
/// survive; in-flight ones are lost (they never reached the log).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/schema.h"

namespace ofi::cluster {

/// One logical log record: the committed image of a key (or a delete).
struct ReplicationRecord {
  std::string table;
  sql::Value key;
  sql::Row row;          // ignored when deleted
  bool deleted = false;

  size_t ByteSize() const {
    return table.size() + key.ByteSize() + (deleted ? 0 : sql::RowByteSize(row)) + 2;
  }
};

/// \brief The backup-side shadow of one primary's shard: latest committed
/// row per (table, key).
class ShadowShard {
 public:
  /// Applies one committed record.
  void Apply(const ReplicationRecord& record);
  /// Forgets every record of a dropped table.
  void DropTable(const std::string& table) { tables_.erase(table); }

  /// All live rows of one table (promotion source).
  const std::map<std::string, std::map<std::string, ReplicationRecord>>& tables()
      const {
    return tables_;
  }

  uint64_t records_applied() const { return records_applied_; }
  uint64_t bytes_received() const { return bytes_received_; }
  size_t live_rows() const;

 private:
  // table -> key.ToString() -> latest record (tombstones retained).
  std::map<std::string, std::map<std::string, ReplicationRecord>> tables_;
  uint64_t records_applied_ = 0;
  uint64_t bytes_received_ = 0;
};

}  // namespace ofi::cluster
