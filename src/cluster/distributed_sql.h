/// \file distributed_sql.h
/// \brief SQL on the cluster: the paper's CN role ("the CN plans SQL and
/// executes it across data nodes"). Statements come in as text; DDL/DML
/// maintain both a CN-side catalog mirror (for planning, statistics and
/// single-node fallback) and the sharded cluster tables; SELECTs are
/// parsed and planned by the ordinary src/sql front-end, then lowered onto
/// the cluster by LowerSelectPlan and executed by the distributed
/// physical-operator layer. Shapes the cluster cannot run (outer joins,
/// set ops, expression aggregates, ...) transparently execute single-node
/// on the mirror — same rows either way, so callers only notice in the
/// reported execution info.
#pragma once

#include <string>

#include "cluster/distributed_plan.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace ofi::cluster {

/// \brief A stateful SQL session whose tables are hash-sharded across a
/// simulated MPP cluster.
///
/// The CN keeps a full row mirror of every table. That is not a cheat —
/// the mirror is only read for planning metadata, ANALYZE statistics and
/// the single-node fallback path; distributed SELECTs read the DN shards
/// through a multi-shard snapshot. (It also makes the randomized
/// equivalence suite honest: the reference answer comes from the mirror
/// through the ordinary executor.)
///
/// The session keeps a simulated clock. Every transaction it runs (each
/// INSERT row, each SELECT's reader) Begins at the clock, and the clock
/// advances to that transaction's completion. The session then trims the
/// scheduler below the clock, since no later statement can arrive earlier,
/// so the cost of a charge depends on the live window, not on the session's
/// history. The trim is held while a background merge is in flight: a merge
/// charges at its triggering write's time, which may lie below the clock.
class DistributedSqlSession {
 public:
  explicit DistributedSqlSession(int num_dns = 3,
                                 Protocol protocol = Protocol::kGtmLite);

  /// Executes one statement. SELECTs return their result table; DDL/DML
  /// return an empty table on success. INSERT rows are sharded by their
  /// first column (the cluster's key convention).
  Result<sql::Table> Execute(const std::string& statement);

  /// EXPLAIN: parse + plan + lower, render the distributed physical tree
  /// (plus the CN-side post steps) without executing — or the single-node
  /// logical plan with the fallback reason.
  Result<std::string> Explain(const std::string& query);

  /// Re-ANALYZEs every table on the CN mirror, feeding the broadcast /
  /// repartition decision in subsequent lowered joins.
  void Analyze() { stats_.AnalyzeAll(catalog_); }

  /// Cluster columnar-copy management (see Cluster::RegisterColumnar /
  /// RefreshColumnar); lowered scans pick the columnar path automatically.
  Status RegisterColumnar(const std::string& table) {
    return cluster_.RegisterColumnar(table);
  }
  Result<size_t> RefreshColumnar(const std::string& table) {
    return cluster_.RefreshColumnar(table, clock_);
  }

  /// How the last SELECT actually executed.
  struct QueryInfo {
    bool select = false;
    bool distributed = false;
    std::string fallback_reason;  // set when !distributed
    DistExecStats stats;          // valid when distributed
  };
  const QueryInfo& last() const { return last_; }

  /// Human-readable per-DN scan breakdown of the last distributed SELECT
  /// (realized path + chunk/row counters per shard), e.g.
  ///   dn0 sales: columnar(grouped-kernel) chunks=3/5 pruned=2 rows=1200
  /// Empty when the last statement was not a distributed SELECT or its plan
  /// scanned nothing.
  std::string LastScanReport() const;

  Cluster& cluster() { return cluster_; }
  sql::Catalog& catalog() { return catalog_; }
  const optimizer::StatsRegistry& stats() const { return stats_; }
  /// Execution knobs for lowered plans (columnar use, parallelism, channel
  /// byte limits, ...), applied to every subsequent distributed SELECT.
  DistExecOptions& exec_options() { return exec_options_; }

 private:
  Result<sql::PlanPtr> PlanQuery(const sql::SelectStatement& stmt);
  Result<sql::Table> ExecuteSelect(const sql::SelectStatement& stmt);
  /// Moves the session clock to `done` (a finished transaction's completion)
  /// and trims the scheduler below it unless a merge is in flight.
  void AdvanceClock(SimTime done);

  Cluster cluster_;
  sql::Catalog catalog_;  // CN mirror: planning, stats, fallback
  optimizer::StatsRegistry stats_;
  DistExecOptions exec_options_;
  QueryInfo last_;
  SimTime clock_ = 0;
};

}  // namespace ofi::cluster
