/// The two distributed plan shapes the cluster tests execute directly with
/// ExecuteDistPlan (the SQL path builds the same trees via LowerSelectPlan).
#pragma once

#include <string>
#include <vector>

#include "cluster/distributed_plan.h"

namespace ofi::cluster {

/// SELECT group_by..., aggs... FROM table [WHERE filter] GROUP BY group_by:
/// per-DN scan + partial aggregate, partials gathered, final aggregate at
/// the CN. kColumnar serves shards from the columnar copy when the table
/// has one and the filter is recognizable; the row store otherwise.
inline DistOpPtr AggPlan(const std::string& table, sql::ExprPtr filter,
                         const std::vector<std::string>& group_by,
                         const std::vector<DistributedAgg>& aggs,
                         ScanPath path = ScanPath::kColumnar) {
  DistOpPtr scan = MakeDistScan(table, std::move(filter), path);
  return MakeDistFinalAgg(
      MakeGather(MakeDistPartialAgg(scan, group_by, aggs),
                 /*gather_rows=*/false),
      group_by, aggs);
}

/// SELECT * FROM left JOIN right ON left_key = right_key [AND residual],
/// with per-side filters pushed below the exchange: two row scans feeding a
/// hash join, joined rows gathered. kAuto resolves from scanned sizes.
inline DistOpPtr JoinPlan(const std::string& left, const std::string& right,
                          const std::string& left_key,
                          const std::string& right_key,
                          JoinStrategy strategy = JoinStrategy::kAuto,
                          sql::ExprPtr left_filter = nullptr,
                          sql::ExprPtr right_filter = nullptr,
                          sql::ExprPtr residual = nullptr) {
  return MakeGather(
      MakeDistHashJoin(MakeDistScan(left, std::move(left_filter)),
                       MakeDistScan(right, std::move(right_filter)), left_key,
                       right_key, std::move(residual), strategy),
      /*gather_rows=*/true);
}

}  // namespace ofi::cluster
