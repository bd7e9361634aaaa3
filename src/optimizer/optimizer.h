/// \file optimizer.h
/// \brief The cost-based optimizer facade: greedy left-deep join ordering
/// driven by cardinality estimates, plus the execute-and-learn feedback
/// loop that closes the producer/consumer cycle of Fig. 5.
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "optimizer/cardinality.h"
#include "optimizer/plan_store.h"
#include "optimizer/stats.h"
#include "sql/executor.h"
#include "sql/plan.h"
#include "sql/planner.h"

namespace ofi::optimizer {

/// One base relation of a join query.
struct ScanSpec {
  std::string table;
  sql::ExprPtr predicate;  // pushed-down filter, may be null
  std::string alias;       // optional qualifier
};

/// \brief Plans, executes and learns.
class Optimizer {
 public:
  /// \param store may be null to run in pure-statistics mode (the "before
  /// learning" baseline of experiment E4).
  Optimizer(const sql::Catalog* catalog, const StatsRegistry* stats,
            PlanStore* store)
      : catalog_(catalog), estimator_(stats, store), store_(store) {}

  /// Builds a left-deep join plan over `scans`, greedily picking the next
  /// relation that minimizes the estimated intermediate cardinality.
  /// Join predicates are attached as soon as both sides are in the prefix.
  Result<sql::PlanPtr> PlanJoinQuery(std::vector<ScanSpec> scans,
                                     std::vector<sql::ExprPtr> join_preds) const;

  /// Plans a SELECT against the catalog with PlanJoinQuery as the join
  /// orderer (sql::PlanSelect's JoinPlanner hook).
  Result<sql::PlanPtr> PlanSelect(const sql::SelectStatement& stmt) const;

  /// Annotates estimated cardinalities (plan store consulted first).
  void Annotate(const sql::PlanPtr& plan) const { estimator_.Annotate(plan.get()); }

  /// Executes the plan and, when a plan store is attached, captures steps
  /// with large estimate/actual differentials (the producer of Fig. 5).
  /// Returns the query result; `captured` (optional) receives the number of
  /// steps captured.
  Result<sql::Table> ExecuteAndLearn(const sql::PlanPtr& plan,
                                     int* captured = nullptr);

  const CardinalityEstimator& estimator() const { return estimator_; }

  /// q-error of one executed+annotated step: max(e,a)/min(e,a), floored at 1.
  static double StepQError(double estimated, double actual);
  /// Collects q-errors of all executed cardinality steps in the plan.
  static void CollectQErrors(const sql::PlanNode& node, std::vector<double>* out);
  /// The maximum q-error across the plan — the headline metric of E4.
  static double MaxQError(const sql::PlanNode& root);

 private:
  const sql::Catalog* catalog_;
  CardinalityEstimator estimator_;
  PlanStore* store_;
};

}  // namespace ofi::optimizer
