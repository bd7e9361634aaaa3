#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>

#include "optimizer/step_text.h"

namespace ofi::optimizer {

Result<sql::PlanPtr> Optimizer::PlanSelect(
    const sql::SelectStatement& stmt) const {
  sql::JoinPlanner join_planner =
      [this](std::vector<sql::PlannedScan> scans,
             std::vector<sql::ExprPtr> preds) -> Result<sql::PlanPtr> {
    std::vector<ScanSpec> specs;
    specs.reserve(scans.size());
    for (auto& s : scans) {
      specs.push_back(ScanSpec{s.table, s.predicate, s.alias});
    }
    return PlanJoinQuery(std::move(specs), std::move(preds));
  };
  return sql::PlanSelect(stmt, *catalog_, join_planner);
}

Result<sql::PlanPtr> Optimizer::PlanJoinQuery(
    std::vector<ScanSpec> scans, std::vector<sql::ExprPtr> join_preds) const {
  if (scans.empty()) return Status::InvalidArgument("no relations to plan");

  // Build and estimate each base scan.
  struct Rel {
    sql::PlanPtr plan;
    std::vector<std::string> columns;  // output column names (qualified)
    bool used = false;
  };
  std::vector<Rel> rels;
  for (auto& s : scans) {
    OFI_ASSIGN_OR_RETURN(auto table, catalog_->Get(s.table));
    sql::PlanPtr scan = sql::MakeScan(s.table, s.predicate, s.alias);
    estimator_.Annotate(scan.get());
    Rel rel;
    rel.plan = scan;
    const sql::Schema schema = s.alias.empty()
                                   ? table->schema()
                                   : table->schema().WithQualifier(s.alias);
    for (const auto& c : schema.columns()) {
      rel.columns.push_back(c.QualifiedName());
      rel.columns.push_back(c.name);
    }
    rels.push_back(std::move(rel));
  }

  auto rel_has_column = [&](const Rel& r, const std::string& col) {
    return std::find(r.columns.begin(), r.columns.end(), col) != r.columns.end();
  };

  // A predicate is applicable once every referenced column is covered.
  auto pred_applicable = [&](const sql::ExprPtr& p,
                             const std::vector<std::string>& covered) {
    std::vector<std::string> cols;
    p->CollectColumns(&cols);
    for (const auto& c : cols) {
      if (std::find(covered.begin(), covered.end(), c) == covered.end()) {
        return false;
      }
    }
    return true;
  };

  // Start from the smallest estimated relation.
  size_t start = 0;
  for (size_t i = 1; i < rels.size(); ++i) {
    if (rels[i].plan->estimated_rows < rels[start].plan->estimated_rows) start = i;
  }
  rels[start].used = true;
  sql::PlanPtr current = rels[start].plan;
  std::vector<std::string> covered = rels[start].columns;
  std::vector<bool> pred_used(join_preds.size(), false);

  for (size_t step = 1; step < rels.size(); ++step) {
    double best_card = -1;
    size_t best_rel = SIZE_MAX;
    sql::PlanPtr best_plan;
    std::vector<size_t> best_preds;

    for (size_t i = 0; i < rels.size(); ++i) {
      if (rels[i].used) continue;
      // Predicates that become applicable by adding relation i.
      std::vector<std::string> cand_cols = covered;
      cand_cols.insert(cand_cols.end(), rels[i].columns.begin(),
                       rels[i].columns.end());
      std::vector<sql::ExprPtr> applicable;
      std::vector<size_t> applicable_idx;
      for (size_t p = 0; p < join_preds.size(); ++p) {
        if (pred_used[p]) continue;
        if (pred_applicable(join_preds[p], cand_cols)) {
          applicable.push_back(join_preds[p]);
          applicable_idx.push_back(p);
        }
      }
      sql::PlanPtr join =
          sql::MakeJoin(current, rels[i].plan, sql::ConjoinAll(applicable));
      estimator_.Annotate(join.get());
      double card = join->estimated_rows;
      // Prefer connected joins over cross products, then lowest cardinality.
      bool connected = !applicable.empty();
      bool best_connected = !best_preds.empty();
      bool better = best_rel == SIZE_MAX ||
                    (connected && !best_connected) ||
                    (connected == best_connected && card < best_card);
      if (better) {
        best_card = card;
        best_rel = i;
        best_plan = join;
        best_preds = applicable_idx;
      }
    }
    rels[best_rel].used = true;
    covered.insert(covered.end(), rels[best_rel].columns.begin(),
                   rels[best_rel].columns.end());
    for (size_t p : best_preds) pred_used[p] = true;
    current = best_plan;
  }

  // Any predicate never attached (e.g. referencing projected names) becomes
  // a post-join filter.
  std::vector<sql::ExprPtr> leftover;
  for (size_t p = 0; p < join_preds.size(); ++p) {
    if (!pred_used[p]) leftover.push_back(join_preds[p]);
  }
  if (!leftover.empty()) {
    current = sql::MakeFilter(current, sql::ConjoinAll(leftover));
  }
  estimator_.Annotate(current.get());
  return current;
}

Result<sql::Table> Optimizer::ExecuteAndLearn(const sql::PlanPtr& plan,
                                              int* captured) {
  sql::Executor exec(catalog_);
  OFI_ASSIGN_OR_RETURN(sql::Table result, exec.Execute(plan));
  int n = store_ != nullptr ? store_->CapturePlan(*plan) : 0;
  if (captured != nullptr) *captured = n;
  return result;
}

double Optimizer::StepQError(double estimated, double actual) {
  double e = std::max(estimated, 1.0);
  double a = std::max(actual, 1.0);
  return std::max(e, a) / std::min(e, a);
}

void Optimizer::CollectQErrors(const sql::PlanNode& node,
                               std::vector<double>* out) {
  for (const auto& c : node.children) CollectQErrors(*c, out);
  if (IsCardinalityStep(node.kind) && node.actual_rows >= 0 &&
      node.estimated_rows >= 0) {
    out->push_back(StepQError(node.estimated_rows, node.actual_rows));
  }
}

double Optimizer::MaxQError(const sql::PlanNode& root) {
  std::vector<double> qs;
  CollectQErrors(root, &qs);
  double m = 1.0;
  for (double q : qs) m = std::max(m, q);
  return m;
}

}  // namespace ofi::optimizer
