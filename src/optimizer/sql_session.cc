#include "optimizer/sql_session.h"

namespace ofi::optimizer {

SqlSession::SqlSession(double capture_threshold)
    : store_(capture_threshold < 0 ? 1e18 : capture_threshold),
      learning_(capture_threshold >= 0) {}

Result<sql::PlanPtr> SqlSession::PlanQuery(const sql::SelectStatement& stmt) {
  Optimizer opt(&catalog_, &stats_, learning_ ? &store_ : nullptr);
  OFI_ASSIGN_OR_RETURN(sql::PlanPtr plan, opt.PlanSelect(stmt));
  opt.Annotate(plan);
  return plan;
}

Result<sql::Table> SqlSession::Execute(const std::string& statement) {
  OFI_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(statement));
  switch (stmt.kind) {
    case sql::StatementKind::kCreateTable: {
      const auto& create = *stmt.create_table;
      if (catalog_.Contains(create.table)) {
        return Status::AlreadyExists("table exists: " + create.table);
      }
      // Qualify columns with the table name for qualified references.
      catalog_.Register(create.table,
                        sql::Table(create.schema.WithQualifier(create.table)));
      stats_.Put(create.table, TableStats{});
      return sql::Table{};
    }
    case sql::StatementKind::kDropTable: {
      OFI_RETURN_NOT_OK(catalog_.Drop(stmt.drop_table->table));
      return sql::Table{};
    }
    case sql::StatementKind::kCreateIndex: {
      // Secondary indexes are a physical access-path choice; the
      // single-node executor always scans, so the statement only needs to
      // validate (scripts stay portable between this session and the
      // distributed one).
      if (!catalog_.Contains(stmt.create_index->table)) {
        return Status::NotFound("no such table: " + stmt.create_index->table);
      }
      return sql::Table{};
    }
    case sql::StatementKind::kDropIndex:
      return sql::Table{};
    case sql::StatementKind::kInsert: {
      const auto& insert = *stmt.insert;
      OFI_ASSIGN_OR_RETURN(auto table, catalog_.Get(insert.table));
      for (const auto& row : insert.rows) {
        OFI_RETURN_NOT_OK(table->Append(row));
      }
      // Keep statistics fresh enough for small interactive sessions.
      stats_.Put(insert.table, AnalyzeTable(*table));
      return sql::Table{};
    }
    case sql::StatementKind::kSelect: {
      OFI_ASSIGN_OR_RETURN(sql::PlanPtr plan, PlanQuery(*stmt.select));
      Optimizer opt(&catalog_, &stats_, learning_ ? &store_ : nullptr);
      OFI_ASSIGN_OR_RETURN(sql::Table result, opt.ExecuteAndLearn(plan));
      last_max_qerror_ = Optimizer::MaxQError(*plan);
      return result;
    }
  }
  return Status::Internal("unhandled statement kind");
}

Result<std::string> SqlSession::Explain(const std::string& query) {
  OFI_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(query));
  if (stmt.kind != sql::StatementKind::kSelect) {
    return Status::InvalidArgument("EXPLAIN supports SELECT only");
  }
  OFI_ASSIGN_OR_RETURN(sql::PlanPtr plan, PlanQuery(*stmt.select));
  return plan->ToString();
}

}  // namespace ofi::optimizer
