#include "core/spa.h"

#include <chrono>

namespace qp::core {

using sql::Expr;
using sql::ExprPtr;
using sql::SelectQuery;
using sql::TableRef;
using storage::Value;

Result<sql::QueryPtr> SpaGenerator::BuildPersonalizedQuery(
    const SelectQuery& base, const std::vector<SelectedPreference>& preferences,
    size_t L) const {
  if (preferences.empty()) {
    return Status::InvalidQuery("no preferences to integrate");
  }
  for (const auto& item : base.select) {
    if (item.OutputName() == "degree") {
      return Status::InvalidQuery(
          "base query already projects a column named 'degree'");
    }
  }

  std::vector<SelectQuery> branches;
  branches.reserve(preferences.size());
  for (const auto& selected : preferences) {
    QP_ASSIGN_OR_RETURN(
        SelectQuery branch,
        rewriter_.BuildSatisfactionQuery(base, selected.pref));
    // Join fan-out may return the same base tuple several times within one
    // sub-query (e.g. an actor cast twice in a movie); each preference must
    // count once toward L, so group the branch by the projection and keep
    // the strongest degree.
    SelectQuery grouped;
    grouped.from = branch.from;
    grouped.where = branch.where;
    for (size_t c = 0; c + 1 < branch.select.size(); ++c) {
      grouped.select.push_back(branch.select[c]);
      grouped.group_by.push_back(branch.select[c].expr);
    }
    grouped.select.push_back(
        {Expr::Aggregate("max", branch.select.back().expr), "degree"});
    branches.push_back(std::move(grouped));
  }
  sql::QueryPtr united = sql::Query::UnionAll(std::move(branches));

  // Outer query: group by the original projection, HAVING count >= L,
  // order by rank(degree) descending.
  SelectQuery outer;
  outer.from.push_back(TableRef{std::string(), std::string("u"), united});
  for (const auto& item : base.select) {
    ExprPtr col = Expr::Column("u", item.OutputName());
    outer.select.push_back({col, item.OutputName()});
    outer.group_by.push_back(col);
  }
  ExprPtr rank = Expr::Aggregate("rank", Expr::Column("u", "degree"));
  outer.select.push_back({rank, "doi"});
  outer.having =
      Expr::Compare(sql::BinaryOp::kGe, Expr::Aggregate("count", nullptr),
                    Expr::Literal(Value(static_cast<int64_t>(L))));
  outer.order_by.push_back({rank, /*ascending=*/false});
  return sql::Query::Single(std::move(outer));
}

namespace {

/// The UDA behind rank(degree): collects satisfaction degrees and applies
/// the positive combination of the configured ranking function.
class RankAggregator : public exec::Aggregator {
 public:
  explicit RankAggregator(const RankingFunction* ranking)
      : ranking_(ranking) {}

  void Add(const Value& v) override {
    if (v.is_numeric()) degrees_.push_back(v.ToNumeric());
  }
  Value Finalize() const override {
    return Value(ranking_->RankPositive(degrees_));
  }

 private:
  const RankingFunction* ranking_;
  mutable std::vector<double> degrees_;
};

}  // namespace

Result<SpaGenerator::Plan> SpaGenerator::BuildPlan(
    const SelectQuery& base, const std::vector<SelectedPreference>& preferences,
    size_t L) const {
  Plan plan;
  QP_ASSIGN_OR_RETURN(plan.query, BuildPersonalizedQuery(base, preferences, L));
  plan.preferences = preferences;
  return plan;
}

Result<PersonalizedAnswer> SpaGenerator::Generate(
    const SelectQuery& base, const std::vector<SelectedPreference>& preferences,
    size_t L) const {
  QP_ASSIGN_OR_RETURN(Plan plan, BuildPlan(base, preferences, L));
  return GenerateWithPlan(plan);
}

Result<PersonalizedAnswer> SpaGenerator::GenerateWithPlan(
    const Plan& plan, obs::TraceSpan* trace) const {
  const auto start = std::chrono::steady_clock::now();
  const sql::QueryPtr& query = plan.query;
  const std::vector<SelectedPreference>& preferences = plan.preferences;

  exec::AggregateRegistry registry;
  const RankingFunction* ranking = &ranking_;
  QP_RETURN_IF_ERROR(registry.Register("rank", [ranking]() {
    return std::unique_ptr<exec::Aggregator>(new RankAggregator(ranking));
  }));
  exec::Executor executor(db_, &registry, exec_options_);
  QP_ASSIGN_OR_RETURN(exec::RowSet rows, executor.Execute(*query, trace));

  PersonalizedAnswer answer;
  answer.preferences = preferences;
  // Output columns: everything except the trailing doi column.
  for (size_t c = 0; c + 1 < rows.num_columns(); ++c) {
    answer.columns.push_back(rows.columns()[c]);
  }
  for (auto& row : rows.rows()) {
    PersonalizedTuple t;
    t.doi = row.back().is_numeric() ? row.back().ToNumeric() : 0.0;
    row.pop_back();
    t.values = std::move(row);
    answer.tuples.push_back(std::move(t));
  }
  const auto end = std::chrono::steady_clock::now();
  answer.stats.generation_seconds =
      std::chrono::duration<double>(end - start).count();
  answer.stats.first_response_seconds = answer.stats.generation_seconds;
  FillWorkStats(executor, &answer);
  return answer;
}

}  // namespace qp::core
