#include "core/pipeline.h"

#include <algorithm>

#include "sql/parser.h"

namespace qp::core {

Result<ResolvedPersonalization> ResolvePersonalization(
    const PersonalizeOptions& options, const UserProfile& profile) {
  ResolvedPersonalization out;
  out.ranking = options.use_profile_ranking
                    ? profile.PreferredRankingOr(options.ranking)
                    : options.ranking;
  if (options.descriptor.has_value()) {
    const DescriptorRegistry default_registry = DescriptorRegistry::Default();
    const DescriptorRegistry* registry = options.descriptors != nullptr
                                             ? options.descriptors
                                             : &default_registry;
    QP_ASSIGN_OR_RETURN(out.interval, registry->Lookup(*options.descriptor));
  }
  return out;
}

Result<std::vector<SelectedPreference>> RunSelection(
    const PersonalizationGraph& graph, const sql::SelectQuery& query,
    const PersonalizeOptions& options,
    const ResolvedPersonalization& resolved) {
  const QueryContext ctx = QueryContext::FromQuery(query);
  PreferenceSelector selector(&graph);
  std::optional<double> target = options.target_doi;
  if (!target.has_value() && resolved.interval.has_value()) {
    target = std::max(0.0, resolved.interval->lo);
  }
  if (target.has_value()) {
    PreferenceSelector::DoiTargetOptions doi_options;
    doi_options.target_doi = *target;
    doi_options.ranking = resolved.ranking;
    return selector.SelectByResultInterest(ctx, doi_options);
  }
  SelectionCriterion criterion{options.k, options.min_criticality};
  if (options.selection == SelectionAlgorithm::kSps) {
    return selector.SelectSPS(ctx, criterion);
  }
  return selector.SelectFakeCrit(ctx, criterion);
}

Status ValidateSelection(const std::vector<SelectedPreference>& preferences,
                         const PersonalizeOptions& options) {
  if (preferences.empty()) {
    return Status::NotFound(
        "no preferences in the profile relate to this query");
  }
  if (options.l > preferences.size()) {
    return Status::InvalidQuery(
        "L = " + std::to_string(options.l) + " exceeds the " +
        std::to_string(preferences.size()) + " selected preferences");
  }
  return Status::OK();
}

Result<IntegrationPlan> BuildIntegrationPlan(
    const storage::Database* db, stats::StatsManager* stats,
    const sql::SelectQuery& query,
    const std::vector<SelectedPreference>& preferences,
    const PersonalizeOptions& options) {
  IntegrationPlan plan;
  plan.algorithm = options.algorithm;
  if (options.algorithm == AnswerAlgorithm::kSpa) {
    // Planning needs neither the ranking nor exec options (both bind at
    // execution time), so a default-configured generator builds the plan.
    SpaGenerator spa(db, options.ranking);
    QP_ASSIGN_OR_RETURN(plan.spa,
                        spa.BuildPlan(query, preferences, options.l));
  } else {
    PpaGenerator ppa(db, stats);
    QP_ASSIGN_OR_RETURN(plan.ppa, ppa.BuildPlan(query, preferences));
  }
  return plan;
}

Result<PersonalizedAnswer> ExecuteIntegrationPlan(
    const storage::Database* db, const IntegrationPlan& plan,
    const PersonalizeOptions& options,
    const ResolvedPersonalization& resolved) {
  obs::TraceSpan* exec_span =
      options.trace != nullptr
          ? options.trace->AddChild(
                plan.algorithm == AnswerAlgorithm::kSpa ? "execute: spa"
                                                        : "execute: ppa")
          : nullptr;
  obs::SpanTimer exec_timer(exec_span);
  if (plan.algorithm == AnswerAlgorithm::kSpa) {
    exec::ExecOptions spa_exec = options.exec;
    if (spa_exec.cancel == nullptr) spa_exec.cancel = options.cancel;
    SpaGenerator spa(db, resolved.ranking, spa_exec);
    QP_ASSIGN_OR_RETURN(PersonalizedAnswer answer,
                        spa.GenerateWithPlan(plan.spa, exec_span));
    if (options.top_n > 0 && answer.tuples.size() > options.top_n) {
      answer.tuples.resize(options.top_n);
      answer.stats.tuples_returned = answer.tuples.size();
    }
    exec_timer.Stop();
    if (exec_span != nullptr) {
      exec_span->AddAttr("tuples", answer.tuples.size());
    }
    return answer;
  }
  // PPA execution reads the plan only; stats mattered at planning time.
  PpaGenerator ppa(db, nullptr);
  PpaGenerator::Options ppa_options;
  ppa_options.L = options.l;
  ppa_options.ranking = resolved.ranking;
  ppa_options.on_emit = options.on_emit;
  ppa_options.top_n = options.top_n;
  ppa_options.exec = options.exec;
  ppa_options.trace = exec_span;
  ppa_options.cancel = options.cancel;
  QP_ASSIGN_OR_RETURN(PersonalizedAnswer answer,
                      ppa.GenerateWithPlan(plan.ppa, ppa_options));
  exec_timer.Stop();
  if (exec_span != nullptr) {
    exec_span->AddAttr("tuples", answer.tuples.size());
  }
  return answer;
}

void FinalizeAnswer(const ResolvedPersonalization& resolved,
                    double selection_seconds, PersonalizedAnswer& answer) {
  answer.stats.selection_seconds = selection_seconds;
  if (resolved.interval.has_value()) {
    // Keep only tuples whose doi falls in the descriptor's interval.
    std::vector<PersonalizedTuple> kept;
    for (auto& t : answer.tuples) {
      if (resolved.interval->Contains(t.doi)) kept.push_back(std::move(t));
    }
    answer.tuples = std::move(kept);
    answer.stats.tuples_returned = answer.tuples.size();
  }
}

Result<sql::SelectQuery> ParseSingleSelect(const std::string& sql) {
  QP_ASSIGN_OR_RETURN(sql::QueryPtr query, sql::ParseQuery(sql));
  if (query->is_union()) {
    return Status::InvalidQuery(
        "personalization applies to a single SELECT block");
  }
  return query->single();
}

}  // namespace qp::core
