// The personalization pipeline, decomposed into its cacheable stages.
//
// There is exactly one implementation of each stage — option resolution,
// preference selection, selection validation, integration planning, plan
// execution and answer finalization — and both front doors are assembled
// from them: the cold path (core::Personalizer) runs every stage per call,
// while the warm path (serve::Session) caches the intermediate artifacts
// (selected-preference sets, integration plans) keyed by profile/stats
// epochs and skips the stages whose inputs haven't changed. Because a cache
// hit re-enters the SAME execution code a cold run would use, warm answers
// are byte-identical to cold ones by construction (see SameAnswerPayload).
//
// This header also owns PersonalizeOptions so both layers can share it
// without a dependency cycle; personalizer.h re-exports it.

#pragma once

#include <optional>
#include <string>

#include "common/status.h"
#include "core/answer.h"
#include "core/descriptor.h"
#include "core/graph.h"
#include "core/ppa.h"
#include "core/profile.h"
#include "core/select_top_k.h"
#include "core/spa.h"
#include "stats/table_stats.h"

namespace qp::core {

/// Which answer-generation algorithm to run.
enum class AnswerAlgorithm {
  kSpa,
  kPpa,
};

/// Which preference-selection algorithm to run.
enum class SelectionAlgorithm {
  kFakeCrit,
  kSps,
};

/// \brief Everything configurable about one personalization call.
struct PersonalizeOptions {
  /// Number of top preferences to select (0 = all related preferences).
  size_t k = 10;
  /// Minimum preferences a tuple must satisfy (L <= K).
  size_t l = 1;
  /// Criticality threshold c0 (alternative/additional criterion to k).
  double min_criticality = 0.0;
  /// Instead of k / min_criticality, select preferences until results are
  /// guaranteed at least this doi (Section 4.2). Disabled when unset.
  std::optional<double> target_doi;
  /// Qualitative descriptor for the desired results ("best", "good", ...;
  /// Section 2): preferences are selected with the interval's lower bound
  /// as the doi target and answer tuples are filtered to the interval.
  /// Looked up in `descriptors` (the default registry when null).
  std::optional<std::string> descriptor;
  const DescriptorRegistry* descriptors = nullptr;
  /// Use the profile's stored ranking philosophy (Section 6.3) instead of
  /// `ranking` when the profile has one.
  bool use_profile_ranking = false;
  /// Return only the best `top_n` tuples (0 = all). PPA stops its remaining
  /// queries and probes as soon as the top-N have been safely emitted.
  size_t top_n = 0;
  /// Unified execution options for answer generation: morsel-driven
  /// execution of SPA's integrated query, and of PPA's S/A queries plus its
  /// batched point probes. A serving layer injects its shared ThreadPool
  /// through `exec.pool`. Results and emission order are identical at every
  /// parallelism; the default runs fully serial.
  exec::ExecOptions exec;
  /// Optional per-call trace sink. Each pipeline stage (graph/selection,
  /// planning, execution) records a span under it; the execution span nests
  /// the algorithm's own spans (PPA S/A query rounds + "first_response",
  /// SPA union branches). Everything except the wall times is deterministic
  /// across thread counts. Not owned; must not be shared with a concurrent
  /// call.
  obs::TraceSpan* trace = nullptr;
  /// Optional cooperative cancellation / deadline token (not owned), polled
  /// inside answer generation. For PPA a fired token cuts generation at the
  /// next S/A round boundary and the call still SUCCEEDS, returning the
  /// progressive prefix with stats.partial = true (see
  /// PpaGenerator::Options::cancel for the determinism contract). SPA has
  /// no prefix to salvage: its single integrated query aborts and the call
  /// fails with kDeadlineExceeded / kCancelled.
  const common::CancelToken* cancel = nullptr;

  SelectionAlgorithm selection = SelectionAlgorithm::kFakeCrit;
  AnswerAlgorithm algorithm = AnswerAlgorithm::kPpa;
  RankingFunction ranking =
      RankingFunction::Make(CombinationStyle::kInflationary);
  /// Progressive emission callback (PPA only).
  std::function<void(const PersonalizedTuple&)> on_emit;
};

/// The per-call bindings derived from options + profile: the effective
/// ranking function (profile override) and, when a descriptor is set, the
/// target doi interval.
struct ResolvedPersonalization {
  RankingFunction ranking;
  std::optional<DoiInterval> interval;
};

/// Stage 0 — resolve the options against the profile. Fails with
/// kInvalidArgument when the descriptor is unknown.
Result<ResolvedPersonalization> ResolvePersonalization(
    const PersonalizeOptions& options, const UserProfile& profile);

/// Stage 1 — preference selection: the top-K (or doi-targeted) preferences
/// the options select for `query` from `graph`.
Result<std::vector<SelectedPreference>> RunSelection(
    const PersonalizationGraph& graph, const sql::SelectQuery& query,
    const PersonalizeOptions& options,
    const ResolvedPersonalization& resolved);

/// Stage 1b — checks a selection can produce an answer: kNotFound when
/// nothing relates to the query, kInvalidQuery when L exceeds the selected
/// count (a caller bug: retrying with the same inputs cannot succeed).
Status ValidateSelection(const std::vector<SelectedPreference>& preferences,
                         const PersonalizeOptions& options);

/// Stage 2's artifact — one algorithm's prepared integration plan. Holds
/// whichever of the two plans the options' algorithm selects; immutable and
/// safe to share across threads once built.
struct IntegrationPlan {
  AnswerAlgorithm algorithm = AnswerAlgorithm::kPpa;
  SpaGenerator::Plan spa;  ///< set when algorithm == kSpa
  PpaGenerator::Plan ppa;  ///< set when algorithm == kPpa
};

/// Stage 2 — preference integration: builds the plan without executing any
/// query. `stats` orders PPA's query sets (nullable: arbitrary order).
Result<IntegrationPlan> BuildIntegrationPlan(
    const storage::Database* db, stats::StatsManager* stats,
    const sql::SelectQuery& query,
    const std::vector<SelectedPreference>& preferences,
    const PersonalizeOptions& options);

/// Stage 3 — answer generation: executes a prepared plan. Applies the
/// ranking from `resolved` and the options' top-N bound.
Result<PersonalizedAnswer> ExecuteIntegrationPlan(
    const storage::Database* db, const IntegrationPlan& plan,
    const PersonalizeOptions& options,
    const ResolvedPersonalization& resolved);

/// Stage 4 — stamps the selection time and applies the descriptor's doi
/// interval filter.
void FinalizeAnswer(const ResolvedPersonalization& resolved,
                    double selection_seconds, PersonalizedAnswer& answer);

/// Parses `sql` and requires a single SELECT block (kInvalidQuery
/// otherwise) — the shared front-door parse of Personalizer and serve.
Result<sql::SelectQuery> ParseSingleSelect(const std::string& sql);

}  // namespace qp::core
