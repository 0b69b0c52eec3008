// PPA — Progressive Personalized Answers (Section 5, Figure 6).
//
// Presence and 1-1 absence preferences become "presence queries" S_i
// (a returned tuple satisfies the preference); 1-n absence preferences
// become "absence queries" A_i in presence form (a returned tuple FAILS the
// preference). Both sets are ordered by increasing estimated selectivity
// using histograms. For each newly seen tuple t, parameterized point queries
// Q_i^S(t) / Q_i^A(t) determine exactly which remaining preferences t
// satisfies, so results are self-explanatory and can be ranked with any
// mixed-combination function. Tuples are emitted progressively as soon as
// their doi meets MEDI, the maximum estimated degree of interest any unseen
// tuple could still achieve.
//
// Planning and execution are split: BuildPlan derives the S/A query sets,
// their selectivity ordering and the prepared index walks once, and
// GenerateWithPlan runs the progressive algorithm over the (immutable,
// shareable) plan. The serving layer caches plans per query/preference-set
// and invalidates them via the profile and stats epochs: a plan embeds
// histogram-derived ordering and pointers into table hash indexes, so it is
// only valid while profile and data stay unchanged.

#pragma once

#include <functional>
#include <memory>

#include "common/cancel.h"
#include "common/status.h"
#include "core/answer.h"
#include "core/ranking.h"
#include "core/rewrite.h"
#include "exec/executor.h"
#include "stats/table_stats.h"

namespace qp::core {

/// Internal representation of a built PPA plan (defined in ppa.cc).
struct PpaPlanRep;

/// \brief Generates progressive personalized answers.
class PpaGenerator {
 public:
  struct Options {
    /// Minimum number of the K preferences a returned tuple must satisfy.
    size_t L = 1;
    /// Ranking function for tuple dois and for MEDI.
    RankingFunction ranking =
        RankingFunction::Make(CombinationStyle::kInflationary);
    /// Invoked for each tuple the moment it is safe to emit (doi >= MEDI).
    std::function<void(const PersonalizedTuple&)> on_emit;
    /// Stop after this many tuples (0 = all). Because PPA emits in final
    /// rank order under the MEDI bound, the first N emitted ARE the top-N —
    /// remaining queries and probes are skipped entirely.
    size_t top_n = 0;
    /// Unified execution options: morsel-driven parallelism for the S/A
    /// queries and for the per-tuple point probes, which are independent
    /// and fan out across one pool: `exec.pool` when injected, else one the
    /// call owns and shares with its executor. Emission order — and
    /// hence every MEDI progressiveness guarantee — is identical at every
    /// thread count: probes compute into per-tuple slots and tuples enter
    /// the pending queue serially in base-row order.
    exec::ExecOptions exec;
    /// Optional trace sink. Every round of the one round loop records one
    /// span, "S query i/|S|" or "A query i/|A|" in round order (with the
    /// executor's plan and one "hit map pref i" span per hit map the round
    /// builds as children, and pref/est_selectivity/rows/fresh attrs); the
    /// complement scan records "complement scan (step 3)" (rows/fresh), and
    /// a final "first_response" span carries
    /// AnswerStats::first_response_seconds. Everything but the timings is
    /// deterministic across thread counts. Not owned; must not be shared
    /// with a concurrent generation.
    obs::TraceSpan* trace = nullptr;
    /// Optional cooperative cancellation / deadline token (not owned).
    /// Polled at every round boundary — before each S query, each A query
    /// and the complement scan — inside the executor at morsel boundaries,
    /// and before each probed tuple of an S or A round. When it fires,
    /// generation stops and returns the progressive prefix emitted so far
    /// with stats.partial = true and stats.rounds_run = the cut round (a
    /// round interrupted from inside is discarded whole); a prefix cut at
    /// round r is byte-identical to the full answer's first tuples at every
    /// thread count (the partial-answer determinism contract). A token
    /// whose forced cut round is set (CancelToken::ForceCutAtRound) cuts at
    /// that exact boundary independent of wall time.
    const common::CancelToken* cancel = nullptr;
  };

  /// \brief An immutable, reusable PPA plan: rewritten S/A query sets in
  /// selectivity order, prepared walks and probe conditions, and the
  /// id-extended base query. Cheap to copy (shared representation); safe to
  /// execute concurrently.
  class Plan {
   public:
    Plan() = default;
    bool valid() const { return rep_ != nullptr; }

   private:
    friend class PpaGenerator;
    std::shared_ptr<const PpaPlanRep> rep_;
  };

  /// `stats` provides the selectivity estimates that order the query sets;
  /// it may be null (arbitrary order — exercised by the ordering ablation).
  PpaGenerator(const storage::Database* db, stats::StatsManager* stats)
      : db_(db), stats_(stats), rewriter_(db) {}

  /// Plans PPA for `base` under `preferences`. The base query's first FROM
  /// entry is the target relation and must have a single-column primary key
  /// (the paper's "tuple id").
  Result<Plan> BuildPlan(const sql::SelectQuery& base,
                         const std::vector<SelectedPreference>& preferences)
      const;

  /// Runs the progressive algorithm over a previously built plan.
  Result<PersonalizedAnswer> GenerateWithPlan(const Plan& plan,
                                              const Options& options) const;

  /// BuildPlan + GenerateWithPlan in one shot (the cold path).
  Result<PersonalizedAnswer> Generate(
      const sql::SelectQuery& base,
      const std::vector<SelectedPreference>& preferences,
      const Options& options) const;

 private:
  const storage::Database* db_;
  stats::StatsManager* stats_;
  QueryRewriter rewriter_;
};

}  // namespace qp::core
