#include "core/ppa.h"

#include "core/path_probe.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/thread_pool.h"

namespace qp::core {

using sql::BinaryOp;
using sql::Expr;
using sql::SelectQuery;
using storage::Value;

/// One planned query (S_i or A_i).
struct PpaPrefPlan {
  size_t pref_index = 0;  ///< into the selected-preferences vector
  PreferenceKind kind = PreferenceKind::kPresence;
  bool satisfied_when_true = true;
  double satisfaction_degree = 0.0;
  double failure_degree = 0.0;
  SelectQuery query;  ///< full query: base.select + _tid + degree
  /// Prepared parameterized point query Q_i(t): an index into the shared
  /// walk table plus the compiled condition. -1 when the preference does
  /// not anchor at the base query's target relation; its probes then read
  /// a per-call hit map built by running `query` once, so they cost one
  /// query per preference per call.
  int walk_id = -1;
  PathCondition condition;
  double est_selectivity = 1.0;
};

/// The immutable plan behind PpaGenerator::Plan: everything Generate used to
/// derive up front — the id-extended base query, the S/A query sets already
/// in selectivity order, and the prepared walks the point probes share.
/// Walks hold pointers into table hash indexes and the ordering bakes in
/// histogram estimates, so a cached rep must be dropped when the stats epoch
/// moves.
struct PpaPlanRep {
  SelectQuery base2;            ///< base query extended with the _tid column
  size_t n_base_cols = 0;       ///< projection width without _tid/degree
  std::vector<std::string> column_names;  ///< base projection output names
  std::vector<SelectedPreference> preferences;
  std::vector<PathWalk> walks;
  std::vector<PpaPrefPlan> s_plans;  ///< presence + 1-1 absence, asc. sel.
  std::vector<PpaPrefPlan> a_plans;  ///< 1-n absence, ascending selectivity
};

namespace {

/// Result of one parameterized probe: did tuple t satisfy the preference,
/// and with which per-tuple degree.
struct ProbeOutcome {
  bool satisfied = false;
  double degree = 0.0;
};

/// One walk-less plan's probes for every tuple at once: the plan's S/A
/// query folded into tid -> max per-row degree. A tuple is a hit iff some
/// row carries its tid.
using HitMap = std::unordered_map<Value, double, storage::ValueHash>;

/// Working record for one tuple id.
struct TupleRecord {
  storage::Row values;  ///< base projection (without _tid / degree)
  std::vector<PreferenceOutcome> satisfied;
  std::vector<PreferenceOutcome> failed;
  double doi = 0.0;
};

/// Per-morsel probe scratch: the walk frontiers for one tuple, shared across
/// the preferences probing the same path. Each concurrent probe morsel owns
/// its own context, so frontier reuse needs no synchronization.
struct ProbeContext {
  std::vector<std::vector<const storage::Row*>> frontiers;
  std::vector<char> valid;

  explicit ProbeContext(size_t walk_count)
      : frontiers(walk_count), valid(walk_count, 0) {}

  /// Invalidates cached frontiers when the context moves to a new tuple.
  void Reset() { std::fill(valid.begin(), valid.end(), 0); }
};

/// Upper bound on the positive combination any subset of `degrees` can
/// achieve: the inflationary function is monotone in set extension, but
/// dominant/reserved are bounded by the max element.
double PositiveUpperBound(const RankingFunction& ranking,
                          const std::vector<double>& degrees) {
  if (degrees.empty()) return 0.0;
  if (ranking.positive_style() == CombinationStyle::kInflationary) {
    return CombinePositive(CombinationStyle::kInflationary, degrees);
  }
  return *std::max_element(degrees.begin(), degrees.end());
}

}  // namespace

Result<PpaGenerator::Plan> PpaGenerator::BuildPlan(
    const SelectQuery& base,
    const std::vector<SelectedPreference>& preferences) const {
  if (preferences.empty()) {
    return Status::InvalidQuery("no preferences to integrate");
  }
  if (base.from.empty() || base.from[0].derived != nullptr) {
    return Status::InvalidQuery(
        "PPA needs a base table as the query's first FROM entry");
  }
  for (const auto& item : base.select) {
    const std::string name = item.OutputName();
    if (name == "degree" || name == "_tid") {
      return Status::InvalidQuery("base query projects reserved column '" +
                                  name + "'");
    }
  }
  const std::string anchor = base.from[0].table;
  const std::string anchor_alias = QueryRewriter::BaseAlias(base, anchor);
  QP_ASSIGN_OR_RETURN(const storage::Table* anchor_table,
                      db_->GetTable(anchor));
  const auto& pk = anchor_table->schema().primary_key();
  if (pk.size() != 1) {
    return Status::Unsupported("PPA needs a single-column primary key on '" +
                               anchor + "'");
  }

  auto rep = std::make_shared<PpaPlanRep>();

  // Base query extended with the tuple id.
  rep->base2 = base;
  rep->base2.order_by.clear();
  rep->base2.limit.reset();
  rep->base2.select.push_back({Expr::Column(anchor_alias, pk[0]), "_tid"});
  rep->n_base_cols = base.select.size();
  for (const auto& item : base.select) {
    rep->column_names.push_back(item.OutputName());
  }
  rep->preferences = preferences;

  // ---- Plan S (presence + 1-1 absence) and A (1-n absence) queries. ----
  // Preferences sharing a join path share one prepared walk, the way the
  // branches of the paper's union query Q_i(t) share their scans.
  std::map<std::string, size_t> walk_ids;
  for (size_t i = 0; i < preferences.size(); ++i) {
    const ImplicitPreference& pref = preferences[i].pref;
    if (!pref.has_selection()) {
      return Status::Unsupported("PPA integrates selection preferences only");
    }
    QP_ASSIGN_OR_RETURN(RewrittenPreference parts,
                        rewriter_.Rewrite(rep->base2, pref));
    PpaPrefPlan plan;
    plan.pref_index = i;
    plan.kind = parts.kind;
    plan.satisfied_when_true = parts.satisfied_when_true;
    plan.satisfaction_degree = parts.satisfaction_degree;
    plan.failure_degree = parts.failure_degree;
    if (pref.AnchorRelation() == anchor) {
      auto walk = PathWalk::Prepare(db_, pref);
      auto condition = PathCondition::Prepare(db_, pref);
      if (walk.ok() && condition.ok()) {
        auto [it, inserted] =
            walk_ids.try_emplace(walk->signature(), rep->walks.size());
        if (inserted) rep->walks.push_back(std::move(walk).value());
        plan.walk_id = static_cast<int>(it->second);
        plan.condition = std::move(condition).value();
      }
    }

    // Estimated selectivity of the underlying atomic condition.
    const SelectionPreference& sel = pref.selection();
    double cond_sel = 1.0 / 3.0;
    if (stats_ != nullptr) {
      const DoiFunction& dt = sel.doi.d_true();
      const DoiFunction& df = sel.doi.d_false();
      const DoiFunction* elastic =
          dt.is_elastic() ? &dt : (df.is_elastic() ? &df : nullptr);
      if (elastic != nullptr) {
        cond_sel = stats_->EstimateRangeSelectivity(
            sel.condition.attr, elastic->support_lo(), elastic->support_hi());
      } else {
        stats::CompareOp op = stats::CompareOp::kEq;
        switch (sel.condition.op) {
          case BinaryOp::kEq: op = stats::CompareOp::kEq; break;
          case BinaryOp::kNe: op = stats::CompareOp::kNe; break;
          case BinaryOp::kLt: op = stats::CompareOp::kLt; break;
          case BinaryOp::kLe: op = stats::CompareOp::kLe; break;
          case BinaryOp::kGt: op = stats::CompareOp::kGt; break;
          case BinaryOp::kGe: op = stats::CompareOp::kGe; break;
        }
        cond_sel = stats_->EstimateSelectivity(sel.condition.attr, op,
                                               sel.condition.value);
      }
    }

    if (parts.kind == PreferenceKind::kAbsenceOneN) {
      QP_ASSIGN_OR_RETURN(plan.query,
                          rewriter_.BuildViolationQuery(rep->base2, pref));
      plan.est_selectivity = cond_sel;
      rep->a_plans.push_back(std::move(plan));
    } else {
      QP_ASSIGN_OR_RETURN(plan.query,
                          rewriter_.BuildSatisfactionQuery(rep->base2, pref));
      plan.est_selectivity = parts.kind == PreferenceKind::kAbsenceOneOne
                                 ? 1.0 - cond_sel
                                 : cond_sel;
      rep->s_plans.push_back(std::move(plan));
    }
  }
  std::stable_sort(rep->s_plans.begin(), rep->s_plans.end(),
                   [](const PpaPrefPlan& a, const PpaPrefPlan& b) {
                     return a.est_selectivity < b.est_selectivity;
                   });
  std::stable_sort(rep->a_plans.begin(), rep->a_plans.end(),
                   [](const PpaPrefPlan& a, const PpaPrefPlan& b) {
                     return a.est_selectivity < b.est_selectivity;
                   });

  Plan plan;
  plan.rep_ = std::move(rep);
  return plan;
}

Result<PersonalizedAnswer> PpaGenerator::Generate(
    const SelectQuery& base, const std::vector<SelectedPreference>& preferences,
    const Options& options) const {
  QP_ASSIGN_OR_RETURN(Plan plan, BuildPlan(base, preferences));
  return GenerateWithPlan(plan, options);
}

Result<PersonalizedAnswer> PpaGenerator::GenerateWithPlan(
    const Plan& plan, const Options& options) const {
  if (!plan.valid()) {
    return Status::InvalidArgument("PPA plan is empty (default-constructed)");
  }
  const PpaPlanRep& rep = *plan.rep_;
  const auto start = std::chrono::steady_clock::now();

  exec::ExecOptions exec_options = options.exec;
  if (exec_options.cancel == nullptr) exec_options.cancel = options.cancel;
  // One pool per call: the executor's parallel regions and the point probes
  // fan out over the same workers — the shared pool when one is injected,
  // else a pool this call owns and injects.
  std::unique_ptr<common::ThreadPool> owned_pool;
  if (exec_options.pool == nullptr && exec_options.num_threads > 1) {
    owned_pool =
        std::make_unique<common::ThreadPool>(exec_options.num_threads - 1);
    exec_options.pool = owned_pool.get();
  }
  common::ThreadPool* probe_pool =
      exec_options.parallelism() > 1 ? exec_options.pool : nullptr;
  exec::Executor executor(db_, nullptr, exec_options);

  PersonalizedAnswer answer;
  answer.preferences = rep.preferences;
  for (const auto& name : rep.column_names) {
    answer.columns.push_back({"", name});
  }

  // Deadline / cancellation checkpoints. `rounds_run` counts completed
  // rounds (each S query, each A query, the complement scan); before each
  // round the token may cut generation, and a cancellation status surfacing
  // *inside* a round (the executor's morsel-boundary checks) cuts at the
  // same boundary — the interrupted round's results are discarded, so the
  // answer is exactly the prefix emitted after `rounds_run` complete
  // rounds. Everything about the prefix is deterministic for a given cut
  // round; only WHICH round a wall-clock deadline lands on is timing.
  size_t rounds_run = 0;
  bool cut = false;
  const auto cut_before_round = [&]() {
    return options.cancel != nullptr && options.cancel->CutAtRound(rounds_run);
  };
  const auto interrupted = [&](const Status& s) {
    return IsCancellation(s.code());
  };

  // Result bookkeeping.
  std::unordered_set<Value, storage::ValueHash> seen;
  std::unordered_set<Value, storage::ValueHash> nids;
  std::map<double, std::vector<TupleRecord>, std::greater<double>> pending;
  size_t pending_count = 0;
  bool first_emitted = false;
  const auto top_n_reached = [&]() {
    return options.top_n > 0 && answer.tuples.size() >= options.top_n;
  };
  const auto emit_ready = [&](double medi) {
    while (!pending.empty() && !top_n_reached()) {
      auto it = pending.begin();
      if (it->first < medi) break;
      for (auto& rec : it->second) {
        if (top_n_reached()) break;
        PersonalizedTuple t;
        t.values = std::move(rec.values);
        t.doi = rec.doi;
        t.satisfied = std::move(rec.satisfied);
        t.failed = std::move(rec.failed);
        if (!first_emitted) {
          first_emitted = true;
          answer.stats.first_response_seconds =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
        }
        if (options.on_emit) options.on_emit(t);
        answer.tuples.push_back(std::move(t));
        --pending_count;
      }
      pending.erase(it);
    }
  };

  // Hit maps of the walk-less plans, by preference index. The first round
  // that probes such a plan runs its S/A query once, unmodified, serially
  // before the probe fan-out; later probes only read the map. The maps live
  // for this call only, so warm and cold calls execute the same queries.
  std::vector<std::optional<HitMap>> hit_maps(rep.preferences.size());
  const auto build_hit_map = [&](const PpaPrefPlan& p,
                                 obs::TraceSpan* round_span) -> Status {
    if (p.walk_id >= 0 || hit_maps[p.pref_index].has_value()) {
      return Status::OK();
    }
    obs::TraceSpan* span =
        round_span != nullptr
            ? round_span->AddChild("hit map pref " +
                                   std::to_string(p.pref_index))
            : nullptr;
    obs::SpanTimer timer(span);
    QP_ASSIGN_OR_RETURN(exec::RowSet rows,
                        executor.Execute(*sql::Query::Single(p.query), span));
    // Degrees are numeric (the truth condition excludes NULL), so the max
    // over a tuple's rows is the degree its own filtered query would give.
    HitMap& hits = hit_maps[p.pref_index].emplace();
    for (const auto& row : rows.rows()) {
      const double degree =
          row.back().is_numeric() ? row.back().ToNumeric() : 0.0;
      auto [it, inserted] = hits.try_emplace(row[rep.n_base_cols], degree);
      if (!inserted) it->second = std::max(it->second, degree);
    }
    if (span != nullptr) span->AddAttr("rows", rows.num_rows());
    return Status::OK();
  };
  // Probes a round's `n` fresh tuples with `fn(j, ctx)`: first builds,
  // serially, the missing hit maps among the plans the round probes (S
  // plans from `s_from` on, A plans from `a_from` on), then fans the probes
  // out in morsels of consecutive tuples — one morsel with one reused
  // context when serial, else up to four per thread with a context each.
  // The grain is one tuple: a probe walks whole join paths.
  const auto probe_fresh = [&](size_t s_from, size_t a_from,
                               obs::TraceSpan* round_span, size_t n,
                               const auto& fn) -> Status {
    if (n == 0) return Status::OK();
    for (size_t k = s_from; k < rep.s_plans.size(); ++k) {
      QP_RETURN_IF_ERROR(build_hit_map(rep.s_plans[k], round_span));
    }
    for (size_t k = a_from; k < rep.a_plans.size(); ++k) {
      QP_RETURN_IF_ERROR(build_hit_map(rep.a_plans[k], round_span));
    }
    const auto morsels = common::MorselRanges(
        n, 1, probe_pool != nullptr ? 4 * exec_options.parallelism() : 1);
    return common::ThreadPool::ParallelFor(
        probe_pool, morsels.size(), [&](size_t m) -> Status {
          ProbeContext ctx(rep.walks.size());
          for (size_t j = morsels[m].first; j < morsels[m].second; ++j) {
            QP_RETURN_IF_ERROR(fn(j, ctx));
          }
          return Status::OK();
        });
  };

  // One parameterized probe Q_i(t): the prepared index-walk when available,
  // otherwise a lookup in the plan's hit map. Satisfaction depends on the
  // preference kind.
  // `ctx` caches walk frontiers for the current tuple; it belongs to the
  // calling morsel, so concurrent probes never share mutable state (the
  // walks and hit maps are safe for concurrent readers).
  // Physical rows examined by prepared walk frontiers. Each (tuple, walk)
  // frontier is computed exactly once (the per-tuple cache resets per
  // record, whichever morsel probes it), so the sum is
  // deterministic at every thread count; the atomic only makes concurrent
  // accumulation exact.
  std::atomic<size_t> walk_rows_examined{0};
  const auto run_probe = [&](const PpaPrefPlan& pplan, const Value& tid,
                             ProbeContext& ctx) -> ProbeOutcome {
    std::optional<double> truth;
    if (pplan.walk_id >= 0) {
      const size_t id = static_cast<size_t>(pplan.walk_id);
      if (!ctx.valid[id]) {
        walk_rows_examined.fetch_add(
            rep.walks[id].Frontier(tid, &ctx.frontiers[id]),
            std::memory_order_relaxed);
        ctx.valid[id] = 1;
      }
      truth = pplan.condition.TruthDegree(ctx.frontiers[id]);
    } else {
      // The map holds the S (satisfaction) or A (violation) query's hits;
      // for 1-1 absence the S query's WHERE holds when the preference is
      // *satisfied*, so a hit reads by query kind, not truth.
      const HitMap& hits = *hit_maps[pplan.pref_index];
      const auto it = hits.find(tid);
      const bool hit = it != hits.end();
      if (pplan.kind == PreferenceKind::kAbsenceOneN) {
        // Violation query: hit == truth.
        if (hit) return ProbeOutcome{false, it->second};
        return ProbeOutcome{true, pplan.satisfaction_degree};
      }
      // Satisfaction query: hit == satisfied.
      if (hit) return ProbeOutcome{true, it->second};
      return ProbeOutcome{false, pplan.failure_degree};
    }
    if (pplan.satisfied_when_true) {
      if (truth.has_value()) return ProbeOutcome{true, *truth};
      return ProbeOutcome{false, pplan.failure_degree};
    }
    if (truth.has_value()) return ProbeOutcome{false, *truth};
    return ProbeOutcome{true, pplan.satisfaction_degree};
  };

  // Satisfaction degrees of queries not yet executed (for MEDI).
  const std::vector<PpaPrefPlan>& s_plans = rep.s_plans;
  const std::vector<PpaPrefPlan>& a_plans = rep.a_plans;
  const size_t n_base_cols = rep.n_base_cols;
  std::vector<double> all_a_degrees;
  for (const auto& p : a_plans) all_a_degrees.push_back(p.satisfaction_degree);
  const bool step3_possible = a_plans.size() >= options.L;
  const double step3_bound =
      step3_possible ? PositiveUpperBound(options.ranking, all_a_degrees) : 0.0;

  auto medi_after = [&](size_t s_done, size_t a_done) {
    std::vector<double> remaining;
    for (size_t k = s_done; k < s_plans.size(); ++k) {
      remaining.push_back(s_plans[k].satisfaction_degree);
    }
    for (size_t k = a_done; k < a_plans.size(); ++k) {
      remaining.push_back(a_plans[k].satisfaction_degree);
    }
    double medi = PositiveUpperBound(options.ranking, remaining);
    if (options.ranking.mixed_style() == MixedStyle::kCountWeighted &&
        !remaining.empty()) {
      // A tuple still unseen after `s_done` presence rounds provably fails
      // those preferences, so its count-weighted doi is at most
      // |remaining| * r+(remaining) / K — the bound decays linearly and
      // enables the paper's early progressive emission.
      const double k_total =
          static_cast<double>(s_plans.size() + a_plans.size());
      if (s_done < s_plans.size()) {
        medi *= static_cast<double>(remaining.size()) / k_total;
      } else if (!a_plans.empty()) {
        // Phase 2: new tuples are ranked on absence preferences only
        // (Figure 6), and fail every absence query already executed.
        medi *= static_cast<double>(remaining.size()) /
                static_cast<double>(a_plans.size());
      }
    }
    // Tuples surfacing only in the final complement step satisfy every 1-n
    // absence preference; hold their bound until step 3 runs.
    return std::max(medi, step3_bound);
  };

  // Ranks a completed record and queues it when it meets L. Serial only:
  // pending insertion order is part of the emission contract.
  const auto queue_record = [&](TupleRecord&& rec) {
    if (rec.satisfied.size() < options.L) return;
    std::vector<double> pos, neg;
    for (const auto& o : rec.satisfied) pos.push_back(o.degree);
    for (const auto& o : rec.failed) neg.push_back(o.degree);
    rec.doi = options.ranking.Rank(pos, neg);
    pending[rec.doi].push_back(std::move(rec));
    ++pending_count;
  };

  // ---- Phase 1: presence queries. ----
  // Each round: claim fresh tuple ids serially in row order, probe the
  // claimed tuples' remaining preferences in morsels (each tuple writes
  // its own record slot), then queue records serially in that same
  // row order — byte-identical to the serial walk at every thread count.
  for (size_t i = 0; i < s_plans.size(); ++i) {
    if (top_n_reached()) break;
    // A tuple first seen here can satisfy at most the remaining presence
    // queries plus every absence preference.
    if (s_plans.size() - i + a_plans.size() < options.L) break;
    if (cut_before_round()) {
      cut = true;
      break;
    }
    obs::TraceSpan* round_span =
        options.trace != nullptr
            ? options.trace->AddChild(
                  "S query " + std::to_string(i + 1) + "/" +
                  std::to_string(s_plans.size()))
            : nullptr;
    obs::SpanTimer round_timer(round_span);
    auto rows_result =
        executor.Execute(*sql::Query::Single(s_plans[i].query), round_span);
    if (!rows_result.ok()) {
      if (interrupted(rows_result.status())) {
        cut = true;
        break;
      }
      return rows_result.status();
    }
    exec::RowSet rows = std::move(rows_result).value();
    std::vector<const storage::Row*> fresh;
    for (const auto& row : rows.rows()) {
      const Value& tid = row[n_base_cols];
      if (tid.is_null() || seen.count(tid) > 0) continue;
      seen.insert(tid);
      fresh.push_back(&row);
    }
    std::vector<TupleRecord> recs(fresh.size());
    const Status probe_status = probe_fresh(
        i + 1, 0, round_span, fresh.size(),
        [&](size_t j, ProbeContext& ctx) -> Status {
          // Deadline/cancel can fire mid-batch; stopping at the next probe
          // (instead of finishing the batch) bounds the cut latency. The
          // whole round is discarded on interruption, so this never
          // changes a successful answer.
          if (options.cancel != nullptr) {
            QP_RETURN_IF_ERROR(options.cancel->Check());
          }
          ctx.Reset();
          const storage::Row& row = *fresh[j];
          const Value& tid = row[n_base_cols];
          TupleRecord& rec = recs[j];
          rec.values.assign(row.begin(), row.begin() + n_base_cols);
          const double own_degree =
              row.back().is_numeric() ? row.back().ToNumeric() : 0.0;
          rec.satisfied.push_back({s_plans[i].pref_index, own_degree});
          // Presence queries before i would have returned the tuple: failed.
          for (size_t k = 0; k < i; ++k) {
            rec.failed.push_back(
                {s_plans[k].pref_index, s_plans[k].failure_degree});
          }
          for (size_t k = i + 1; k < s_plans.size(); ++k) {
            const ProbeOutcome outcome = run_probe(s_plans[k], tid, ctx);
            if (outcome.satisfied) {
              rec.satisfied.push_back({s_plans[k].pref_index, outcome.degree});
            } else {
              rec.failed.push_back({s_plans[k].pref_index, outcome.degree});
            }
          }
          for (const auto& a : a_plans) {
            const ProbeOutcome outcome = run_probe(a, tid, ctx);
            if (outcome.satisfied) {
              rec.satisfied.push_back({a.pref_index, outcome.degree});
            } else {
              rec.failed.push_back({a.pref_index, outcome.degree});
            }
          }
          return Status::OK();
        });
    if (!probe_status.ok()) {
      if (interrupted(probe_status)) {
        cut = true;
        break;
      }
      return probe_status;
    }
    for (TupleRecord& rec : recs) queue_record(std::move(rec));
    ++rounds_run;
    emit_ready(medi_after(i + 1, 0));
    round_timer.Stop();
    if (round_span != nullptr) {
      round_span->AddAttr("pref", s_plans[i].pref_index);
      round_span->AddAttr("est_selectivity", s_plans[i].est_selectivity);
      round_span->AddAttr("rows", rows.num_rows());
      round_span->AddAttr("fresh", fresh.size());
    }
  }

  // ---- Phase 2: absence queries. ----
  // A tuple first seen here fails at least one absence preference and no
  // presence query returned it, so it can satisfy at most |A| - 1
  // preferences. When that cannot reach L, the full absence queries still
  // run (Nids must be complete for step 3) but per-tuple probing is skipped.
  const bool phase2_can_qualify =
      a_plans.size() >= 1 && a_plans.size() - 1 >= options.L;
  for (size_t i = 0; i < a_plans.size() && !top_n_reached() && !cut; ++i) {
    if (cut_before_round()) {
      cut = true;
      break;
    }
    obs::TraceSpan* round_span =
        options.trace != nullptr
            ? options.trace->AddChild(
                  "A query " + std::to_string(i + 1) + "/" +
                  std::to_string(a_plans.size()))
            : nullptr;
    obs::SpanTimer round_timer(round_span);
    auto rows_result =
        executor.Execute(*sql::Query::Single(a_plans[i].query), round_span);
    if (!rows_result.ok()) {
      if (interrupted(rows_result.status())) {
        cut = true;
        break;
      }
      return rows_result.status();
    }
    exec::RowSet rows = std::move(rows_result).value();
    std::vector<const storage::Row*> fresh;
    for (const auto& row : rows.rows()) {
      const Value& tid = row[n_base_cols];
      if (tid.is_null()) continue;
      nids.insert(tid);
      if (!phase2_can_qualify || seen.count(tid) > 0) continue;
      seen.insert(tid);
      fresh.push_back(&row);
    }
    std::vector<TupleRecord> recs(fresh.size());
    const Status probe_status = probe_fresh(
        s_plans.size(), i + 1, round_span, fresh.size(),
        [&](size_t j, ProbeContext& ctx) -> Status {
          ctx.Reset();
          const storage::Row& row = *fresh[j];
          const Value& tid = row[n_base_cols];
          TupleRecord& rec = recs[j];
          rec.values.assign(row.begin(), row.begin() + n_base_cols);
          const double own_degree =
              row.back().is_numeric() ? row.back().ToNumeric() : 0.0;
          rec.failed.push_back({a_plans[i].pref_index, own_degree});
          // Absence queries before i did not return the tuple: satisfied.
          for (size_t k = 0; k < i; ++k) {
            rec.satisfied.push_back(
                {a_plans[k].pref_index, a_plans[k].satisfaction_degree});
          }
          for (size_t k = i + 1; k < a_plans.size(); ++k) {
            const ProbeOutcome outcome = run_probe(a_plans[k], tid, ctx);
            if (outcome.satisfied) {
              rec.satisfied.push_back({a_plans[k].pref_index, outcome.degree});
            } else {
              rec.failed.push_back({a_plans[k].pref_index, outcome.degree});
            }
          }
          return Status::OK();
        });
    if (!probe_status.ok()) {
      if (interrupted(probe_status)) {
        cut = true;
        break;
      }
      return probe_status;
    }
    // Per Figure 6, phase-2 tuples are ranked on absence preferences only.
    for (TupleRecord& rec : recs) queue_record(std::move(rec));
    ++rounds_run;
    emit_ready(medi_after(s_plans.size(), i + 1));
    round_timer.Stop();
    if (round_span != nullptr) {
      round_span->AddAttr("pref", a_plans[i].pref_index);
      round_span->AddAttr("est_selectivity", a_plans[i].est_selectivity);
      round_span->AddAttr("rows", rows.num_rows());
      round_span->AddAttr("fresh", fresh.size());
    }
  }

  // ---- Step 3: tuples never returned by any absence query satisfy every
  // 1-n absence preference. ----
  if (step3_possible && !top_n_reached() && !cut && cut_before_round()) {
    cut = true;
  }
  if (step3_possible && !top_n_reached() && !cut) {
    obs::TraceSpan* step3_span =
        options.trace != nullptr
            ? options.trace->AddChild("complement scan (step 3)")
            : nullptr;
    obs::SpanTimer step3_timer(step3_span);
    auto rows_result =
        executor.Execute(*sql::Query::Single(rep.base2), step3_span);
    if (!rows_result.ok() && !interrupted(rows_result.status())) {
      return rows_result.status();
    }
    if (!rows_result.ok()) {
      cut = true;
    } else {
      exec::RowSet rows = std::move(rows_result).value();
      size_t complement_fresh = 0;
      for (const auto& row : rows.rows()) {
        const Value& tid = row[n_base_cols];
        if (tid.is_null() || seen.count(tid) > 0 || nids.count(tid) > 0) {
          continue;
        }
        seen.insert(tid);
        TupleRecord rec;
        rec.values.assign(row.begin(), row.begin() + n_base_cols);
        std::vector<double> pos;
        for (const auto& a : a_plans) {
          rec.satisfied.push_back({a.pref_index, a.satisfaction_degree});
          pos.push_back(a.satisfaction_degree);
        }
        rec.doi = options.ranking.Rank(pos, {});
        pending[rec.doi].push_back(std::move(rec));
        ++pending_count;
        ++complement_fresh;
      }
      ++rounds_run;
      step3_timer.Stop();
      if (step3_span != nullptr) {
        step3_span->AddAttr("rows", rows.num_rows());
        step3_span->AddAttr("fresh", complement_fresh);
      }
    }
  }

  // ---- Flush everything left, best first. ----
  // A cut answer keeps only the MEDI-safe prefix already emitted: flushing
  // pending tuples here would make the payload depend on where inside a
  // round the deadline fired.
  if (!cut) emit_ready(-std::numeric_limits<double>::infinity());

  const auto end = std::chrono::steady_clock::now();
  answer.stats.generation_seconds =
      std::chrono::duration<double>(end - start).count();
  if (!first_emitted) {
    answer.stats.first_response_seconds = answer.stats.generation_seconds;
  }
  FillWorkStats(executor, &answer);
  answer.stats.rows_examined +=
      walk_rows_examined.load(std::memory_order_relaxed);
  answer.stats.partial = cut;
  answer.stats.rounds_run = rounds_run;
  if (options.trace != nullptr) {
    // Always the last child regardless of when emission actually happened,
    // so the span tree's shape does not depend on timing.
    obs::TraceSpan* fr = options.trace->AddChild("first_response");
    fr->set_seconds(answer.stats.first_response_seconds);
  }
  return answer;
}

}  // namespace qp::core
