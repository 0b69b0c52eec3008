#include "core/ppa.h"

#include "core/path_probe.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
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
/// in round order, and the prepared walks the point probes share.
/// Walks hold pointers into table hash indexes and the ordering bakes in
/// histogram estimates, so a cached rep must be dropped when the stats epoch
/// moves.
struct PpaPlanRep {
  SelectQuery base2;            ///< base query extended with the _tid column
  size_t n_base_cols = 0;       ///< projection width without _tid/degree
  std::vector<std::string> column_names;  ///< base projection output names
  std::vector<SelectedPreference> preferences;
  std::vector<PathWalk> walks;
  /// One plan per round: the S plans (presence + 1-1 absence), then the A
  /// plans (1-n absence), each phase in ascending estimated selectivity.
  std::vector<PpaPrefPlan> plans;
  size_t num_s = 0;  ///< plans[0, num_s) are S, the rest A
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
    } else {
      QP_ASSIGN_OR_RETURN(plan.query,
                          rewriter_.BuildSatisfactionQuery(rep->base2, pref));
      plan.est_selectivity = parts.kind == PreferenceKind::kAbsenceOneOne
                                 ? 1.0 - cond_sel
                                 : cond_sel;
      ++rep->num_s;
    }
    rep->plans.push_back(std::move(plan));
  }
  const auto is_a = [](const PpaPrefPlan& p) {
    return p.kind == PreferenceKind::kAbsenceOneN;
  };
  std::stable_sort(rep->plans.begin(), rep->plans.end(),
                   [&](const PpaPrefPlan& a, const PpaPrefPlan& b) {
                     if (is_a(a) != is_a(b)) return is_a(b);
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
  // *inside* a round (the executor's morsel-boundary checks, or the probe
  // loop's poll before each tuple) cuts at the same boundary — the
  // interrupted round's results are discarded, so the answer is exactly the
  // prefix emitted after `rounds_run` complete rounds. Everything about the
  // prefix is deterministic for a given cut round; only WHICH round a
  // wall-clock deadline lands on is timing.
  size_t rounds_run = 0;
  bool cut = false;

  // Result bookkeeping.
  std::unordered_set<Value, storage::ValueHash> seen;
  std::unordered_set<Value, storage::ValueHash> nids;
  std::map<double, std::vector<TupleRecord>, std::greater<double>> pending;
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
    QP_ASSIGN_OR_RETURN(exec::RowSet rows, executor.Execute(p.query, span));
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
  // serially, the missing hit maps among the plans the round probes (plans
  // from `from` on), then fans the probes out in morsels of consecutive
  // tuples — one morsel with one reused context when serial, else up to
  // four per thread with a context each. The grain is one tuple: a probe
  // walks whole join paths.
  const auto probe_fresh = [&](size_t from, obs::TraceSpan* round_span,
                               size_t n, const auto& fn) -> Status {
    if (n == 0) return Status::OK();
    for (size_t k = from; k < rep.plans.size(); ++k) {
      QP_RETURN_IF_ERROR(build_hit_map(rep.plans[k], round_span));
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

  const std::vector<PpaPrefPlan>& plans = rep.plans;
  const size_t num_s = rep.num_s;
  const size_t num_a = plans.size() - num_s;
  const size_t n_base_cols = rep.n_base_cols;
  const auto satisfaction_degrees = [&](size_t from) {
    std::vector<double> degrees;
    for (size_t k = from; k < plans.size(); ++k) {
      degrees.push_back(plans[k].satisfaction_degree);
    }
    return degrees;
  };
  const bool step3_possible = num_a >= options.L;
  const double step3_bound =
      step3_possible
          ? PositiveUpperBound(options.ranking, satisfaction_degrees(num_s))
          : 0.0;

  // MEDI once the first `done` rounds ran, from the satisfaction degrees of
  // the queries not yet executed.
  const auto medi_after = [&](size_t done) {
    const std::vector<double> remaining = satisfaction_degrees(done);
    double medi = PositiveUpperBound(options.ranking, remaining);
    if (options.ranking.mixed_style() == MixedStyle::kCountWeighted &&
        !remaining.empty()) {
      // A tuple still unseen after `done` presence rounds provably fails
      // those preferences, so its count-weighted doi is at most
      // |remaining| * r+(remaining) / K — the bound decays linearly and
      // enables the paper's early progressive emission. In phase 2 new
      // tuples are ranked on absence preferences only (Figure 6), and fail
      // every absence query already executed.
      const size_t ranked_on = done < num_s ? plans.size() : num_a;
      medi *= static_cast<double>(remaining.size()) /
              static_cast<double>(ranked_on);
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
  };

  // One round boundary, shared by the S/A rounds and the complement scan:
  // the token may cut generation before the round; otherwise `query` runs
  // under a trace span named `name()` and `consume(rows, span)` takes its
  // rows. A cancellation inside either cuts at this same boundary, with the
  // round discarded. Sets `cut` instead of counting the round when cut.
  const auto run_round = [&](const auto& name, const SelectQuery& query,
                             const auto& consume) -> Status {
    if (options.cancel != nullptr && options.cancel->CutAtRound(rounds_run)) {
      cut = true;
      return Status::OK();
    }
    obs::TraceSpan* span =
        options.trace != nullptr ? options.trace->AddChild(name()) : nullptr;
    obs::SpanTimer timer(span);
    auto rows = executor.Execute(query, span);
    const Status status = rows.ok() ? consume(*rows, span) : rows.status();
    if (IsCancellation(status.code())) {
      cut = true;
      return Status::OK();
    }
    QP_RETURN_IF_ERROR(status);
    ++rounds_run;
    return Status::OK();
  };

  // ---- Steps 1 and 2: the S rounds, then the A rounds. ----
  // Each round: claim fresh tuple ids serially in row order, probe the
  // claimed tuples' remaining preferences in morsels (each tuple writes
  // its own record slot), then queue records serially in that same
  // row order — byte-identical to the serial walk at every thread count.
  // A tuple first seen in an A round fails at least one absence preference
  // and no presence query returned it, so it can satisfy at most |A| - 1
  // preferences. When that cannot reach L, the A queries still run (Nids
  // must be complete for step 3) but no tuple is claimed.
  const bool a_rounds_claim = num_a >= 1 && num_a - 1 >= options.L;
  for (size_t i = 0; i < plans.size() && !top_n_reached() && !cut; ++i) {
    const bool absence = i >= num_s;
    // A tuple first seen in S round i can satisfy at most the plans from i
    // on. Once that cannot reach L the S phase is over; go on to the A
    // rounds.
    if (!absence && plans.size() - i < options.L) {
      i = num_s - 1;
      continue;
    }
    const PpaPrefPlan& plan = plans[i];
    const size_t phase_begin = absence ? num_s : 0;
    const auto name = [&] {
      return std::string(absence ? "A" : "S") + " query " +
             std::to_string(i - phase_begin + 1) + "/" +
             std::to_string(absence ? num_a : num_s);
    };
    QP_RETURN_IF_ERROR(run_round(
        name, plan.query,
        [&](exec::RowSet& rows, obs::TraceSpan* span) -> Status {
          std::vector<storage::Row*> fresh;
          for (auto& row : rows.rows()) {
            const Value& tid = row[n_base_cols];
            if (tid.is_null()) continue;
            if (absence) nids.insert(tid);
            if (absence && !a_rounds_claim) continue;
            if (seen.insert(tid).second) fresh.push_back(&row);
          }
          std::vector<TupleRecord> recs(fresh.size());
          QP_RETURN_IF_ERROR(probe_fresh(
              i + 1, span, fresh.size(),
              [&](size_t j, ProbeContext& ctx) -> Status {
                // Deadline/cancel can fire mid-batch; stopping at the next
                // probe (instead of finishing the batch) bounds the cut
                // latency. The whole round is discarded on interruption,
                // so this never changes a successful answer.
                if (options.cancel != nullptr) {
                  QP_RETURN_IF_ERROR(options.cancel->Check());
                }
                ctx.Reset();
                storage::Row& row = *fresh[j];
                const Value& tid = row[n_base_cols];
                TupleRecord& rec = recs[j];
                // The claimed row is this record's alone: its values move.
                rec.values.assign(
                    std::make_move_iterator(row.begin()),
                    std::make_move_iterator(row.begin() + n_base_cols));
                // The round's own outcome: an S query returns the tuples
                // satisfying its preference, an A query those failing it.
                const double own_degree =
                    row.back().is_numeric() ? row.back().ToNumeric() : 0.0;
                (absence ? rec.failed : rec.satisfied)
                    .push_back({plan.pref_index, own_degree});
                // The phase's earlier queries did not return the tuple: it
                // failed those S preferences and satisfied those A ones.
                for (size_t k = phase_begin; k < i; ++k) {
                  if (absence) {
                    rec.satisfied.push_back(
                        {plans[k].pref_index, plans[k].satisfaction_degree});
                  } else {
                    rec.failed.push_back(
                        {plans[k].pref_index, plans[k].failure_degree});
                  }
                }
                for (size_t k = i + 1; k < plans.size(); ++k) {
                  const ProbeOutcome outcome = run_probe(plans[k], tid, ctx);
                  (outcome.satisfied ? rec.satisfied : rec.failed)
                      .push_back({plans[k].pref_index, outcome.degree});
                }
                return Status::OK();
              }));
          for (TupleRecord& rec : recs) queue_record(std::move(rec));
          emit_ready(medi_after(i + 1));
          if (span != nullptr) {
            span->AddAttr("pref", plan.pref_index);
            span->AddAttr("est_selectivity", plan.est_selectivity);
            span->AddAttr("rows", rows.num_rows());
            span->AddAttr("fresh", fresh.size());
          }
          return Status::OK();
        }));
  }

  // ---- Step 3: tuples never returned by any absence query satisfy every
  // 1-n absence preference. ----
  if (step3_possible && !top_n_reached() && !cut) {
    QP_RETURN_IF_ERROR(run_round(
        [] { return std::string("complement scan (step 3)"); }, rep.base2,
        [&](exec::RowSet& rows, obs::TraceSpan* span) -> Status {
          size_t complement_fresh = 0;
          for (auto& row : rows.rows()) {
            const Value& tid = row[n_base_cols];
            if (tid.is_null() || nids.count(tid) > 0 ||
                !seen.insert(tid).second) {
              continue;
            }
            TupleRecord rec;
            rec.values.assign(
                std::make_move_iterator(row.begin()),
                std::make_move_iterator(row.begin() + n_base_cols));
            for (size_t k = num_s; k < plans.size(); ++k) {
              rec.satisfied.push_back(
                  {plans[k].pref_index, plans[k].satisfaction_degree});
            }
            queue_record(std::move(rec));
            ++complement_fresh;
          }
          if (span != nullptr) {
            span->AddAttr("rows", rows.num_rows());
            span->AddAttr("fresh", complement_fresh);
          }
          return Status::OK();
        }));
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
