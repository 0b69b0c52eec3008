"""Reduces a qpbench raw record to the benchmark's metrics.

qpbench measures; this module only does arithmetic on what it measured, so
the statistical rules (the percentile rule, goodput on the rate ladder) are
testable without building anything.

end_to_end() gives each metric as a pair (value, samples): samples is how
many measurements the value rests on.
"""

import math
import statistics

# End-to-end metrics, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_ms_per_answer": "ms",
}

# End-to-end metrics printed in the table but not gated: the latencies
# moved by more than the largest bound BENCHMARK.json may set between runs
# on a shared host, goodput reads the offered rate, and the error ratios
# can read 0 (README.md gives the measurements).
REPORTED = {
    "ppa_first_tuple_s": "s",
    "ppa_answer_s": "s",
    "spa_answer_s": "s",
    "answer_p50_s.low": "s",
    "answer_p99_s.low": "s",
    "answer_p50_s.mid": "s",
    "answer_p99_s.mid": "s",
    "first_tuple_p99_s.mid": "s",
    "goodput_rps": "req/s",
    "error_ratio": "ratio",
    "partial_ratio": "ratio",
}

# Per-layer metrics of traced runs, in BENCHMARK.json order.
PER_LAYER = {
    "setup.db_s": "s",
    "setup.sessions_s": "s",
    "setup.warmup_s": "s",
    "sql.parse_s": "s",
    "core.graph.repair_s": "s",
    "core.selection.run_s": "s",
    "core.selection.paths_examined": "count",
    "core.plan.ppa_s": "s",
    "core.plan.spa_s": "s",
    "core.ppa.execute_s": "s",
    "core.ppa.first_emit_s": "s",
    "core.ppa.queries": "count",
    "core.ppa.rounds": "count",
    "core.ppa.rows_scanned": "count",
    "core.ppa.rows_joined": "count",
    "core.spa.execute_s": "s",
    "core.spa.rows_scanned": "count",
    "core.spa.rows_joined": "count",
    "core.spa.rows_materialized": "count",
    "exec.spa_query_s": "s",
    "exec.base_query_s": "s",
    "core.overhead_ratio": "ratio",
    "exec.parallelism": "ratio",
    "index.examined_per_tuple.ppa": "count",
    "index.examined_per_tuple.spa": "count",
    "serve.service_p50_s": "s",
    "serve.service_p99_s": "s",
    "serve.queue_wait_p50_s": "s",
    "serve.queue_wait_p99_s": "s",
    "serve.session_overhead_s": "s",
    "serve.selection_hit_ratio": "ratio",
    "serve.plan_hit_ratio": "ratio",
    "serve.repairs": "count",
    "serve.rebuilds": "count",
    "serve.shed": "count",
    "serve.expired": "count",
    "serve.deadline_cut": "count",
    "serve.max_queue_depth": "count",
    "error_ratio": "ratio",
    "partial_ratio": "ratio",
    "loadgen.max_lag_s": "s",
    "trace.overhead_ratio": "ratio",
}

# A tail percentile needs this many samples above it.
TAIL_MIN_BEYOND = 10
# Share of a rung's attempted requests that must be answered completely
# within the latency limit for the rung to count toward goodput.
GOODPUT_SHARE = 0.99
# The generator "kept pace" with a rung while at most LATE_SHARE of its
# requests were submitted more than MAX_LAG_S after their due time; a lone
# stall of the machine delays a few requests without making the rung invalid.
MAX_LAG_S = 0.01
LATE_SHARE = 0.01

INF = math.inf


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values, p):
    """The percentile rule: the value at percentile `p`, lowered until at
    least TAIL_MIN_BEYOND samples lie above it, but never below the median.

    Returns (value, percentile actually reported, sample count)."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    xs = sorted(values)
    rank = min(math.ceil(p * n) - 1, n - 1 - TAIL_MIN_BEYOND)
    rank = max(rank, n // 2)
    return xs[rank], (rank + 1) / n, n


def request_class(r):
    return (r["query"], r["algo"])


def class_median(records, value, key=request_class):
    """Mean of the per-class medians of `value`, each class weighted by its
    share of `records`; classes are (query, algorithm) unless `key` says
    otherwise. The classes differ in cost by orders of magnitude, so one
    median over all of them would jump between classes as the seed moves a
    few requests; each class's own median does not."""
    groups = {}
    for r in records:
        groups.setdefault(key(r), []).append(value(r))
    n = len(records)
    return sum(len(v) * median(v) for v in groups.values()) / n if n else 0.0


# ---- rate ladder --------------------------------------------------------


def answered(request, field):
    """A timing of `request`; shed and failed requests are infinitely late,
    so they count as over every limit."""
    return request[field] if request["status"] in ("ok", "partial") else INF


def rung_latencies(rung):
    """Due-time latency of every attempted request."""
    return [answered(r, "latency_s") for r in rung["requests"]]


def kept_pace(rung):
    late = sum(1 for r in rung["requests"] if r["lag_s"] > MAX_LAG_S)
    return late <= LATE_SHARE * len(rung["requests"])


def rung_passes(rung, limit_s):
    attempted = len(rung["requests"])
    good = sum(1 for r in rung["requests"]
               if r["status"] == "ok" and r["latency_s"] <= limit_s)
    return (attempted > 0 and kept_pace(rung)
            and good >= GOODPUT_SHARE * attempted)


def goodput(rungs, limit_s):
    """Complete answers within the limit per second, at the highest rate
    whose rung passes; (0, None) when none does."""
    best = None
    for rung in rungs:
        if rung_passes(rung, limit_s) and (
                best is None or rung["rate"] > best["rate"]):
            best = rung
    if best is None:
        return 0.0, None
    good = sum(1 for r in best["requests"]
               if r["status"] == "ok" and r["latency_s"] <= limit_s)
    return good / best["wall_s"], best["rung"]


def finite(value, rung):
    """A statistic that lands on a failed request reads as the rung's whole
    measured span: the request got no answer in all that time."""
    return rung["wall_s"] if value == INF else value


# ---- end-to-end ---------------------------------------------------------


def rung_median(rung, field="latency_s", algo=None):
    """class_median of `field` over a rung's requests (of `algo` only, when
    given), and the sample count; a request that got no answer is
    infinitely late."""
    records = [r for r in rung["requests"] if algo in (None, r["algo"])]
    value = class_median(records, lambda r: answered(r, field))
    return finite(value, rung), len(records)


def serve_e2e(raw):
    """Latency from each request's due time, per rung. The ppa/spa/first-tuple
    metrics pool the low and mid rungs, where requests barely queue, for
    more samples of each class."""
    rungs = {r["rung"]: r for r in raw["rungs"]}
    low, mid = rungs["low"], rungs["mid"]
    out = {}
    for name, rung in (("low", low), ("mid", mid)):
        lat = rung_latencies(rung)
        out["answer_p50_s." + name] = rung_median(rung)
        out["answer_p99_s." + name] = (finite(tail(lat, 0.99)[0], rung),
                                       len(lat))
    mid_first = [answered(r, "first_s") for r in mid["requests"]
                 if r["algo"] == "ppa"]
    out["first_tuple_p99_s.mid"] = (finite(tail(mid_first, 0.99)[0], mid),
                                    len(mid_first))
    light = {"wall_s": low["wall_s"] + mid["wall_s"],
             "requests": low["requests"] + mid["requests"]}
    out["ppa_answer_s"] = rung_median(light, algo="ppa")
    out["spa_answer_s"] = rung_median(light, algo="spa")
    out["ppa_first_tuple_s"] = rung_median(light, "first_s", algo="ppa")
    attempted = sum(len(r["requests"]) for r in raw["rungs"])
    out["goodput_rps"] = (goodput(raw["rungs"], raw["limit_s"])[0], attempted)
    answers = sum(1 for r in raw["rungs"] for q in r["requests"]
                  if q["status"] in ("ok", "partial"))
    cpu = sum(r["cpu_s"] for r in raw["rungs"])
    out["cpu_ms_per_answer"] = (1e3 * cpu / max(answers, 1), answers)
    out.update({name: (value, attempted)
                for name, value in outcome_ratios(raw).items()})
    return out


def end_to_end(raw):
    setups = [s["total_s"] for s in raw["setups"]]
    out = {
        "setup_s": (median(setups), len(setups)),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
    }
    out.update(serve_e2e(raw))
    return out


def outcome_counts(raw):
    """(attempted, failed, partial): every attempted request ends ok,
    partial, failed or shed; failed counts the last two."""
    statuses = [q["status"] for r in raw["rungs"] for q in r["requests"]]
    failed = sum(1 for s in statuses if s in ("failed", "shed"))
    return len(statuses), failed, statuses.count("partial")


def outcome_ratios(raw):
    """error_ratio ((shed + failed) / attempted) and partial_ratio; both can
    read 0, so they are printed, never gated."""
    attempted, failed, partial = outcome_counts(raw)
    return {"error_ratio": failed / attempted,
            "partial_ratio": partial / attempted}


# ---- per-layer ----------------------------------------------------------


def mean(values):
    return sum(values) / len(values) if values else 0.0


def examined_per_tuple(records):
    tuples = sum(r["tuples"] for r in records)
    return sum(r["rows_examined"] for r in records) / tuples if tuples else 0.0


def replay_layers(replay):
    """Stage timings of the serial replay, each a class_median like the
    end-to-end latencies; the base query does not depend on the algorithm,
    so its classes are queries alone. Counters are means per call."""
    records = replay["requests"]

    def classes(field, algo=None, key=request_class):
        return class_median(
            [r for r in records if field in r and algo in (None, r["algo"])],
            lambda r: r[field], key)

    ppa = [r for r in records if r["algo"] == "ppa"]
    spa = [r for r in records if r["algo"] == "spa"]
    out = {
        "sql.parse_s": classes("parse_s"),
        "core.selection.run_s": classes("select_s"),
        "core.selection.paths_examined": mean(
            [r["paths_examined"] for r in records]),
        "core.plan.ppa_s": classes("plan_s", "ppa"),
        "core.plan.spa_s": classes("plan_s", "spa"),
        "core.ppa.execute_s": classes("execute_s", "ppa"),
        "core.ppa.first_emit_s": classes("first_emit_s", "ppa"),
        "core.spa.execute_s": classes("execute_s", "spa"),
        "exec.spa_query_s": classes("spa_query_s", "spa"),
        "exec.base_query_s": classes("base_query_s", "ppa",
                                     key=lambda r: r["query"]),
        "index.examined_per_tuple.ppa": examined_per_tuple(ppa),
        "index.examined_per_tuple.spa": examined_per_tuple(spa),
        "core.graph.repair_s": median(
            [r["repair_s"] for r in records if "repair_s" in r]),
        "serve.session_overhead_s": median(
            [r["session_s"] - r["parse_s"] - r["execute_s"] for r in records]),
    }
    # PPA answer time over the unchanged query's, per query (paper 6.1).
    base = out["exec.base_query_s"]
    out["core.overhead_ratio"] = (out["core.ppa.execute_s"] / base
                                  if base else 0.0)
    exec_wall = sum(r["execute_s"] for r in records)
    exec_cpu = sum(r["execute_cpu_s"] for r in records)
    out["exec.parallelism"] = exec_cpu / exec_wall if exec_wall else 0.0
    for name in ("queries", "rounds", "rows_scanned", "rows_joined"):
        out["core.ppa." + name] = mean([r[name] for r in ppa])
    for name in ("rows_scanned", "rows_joined", "rows_materialized"):
        out["core.spa." + name] = mean([r[name] for r in spa])
    # Spans are recorded live only in the replay (the open loop builds its
    # spans after the clocks stop): traced time over traced time less the
    # recorder's own.
    untraced = replay["wall_s"] - replay["trace_s"]
    out["trace.overhead_ratio"] = (replay["wall_s"] / untraced
                                   if untraced > 0 else 0.0)
    return out


def serve_layers(raw):
    rungs = {r["rung"]: r for r in raw["rungs"]}
    low, mid = rungs["low"], rungs["mid"]
    out = {"serve.service_p50_s": rung_median(low, "service_s")[0]}
    served = [q["service_s"] for q in low["requests"] if "service_s" in q]
    out["serve.service_p99_s"] = tail(served, 0.99)[0]
    # Queue wait depends on what is ahead of a request, not on its class.
    waited = [q["queue_s"] for q in mid["requests"] if "queue_s" in q]
    out["serve.queue_wait_p50_s"] = median(waited)
    out["serve.queue_wait_p99_s"] = tail(waited, 0.99)[0]

    def total(key):
        return sum(r["serve"][key] for r in raw["rungs"])

    lookups = total("selection_hits") + total("selection_misses")
    plans = total("plan_hits") + total("plan_misses")
    out["serve.selection_hit_ratio"] = (
        total("selection_hits") / lookups if lookups else 0.0)
    out["serve.plan_hit_ratio"] = total("plan_hits") / plans if plans else 0.0
    for key in ("repairs", "rebuilds", "shed", "expired", "deadline_cut"):
        out["serve." + key] = total(key)
    out["serve.max_queue_depth"] = max(
        r["serve"]["max_queue_depth"] for r in raw["rungs"])
    out["loadgen.max_lag_s"] = max(r["max_lag_s"] for r in raw["rungs"])
    out.update(outcome_ratios(raw))
    return out


def per_layer(raw):
    """Every per-layer metric of a traced run."""
    setups = raw["setups"]
    out = {
        "setup.db_s": median([s["db_s"] for s in setups]),
        "setup.sessions_s": median([s["sessions_s"] for s in setups]),
        "setup.warmup_s": median([s["warmup_s"] for s in setups]),
    }
    out.update(serve_layers(raw))
    out.update(replay_layers(raw["replay"]))
    return out
