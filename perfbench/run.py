#!/usr/bin/env python3
"""The repository's benchmark: builds qpbench from source and runs one
workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> --rates low,mid,high [--scale full|tiny]

Run it from the repository root. It builds into $CARGO_TARGET_DIR (default
.bench_build), runs qpbench, checks its answers, and prints a table of the
metrics with their units and sample counts, then, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 the per-layer metrics, and writes the spans to
<build dir>/spans/. A run whose answers mismatch, whose load generator fell
behind, or whose program fails exits non-zero and prints no result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_mixed", "serve_churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out):
    """Configures once, then builds qpbench incrementally."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no repository sources next to %s; run from a checkout" % HERE)
    out.mkdir(parents=True, exist_ok=True)
    log = out / "perfbench-build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "qpbench",
                  "-j", str(os.cpu_count() or 1)])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log, "w") as sink:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sink,
                                      stderr=subprocess.STDOUT,
                                      timeout=max(1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                fail("build timed out; see %s" % log)
            if done.returncode != 0:
                print(log.read_text()[-4000:], file=sys.stderr)
                fail("build failed; see %s" % log)
    return out / "qpbench"


def provenance(args, raw):
    """What a later reader needs to re-check a claim: the seed, the code and
    the machine."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        git_sha = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rates": args.rates,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "movies": raw["movies"],
        "users": raw["users"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--rates", required=True,
                        help="offered req/s of the low,mid,high rungs")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--inject", default="", help=argparse.SUPPRESS)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    spans = out / "spans" / ("%s-seed%d.jsonl" % (args.workload, args.seed))
    spans.parent.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale,
               "--rates", args.rates]
    if args.trace:
        command += ["--spans", str(spans)]
    if args.inject:
        command += ["--inject", args.inject]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("qpbench did not finish within %ds" % RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail("qpbench exited with %d" % done.returncode)
    raw = json.loads(done.stdout.strip().splitlines()[-1])
    results = out / "results"
    results.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (results / (stem + ".raw.json")).write_text(done.stdout)

    for rung in raw["rungs"]:
        if not metrics.kept_pace(rung):
            fail("invalid run: the generator fell behind at %s (more than "
                 "%g%% of requests over %.0f ms late)"
                 % (rung["rung"], 100 * metrics.LATE_SHARE,
                    1e3 * metrics.MAX_LAG_S))

    attempted, failed, partial = metrics.outcome_counts(raw)
    if args.trace:
        values = metrics.per_layer(raw)
        table = {name: (values[name], metrics.PER_LAYER[name], None)
                 for name in metrics.PER_LAYER}
    else:
        values = metrics.end_to_end(raw)
        units = dict(metrics.END_TO_END, **metrics.REPORTED)
        table = {name: (values[name][0], units[name], values[name][1])
                 for name in units if name in values}

    info = provenance(args, raw)
    info.update(attempted=attempted, failed=failed, partial=partial,
                checks=raw["checks"], reoffered_slices=raw["reoffered_slices"])
    if args.trace:
        info["spans_file"] = str(spans)
        info["spans"] = raw["spans"]
    print("# " + json.dumps(info, sort_keys=True))
    for name, (value, unit, samples) in table.items():
        count = "" if samples is None else "  n=%d" % samples
        if samples and "_p99_" in name:
            count += " at p%.1f" % (100 * metrics.tail(range(samples), 0.99)[1])
        print("%-32s %16.9g %-6s%s" % (name, value, unit, count))
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in table.items()
                    if args.trace or name not in metrics.REPORTED},
    }
    (results / (stem + ".json")).write_text(
        json.dumps({"provenance": info, "result": result}, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
