#!/usr/bin/env python3
"""Noise study for the benchmark: run each workload with several seeds
and report, per end-to-end metric, the median of the runs and the spread
(distance between the first and third quartile as a share of the median,
the rule BENCHMARK.json's bounds are checked against).

Run from the repository root:

    python3 perfbench/noise.py --runs 10 --trace --out runs.jsonl
    python3 perfbench/noise.py --runs 5 --workloads tables-micromag
    python3 perfbench/noise.py --summarize runs.jsonl

--trace also makes one traced run per seed and reports the median of
each per-layer metric, and the tracing overhead: per seed, the traced
run's trace.latency_mean_ms over the untraced run's latency_mean_ms,
minus 1. --out appends every
result as a JSON line; --summarize prints the tables of such a file
without running anything. The output is Markdown.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def summarize(records, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    order = [w["name"] for w in bench["workloads"]]
    by = {}
    for rec in records:
        dst = by.setdefault(rec["workload"], ({}, {}))[rec["trace"]]
        for k, v in rec["result"]["metrics"].items():
            dst.setdefault(k, []).append(v["value"])
    for w in order:
        if w not in by:
            continue
        e2e, layers = by[w]
        runs = len(next(iter(e2e.values()), []))
        walls = [r["wall_s"] for r in records if r["workload"] == w and "wall_s" in r]
        wall = f", {statistics.median(walls):.0f} s per run including the build check" if walls else ""
        print(f"\n### {w} ({runs} untraced runs{wall})\n")
        print("| metric | median | min | max | spread | bound |")
        print("|---|---|---|---|---|---|")
        for m in bench["end_to_end"]:
            vals = e2e.get(m["name"], [])
            if not vals:
                continue
            s = spread(vals)
            flag = "" if s <= bounds[m["name"]] else " (above bound)"
            print(f"| {m['name']} | {statistics.median(vals):.6g} | {min(vals):.6g} | {max(vals):.6g} "
                  f"| {s:.3f}{flag} | {bounds[m['name']]} |")
        untraced = {r["seed"]: r for r in records if r["workload"] == w and r["trace"] == 0}
        overhead = [r["result"]["metrics"]["trace.latency_mean_ms"]["value"]
                    / untraced[r["seed"]]["result"]["metrics"]["latency_mean_ms"]["value"] - 1
                    for r in records if r["workload"] == w and r["trace"] == 1 and r["seed"] in untraced]
        if overhead:
            print(f"\nTracing overhead over {len(overhead)} seeds (traced trace.latency_mean_ms / untraced "
                  f"latency_mean_ms - 1): median {statistics.median(overhead):+.3f}, "
                  f"min {min(overhead):+.3f}, max {max(overhead):+.3f}")
        if layers:
            runs = len(next(iter(layers.values())))
            print(f"\nPer-layer medians of {runs} traced runs (layers this workload does not exercise omitted):\n")
            print("| metric | median | min | max |")
            print("|---|---|---|---|")
            for m in bench["per_layer"]:
                vals = layers.get(m["name"], [])
                if vals and any(v != 0 for v in vals):
                    print(f"| {m['name']} | {statistics.median(vals):.6g} | {min(vals):.6g} | {max(vals):.6g} |")


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--summarize")
    args = ap.parse_args()
    if args.summarize:
        summarize([json.loads(line) for line in open(args.summarize)], bench)
        return
    out = open(args.out, "a") if args.out else None
    records = []
    for w in args.workloads.split(","):
        for i in range(args.runs):
            seed = args.first_seed + i
            for t in ([0, 1] if args.trace else [0]):
                t0 = time.monotonic()
                res = run_once(w, seed, args.seconds, t)
                rec = {"workload": w, "seed": seed, "trace": t, "wall_s": time.monotonic() - t0, "result": res}
                records.append(rec)
                if out:
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
    summarize(records, bench)


if __name__ == "__main__":
    main()
