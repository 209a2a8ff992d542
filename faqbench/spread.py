#!/usr/bin/env python3
"""Runs faqbench workloads k times each, each run with its own seed, and
prints each metric's median, quartiles and spread (the distance between the
first and third quartile as a share of the median, quartiles as Python's
statistics.quantiles(values, n=4) gives them).

    python3 faqbench/spread.py <workload>... [--runs K] [--sets S] [--trace 0|1]

Run from the repository root.  Within a set the workloads take turns (run i
of every workload, then run i + 1), so a drift of the machine's speed
reaches every workload alike.  With --sets 2 the second set follows the
first, with new seeds, and each metric's second median is compared with the
first: "worse" is the change in the metric's bad direction as a share of the
first median.  The spreads are how the bounds in BENCHMARK.json were set,
and how steadiness is shown again.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{out.stderr}")
    print(f"{workload} seed {seed}: attempted {res['attempted']} failed {res['failed']}", file=sys.stderr)
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    # values[set][workload][metric] = [one value per run]
    values = [{w: {} for w in args.workloads} for _ in range(args.sets)]
    shares = [{w: set() for w in args.workloads} for _ in range(args.sets)]
    for s in range(args.sets):
        for i in range(args.runs):
            for w in args.workloads:
                res = run_once(bench, w, s * args.runs + i + 1, args.trace)
                shares[s][w].add(res["failed"] / res["attempted"])
                for name, m in res["metrics"].items():
                    values[s][w].setdefault(name, []).append(m["value"])

    for w in args.workloads:
        medians = []
        for s in range(args.sets):
            print(f"\n{w}, set {s + 1}: {args.runs} runs of {bench['run_seconds']}s, "
                  f"failed shares {sorted(shares[s][w])}")
            print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
            med = {}
            for name in sorted(values[s][w]):
                q1, med[name], q3 = statistics.quantiles(values[s][w][name], n=4)
                spread = (q3 - q1) / med[name] if med[name] else float("nan")
                bound = metrics.get(name, {}).get("bound")
                flag = ""
                if bound is not None and name != "setup_s" and spread > bound / 3:
                    flag = "  above bound/3"
                print(f"{name:32s} {med[name]:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} "
                      f"{bound if bound is not None else '':>6}{flag}")
            medians.append(med)
        for s in range(1, args.sets):
            print(f"\n{w}, set {s + 1} against set 1 (change of the median in the worse direction)")
            for name in sorted(medians[0]):
                m = metrics.get(name)
                a, b = medians[0][name], medians[s][name]
                if m is None or not a:
                    continue
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                flag = "  beyond bound" if worse > m["bound"] else ""
                print(f"{name:32s} {a:12.4f} -> {b:12.4f} worse {worse:+8.4f} bound {m['bound']}{flag}")
    if args.sets > 1:
        for w in args.workloads:
            if any(shares[s][w] != shares[0][w] for s in range(args.sets)):
                print(f"\n{w}: failed shares differ between sets", file=sys.stderr)


if __name__ == "__main__":
    main()
