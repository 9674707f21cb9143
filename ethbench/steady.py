#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs the benchmark command once per seed on each chosen workload and
reports, for every end-to-end metric (``--trace 0``), the median and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. A
spread is steady when it is below a third of the metric's bound.

Run from the repository root:

    python3 ethbench/steady.py --seeds 1-10 --out ethbench/results/steady_a.json
    python3 ethbench/steady.py --workloads paper_small --seeds 1-5
    python3 ethbench/steady.py --compare results/steady_a.json results/steady_b.json

Options:
    --workloads a,b   workloads to run (default: every workload)
    --seeds 1-10      seed range (inclusive) or comma list
    --out FILE        also write every run's metrics and the summary as JSON
    --compare A B     print two saved sets side by side as a markdown table,
                      with how much worse B's median is than A's, and each
                      workload's failed and attempted campaigns in both
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    result["notes"] = [l[6:] for l in proc.stderr.splitlines() if l.startswith("note: host")]
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def compare(bench, path_a, path_b):
    """Markdown table of two saved sets: medians, spreads, and B's drift."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("| workload | metric | bound | A median | A spread | B median | B spread "
          "| B worse than A by |")
    print("|---|---|---|---|---|---|---|---|")
    for w, set_a in a["workloads"].items():
        if w not in b["workloads"]:
            continue
        set_b = b["workloads"][w]["summary"]
        for name, ea in set_a["summary"].items():
            eb = set_b[name]
            worse = (eb["median"] - ea["median"]) / ea["median"]
            if better[name] == "higher":
                worse = -worse
            print(f"| {w} | `{name}` | {bounds[name]} | {ea['median']:.6g} | "
                  f"{ea['spread']:.3f} | {eb['median']:.6g} | {eb['spread']:.3f} | "
                  f"{worse:+.3f} |")
    print()
    for w, set_a in a["workloads"].items():
        if w not in b["workloads"]:
            continue
        tally = [(sum(r["failed"] for r in s["runs"]), sum(r["attempted"] for r in s["runs"]))
                 for s in (set_a, b["workloads"][w])]
        print(f"- {w}: failed {tally[0][0]} of {tally[0][1]} in A, "
              f"{tally[1][0]} of {tally[1][1]} in B")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default=None)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.compare:
        compare(bench, *args.compare)
        return
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    doc = {"run_seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for w in workloads:
        runs = []
        for seed in seeds:
            res = run_once(bench, w, seed)
            res["seed"] = seed
            runs.append(res)
            print(f"{w} seed {seed}: {res['elapsed_s']:.1f}s correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, sp = spread(values)
            summary[name] = {
                "median": med,
                "spread": sp,
                "unit": runs[0]["metrics"][name]["unit"],
                "bound": bounds[name],
                "steady": name == "setup_s" or sp < bounds[name] / 3,
            }
            steady &= summary[name]["steady"]
        doc["workloads"][w] = {"runs": runs, "summary": summary}
        print(f"== {w}")
        for name, e in summary.items():
            flag = "ok" if e["steady"] else "NOT STEADY"
            print(f"  {name:<40} median {e['median']:<14.6g} spread {e['spread']:.4f} "
                  f"bound {e['bound']:.2f} {flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
    print("steady" if steady else "NOT steady")


if __name__ == "__main__":
    main()
