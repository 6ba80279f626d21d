#!/usr/bin/env python3
"""Records the benchmark's baseline, and compares two commits.

  python3 benchmark/compare.py baseline
      Runs every workload 5 times at seed 0 from this checkout and
      rewrites benchmark/baseline.json: per workload, the median and
      quartiles of every end-to-end metric and the output digest, with
      the host's core count and CPU model and the commit measured.

  python3 benchmark/compare.py compare PARENT CHANGE --workload W [--seed 1]
      PARENT and CHANGE are checkout roots. Runs their benchmarks in 10
      alternating pairs (which side runs first alternates too), then
      prints each side's median and quartiles per end-to-end metric, the
      pairs the change won, and a verdict: "gain" when the change wins at
      least 9 of 10 pairs and the medians differ by more than the parent's
      interquartile spread, "regression" when the change's median is
      worse by more than the metric's bound (for setup_s, also by more
      than 20 ms), otherwise "unresolved" when the parent's own spread
      exceeds the bound and not every change run reads better than every
      parent run, else "unchanged".

Each side builds into its own benchmark/target, so CARGO_TARGET_DIR is
cleared for the runs. Each run measures BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Seed-0 runs per workload in the baseline, and pairs per comparison.
RUNS = 5
PAIRS = 10
# A set-up regression must also cost this much, so a few milliseconds on
# a short set-up do not count.
SETUP_FLOOR_S = 0.020


def run(root, workload, seed):
    """One run of `root`'s benchmark: (result JSON, output digest)."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = ["bash", os.path.join(root, "benchmark", "run.sh"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    digest = next(l.split()[2] for l in lines if l.split()[1:2] == ["output_digest"])
    return json.loads(lines[-1]), digest


def quartiles(values):
    """(q1, median, q3) as Python's statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    return doc["end_to_end"], [w["name"] for w in doc["workloads"]]


def baseline(_args):
    metrics, workloads = declared()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    cpu = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo")
                if l.startswith("model name")), platform.processor())
    doc = {"context": {"nproc": os.cpu_count(), "cpu": cpu, "commit": commit, "seed": 0,
                       "runs": RUNS},
           "workloads": {}}
    for w in workloads:
        results = [run(ROOT, w, 0) for _ in range(RUNS)]
        digests = {d for _, d in results}
        if len(digests) != 1:
            sys.exit(f"{w}: output digest differs between runs: {sorted(digests)}")
        entry = {"output_digest": digests.pop(), "metrics": {}}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r, _ in results]
            q1, med, q3 = quartiles(values)
            entry["metrics"][m["name"]] = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"]}
        doc["workloads"][w] = entry
        print(f"{w}: {json.dumps(entry)}", flush=True)
    with open(os.path.join(HERE, "baseline.json"), "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def compare(args):
    metrics, _ = declared()
    sides = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            root = args.parent if side == "parent" else args.change
            result, _ = run(root, args.workload, args.seed)
            sides[side].append(result["metrics"])
    print(f"{args.workload}, seed {args.seed}, {PAIRS} pairs")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [r[name]["value"] for r in sides["parent"]]
        change = [r[name]["value"] for r in sides["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        worse = (cm - pm) if lower else (pm - cm)
        floor = SETUP_FLOOR_S if name == "setup_s" else 0.0
        all_better = max(change) < min(parent) if lower else min(change) > max(parent)
        if wins >= 0.9 * PAIRS and abs(cm - pm) > p3 - p1:
            verdict = "gain"
        elif worse > m["bound"] * pm and worse > floor:
            verdict = "regression"
        elif (p3 - p1) / pm > m["bound"] and not all_better:
            verdict = "unresolved"
        else:
            verdict = "unchanged"
        print(f"  {name:13} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} "
              f"[{c1:.4g}, {c3:.4g}]  wins {wins}/{PAIRS}  {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("baseline")
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    c.add_argument("--workload", required=True)
    c.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    baseline(args) if args.cmd == "baseline" else compare(args)


if __name__ == "__main__":
    main()
