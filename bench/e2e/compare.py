#!/usr/bin/env python3
"""Compare end-to-end benchmark runs of two commits.

Reads the JSON lines bench_e2e writes with --json (one record per workload
run) and applies the rules in bench/e2e/README.md:

  * each side reports the median and quartiles of every end-to-end metric,
    one row per workload x metric;
  * a result is a gain only when the change wins at least 9 of every 10
    pairs (ties count for neither side) and the medians differ by more than
    the parent's interquartile range;
  * a metric regressed when the change's median is worse than the parent's
    by more than the metric's bound in BENCHMARK.json (setup_s: or by 50
    ms, whichever is more); it is "unresolved" when either side's spread
    (IQR) exceeds that tolerance, unless every change run beats every
    parent run;
  * the exact values (label digests, the pipeline's selection) of one seed
    must be identical on both sides.

usage:
  compare.py PARENT.jsonl CHANGE.jsonl          compare two sets of runs
  compare.py --run PARENT_DIR CHANGE_DIR [--pairs 10] [--workload W ...]
             [--seed N] [--seconds S] [--out DIR]
                                                run alternating pairs of the
                                                two checkouts (records go to
                                                build-e2e/compare/), then
                                                compare
  compare.py --spread RUNS.jsonl                spread of each metric across
                                                runs (e.g. one per seed)
                                                against a third of its bound
  compare.py --baseline SET1.jsonl SET2.jsonl   print a baseline record of
                                                two sets of runs

Exit status 1 when a metric regressed or exact values differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["label_alu16", "fleet_alu16", "recall_store", "recall_fleet",
             "pipeline_alu8"]
# Absolute slack on top of the relative bound: a set-up may also grow by
# 50 ms, since sub-millisecond set-ups are dominated by noise and nobody
# waits on 50 ms once per batch.
FLOOR = {"setup_s": 0.05}


def load_benchmark(path):
    with open(path, encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"]}


def load_runs(path):
    """workload -> list of records, in file (= run) order."""
    runs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                record = json.loads(line)
                runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(records, metric):
    return [r["metrics"][metric]["value"] for r in records
            if metric in r["metrics"]]


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def verdict(parent, change, spec):
    """(verdict, wins) for one workload x metric."""
    direction = spec["better"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    if (wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1
            and better(cm, pm, direction)):
        return "gain", wins
    # How far the change may fall behind the parent, in the metric's unit.
    tolerance = max(spec["bound"] * abs(pm), FLOOR.get(spec["name"], 0.0))
    worse = pm - cm if direction == "higher" else cm - pm
    if worse > tolerance:
        return "REGRESSED", wins
    if max(p3 - p1, c3 - c1) > tolerance:
        if all(better(c, p, direction) for c in change for p in parent):
            return "better", wins
        return "unresolved", wins
    return "unchanged", wins


def exact_by_seed(records):
    return {r["seed"]: r.get("exact", {}) for r in records}


def compare(parent_path, change_path, bench_path):
    metrics = load_benchmark(bench_path)
    parent, change = load_runs(parent_path), load_runs(change_path)
    ok = True
    print(f"{'workload':<14} {'metric':<16} {'unit':<8} "
          f"{'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} "
          f"{'delta':>8} {'wins':>6}  verdict")
    for workload in WORKLOADS:
        if workload not in parent or workload not in change:
            continue
        for name, spec in metrics.items():
            p = values_of(parent[workload], name)
            c = values_of(change[workload], name)
            if not p or not c:
                continue
            v, wins = verdict(p, c, spec)
            ok = ok and v != "REGRESSED"
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            print(f"{workload:<14} {name:<16} {spec['unit']:<8} "
                  f"{f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':<34} "
                  f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':<34} "
                  f"{(cm - pm) / pm * 100:+7.2f}% "
                  f"{wins:>2}/{min(len(p), len(c)):<3}  {v}")
        pe, ce = exact_by_seed(parent[workload]), exact_by_seed(change[workload])
        for seed in sorted(set(pe) & set(ce)):
            for key in sorted(set(pe[seed]) | set(ce[seed])):
                a, b = pe[seed].get(key), ce[seed].get(key)
                same = a == b
                ok = ok and same
                print(f"{workload:<14} {key:<16} {'exact':<8} "
                      f"{str(a):<34} {str(b):<34} {'':>8} {'':>6}  "
                      f"{'identical' if same else 'DIFFERENT'} (seed {seed})")
        for side, records in (("parent", parent[workload]),
                              ("change", change[workload])):
            seen = {}
            for r in records:
                if seen.setdefault(r["seed"], r.get("exact")) != r.get("exact"):
                    ok = False
                    print(f"{workload:<14} exact values differ between "
                          f"{side} runs of seed {r['seed']}")
            if any(not r["correct"] for r in records):
                ok = False
                print(f"{workload:<14} {side} has runs with wrong labels")
    return ok


def spread(path, bench_path):
    metrics = load_benchmark(bench_path)
    runs = load_runs(path)
    ok = True
    print(f"{'workload':<14} {'metric':<16} {'runs':>4} {'median':>12} "
          f"{'iqr/median':>10} {'bound/3':>8}")
    for workload in WORKLOADS:
        for name, spec in metrics.items():
            values = values_of(runs.get(workload, []), name)
            if len(values) < 2:
                continue
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / med
            limit = spec["bound"] / 3
            flag = "" if share < limit or name == "setup_s" else "  TOO WIDE"
            ok = ok and not flag
            print(f"{workload:<14} {name:<16} {len(values):>4} {med:>12.5g} "
                  f"{share:>10.4f} {limit:>8.4f}{flag}")
    return ok


def baseline(paths):
    sets = []
    first = None
    for path in paths:
        runs = load_runs(path)
        summary = {}
        for workload, records in runs.items():
            first = first or records[0]
            summary[workload] = {"runs": len(records), "metrics": {}}
            for name in records[0]["metrics"]:
                values = values_of(records, name)
                q1, med, q3 = quartiles(values)
                summary[workload]["metrics"][name] = {
                    "unit": records[0]["metrics"][name]["unit"],
                    "median": med, "q1": q1, "q3": q3, "values": values}
            summary[workload]["exact"] = records[0].get("exact", {})
        sets.append(summary)
    out = {key: first[key] for key in
           ("host_cores", "compiler", "build_type", "git_sha", "seed",
            "seconds")}
    out["sets"] = sets
    json.dump(out, sys.stdout, indent=1)
    print()
    return True


def run_pairs(args):
    os.makedirs(args.out, exist_ok=True)
    outs = {side: os.path.join(args.out, side + ".jsonl")
            for side in ("parent", "change")}
    dirs = {"parent": args.run[0], "change": args.run[1]}
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for workload in args.workload:
            for side in order:
                cmd = ["bash", "bench/e2e/run.sh", "--workload", workload,
                       "--seed", str(args.seed), "--seconds",
                       str(args.seconds), "--json",
                       os.path.abspath(outs[side])]
                print(f"pair {pair + 1}/{args.pairs}: {side} {workload}",
                      file=sys.stderr)
                subprocess.run(cmd, cwd=dirs[side], check=False,
                               stdout=subprocess.DEVNULL)
    return compare(outs["parent"], outs["change"], args.benchmark)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="*")
    parser.add_argument("--benchmark", default=os.path.join(ROOT,
                                                            "BENCHMARK.json"))
    parser.add_argument("--run", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", nargs="+", default=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", default=os.path.join(ROOT, "build-e2e",
                                                      "compare"))
    parser.add_argument("--spread", action="store_true")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    if args.seconds is None:
        with open(args.benchmark, encoding="utf-8") as f:
            args.seconds = json.load(f)["run_seconds"]
    if args.run:
        ok = run_pairs(args)
    elif args.spread and len(args.files) == 1:
        ok = spread(args.files[0], args.benchmark)
    elif args.baseline and args.files:
        ok = baseline(args.files)
    elif len(args.files) == 2:
        ok = compare(args.files[0], args.files[1], args.benchmark)
    else:
        parser.error("give PARENT.jsonl CHANGE.jsonl, --run, --spread or "
                     "--baseline")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
