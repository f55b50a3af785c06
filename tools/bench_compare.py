#!/usr/bin/env python3
"""A/B of two commits on the repository benchmark (BENCHMARK.json).

    python3 tools/bench_compare.py BASELINE CHANGE [--pairs N]
        [--workload NAME ...] [--seed S] [--seconds T] [--json OUT]

Checks each commit out into its own local clone (`git clone --shared`,
no network) under one temporary directory, so the two sides share no
.bench_build and each result's source_id names the commit that ran.
CHANGE must therefore be a commit: perfbench reports HEAD for a dirty
tree. A `git worktree` would not do, because its .git is a file and
perfbench/run.py reads the commit only from a .git directory (it
reports a source digest instead). Then, per workload,
runs N pairs of untraced `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` in the two clones, alternating which side goes
first. The first run on each side also builds it.

Prints, per workload and end-to-end metric, each side's median and
quartiles and in how many pairs the change was better. Exits 1 when a
change median is worse than the baseline's by more than the metric's
BENCHMARK.json bound, when the change failed a larger share of
operations, or when a run reported incorrect output or no result; 0
otherwise. Reads BENCHMARK.json and calls each side's perfbench/run.py;
changes neither. The clones are removed on exit. Stdlib only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args, cwd=ROOT):
    done = subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                          text=True, check=True)
    return done.stdout.strip()


def run_side(tree, workload, seed, seconds, log):
    """One untraced perfbench run in `tree`: its result line with the
    details line's fields under "details", or None when it printed no
    result line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    log.write(done.stderr)
    result, details = None, {}
    for line in done.stdout.splitlines():
        try:
            parsed = json.loads(line)
        except ValueError:
            continue
        if isinstance(parsed, dict) and "metrics" in parsed:
            result = parsed
        elif isinstance(parsed, dict) and "details" in parsed:
            details = parsed["details"]
    if result is not None:
        result["details"] = details
        if done.returncode != 0:
            result["correct"] = False
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(spec, change, base):
    return change < base if spec["better"] == "lower" else change > base


def worse_past_bound(spec, change, base):
    bound = spec["bound"]
    if spec["better"] == "lower":
        return change > base * (1.0 + bound)
    return change < base * (1.0 - bound)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="repeatable; default: every BENCHMARK.json "
                        "workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads or known
    for workload in workloads:
        if workload not in known:
            parser.error(f"unknown workload {workload!r}; one of {known}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    metrics = spec["end_to_end"]
    shas = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}")
            for side, ref in (("baseline", args.baseline),
                              ("change", args.change))}

    temp = tempfile.mkdtemp(prefix="bench_compare-")
    trees = {}
    runs = {w: {"baseline": [], "change": []} for w in workloads}
    problems = []
    try:
        for side, sha in shas.items():
            trees[side] = os.path.join(temp, side)
            git("clone", "--quiet", "--shared", "--no-checkout", ROOT,
                trees[side])
            git("checkout", "--quiet", "--detach", sha, cwd=trees[side])
        with open(os.path.join(temp, "build.log"), "w") as log:
            for workload in workloads:
                for pair in range(args.pairs):
                    order = (("baseline", "change") if pair % 2 == 0
                             else ("change", "baseline"))
                    for side in order:
                        result = run_side(trees[side], workload,
                                          args.seed, seconds, log)
                        print(f"{workload} pair {pair + 1}/{args.pairs} "
                              f"{side}: " + (
                                  "no result" if result is None else
                                  " ".join(f"{m['name']}="
                                           f"{result['metrics'][m['name']]['value']:.4g}"
                                           for m in metrics)),
                              file=sys.stderr, flush=True)
                        if result is None:
                            problems.append(f"{workload} {side}: no result")
                            continue
                        source_id = result["details"].get("source_id")
                        if source_id != shas[side]:
                            problems.append(f"{workload} {side}: source_id "
                                            f"{source_id} is not {shas[side]}")
                        if not result["correct"]:
                            problems.append(f"{workload} {side}: run "
                                            "reported incorrect output")
                        runs[workload][side].append(result)
    finally:
        shutil.rmtree(temp, ignore_errors=True)

    print(f"baseline {shas['baseline'][:12]} vs change {shas['change'][:12]}"
          f", seed {args.seed}, {seconds:g} s runs, {args.pairs} pairs")
    print("| workload | metric | baseline median [q1, q3] | "
          "change median [q1, q3] | change better | bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    for workload in workloads:
        base_runs = runs[workload]["baseline"]
        change_runs = runs[workload]["change"]
        if not base_runs or not change_runs:
            continue
        for m in metrics:
            name = m["name"]
            base = [r["metrics"][name]["value"] for r in base_runs]
            change = [r["metrics"][name]["value"] for r in change_runs]
            b1, b2, b3 = quartiles(base)
            c1, c2, c3 = quartiles(change)
            wins = sum(better(m, c, b) for b, c in zip(base, change))
            regressed = worse_past_bound(m, c2, b2)
            if regressed:
                problems.append(f"{workload} {name}: median {c2:.4g} is "
                                f"worse than {b2:.4g} past its bound "
                                f"{m['bound']:g}")
            print(f"| {workload} | {name} | {b2:.4g} [{b1:.4g}, {b3:.4g}] "
                  f"| {c2:.4g} [{c1:.4g}, {c3:.4g}] "
                  f"| {wins}/{min(len(base), len(change))} "
                  f"| {m['bound']:g} | {'WORSE' if regressed else 'ok'} |")
        shares = {}
        for side, side_runs in runs[workload].items():
            attempted = sum(r["attempted"] for r in side_runs)
            failed = sum(r["failed"] for r in side_runs)
            shares[side] = failed / attempted if attempted else 0.0
            print(f"{workload} {side}: {failed:g} of {attempted:g} "
                  "operations failed")
        if shares["change"] > shares["baseline"]:
            problems.append(f"{workload}: the change failed a larger share "
                            "of operations")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"shas": shas, "seed": args.seed, "seconds": seconds,
                       "runs": runs}, handle, indent=1)
    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
