#!/usr/bin/env python3
"""Steadiness check: runs each workload in two separate sets of repeated
runs and prints each set's median and quartiles per end-to-end metric.

    python3 perfbench/steady.py --runs 10 --seconds 10
    python3 perfbench/steady.py --workloads bulk_band --runs 5

Set A uses seeds base..base+runs-1 and set B the next `runs` seeds. The
spread of a set is (q3 - q1) / median, with the quartiles of Python's
statistics.quantiles(values, n=4); the drift is how much worse set B's
median is than set A's, as a share of set A's. A metric holds when both
spreads and the drift stay within its bound in BENCHMARK.json. The
suggested bound is three times the largest spread or drift seen, capped at
0.25. Seed 777 is kept out of every set: it is for the final check of a
change, so that a claim is also shown on a seed it was not tuned on.

Run from the repository root. Also checks that the share of failed
operations is the same in every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HELD_OUT_SEED = 777


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s\n%s" % (proc.returncode, " ".join(cmd),
                                                    proc.stdout[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("run reported incorrect output: " + " ".join(cmd))
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    worst = {}
    all_hold = True
    for workload in args.workloads:
        sets = []
        fail_shares = set()
        for s in range(2):
            values = {}
            for i in range(args.runs):
                seed = args.seed_base + s * args.runs + i
                if seed >= HELD_OUT_SEED:
                    seed += 1
                result = run_once(workload, seed, args.seconds)
                fail_shares.add((result["failed"], result["attempted"]) if
                                result["failed"] else 0)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print("  %s set %s seed %d: %s" % (
                    workload, "AB"[s], seed,
                    " ".join("%s=%.5g" % (k, v["value"])
                             for k, v in result["metrics"].items())),
                      flush=True)
            sets.append(values)
        print("\n%s (%d runs per set, %d s each)" % (workload, args.runs,
                                                       args.seconds))
        print("  %-14s %-34s %-34s %8s %8s" % ("metric", "set A median [q1, q3]",
                                               "set B median [q1, q3]",
                                               "drift", "bound"))
        for name in sets[0]:
            a = summarize(sets[0][name])
            b = summarize(sets[1][name])
            sign = 1 if better.get(name) == "lower" else -1
            drift = sign * (b[0] - a[0]) / a[0] if a[0] else float("inf")
            bound = bounds.get(name, {}).get("bound")
            spreads = [a[3], b[3]] if name != "setup_s" else []
            holds = bound is None or (max(spreads + [0]) <= bound and drift <= bound)
            all_hold = all_hold and holds
            worst[name] = max(worst.get(name, 0), a[3], b[3], drift)
            print("  %-14s %10.5g [%.5g, %.5g] (%.3f)  %10.5g [%.5g, %.5g] (%.3f) %8.3f %8s %s" % (
                name, a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3], drift,
                "-" if bound is None else "%.3f" % bound,
                "" if holds else "DOES NOT HOLD"))
        if len(fail_shares) > 1:
            all_hold = False
            print("  failed-operation share differs between runs:", fail_shares)
    print("\nsuggested bounds (3 x largest spread or drift, capped at 0.25):")
    for name, w in worst.items():
        print("  %-14s %.3f" % (name, min(0.25, 3 * w)))
    print("steadiness: %s" % ("every metric holds" if all_hold else "NOT STEADY"))
    return 0 if all_hold else 1


if __name__ == "__main__":
    sys.exit(main())
