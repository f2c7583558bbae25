#!/usr/bin/env python3
"""Repeat the benchmark and summarise each end-to-end metric.

Usage, from the root of a checkout:
    python3 wlbench/spread.py --workload NAME [--workload NAME ...]
        [--runs 10] [--first-seed 1] [--save FILE] [--baseline FILE]

Runs wlbench/run.py once per seed and workload, one run at a time, the
workloads taking turns, and prints for every workload and metric the
median, the quartiles and the spread (q3 - q1) / median, next to the
metric's bound from BENCHMARK.json; a spread of a third of the bound or
more is flagged. --save writes the
runs as JSON; --baseline compares the medians with runs saved earlier
and flags each median worse by more than the bound. Runs taken on
different backends, interpreters or machines are never pooled or
compared: the script stops instead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# what must match before runs are pooled or compared
ENV_KEYS = ("backend", "python", "nproc", "cpu")


def _run(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed with {proc.returncode}:\n{proc.stderr}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"workload": workload, "seed": seed, "env": env, "result": json.loads(lines[-1])}


def _same_env(runs, what):
    envs = {tuple(r["env"][k] for k in ENV_KEYS) for r in runs}
    if len(envs) != 1:
        sys.exit(f"{what} differ in {', '.join(ENV_KEYS)}: {sorted(envs)}; not comparing")


def _medians(runs, workload, name):
    values = [r["result"]["metrics"][name]["value"] for r in runs if r["workload"] == workload]
    return values, statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write the runs to this JSON file")
    parser.add_argument("--baseline", help="runs saved earlier to compare against")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    runs = []
    # workloads take turns, so that a slow spell of the host is shared
    # among them instead of landing on one workload's runs
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in args.workload:
            runs.append(_run(spec, workload, seed))
            r = runs[-1]["result"]
            print(f"{workload} seed {seed}: failed {r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={m['value']:.4f}" for k, m in r["metrics"].items()),
                  flush=True)
    _same_env(runs, "these runs")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
    baseline = None
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
        _same_env(runs + baseline, "these runs and the baseline")

    for workload in args.workload:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values, median = _medians(runs, workload, name)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median
            line = (f"{workload:13} {name:12} median {median:.5g} {metric['unit']} "
                    f"q1 {q1:.5g} q3 {q3:.5g} spread {spread:.3f} (bound {bound})")
            if spread >= bound / 3:
                line += " WIDE"
            if baseline is not None:
                _, base = _medians(baseline, workload, name)
                worse = (median - base) / base
                if metric["better"] == "higher":
                    worse = -worse
                line += f" vs baseline {base:.5g}: {worse:+.3f}"
                if worse > bound:
                    line += " WORSE"
            print(line)


if __name__ == "__main__":
    main()
