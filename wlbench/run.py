#!/usr/bin/env python3
"""wordlab benchmark: whole CLI runs, end to end and per layer.

Usage, from the root of a checkout:
    python3 wlbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run measures wordlab as the checkout's src/ holds it, with whichever
backend that imports; there is nothing to build. It runs passes of the
workload one after another until S seconds have passed. A pass is one
fresh interpreter (worker.py) that runs the workload's ops in
sequence through wordlab.cli.main: fresh because verify caches
certified prefixes in-process, one at a time so passes never compete
for cores. The child's environment drops every WORDLAB_* and PYTHON*
variable, so the default backend and prefix cap are measured, and fixes
PYTHONHASHSEED, so dict and set layouts do not vary from run to run.

End-to-end metrics (--trace 0), each the median over the run's passes:
    wall_s       start of a pass's first op to the end of its last op
    setup_s      launch of a pass's interpreter until wordlab.cli is
                 imported; also sampled by launches that run no op,
                 a few after every pass
    peak_rss_mb  peak resident memory of the pass's process
The two times are given at a fixed host speed: seconds measured, times
REFERENCE_S over the time the pass's process took for a fixed reference
loop (worker.py) around its ops. The shared host this was built on
changes speed by 20-40% over minutes, and the loop follows those changes
while knowing nothing of wordlab; the times as measured are printed too.
With --trace 1 the run adds traced passes, each right after an untraced
one, and reports per-layer self times and work counts instead (see
tracer.py), plus the tracing overhead against those untraced passes.

Every op's output is checked after the passes, outside the timed region,
against references that do not use wordlab (see workloads.py). The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Failed ops count in failed and in the printed fail_ratio; correct is
false when an op fails in any way but the exact one its known defect
names.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_LAUNCHES_PER_PASS = 4
# times are reported as if the host ran worker.py's reference loop in
# this many seconds
REFERENCE_S = 0.05
TRACED_PASSES = 2  # two, so that work counts can be checked to repeat exactly
PASS_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def _pin_cpu():
    """Keep this process and every pass it starts on one CPU, the
    highest-numbered one allowed (the lowest takes most device
    interrupts). Passes run one at a time, so one CPU is enough. On a
    2-vCPU host, passes free to move between the CPUs spread 0.32
    (quartile distance over median) in a seven-minute sample; passes
    kept on one spread 0.10 and 0.22 in two others."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith(("WORDLAB_", "PYTHON"))}
    env["PYTHONHASHSEED"] = "0"
    return env


def _launch(ops, trace, env):
    """One pass in a fresh interpreter; its result plus setup_s."""
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER],
        cwd=ROOT,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(json.dumps({"ops": ops, "trace": trace}), PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"a pass ran longer than {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err}")
    result = json.loads(out)
    result["setup_s"] = result["ready"] - launched
    return result


def _check(ops, passes):
    """(failed, unexpected, report lines) over every op of every pass.
    The first pass is checked against the references; every later pass
    must repeat it byte for byte."""
    first = passes[0]["results"]
    problems = [workloads.check(op, r) for op, r in zip(ops, first)]
    known = [op.known_defect is not None and problem == op.known_defect[1]
             for op, problem in zip(ops, problems)]
    failed = unexpected = 0
    lines = []
    for op, r0, problem, is_known in zip(ops, first, problems, known):
        verdict = "ok" if problem is None else f"FAIL {problem}"
        if is_known:
            verdict += f" (known defect: {op.known_defect[0]})"
        lines.append(f"op {op.key}: {verdict} sha256={workloads.digest(r0['stdout'])}")
    for p in passes:
        for op, r, r0, problem, is_known in zip(ops, p["results"], first, problems, known):
            same = (r["rc"], r["error"], r["stdout"]) == (r0["rc"], r0["error"], r0["stdout"])
            if problem is not None or not same:
                failed += 1
                unexpected += not (same and is_known)
            if not same:
                lines.append(f"op {op.key}: FAIL output differs between passes")
    return failed, unexpected, lines


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _layer_metrics(names, traced, neighbours):
    """Per-layer metrics from the traced passes: times averaged, counts
    required to repeat exactly. The tracing overhead pairs each traced
    pass with the untraced pass just before it, so that drift in the
    host's speed between the two halves of a run does not enter it.
    A metric no wrapped function produced is left out, not read as 0."""
    stats = [p["trace"]["stats"] for p in traced]
    values, missing = {}, []
    for name in names:
        if name.startswith(("trace.", "host.")):  # not from the tracer
            continue
        if name not in stats[0]:
            missing.append(name)
            continue
        samples = [s[name] for s in stats]
        if name.endswith("_s"):
            values[name] = statistics.fmean(samples)
        elif len(set(samples)) != 1:
            raise BenchError(f"{name} differs between traced passes: {samples}")
        else:
            values[name] = samples[0]
    values["trace.wall_s"] = statistics.fmean(p["wall_s"] for p in traced)
    values["trace.overhead_s"] = statistics.fmean(
        t["wall_s"] - u["wall_s"] for t, u in zip(traced, neighbours)
    )
    first = traced[0]["trace"]
    self_sum = sum(v for k, v in first["stats"].items() if k.endswith("_s"))
    notes = [
        f"trace: self times sum to {self_sum:.4f} s, plus {first['count_s']:.4f} s spent "
        f"counting work, of {traced[0]['wall_s']:.4f} s traced wall in the first traced pass"
    ]
    if first["unresolved"]:
        notes.append("trace: not found in wordlab: " + " ".join(first["unresolved"]))
    if missing:
        notes.append("trace: missing, so left out: " + " ".join(missing))
    return values, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description="wordlab benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if not os.path.isfile(os.path.join(ROOT, "src", "wordlab", "cli.py")):
        raise BenchError(f"no wordlab sources under {os.path.join(ROOT, 'src')}")
    cpu = _pin_cpu()
    env = _child_env()
    ops = workloads.ops(args.workload, args.seed)
    argvs = [list(op.argv) for op in ops]

    _launch([], False, env)  # warm-up: byte-compiles the sources once
    passes, setups = [], []
    measured = 0.0
    while not passes or measured < args.seconds:
        begin = time.monotonic()
        passes.append(_launch(argvs, False, env))
        measured += time.monotonic() - begin
        setups.append(passes[-1]["setup_s"])
        # spread over the run, so that one slow moment of the host
        # cannot set the median
        setups += [_launch([], False, env)["setup_s"] for _ in range(SETUP_LAUNCHES_PER_PASS)]
    traced, neighbours = [], []
    for i in range(TRACED_PASSES if args.trace else 0):
        neighbours.append(passes[-1] if i == 0 else _launch(argvs, False, env))
        traced.append(_launch(argvs, True, env))

    checked = passes + neighbours[1:] + traced
    backends = {p["backend"] for p in checked}
    if len(backends) != 1:
        raise BenchError(f"passes ran on different backends: {sorted(backends)}")
    failed, unexpected, lines = _check(ops, checked)
    attempted = len(ops) * len(checked)
    reference_s = statistics.median(p["reference_s"] for p in passes)
    timings = {
        "wall_s": statistics.median(p["wall_s"] * REFERENCE_S / p["reference_s"] for p in passes),
        "setup_s": statistics.median(setups) * REFERENCE_S / reference_s,
        "host.reference_s": reference_s,
        "host.wall_measured_s": statistics.median(p["wall_s"] for p in passes),
        "host.setup_measured_s": statistics.median(setups),
    }
    for line in lines:
        print(line)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "traced_passes": len(traced),
        "backend": backends.pop(),
        "python": passes[0]["python"],
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu": _cpu_model(),
    }
    print("env " + json.dumps(record))
    print(f"fail_ratio {failed / attempted} ratio ({failed} of {attempted} ops failed)")

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, notes = _layer_metrics(names, traced, neighbours)
        values.update((k, v) for k, v in timings.items() if k.startswith("host."))
        for note in notes:
            print(note)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = dict(timings, peak_rss_mb=statistics.median(p["peak_rss_mb"] for p in passes))
        for key in ("wall_s", "reference_s", "peak_rss_mb"):
            print(f"measured {key} per pass: " + " ".join(f"{p[key]:.4f}" for p in passes))
        for key in ("host.reference_s", "host.wall_measured_s", "host.setup_measured_s"):
            print(f"{key} {timings[key]} s")
    metrics = {}
    for name, unit in units.items():
        if name not in values:
            continue
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} {values[name]} {unit}")
    print(
        json.dumps(
            {
                "correct": unexpected == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
