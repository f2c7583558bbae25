"""One pass of a workload in a fresh interpreter.

Started by run.py with the job as JSON on stdin: {"ops": [argv, ...],
"trace": bool}. Imports wordlab from the checkout's src/, notes when
wordlab.cli is ready, runs the ops in sequence through
wordlab.cli.main(argv) with stdout captured, and prints one JSON object:
when it was ready, the backend, the pass's wall time and peak RSS, the
time of a fixed reference loop run just before and just after the ops,
each op's exit code and output, and with tracing the per-layer stats.
"""

import io
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import wordlab  # noqa: E402
import wordlab.cli  # noqa: E402

READY = time.monotonic()

REFERENCE_ITERATIONS = 500_000
REFERENCE_SAMPLES = 3  # before the ops, and again after them


def _run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    rc, error = None, None
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a failed pass
        error = f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdout, sys.stderr = saved
    return {"rc": rc, "error": error, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _reference_s():
    """Seconds this process takes for a fixed CPU-bound loop that uses
    nothing of wordlab: how fast the host runs the pass just now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def _peak_rss_mb():
    """High-water resident set of this process's own address space.
    Not ru_maxrss: Linux carries the launching process's peak into it
    across exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main():
    if not os.path.abspath(wordlab.__file__).startswith(os.path.join(ROOT, "src", "")):
        sys.exit(f"imported wordlab from {wordlab.__file__}, not from {ROOT}")
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    samples = REFERENCE_SAMPLES if job["ops"] else 0
    reference = [_reference_s() for _ in range(samples)]
    results = []
    start = time.perf_counter()
    for argv in job["ops"]:
        main_fn = tracer.op(wordlab.cli.main, argv[0]) if tracer else wordlab.cli.main
        results.append(_run(main_fn, argv))
    wall = time.perf_counter() - start
    peak_rss_mb = _peak_rss_mb()
    reference += [_reference_s() for _ in range(samples)]
    json.dump(
        {
            "ready": READY,
            "backend": getattr(wordlab, "BACKEND", "unknown"),
            "python": sys.version.split()[0],
            "wall_s": wall,
            "peak_rss_mb": peak_rss_mb,
            "reference_s": statistics.median(reference) if reference else None,
            "results": results,
            "trace": tracer.result() if tracer else None,
        },
        sys.stdout,
    )


if __name__ == "__main__":
    main()
