"""Every per-layer metric BENCHMARK.json lists is still produced by the
wlbench tracer: a wordlab function the tracer wraps that is deleted or
renamed drops its metrics from a traced run's final JSON line.

The tracer patches wordlab's modules in place, so it is installed in a
fresh interpreter, never in the test process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# trace.* and host.* are added by wlbench/run.py, not by the tracer
CHILD = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/wlbench"]
import wordlab.cli
from tracer import Tracer
tracer = Tracer()
tracer.install()
json.dump(sorted(tracer.result()["stats"]), sys.stdout)
"""


def test_tracer_produces_every_per_layer_metric():
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {m["name"] for m in listed if not m["name"].startswith(("trace.", "host."))}
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    produced = set(json.loads(child.stdout))
    assert sorted(wanted - produced) == []
