"""The workloads: the CLI argv of each op, and the check of each op's
output against an independent reference.

profile-mix and verify-suite have fixed inputs; the seed picks the
returns targets of long-words, each a factor of the prefix at a seeded
offset and length.
"""

import hashlib
import json
import os
import random
from dataclasses import dataclass
from functools import lru_cache

import reference

WORKLOADS = ("profile-mix", "verify-suite", "long-words")

_GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
VERIFY_CHECKS = 19


@dataclass(frozen=True)
class Op:
    argv: tuple
    golden: bool = True  # stdout must match the digest recorded in golden.json
    # (why, problem): a failure this op has today, with the exact problem
    # check() reports for it; any other failure of the op is unexpected
    known_defect: tuple = None

    @property
    def key(self):
        return " ".join(self.argv)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@lru_cache(maxsize=None)
def _golden():
    with open(_GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def _prefix(option, value, length):
    return reference.prefix(option, value, length)


@lru_cache(maxsize=None)
def _counts(option, value, n_max):
    return reference.factor_counts(_prefix(option, value, reference.REFERENCE_LENGTH), n_max)


def _profile(option, value, n_from, n_to, **kw):
    return Op(("profile", option, value, "--n", f"{n_from}..{n_to}"), **kw)


def _returns(rng, option, value, length):
    word = _prefix(option, value, length)
    m = rng.randint(8, 16)
    start = rng.randrange(length - m)
    return Op(
        ("returns", option, value, "--factor", word[start : start + m], "--length", str(length)),
        golden=False,
    )


def ops(workload, seed):
    """The ops of one pass of workload, in the order they run."""
    if workload == "profile-mix":
        return [
            _profile("--source", "thue-morse", 1, 300),
            _profile("--source", "tribonacci", 1, 200),
            _profile("--source", "fibonacci", 1, 200),
            _profile("--source", "paperfolding", 1, 100),
            Op(("rauzy", "--source", "thue-morse", "--n", "12")),
            Op(("rauzy", "--source", "tribonacci", "--n", "40")),
            _profile(
                "--morphism",
                "a=aaba,b=babb",
                1,
                16,
                golden=False,
                known_defect=(
                    "ROADMAP item 1: doubling certification stops early",
                    "p(6) = 19, reference 20",
                ),
            ),
        ]
    if workload == "verify-suite":
        return [Op(("verify",))]
    if workload == "long-words":
        rng = random.Random(seed)
        return [
            _returns(rng, "--cf", "1", 1 << 14),
            _returns(rng, "--source", "fibonacci", 1 << 20),
            _returns(rng, "--source", "tribonacci", 1 << 20),
            _profile("--source", "thue-morse", 1000, 1000),
            _profile("--cf", "1,2", 1, 60),
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def _check_profile(op, out):
    option, value, n_range = op.argv[1], op.argv[2], op.argv[4]
    n_from, n_to = (int(x) for x in n_range.split(".."))
    lines = out.splitlines()
    if not lines or lines[0] != "n,p,op,cl,frontier_lengths":
        return "missing CSV header"
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(range(n_from, n_to + 1)):
        return f"rows do not cover n = {n_range}"
    want = _counts(option, value, n_to)
    for r in rows:
        n, p = int(r[0]), int(r[1])
        if p != want[n - 1]:
            return f"p({n}) = {p}, reference {want[n - 1]}"
    return None


def _check_rauzy(op, out):
    option, value, n = op.argv[1], op.argv[2], int(op.argv[4])
    word = _prefix(option, value, reference.REFERENCE_LENGTH)
    vertices, edges = set(), set()
    for line in out.splitlines():
        if " -> " in line:
            edges.add(line.split('label="')[1].split('"')[0])
        elif line.startswith('  "'):
            vertices.add(line.split('"')[1])
    if vertices != reference.factors(word, n):
        return f"vertices are not the {n}-factors of the reference prefix"
    if edges != reference.factors(word, n + 1):
        return f"edge labels are not the {n + 1}-factors of the reference prefix"
    return None


def _check_returns(op, out):
    option, value, target, length = op.argv[1], op.argv[2], op.argv[4], int(op.argv[6])
    if out != reference.returns_text(_prefix(option, value, length), target):
        return "report differs from a naive re-scan of the reference prefix"
    return None


def _check_verify(op, out):
    lines = out.splitlines()
    passed = sum(1 for line in lines if line.startswith("PASS "))
    if passed != VERIFY_CHECKS or lines[-1:] != [f"{VERIFY_CHECKS} checks, 0 failed"]:
        return f"{passed} of {VERIFY_CHECKS} checks passed"
    return None


_CHECKS = {
    "profile": _check_profile,
    "rauzy": _check_rauzy,
    "returns": _check_returns,
    "verify": _check_verify,
}


def check(op, result):
    """Why the op's result is wrong, or None when it is right."""
    if result["error"] is not None:
        return f"raised {result['error']}"
    if result["rc"] != 0:
        return f"exit code {result['rc']}: {result['stderr'].strip()}"
    problem = _CHECKS[op.argv[0]](op, result["stdout"])
    if problem is None and op.golden:
        want = _golden().get(op.key)
        if want is None:
            return "no recorded digest"
        if digest(result["stdout"]) != want:
            return "output differs from the recorded digest"
    return problem
