"""Acceptance gate: one test per criterion, each printing a pass line.

All tolerances are exact equalities; the two timed criteria carry their
stated wall-clock budgets. Threshold constants were frozen from
pre-build brute-force sweeps (see wordlab.verify).
"""

import itertools
import time

import pytest

from wordlab import closure, complexity, returns, verify, wordgen
from conftest import binary_words, is_primitive


def announce(number, name):
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def test_01_closure_oracle_equivalence():
    start = time.perf_counter()
    total = 0
    for w in binary_words(12):
        total += 1
        assert closure.classify(w) == closure.classify_brute(w), w
    elapsed = time.perf_counter() - start
    assert total == 8190
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    announce(1, "closure oracle equivalence (8190 words)")


def test_02_worked_examples():
    assert closure.classify("abaaaab") == closure.ClosureVerdict(True, 2)
    assert closure.classify("aabab") == closure.OPEN
    assert closure.classify("aabaaa") == closure.OPEN
    announce(2, "worked classification examples")


def test_03_identity_all_presets():
    for preset in sorted(wordgen.PRESETS):
        buf = wordgen.stabilized_prefix(wordgen.get_preset(preset), 30)
        for row in complexity.profile(buf, 1, 30):
            assert row.p == row.op + row.cl, (preset, row)
    announce(3, "p = op + cl on all six presets, n <= 30")


def test_04_cantor_closed_minimum():
    start = time.perf_counter()
    buf = wordgen.stabilized_prefix(wordgen.get_preset("cantor"), 64)
    for n in (8, 22, 64):
        assert complexity.profile(buf, n, n)[0].cl == 1, n
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    announce(4, "cantor cl(n) = 1 at n = 8, 22, 64")


def test_05_fibonacci_sturmian_and_returns():
    buf = wordgen.stabilized_prefix(wordgen.get_preset("fibonacci"), 30)
    for row in complexity.profile(buf, 1, 30):
        assert row.p == row.n + 1, row
    src = wordgen.get_preset("fibonacci")
    long_buf = wordgen.PrefixBuffer(
        source=src, data=src.prefix(verify.FIB_TWO_RETURNS_PREFIX), stable_upto=16
    )
    for k in range(1, 16):
        for v in complexity.factors_of_length(long_buf, k, force=True):
            assert len(returns.return_words(long_buf, v)) == 2, long_buf.decode(v)
    announce(5, "fibonacci p(n) = n+1 and two return words per factor")


def test_06_rauzy_propositions(verify_outcomes):
    # the two verify checks walk exactly the claims this criterion states:
    # every preset buffer certified to n = 13 with n <= 12 (frontier
    # distance up to i_max = min(8, len - n)), and every binary word of
    # length <= 12; their loop bounds and the details pin that coverage
    assert (verify.RAUZY_N_MAX, verify.FRONTIER_I_MAX) == (12, 8)
    neighbors = verify_outcomes["rauzy-closed-neighbors"]
    assert neighbors.status == "pass", neighbors.detail
    assert neighbors.detail == "presets n<=12 and 8188 binary words"
    distance = verify_outcomes["rauzy-frontier-distance"]
    assert distance.status == "pass", distance.detail
    assert distance.detail == "presets n<=12 i_max=8 and 8190 binary words"
    announce(6, "rauzy propositions: zero violations")


def test_07_periodic_collapse_brute_force():
    for k in range(1, 6):
        for bits in itertools.product(b"\x00\x01", repeat=k):
            v = bytes(bits)
            if not is_primitive(v):
                continue
            data = (v * (20 // k + 3))[:60]
            for n in range(2 * k, 21):
                for i in range(len(data) - n + 1):
                    assert closure.classify_brute(data[i : i + n]).closed, (v, n, i)
    announce(7, "periodic collapse: op(n) = 0 for n >= 2|v|")


def test_08_rotation_power_construction():
    for k in range(1, 5):
        for bits in itertools.product(b"\x00\x01", repeat=k):
            u = bytes(bits)
            if not is_primitive(u):
                continue
            for p in range(k):
                words = set()
                for i in range(k):
                    r = u[i:] + u[:i]
                    w = r * 3 + (r * 2)[: p + 1]
                    words.add(w)
                    verdict = closure.classify_brute(w)
                    assert verdict.closed, (u, i, p)
                    assert verdict.frontier == 2 * k + p + 1, (u, i, p)
                assert len(words) == k, (u, p)
    announce(8, "rotation-power closed-factor construction")


def test_09_aperiodicity_thresholds():
    buf = wordgen.stabilized_prefix(wordgen.get_preset("thue-morse"), 60)
    rows = complexity.profile(buf, 1, 60)
    low = min(row.op for row in rows if 10 <= row.n <= 40)
    assert low >= verify.TM_MIN_OPEN_10_40, low
    for d in range(1, 5):
        for r in range(d):
            _, high = complexity.syndetic_max_cl(rows, d, r)
            assert high >= verify.TM_SYNDETIC_MIN_MAX_CL, (d, r, high)
    announce(9, "thue-morse open/closed aperiodicity thresholds")


def test_10_paperfolding_liminf_zero_witness():
    outcome = verify.check_paperfolding_zero(limit=verify.PAPERFOLDING_SEARCH_LIMIT)
    if outcome.status == "skipped":
        pytest.skip(outcome.detail)
    assert outcome.status == "pass", outcome.detail
    announce(10, f"paperfolding closed-complexity zero at n = {verify.PAPERFOLDING_FIRST_CL_ZERO}")
