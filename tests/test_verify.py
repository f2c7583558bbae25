import random
import re

import pytest

from wordlab import closure, rauzy, verify, wordgen
from conftest import binary_words


def test_full_suite_passes(verify_outcomes):
    assert list(verify_outcomes) == [name for name, _ in verify.CHECKS]
    failed = [o for o in verify_outcomes.values() if o.status == "fail"]
    assert failed == []


def test_equivalence_reports_word_count():
    (outcome,) = verify.run_verify_suite(only=["closure-oracle-equivalence"])
    assert outcome.status == "pass"
    assert "8190" in outcome.detail


def test_corrupted_classifier_fails_with_counterexample():
    def corrupted(w):
        verdict = closure.classify(w)
        if len(closure._as_bytes(w)) == 5:
            if verdict.closed:
                return closure.OPEN
            return closure.ClosureVerdict(closed=True, frontier=1)
        return verdict

    (outcome,) = verify.run_verify_suite(
        only=["closure-oracle-equivalence"], classify_impl=corrupted
    )
    assert outcome.status == "fail"
    assert "length 5" in outcome.detail  # concrete counterexample named


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        verify.run_verify_suite(only=["no-such-check"])


def test_subset_preserves_registration_order():
    names = ["identity-p-op-cl", "closure-worked-examples"]
    outcomes = verify.run_verify_suite(only=names)
    assert [o.name for o in outcomes] == ["closure-worked-examples", "identity-p-op-cl"]


def _index(w):
    """The frontier-table index of the binary word w."""
    v = 0
    for c in w:
        v = 2 * v + c
    return (1 << len(w)) | v


def _arbitrary_table(max_len, seed):
    rng = random.Random(seed)
    return [max(-1, rng.randrange(-4, 16)) for _ in range(2 << max_len)]


@pytest.mark.parametrize("seed", [3, 8])
def test_sweeps_cover_the_window_walks(monkeypatch, seed):
    # under arbitrary frontier lengths, the sweeps report exactly what the
    # rauzy checks report on every binary word of length <= 9, walked
    # with the loop bounds the verify checks used before the sweeps; the
    # seeds give the letters frontiers 8 apart, so shift 8 is reached
    table = _arbitrary_table(9, seed)

    def classify(w):
        f = table[_index(w)]
        return closure.ClosureVerdict(closed=True, frontier=f) if f >= 0 else closure.OPEN

    monkeypatch.setattr(closure, "classify", classify)
    triples = set()
    cores = set()
    for w in binary_words(9, min_len=2):
        buf = wordgen.literal_buffer(w, verify.AB)
        for n in range(1, len(w)):
            i_max = min(verify.FRONTIER_I_MAX, len(w) - n)
            for v in rauzy.check_frontier_distance(buf, n, i_max):
                j, i = map(int, re.match(r"offset (\d+), shift (\d+): ", v.detail).groups())
                triples.add((v.word, w[j + i : j + i + n], i))
        for n in range(2, len(w) + 1):
            for v in rauzy.check_closed_neighbor_uniqueness(buf, n):
                cores.add((v.check, v.word, v.detail))
    swept_triples = {
        (u[:n], u[len(u) - n :], len(u) - n) for u, n, _ in verify.frontier_distance_sweep(table)
    }
    swept_cores = {(v.check, v.word, v.detail) for _, _, v in verify.closed_neighbor_sweep(table)}
    assert cores and max(i for _, _, i in triples) == verify.FRONTIER_I_MAX
    assert swept_triples == triples
    assert swept_cores == cores


def test_binary_frontier_table_matches_classify():
    table = verify.binary_frontier_table(9)
    assert len(table) == 2 << 9
    for w in binary_words(9):
        verdict = closure.classify(w)
        assert table[_index(w)] == (verdict.frontier if verdict.closed else -1), w


@pytest.mark.parametrize(
    "check,word,frontier,detail",
    [
        ("rauzy-closed-neighbors", b"\x00\x01", 0,
         "word 'aab' n=2: 2 closed right extensions: [0, 1]"),
        ("rauzy-frontier-distance", b"\x00", 5,
         "word 'ab' n=1: shift 1: frontiers 5 and 0 differ by 5 >= 1"),
    ],
)
def test_corrupted_frontier_table_fails_sweep(monkeypatch, check, word, frontier, detail):
    table = verify.binary_frontier_table(verify.RAUZY_N_MAX)
    assert table[_index(word)] != frontier
    table[_index(word)] = frontier
    monkeypatch.setattr(verify, "binary_frontier_table", lambda max_len: table)
    (outcome,) = verify.run_verify_suite(only=[check])
    assert (outcome.status, outcome.detail) == ("fail", detail)
