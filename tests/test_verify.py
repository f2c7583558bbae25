import re

import pytest

from wordlab import closure, complexity, kernels, rauzy, verify, wordgen
from conftest import (
    arbitrary_table,
    binary_words,
    is_primitive,
    table_closed_prefixes,
    table_index,
)


def test_full_suite_passes(verify_outcomes):
    assert list(verify_outcomes) == [name for name, _ in verify.CHECKS]
    failed = [o for o in verify_outcomes.values() if o.status == "fail"]
    assert failed == []


def test_equivalence_reports_word_count():
    (outcome,) = verify.run_verify_suite(only=["closure-oracle-equivalence"])
    assert outcome.status == "pass"
    assert "8190" in outcome.detail


def test_corrupted_classifier_fails_with_counterexample(monkeypatch):
    classify = closure.classify

    def corrupted(w):
        verdict = classify(w)
        if len(closure._as_bytes(w)) == 5:
            if verdict.closed:
                return closure.OPEN
            return closure.ClosureVerdict(closed=True, frontier=1)
        return verdict

    monkeypatch.setattr(closure, "classify", corrupted)
    (outcome,) = verify.run_verify_suite(only=["closure-oracle-equivalence"])
    assert outcome.status == "fail"
    assert "length 5" in outcome.detail  # concrete counterexample named


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        verify.run_verify_suite(only=["no-such-check"])


def test_subset_preserves_registration_order():
    names = ["identity-p-op-cl", "closure-worked-examples"]
    outcomes = verify.run_verify_suite(only=names)
    assert [o.name for o in outcomes] == ["closure-worked-examples", "identity-p-op-cl"]


@pytest.mark.parametrize("seed", [3, 8])
def test_sweeps_cover_the_window_walks(monkeypatch, seed):
    # under arbitrary frontier lengths, the sweeps report exactly what the
    # rauzy checks report on every binary word of length <= 9, walked
    # with the loop bounds the verify checks used before the sweeps; the
    # seeds give the letters frontiers 8 apart, so shift 8 is reached;
    # each word's index rows are read from the table
    table = arbitrary_table(9, seed)
    monkeypatch.setattr(kernels, "closed_prefixes", table_closed_prefixes(table))
    triples = set()
    cores = set()
    for w in binary_words(9, min_len=2):
        index = complexity.FactorIndex(wordgen.literal_buffer(w, verify.AB), len(w))
        for n in range(1, len(w)):
            i_max = min(verify.FRONTIER_I_MAX, len(w) - n)
            for v in rauzy.check_frontier_distance(index, n, i_max):
                j, i = map(int, re.match(r"offset (\d+), shift (\d+): ", v.detail).groups())
                triples.add((v.word, w[j + i : j + i + n], i))
        for n in range(2, len(w) + 1):
            for v in rauzy.check_closed_neighbor_uniqueness(index, n):
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
        assert table[table_index(w)] == (verdict.frontier if verdict.closed else -1), w


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
    assert table[table_index(word)] != frontier
    table[table_index(word)] = frontier
    monkeypatch.setattr(verify, "binary_frontier_table", lambda max_len: table)
    (outcome,) = verify.run_verify_suite(only=[check])
    assert (outcome.status, outcome.detail) == ("fail", detail)


def test_one_frontier_table_per_suite_run(monkeypatch):
    built = []

    def table(max_len):
        built.append(max_len)
        return [-1] * (2 << max_len)  # every word open: no sweep can fail

    monkeypatch.setattr(verify, "binary_frontier_table", table)
    verify.run_verify_suite(only=["rauzy-closed-neighbors", "rauzy-frontier-distance"])
    verify.run_verify_suite(only=["rauzy-frontier-distance"])
    assert built == [verify.RAUZY_N_MAX, verify.RAUZY_N_MAX]


def test_rauzy_indexes_match_classify():
    for preset in sorted(wordgen.PRESETS):
        index = verify._rauzy_index(preset)
        data = index.buf.data
        for n in range(1, verify.RAUZY_N_MAX + 1):
            want = []
            for j in range(len(data) - n + 1):
                verdict = closure.classify(data[j : j + n])
                want.append(verdict.frontier if verdict.closed else -1)
            assert index.frontiers(n) == tuple(want), (preset, n)


def _with_entry(index, n, j, frontier):
    """A copy of index whose entry for data[j:j+n] reads frontier."""
    column = list(index.frontiers(n))
    assert column[j] != frontier
    column[j] = frontier
    bad = complexity.FactorIndex(index.buf, index.n_max)
    columns = index.columns[: n - 1] + (tuple(column),) + index.columns[n:]
    object.__setattr__(bad, "columns", columns)
    return bad


@pytest.mark.parametrize(
    "check,n,j,frontier,detail",
    [
        # cantor starts abab: ab at offset 0 read as closed beside the closed bb
        ("rauzy-closed-neighbors", 2, 0, 0,
         "cantor n=2: 'b' 2 closed left extensions: [0, 1]"),
        ("rauzy-frontier-distance", 1, 0, 5,
         "cantor n=1: 'a' offset 0, shift 1: frontiers 5 and 0 differ by 5 >= 1"),
        ("rauzy-closed-path-frontiers", 1, 0, 5,
         "cantor n=1: 'a' offset 0, walk 1: frontier gap 5 exceeds 0 distinct open windows"),
    ],
)
def test_corrupted_index_fails_check(monkeypatch, check, n, j, frontier, detail):
    real = verify._rauzy_index
    bad = _with_entry(real("cantor"), n, j, frontier)
    monkeypatch.setattr(verify, "_rauzy_index", lambda preset: bad if preset == "cantor" else real(preset))
    (outcome,) = verify.run_verify_suite(only=[check])
    assert (outcome.status, outcome.detail) == ("fail", detail)


def test_forced_open_window_fails_periodic_collapse(monkeypatch):
    # two forced open windows of (ab)^omega: babab first at offset 1, and
    # the longer abababa already at offset 0
    forced = {verify.AB.encode("babab"), verify.AB.encode("abababa")}
    real = kernels.closed_prefixes
    monkeypatch.setattr(
        kernels,
        "closed_prefixes",
        lambda w, n_from=1: [(n, f) for n, f in real(w, n_from) if w[:n] not in forced],
    )
    (outcome,) = verify.run_verify_suite(only=["periodic-collapse"])

    def first_open():
        # the walk over n, then offset, that the check replaced
        for k in range(1, 6):
            for v in binary_words(k, min_len=k):
                if not is_primitive(v):
                    continue
                data = (v * (20 // k + 3))[: 20 + 2 * k + 20]
                for n in range(2 * k, 21):
                    for i in range(len(data) - n + 1):
                        if data[i : i + n] in forced:
                            return verify.AB.decode(v), n, i

    assert first_open() == ("ab", 5, 1)
    assert (outcome.status, outcome.detail) == (
        "fail", "v='ab' n=5: open window 'babab' at offset 1"
    )
