import pytest

from wordlab import closure, kernels, rauzy, verify, wordgen
from conftest import arbitrary_lookup, binary_words, is_primitive
from test_rauzy import distance_triples, walk_closed_neighbors, walk_frontier_distance


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
def test_sweeps_cover_the_window_walks(seed):
    # under seeded arbitrary frontier lengths, the two binary sweeps report
    # exactly what the reference window walks report on every binary word
    # of length <= 9; the letters get frontiers FRONTIER_I_MAX apart, so
    # that shift is reached
    closed = arbitrary_lookup(binary_words(9), seed)
    closed.update({b"\x00": 0, b"\x01": verify.FRONTIER_I_MAX})
    triples = set()
    cores = set()
    for w in binary_words(9, min_len=2):
        buf = wordgen.literal_buffer(w, verify.AB)
        for n in range(1, len(w)):
            triples |= walk_frontier_distance(buf, closed, n, verify.FRONTIER_I_MAX)
        for n in range(2, len(w) + 1):
            cores |= {(v.check, v.word, v.detail) for v in walk_closed_neighbors(buf, closed, n)}
    words = list(binary_words(9))
    swept_triples = distance_triples(
        rauzy.check_frontier_distance(words, closed, 9, verify.FRONTIER_I_MAX)
    )
    swept_cores = {(v.check, v.word, v.detail) for _, _, v in verify.closed_neighbor_sweep(words, closed)}
    assert max(i for _, _, i in triples) == verify.FRONTIER_I_MAX
    assert swept_triples == triples
    assert swept_cores == cores
    assert len(triples) + len(cores) > 1000


def test_closed_lookup_matches_brute():
    # the lookup of the binary words of length 10 holds every closed
    # binary word of length <= 10, with its frontier, and no open one
    closed = verify.closed_lookup(binary_words(10, min_len=10))
    for w in binary_words(10):
        verdict = closure.classify_brute(w)
        assert closed.get(w) == verdict.frontier, w
    assert len(closed) == sum(closure.classify_brute(w).closed for w in binary_words(10))


def test_binary_frontier_table_matches_classify(monkeypatch):
    # the binary lookup the suite hands the Rauzy checks gives every binary
    # word of length <= RAUZY_N_MAX the frontier closure.classify gives it
    tables = []
    real = verify.closed_lookup

    def spy(longest):
        longest = list(longest)
        closed = real(longest)
        if len(longest[0]) == verify.RAUZY_N_MAX:  # not a preset's L_22
            tables.append(closed)
        return closed

    monkeypatch.setattr(verify, "closed_lookup", spy)
    verify.run_verify_suite(only=["rauzy-closed-neighbors"])
    (table,) = tables
    want = {}
    for w in binary_words(verify.RAUZY_N_MAX):
        verdict = closure.classify(w)
        if verdict.closed:
            want[w] = verdict.frontier
    assert table == want


def with_entry(closed, word, frontier):
    """A copy of the lookup closed whose entry for word reads frontier."""
    assert closed.get(word, -1) != frontier
    return {**closed, word: frontier}


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
    # the binary lookup reads frontier for word; the preset lookups, built
    # from longer words, stay as they are
    real = verify.closed_lookup

    def lookup(longest):
        longest = list(longest)
        closed = real(longest)
        if len(longest[0]) != verify.RAUZY_N_MAX:
            return closed
        return with_entry(closed, word, frontier)

    monkeypatch.setattr(verify, "closed_lookup", lookup)
    (outcome,) = verify.run_verify_suite(only=[check])
    assert (outcome.status, outcome.detail) == ("fail", detail)


def test_one_frontier_table_per_suite_run(monkeypatch):
    built = []
    real = verify.closed_lookup

    def lookup(longest):
        longest = list(longest)
        if len(longest[0]) != verify.RAUZY_N_MAX:
            return real(longest)
        built.append(len(longest))
        return {}  # every binary word open: no sweep can fail

    monkeypatch.setattr(verify, "closed_lookup", lookup)
    verify.run_verify_suite(only=["rauzy-closed-neighbors", "rauzy-frontier-distance"])
    verify.run_verify_suite(only=["rauzy-frontier-distance"])
    assert built == [1 << verify.RAUZY_N_MAX] * 2


def test_rauzy_lookups_match_classify():
    # each preset's lookup holds exactly its closed factors of length
    # <= 22, each with the frontier closure.classify gives
    for preset in sorted(wordgen.PRESETS):
        _, language, closed = verify._language(preset)
        assert sorted(language) == list(range(1, verify.RAUZY_SPAN_MAX + 1))
        want = {}
        for words in language.values():
            for w in words:
                verdict = closure.classify(w)
                if verdict.closed:
                    want[w] = verdict.frontier
        assert closed == want, preset


@pytest.mark.parametrize(
    "check,n,j,frontier,detail",
    [
        # cantor starts abab: ab at offset 0 read as closed beside the closed bb
        ("rauzy-closed-neighbors", 2, 0, 0,
         "cantor n=2: 'b' 2 closed left extensions: [0, 1]"),
        ("rauzy-frontier-distance", 1, 0, 5,
         "cantor word 'ab' n=1: shift 1: frontiers 5 and 0 differ by 5 >= 1"),
        ("rauzy-closed-path-frontiers", 1, 0, 5,
         "cantor word 'ab' n=1: walk 1: frontier gap 5 exceeds 0 distinct open windows"),
    ],
)
def test_corrupted_index_fails_check(monkeypatch, check, n, j, frontier, detail):
    # the cantor lookup reads frontier for the factor at offset j of length n
    real = verify._language
    buf, language, closed = real("cantor")
    bad = (buf, language, with_entry(closed, buf.data[j : j + n], frontier))
    monkeypatch.setattr(verify, "_language", lambda preset: bad if preset == "cantor" else real(preset))
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
