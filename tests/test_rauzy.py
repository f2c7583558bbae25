import re

import pytest

from wordlab import closure, rauzy, verify, wordgen
from wordlab.complexity import factors_of_length
from conftest import AB, arbitrary_lookup, binary_words


def periodic_ab_buffer(length=40):
    src = wordgen.UltimatelyPeriodicSource("(ab)^w", AB, b"", AB.encode("ab"))
    return wordgen.PrefixBuffer(source=src, data=src.prefix(length), stable_upto=length)


class TestRauzyGraph:
    def test_thue_morse_order_one(self, tm_buffer):
        g = rauzy.rauzy_graph(tm_buffer, 1)
        assert [tm_buffer.decode(v) for v in g.vertices] == ["a", "b"]
        assert [tm_buffer.decode(e[2]) for e in g.edges] == ["aa", "ab", "ba", "bb"]

    def test_fibonacci_order_two(self, fib_buffer):
        g = rauzy.rauzy_graph(fib_buffer, 2)
        assert [fib_buffer.decode(v) for v in g.vertices] == ["aa", "ab", "ba"]
        assert g.edge_count == 4

    def test_periodic_cycle(self):
        buf = periodic_ab_buffer()
        g = rauzy.rauzy_graph(buf, 2)
        assert g.vertex_count == 2
        assert g.edge_count == 2
        # single cycle: every vertex has exactly one outgoing edge
        sources = [e[0] for e in g.edges]
        assert sorted(sources) == sorted(g.vertices)

    def test_edge_endpoints_are_affixes(self, tm_buffer):
        for n in range(1, 6):
            g = rauzy.rauzy_graph(tm_buffer, n)
            for src, dst, label in g.edges:
                assert label[:n] == src
                assert label[1:] == dst


class TestSpecialFactors:
    def test_fibonacci(self, fib_buffer):
        report = rauzy.special_factors(fib_buffer, 1)
        assert [fib_buffer.decode(w) for w in report.right_specials] == ["a"]
        assert [fib_buffer.decode(w) for w in report.left_specials] == ["a"]

    def test_thue_morse(self, tm_buffer):
        report = rauzy.special_factors(tm_buffer, 1)
        assert [tm_buffer.decode(w) for w in report.right_specials] == ["a", "b"]
        assert [tm_buffer.decode(w) for w in report.left_specials] == ["a", "b"]

    def test_periodic_has_none(self):
        report = rauzy.special_factors(periodic_ab_buffer(), 1)
        assert report.right_specials == ()
        assert report.left_specials == ()

    def test_right_specials_have_out_degree_two(self, tm_buffer):
        for n in range(1, 8):
            g = rauzy.rauzy_graph(tm_buffer, n)
            report = rauzy.special_factors(tm_buffer, n)
            out_degree = {}
            for src, _, _ in g.edges:
                out_degree[src] = out_degree.get(src, 0) + 1
            for w in report.right_specials:
                assert out_degree[w] >= 2


def lookup_of(buf):
    """The closed lookup of buf's factors, read off its longest certified ones."""
    return verify.closed_lookup(factors_of_length(buf, buf.stable_upto))


def spans_of(buf, lengths):
    return [u for m in lengths for u in factors_of_length(buf, m)]


class TestChecks:
    def test_closed_neighbors_empty_on_presets(self, tm_buffer, fib_buffer):
        for buf in (tm_buffer, fib_buffer):
            closed = lookup_of(buf)
            for n in range(2, 10):
                assert rauzy.check_closed_neighbor_uniqueness(factors_of_length(buf, n), closed) == []

    def test_closed_neighbors_needs_order_two(self, tm_buffer):
        with pytest.raises(ValueError):
            rauzy.check_closed_neighbor_uniqueness(factors_of_length(tm_buffer, 1), {})

    def test_frontier_distance_empty_on_presets(self, tm_buffer):
        spans = spans_of(tm_buffer, range(2, 18))
        assert rauzy.check_frontier_distance(spans, lookup_of(tm_buffer), 9, 8) == []

    def test_periodic_equal_frontiers_at_shift_two(self):
        buf = periodic_ab_buffer()
        w1 = buf.data[0:6]
        w2 = buf.data[2:8]
        v1, v2 = closure.classify(w1), closure.classify(w2)
        assert v1.closed and v2.closed
        assert v1.frontier == v2.frontier == 4
        assert rauzy.check_frontier_distance(spans_of(buf, [8]), lookup_of(buf), 6, 2) == []

    def test_frontier_distance_range_error(self, tm_buffer):
        # spans past the buffer end are refused where they are listed
        with pytest.raises(ValueError):
            spans_of(tm_buffer, [5 + len(tm_buffer.data)])

    def test_violations_name_the_spanning_factor(self):
        # a and b read as closed with frontiers 5 and 0: the pair (a, b) at
        # shift 1 and the walk from a to b are both ab
        closed = {b"\x00": 5, b"\x01": 0}
        (v,) = rauzy.check_frontier_distance([b"\x00\x01"], closed, 1, 8)
        assert (v.check, v.word, v.detail) == (
            "frontier-distance", b"\x00\x01", "n=1: shift 1: frontiers 5 and 0 differ by 5 >= 1"
        )
        (v,) = rauzy.check_closed_path_frontiers([b"\x00\x01"], closed, 1)
        assert (v.check, v.word, v.detail) == (
            "closed-path-frontiers",
            b"\x00\x01",
            "n=1: walk 1: frontier gap 5 exceeds 0 distinct open windows",
        )

    def test_closed_path_frontiers_empty(self, tm_buffer):
        closed = lookup_of(tm_buffer)
        for n in range(1, 8):
            spans = factors_of_length(tm_buffer, n + 12)
            assert rauzy.check_closed_path_frontiers(spans, closed, n) == []


# The reference window walks: every window of a buffer, at every offset,
# with each window's status read from the same lookup the checks read.
# Violations are compared without offsets: a frontier-distance violation
# as (w1, w2, i), a path violation as (walked factor, gap, open count).


def walk_closed_neighbors(buf, closed, n):
    data = buf.data
    pred = {}
    succ = {}
    for w in sorted({data[j : j + n] for j in range(len(data) - n + 1)}):
        if w in closed:
            pred.setdefault(w[1:], []).append(w[0])
            succ.setdefault(w[:-1], []).append(w[-1])
    violations = []
    for side, extensions in (("left", pred), ("right", succ)):
        for core, letters in sorted(extensions.items()):
            violation = rauzy.closed_extension_violation(core, letters, side)
            if violation is not None:
                violations.append(violation)
    return violations


def walk_frontier_distance(buf, closed, n, i_max):
    data = buf.data
    triples = set()
    for i in range(1, i_max + 1):
        for j in range(len(data) - n - i + 1):
            w1 = data[j : j + n]
            w2 = data[j + i : j + i + n]
            if w1 in closed and w2 in closed and abs(closed[w1] - closed[w2]) >= i:
                triples.add((w1, w2, i))
    return triples


def walk_closed_path_frontiers(buf, closed, n, walk_max):
    data = buf.data
    walks = set()
    for j in range(len(data) - n):
        w1 = data[j : j + n]
        if w1 not in closed:
            continue
        open_between = set()
        for m in range(1, min(walk_max, len(data) - n - j) + 1):
            w2 = data[j + m : j + m + n]
            if w2 not in closed:
                open_between.add(w2)
                continue
            gap = abs(closed[w1] - closed[w2])
            if gap > len(open_between):
                walks.add((data[j : j + n + m], gap, len(open_between)))
    return walks


def distance_triples(violations):
    """(w1, w2, i) of each frontier-distance violation, read off its span."""
    triples = set()
    for v in violations:
        n, i = map(int, re.match(r"n=(\d+): shift (\d+): ", v.detail).groups())
        triples.add((v.word[:n], v.word[i:], i))
    return triples


def path_walks(violations):
    """(walked factor, gap, open count) of each path violation."""
    walks = set()
    for v in violations:
        gap, count = map(int, re.search(r"frontier gap (\d+) exceeds (\d+) ", v.detail).groups())
        walks.add((v.word, gap, count))
    return walks


class TestIndexedChecksMatchWindowWalks:
    # under seeded arbitrary frontier lengths the checks report violations;
    # both sides read them from one lookup

    @pytest.mark.parametrize("preset", sorted(wordgen.PRESETS))
    def test_verify_presets(self, preset):
        # the calls the verify suite makes, on the factors of the prefix
        # proven to 22, against the walks of that prefix
        buf, language, _ = verify._language(preset)
        closed = arbitrary_lookup(spans_of(buf, range(1, verify.RAUZY_N_MAX + 1)), 5)
        compared = 0
        for n in range(2, verify.RAUZY_N_MAX + 1):
            got = rauzy.check_closed_neighbor_uniqueness(language[n], closed)
            assert got == walk_closed_neighbors(buf, closed, n), n
            compared += len(got)
        spans = spans_of(buf, range(2, verify.RAUZY_N_MAX + verify.FRONTIER_I_MAX + 1))
        got = distance_triples(
            rauzy.check_frontier_distance(spans, closed, verify.RAUZY_N_MAX, verify.FRONTIER_I_MAX)
        )
        want = set()
        for n in range(1, verify.RAUZY_N_MAX + 1):
            want |= walk_frontier_distance(buf, closed, n, verify.FRONTIER_I_MAX)
        assert got == want
        compared += len(got)
        for n in range(1, verify.PATH_N_MAX + 1):
            spans = language[n + verify.WALK_MAX]
            got = path_walks(rauzy.check_closed_path_frontiers(spans, closed, n))
            assert got == walk_closed_path_frontiers(buf, closed, n, verify.WALK_MAX), n
            compared += len(got)
        assert compared > 1000

    @pytest.mark.parametrize("seed", [3, 8])
    def test_arbitrary_frontiers(self, seed):
        # every binary word of length <= 9, its factors as spans, against
        # the walks of the word itself
        closed = arbitrary_lookup(binary_words(9), seed)
        compared = 0
        for w in binary_words(9, min_len=2):
            buf = wordgen.literal_buffer(w, AB)
            spans = spans_of(buf, range(2, len(w) + 1))
            got = distance_triples(rauzy.check_frontier_distance(spans, closed, len(w), len(w)))
            want = set()
            for n in range(1, len(w)):
                want |= walk_frontier_distance(buf, closed, n, len(w) - n)
            assert got == want, w
            compared += len(got)
            for n in range(1, len(w)):
                got = rauzy.check_closed_neighbor_uniqueness(factors_of_length(buf, n + 1), closed)
                assert got == walk_closed_neighbors(buf, closed, n + 1), (w, n)
                compared += len(got)
                spans = spans_of(buf, range(n + 1, len(w) + 1))
                got = path_walks(rauzy.check_closed_path_frontiers(spans, closed, n))
                assert got == walk_closed_path_frontiers(buf, closed, n, len(w)), (w, n)
                compared += len(got)
        assert compared > 1000


class TestDot:
    def test_fibonacci_golden(self, fib_buffer):
        g = rauzy.rauzy_graph(fib_buffer, 2)
        specials = rauzy.special_factors(fib_buffer, 2)
        expected = "\n".join(
            [
                "digraph rauzy_2 {",
                '  "aa" [closed=true, frontier=1];',
                '  "ab" [special="left"];',
                '  "ba" [special="right"];',
                '  "aa" -> "ab" [label="aab"];',
                '  "ab" -> "ba" [label="aba"];',
                '  "ba" -> "aa" [label="baa"];',
                '  "ba" -> "ab" [label="bab"];',
                "}",
            ]
        ) + "\n"
        assert rauzy.to_dot(g, fib_buffer, specials) == expected

    def test_deterministic(self, tm_buffer):
        g = rauzy.rauzy_graph(tm_buffer, 3)
        s = rauzy.special_factors(tm_buffer, 3)
        assert rauzy.to_dot(g, tm_buffer, s) == rauzy.to_dot(g, tm_buffer, s)
