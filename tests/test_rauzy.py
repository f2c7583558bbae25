import pytest

from wordlab import closure, complexity, kernels, rauzy, verify, wordgen
from wordlab.complexity import factors_of_length
from wordlab.errors import UncertifiedLengthError
from conftest import arbitrary_table, binary_words, table_closed_prefixes, table_index

AB = wordgen.Alphabet("ab")


def index(buf, n_max=12):
    return complexity.FactorIndex(buf, n_max)


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


class TestChecks:
    def test_closed_neighbors_empty_on_presets(self, tm_buffer, fib_buffer):
        for buf in (tm_buffer, fib_buffer):
            for n in range(2, 10):
                assert rauzy.check_closed_neighbor_uniqueness(index(buf), n) == []

    def test_closed_neighbors_needs_order_two(self, tm_buffer):
        with pytest.raises(ValueError):
            rauzy.check_closed_neighbor_uniqueness(index(tm_buffer), 1)

    def test_frontier_distance_empty_on_presets(self, tm_buffer):
        for n in range(1, 10):
            assert rauzy.check_frontier_distance(index(tm_buffer), n, 8) == []

    def test_periodic_equal_frontiers_at_shift_two(self):
        from wordlab import closure

        buf = periodic_ab_buffer()
        w1 = buf.data[0:6]
        w2 = buf.data[2:8]
        v1, v2 = closure.classify(w1), closure.classify(w2)
        assert v1.closed and v2.closed
        assert v1.frontier == v2.frontier == 4
        assert rauzy.check_frontier_distance(index(buf), 6, 2) == []

    def test_frontier_distance_range_error(self, tm_buffer):
        with pytest.raises(ValueError):
            rauzy.check_frontier_distance(index(tm_buffer), 5, len(tm_buffer.data))

    def test_closed_path_frontiers_empty(self, tm_buffer):
        for n in range(1, 8):
            assert rauzy.check_closed_path_frontiers(index(tm_buffer), n, walk_max=12) == []


# The checks as they were before the index: one closure.classify per
# distinct window, on the buffer itself. The index-reading checks must
# return what these return, in order, and raise what these raise.


def _frontier(cache, w):
    f = cache.get(w)
    if f is None:
        verdict = closure.classify(w)
        f = verdict.frontier if verdict.closed else -1
        cache[w] = f
    return f


def walk_closed_neighbors(buf, n, force=False):
    if n < 2:
        raise ValueError("needs n >= 2")
    pred = {}
    succ = {}
    for w in factors_of_length(buf, n, force):
        if closure.classify(w).closed:
            pred.setdefault(w[1:], []).append(w[0])
            succ.setdefault(w[:-1], []).append(w[-1])
    violations = []
    for side, extensions in (("left", pred), ("right", succ)):
        for core, letters in sorted(extensions.items()):
            violation = rauzy.closed_extension_violation(core, letters, side)
            if violation is not None:
                violations.append(violation)
    return violations


def walk_frontier_distance(buf, n, i_max):
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    data = buf.data
    if n + i_max > len(data):
        raise ValueError(f"windows of length n+i_max={n + i_max} do not fit in the buffer")
    cache = {}
    violations = []
    seen_pairs = set()
    for i in range(1, i_max + 1):
        for j in range(len(data) - n - i + 1):
            w1 = data[j : j + n]
            f1 = _frontier(cache, w1)
            if f1 < 0:
                continue
            w2 = data[j + i : j + i + n]
            detail = rauzy.frontier_distance_violation(f1, _frontier(cache, w2), i)
            if detail is None or (w1, w2, i) in seen_pairs:
                continue
            seen_pairs.add((w1, w2, i))
            violations.append(
                rauzy.Violation("frontier-distance", w1, f"offset {j}, shift {i}: {detail}")
            )
    return violations


def walk_closed_path_frontiers(buf, n, walk_max):
    data = buf.data
    cache = {}
    violations = []
    for j in range(len(data) - n):
        limit = min(walk_max, len(data) - n - j)
        w1 = data[j : j + n]
        f1 = _frontier(cache, w1)
        if f1 < 0:
            continue
        open_between = set()
        for m in range(1, limit + 1):
            w2 = data[j + m : j + m + n]
            f2 = _frontier(cache, w2)
            if f2 < 0:
                open_between.add(w2)
                continue
            if abs(f1 - f2) > len(open_between):
                violations.append(
                    rauzy.Violation(
                        "closed-path-frontiers",
                        w1,
                        f"offset {j}, walk {m}: frontier gap {abs(f1 - f2)} "
                        f"exceeds {len(open_between)} distinct open windows",
                    )
                )
    return violations


def verify_calls(buf):
    """(check, reference walk, n, third argument) for every call the
    verify suite makes on a preset buffer."""
    for n in range(2, verify.RAUZY_N_MAX + 1):
        yield rauzy.check_closed_neighbor_uniqueness, walk_closed_neighbors, n, False
    for n in range(1, verify.RAUZY_N_MAX + 1):
        i_max = min(verify.FRONTIER_I_MAX, len(buf.data) - n)
        yield rauzy.check_frontier_distance, walk_frontier_distance, n, i_max
    for n in range(1, 11):
        yield rauzy.check_closed_path_frontiers, walk_closed_path_frontiers, n, 12


class TestIndexedChecksMatchWindowWalks:
    @pytest.mark.parametrize("preset", sorted(wordgen.PRESETS))
    def test_verify_presets(self, preset):
        idx = verify._rauzy_index(preset)
        for check, walk, n, arg in verify_calls(idx.buf):
            assert check(idx, n, arg) == walk(idx.buf, n, arg), (check.__name__, n)

    @pytest.mark.parametrize("seed", [3, 8])
    def test_arbitrary_frontiers(self, monkeypatch, seed):
        # under arbitrary frontier lengths the checks report violations;
        # both sides read them from one table, the walks via classify
        table = arbitrary_table(9, seed)

        def classify(w):
            f = table[table_index(w)]
            return closure.ClosureVerdict(closed=True, frontier=f) if f >= 0 else closure.OPEN

        monkeypatch.setattr(closure, "classify", classify)
        monkeypatch.setattr(kernels, "closed_prefixes", table_closed_prefixes(table))
        reported = 0
        for w in list(binary_words(9, min_len=9))[::7]:
            buf = wordgen.literal_buffer(w, AB)
            idx = index(buf, 9)
            for n in range(2, 10):
                got = rauzy.check_closed_neighbor_uniqueness(idx, n)
                assert got == walk_closed_neighbors(buf, n), (w, n)
                reported += len(got)
            for n in range(1, 9):
                for i_max in range(1, 10 - n):
                    got = rauzy.check_frontier_distance(idx, n, i_max)
                    assert got == walk_frontier_distance(buf, n, i_max), (w, n, i_max)
                    reported += len(got)
                for walk_max in (1, 4, 12):
                    got = rauzy.check_closed_path_frontiers(idx, n, walk_max)
                    assert got == walk_closed_path_frontiers(buf, n, walk_max), (w, n)
                    reported += len(got)
        assert reported > 1000

    @pytest.mark.parametrize(
        "check,walk,n,arg,error",
        [
            (rauzy.check_closed_neighbor_uniqueness, walk_closed_neighbors, 1, False, ValueError),
            (rauzy.check_closed_neighbor_uniqueness, walk_closed_neighbors, 41, False, ValueError),
            (rauzy.check_closed_neighbor_uniqueness, walk_closed_neighbors, 31, False,
             UncertifiedLengthError),
            (rauzy.check_frontier_distance, walk_frontier_distance, 5, 0, ValueError),
            (rauzy.check_frontier_distance, walk_frontier_distance, 5, 36, ValueError),
        ],
    )
    def test_same_errors(self, tm_buffer, check, walk, n, arg, error):
        # 40 letters, certified to length 30
        buf = wordgen.PrefixBuffer(tm_buffer.source, tm_buffer.data[:40], 30)
        with pytest.raises(ValueError) as want:
            walk(buf, n, arg)
        with pytest.raises(ValueError) as got:
            check(index(buf, 40), n, arg)
        assert type(want.value) is error
        assert (type(got.value), str(got.value)) == (error, str(want.value))

    def test_uncertified_length(self, tm_buffer):
        n = tm_buffer.stable_upto + 1
        with pytest.raises(UncertifiedLengthError):
            rauzy.check_closed_neighbor_uniqueness(index(tm_buffer, n), n)
        assert rauzy.check_closed_neighbor_uniqueness(index(tm_buffer, n), n, force=True) == []


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
