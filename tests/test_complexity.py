import pytest

from wordlab import closure, complexity, wordgen
from wordlab.errors import UncertifiedLengthError
from wordlab.factorcount import distinct_counts
from conftest import AB, binary_words


def _brute_row(buf, n):
    """The profile row of length n, from classify_brute on every factor."""
    verdicts = [closure.classify_brute(w) for w in complexity.factors_of_length(buf, n)]
    frontiers = sorted(v.frontier for v in verdicts if v.closed)
    return complexity.ComplexityRow(
        n=n,
        p=len(verdicts),
        op=len(verdicts) - len(frontiers),
        cl=len(frontiers),
        frontier_lengths=tuple(frontiers),
    )


class TestFactorsOfLength:
    def test_thue_morse_pairs(self, tm_buffer):
        factors = complexity.factors_of_length(tm_buffer, 2)
        assert [tm_buffer.decode(w) for w in factors] == ["aa", "ab", "ba", "bb"]

    def test_fibonacci_triples(self, fib_buffer):
        factors = complexity.factors_of_length(fib_buffer, 3)
        assert [fib_buffer.decode(w) for w in factors] == ["aab", "aba", "baa", "bab"]

    def test_length_one_is_letter_set(self, fib_buffer):
        assert [fib_buffer.decode(w) for w in complexity.factors_of_length(fib_buffer, 1)] == ["a", "b"]

    def test_positions_are_first_occurrences(self, fib_buffer):
        for w, i in complexity.factor_positions(fib_buffer, 4).items():
            assert fib_buffer.data[i : i + 4] == w
            assert fib_buffer.data.find(w) == i

    def test_uncertified_length_raises(self, fib_buffer):
        with pytest.raises(UncertifiedLengthError):
            complexity.factors_of_length(fib_buffer, fib_buffer.stable_upto + 1)

    def test_force_overrides(self, fib_buffer):
        n = fib_buffer.stable_upto + 1
        assert complexity.factors_of_length(fib_buffer, n, force=True)

    def test_counts_match_suffix_automaton(self, tm_buffer):
        expected = distinct_counts(tm_buffer.data, 12)
        got = [len(complexity.factors_of_length(tm_buffer, n)) for n in range(1, 13)]
        assert got == expected


class TestProfile:
    def test_thue_morse_length_two(self, tm_buffer):
        row = complexity.profile(tm_buffer, 2, 2)[0]
        assert (row.p, row.op, row.cl, row.frontier_lengths) == (4, 2, 2, (1, 1))

    def test_fibonacci_length_two(self, fib_buffer):
        row = complexity.profile(fib_buffer, 2, 2)[0]
        assert (row.p, row.op, row.cl, row.frontier_lengths) == (3, 2, 1, (1,))

    def test_cantor_minimum_at_eight(self):
        buf = wordgen.stabilized_prefix(wordgen.get_preset("cantor"), 8)
        assert complexity.profile(buf, 8, 8)[0].cl == 1

    def test_identity_and_letters(self, tm_buffer):
        for row in complexity.profile(tm_buffer, 1, 20):
            assert row.p == row.op + row.cl
            assert len(row.frontier_lengths) == row.cl
            assert tuple(sorted(row.frontier_lengths)) == row.frontier_lengths
        assert complexity.profile(tm_buffer, 1, 1)[0].op == 0

    def test_approx_flag_only_when_forced(self, fib_buffer):
        n = fib_buffer.stable_upto + 1
        rows = complexity.profile(fib_buffer, n, n, force=True)
        assert rows[0].approx

    def test_row_invariants_enforced(self):
        with pytest.raises(ValueError):
            complexity.ComplexityRow(n=2, p=3, op=1, cl=1, frontier_lengths=(1,))

    def test_empty_range(self, fib_buffer):
        with pytest.raises(ValueError):
            complexity.profile(fib_buffer, 5, 4)

    def test_matches_brute_rows_exhaustive(self):
        # every sub-range a..b: n_from > 1 and windows cut short at the
        # buffer end both occur
        for w in binary_words(10):
            buf = wordgen.literal_buffer(w, AB)
            want = [_brute_row(buf, n) for n in range(1, len(w) + 1)]
            for a in range(1, len(w) + 1):
                for b in range(a, len(w) + 1):
                    assert complexity.profile(buf, a, b) == want[a - 1 : b], (w, a, b)


class TestSyndetic:
    def test_progression_membership(self, tm_buffer):
        rows = complexity.profile(tm_buffer, 1, 10)
        sample, _ = complexity.syndetic_max_cl(rows, 2, 1)
        assert sorted(sample.values) == [1, 3, 5, 7, 9]

    def test_constant_rows(self):
        rows = [
            complexity.ComplexityRow(n=n, p=2, op=0, cl=2, frontier_lengths=(1, 1))
            for n in range(1, 9)
        ]
        for d, r in [(1, 0), (3, 2)]:
            _, high = complexity.syndetic_max_cl(rows, d, r)
            assert high == 2

    def test_thue_morse_frozen_max(self, tm_buffer):
        # value fixed by a pre-build brute-force sweep over n <= 40
        buf = wordgen.stabilized_prefix(wordgen.get_preset("thue-morse"), 40)
        rows = complexity.profile(buf, 1, 40)
        _, high = complexity.syndetic_max_cl(rows, 1, 0)
        assert high == 36

    def test_empty_intersection(self, tm_buffer):
        rows = complexity.profile(tm_buffer, 2, 2)
        with pytest.raises(ValueError):
            complexity.syndetic_max_cl(rows, 2, 1)

    def test_bad_parameters(self, tm_buffer):
        rows = complexity.profile(tm_buffer, 1, 4)
        with pytest.raises(ValueError):
            complexity.syndetic_max_cl(rows, 0, 0)
        with pytest.raises(ValueError):
            complexity.syndetic_max_cl(rows, 2, 2)


class TestShortestPeriod:
    @pytest.mark.parametrize(
        "word,period", [("abab", 2), ("abaab", 3), ("aaaa", 1), ("a", 1), ("abc", 3)]
    )
    def test_examples(self, word, period):
        assert complexity.shortest_period(word) == period

    def test_matches_naive_shift_check(self):
        from conftest import binary_words

        for w in binary_words(9):
            naive = next(
                q
                for q in range(1, len(w) + 1)
                if all(w[i] == w[i + q] for i in range(len(w) - q))
            )
            assert complexity.shortest_period(w) == naive


class TestCsv:
    def test_schema_and_roundtrip(self, fib_buffer):
        rows = complexity.profile(fib_buffer, 1, 8)
        text = complexity.rows_to_csv(rows)
        assert text.splitlines()[0] == "n,p,op,cl,frontier_lengths"
        parsed = complexity.rows_from_csv(text)
        assert parsed == rows
        assert complexity.rows_to_csv(parsed) == text

    def test_forced_roundtrip_keeps_approx(self, fib_buffer):
        n = fib_buffer.stable_upto
        rows = complexity.profile(fib_buffer, n, n + 1, force=True)
        text = complexity.rows_to_csv(rows, force=True)
        assert text.splitlines()[0] == "n,p,op,cl,frontier_lengths,approx"
        parsed = complexity.rows_from_csv(text)
        assert [row.approx for row in parsed] == [False, True]
        assert complexity.rows_to_csv(parsed, force=True) == text

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            complexity.rows_from_csv("x,y\n1,2\n")
