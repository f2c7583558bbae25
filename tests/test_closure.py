import pytest
from hypothesis import given, strategies as st

from wordlab import closure, kernels
from conftest import binary_words, is_primitive

small_words = st.text(alphabet="abc", min_size=1, max_size=40)


class TestOccurrences:
    # the closure checks count occurrences of str words through the kernel
    def test_examples(self):
        assert kernels.occurrences("ab", "abaaaab") == [0, 5]
        assert kernels.occurrences("aa", "aabaaa") == [0, 3, 4]
        assert kernels.occurrences("a", "a") == [0]

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            kernels.occurrences("", "abc")


class TestClassify:
    def test_worked_examples(self):
        assert closure.classify("abaaaab") == closure.ClosureVerdict(True, 2)
        assert closure.classify("aabab") == closure.OPEN
        assert closure.classify("aabaaa") == closure.OPEN

    def test_letters_closed_with_zero_frontier(self):
        assert closure.classify("b") == closure.ClosureVerdict(True, 0)

    def test_brute_examples(self):
        assert closure.classify_brute("abaaaab") == closure.ClosureVerdict(True, 2)
        assert closure.classify_brute("aa") == closure.ClosureVerdict(True, 1)
        assert closure.classify_brute("ab") == closure.OPEN

    def test_open_verdict_has_no_frontier(self):
        assert closure.classify("aabab").frontier is None
        with pytest.raises(ValueError):
            closure.ClosureVerdict(closed=False, frontier=3)
        with pytest.raises(ValueError):
            closure.ClosureVerdict(closed=True)

    def test_oracle_equivalence_exhaustive(self):
        # also covers the some-border vs longest-border equivalence
        for w in binary_words(11):
            assert closure.classify(w) == closure.classify_brute(w), w

    @given(small_words)
    def test_oracle_equivalence_ternary(self, w):
        assert closure.classify(w) == closure.classify_brute(w)

    def test_frontier_occurs_only_at_the_ends(self):
        for w in binary_words(10, min_len=2):
            verdict = closure.classify(w)
            if verdict.closed:
                frontier = w[: verdict.frontier]
                assert kernels.occurrences(frontier, w) == [0, len(w) - verdict.frontier]

    def test_primitive_square_occurrences(self):
        # for primitive w, w occurs in ww exactly at 0 and |w|
        for w in binary_words(10):
            if is_primitive(w):
                assert kernels.occurrences(w, w + w) == [0, len(w)]
