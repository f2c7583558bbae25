"""The string kernels against the independent classify_brute oracle."""

import pytest
from hypothesis import given, strategies as st

from wordlab import closure, kernels
from conftest import binary_words


def _brute_frontier(w):
    verdict = closure.classify_brute(w)
    return verdict.frontier if verdict.closed else -1


def test_backend_is_pure():
    assert kernels.BACKEND == "pure"


def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        kernels.border_table(b"")
    with pytest.raises(ValueError):
        kernels.frontier_length(b"")
    with pytest.raises(ValueError):
        kernels.frontier_lengths(b"")
    with pytest.raises(ValueError):
        kernels.occurrences(b"", b"abc")


def test_frontier_lengths_start_at_one():
    with pytest.raises(ValueError):
        kernels.frontier_lengths(b"ab", 0)


def test_overlapping_occurrences():
    assert kernels.occurrences(b"aa", b"aabaaa") == [0, 3, 4]
    assert kernels.occurrences(b"ab", b"abaaaab") == [0, 5]
    assert kernels.occurrences(b"a", b"a") == [0]
    assert kernels.occurrences(b"ab", b"b") == []


def test_frontier_lengths_exhaustive_binary():
    for w in binary_words(12):
        want = [_brute_frontier(w[:n]) for n in range(1, len(w) + 1)]
        assert kernels.frontier_lengths(w) == want, w
        assert kernels.frontier_length(w) == want[-1], w
        for n_from in range(2, len(w) + 2):
            assert kernels.frontier_lengths(w, n_from) == want[n_from - 1 :], (w, n_from)


@given(st.binary(min_size=1, max_size=40).map(lambda b: bytes(c % 3 for c in b)))
def test_frontier_lengths_ternary(w):
    assert kernels.frontier_lengths(w) == [_brute_frontier(w[:n]) for n in range(1, len(w) + 1)]
