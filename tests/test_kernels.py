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
        kernels.frontier_length(b"")
    with pytest.raises(ValueError):
        kernels.closed_prefixes(b"")
    with pytest.raises(ValueError):
        kernels.occurrences(b"", b"abc")


def test_closed_prefixes_start_at_one():
    with pytest.raises(ValueError):
        kernels.closed_prefixes(b"ab", 0)


def test_closed_prefixes_past_the_end_are_empty():
    assert kernels.closed_prefixes(b"ab", 3) == []
    assert kernels.closed_prefixes(b"aba", 10) == []


def test_overlapping_occurrences():
    assert kernels.occurrences(b"aa", b"aabaaa") == [0, 3, 4]
    assert kernels.occurrences(b"ab", b"abaaaab") == [0, 5]
    assert kernels.occurrences(b"a", b"a") == [0]
    assert kernels.occurrences(b"ab", b"b") == []


def _frontier_list(w, n_from=1):
    """closed_prefixes(w, n_from) expanded to the frontier (or -1) of every
    prefix length n_from..len(w)."""
    out = [-1] * (len(w) - n_from + 1)
    last = n_from - 1
    for n, f in kernels.closed_prefixes(w, n_from):
        assert last < n <= len(w), (w, n_from, n)
        out[n - n_from] = f
        last = n
    return out


def test_closed_prefixes_exhaustive_binary():
    for w in binary_words(12):
        want = [_brute_frontier(w[:n]) for n in range(1, len(w) + 1)]
        assert _frontier_list(w) == want, w
        assert kernels.frontier_length(w) == want[-1], w
        for n_from in range(2, len(w) + 2):
            assert _frontier_list(w, n_from) == want[n_from - 1 :], (w, n_from)


@given(st.binary(min_size=1, max_size=40).map(lambda b: bytes(c % 3 for c in b)))
def test_closed_prefixes_ternary(w):
    assert _frontier_list(w) == [_brute_frontier(w[:n]) for n in range(1, len(w) + 1)]
