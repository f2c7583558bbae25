import itertools
import random

import pytest

from wordlab import verify, wordgen

AB = wordgen.Alphabet("ab")


def binary_words(max_len, min_len=1):
    for n in range(min_len, max_len + 1):
        for bits in itertools.product(b"\x00\x01", repeat=n):
            yield bytes(bits)


def is_primitive(w):
    n = len(w)
    return not any(n % q == 0 and w[:q] * (n // q) == w for q in range(1, n))


def table_index(w):
    """The frontier-table index of the binary word w."""
    v = 0
    for c in w:
        v = 2 * v + c
    return (1 << len(w)) | v


def arbitrary_table(max_len, seed):
    """A frontier table of every binary word up to max_len, with seeded
    arbitrary entries (-1 for open)."""
    rng = random.Random(seed)
    return [max(-1, rng.randrange(-4, 16)) for _ in range(2 << max_len)]


def table_closed_prefixes(table):
    """A stand-in for kernels.closed_prefixes on binary words that reads
    each prefix's frontier from table."""

    def closed_prefixes(w, n_from=1):
        frontiers = ((n, table[table_index(w[:n])]) for n in range(n_from, len(w) + 1))
        return [(n, f) for n, f in frontiers if f >= 0]

    return closed_prefixes


@pytest.fixture(scope="session")
def tm_buffer():
    return wordgen.stabilized_prefix(wordgen.get_preset("thue-morse"), 30)


@pytest.fixture(scope="session")
def fib_buffer():
    return wordgen.stabilized_prefix(wordgen.get_preset("fibonacci"), 30)


@pytest.fixture(scope="session")
def verify_outcomes():
    """The full verify suite, run once per session, by check name."""
    return {o.name: o for o in verify.run_verify_suite()}
