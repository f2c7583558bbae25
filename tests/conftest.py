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


def arbitrary_lookup(words, seed):
    """A closed lookup over words with seeded arbitrary entries: each
    word is open (missing) or closed with a frontier length in 0..15."""
    rng = random.Random(seed)
    frontiers = ((w, rng.randrange(-4, 16)) for w in sorted(set(words)))
    return {w: f for w, f in frontiers if f >= 0}


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
