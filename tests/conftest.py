import itertools

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
