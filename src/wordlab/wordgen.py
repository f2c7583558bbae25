"""Generators for finite prefixes of classical infinite words.

Words are bytes of dense symbol codes; an Alphabet maps codes to
printable characters (presets use a, b, c). PrefixBuffer couples a
prefix with the maximum factor length its doubling certification covers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from wordlab.errors import StabilizationError
from wordlab.factorcount import distinct_counts

MAX_PREFIX_ENV = "WORDLAB_MAX_PREFIX"
DEFAULT_MAX_PREFIX = 1 << 22


@dataclass(frozen=True)
class Alphabet:
    """Finite symbol set; code of a symbol is its index in chars."""

    chars: str

    def __post_init__(self):
        if not self.chars:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.chars)) != len(self.chars):
            raise ValueError(f"duplicate characters in alphabet {self.chars!r}")

    @property
    def size(self) -> int:
        return len(self.chars)

    def code(self, ch: str) -> int:
        i = self.chars.find(ch)
        if i < 0:
            raise ValueError(f"symbol {ch!r} not in alphabet {self.chars!r}")
        return i

    def encode(self, text: str) -> bytes:
        return bytes(self.code(ch) for ch in text)

    def decode(self, word: bytes) -> str:
        try:
            return "".join(self.chars[c] for c in word)
        except IndexError:
            raise ValueError(f"code outside alphabet {self.chars!r}") from None


@dataclass(frozen=True)
class Morphism:
    """Substitution: every symbol code maps to a non-empty image word."""

    alphabet: Alphabet
    images: tuple  # images[code] -> bytes

    def __post_init__(self):
        if len(self.images) != self.alphabet.size:
            raise ValueError("one image required per alphabet symbol")
        for code, img in enumerate(self.images):
            if len(img) == 0:
                raise ValueError(f"empty image for symbol {self.alphabet.chars[code]!r}")
            if any(c >= self.alphabet.size for c in img):
                raise ValueError("image uses a symbol outside the alphabet")

    def apply(self, w: bytes) -> bytes:
        if any(c >= self.alphabet.size for c in w):
            raise ValueError("word uses a symbol outside the morphism's alphabet")
        return b"".join(self.images[c] for c in w)

    def prolongable_from(self, seed: int) -> bool:
        img = self.images[seed]
        return len(img) >= 2 and img[0] == seed

    @classmethod
    def parse(cls, spec: str) -> "Morphism":
        """Parse an inline morphism like "a=aba,b=bbb"."""
        pairs = []
        for part in spec.split(","):
            if part.count("=") != 1:
                raise ValueError(f"malformed morphism rule {part!r}")
            sym, image = part.split("=")
            if len(sym) != 1 or not image:
                raise ValueError(f"malformed morphism rule {part!r}")
            pairs.append((sym, image))
        chars = "".join(sym for sym, _ in pairs)
        alphabet = Alphabet(chars)
        images = tuple(alphabet.encode(image) for _, image in pairs)
        return cls(alphabet, images)


def morphic_prefix(m: Morphism, seed: int, length: int) -> bytes:
    """First `length` symbols of the fixed point of m iterated from seed."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if not m.prolongable_from(seed):
        raise ValueError(
            f"seed {m.alphabet.chars[seed]!r} is not prolongable: image must "
            "start with the seed and have length >= 2"
        )
    w = bytes([seed])
    while len(w) < length:
        w = m.apply(w)
    return w[:length]


def paperfolding_prefix(length: int) -> bytes:
    """Regular paperfolding word: position n (1-based) is 1 iff the odd
    part of n is congruent to 1 mod 4. Symbol codes are the bit values."""
    if length < 1:
        raise ValueError("length must be >= 1")
    out = bytearray()
    for n in range(1, length + 1):
        m = n
        while m % 2 == 0:
            m //= 2
        out.append(1 if m % 4 == 1 else 0)
    return bytes(out)


def ultimately_periodic_prefix(u: bytes, v: bytes, length: int) -> bytes:
    """First `length` symbols of u v^omega."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if len(v) == 0:
        raise ValueError("periodic part v must be non-empty")
    if length <= len(u):
        return bytes(u[:length])
    tail = length - len(u)
    reps = tail // len(v) + 1
    return bytes(u) + (bytes(v) * reps)[:tail]


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _mechanical_word(alpha: Fraction, rho: Fraction, length: int) -> bytes:
    # s_n = floor((n+1)a + r) - floor(na + r), n = 0..length-1
    # difference 1 -> code 0 ('a'), difference 0 -> code 1 ('b')
    out = bytearray()
    prev = _floor(rho)
    for n in range(1, length + 1):
        cur = _floor(n * alpha + rho)
        out.append(0 if cur - prev == 1 else 1)
        prev = cur
    return bytes(out)


def _cf_convergents(coeffs):
    # [0; c1, c2, c3, ...] with the coefficient list repeated periodically
    p_prev, p_cur = 1, 0  # p_{-1}, p_0 for a0 = 0
    q_prev, q_cur = 0, 1
    i = 0
    while True:
        a = coeffs[i % len(coeffs)]
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        yield Fraction(p_cur, q_cur)
        i += 1


def _mechanical_cf(coeffs, rho, length: int) -> bytes:
    if not coeffs or any(c < 1 for c in coeffs):
        raise ValueError("continued-fraction coefficients must be >= 1")
    prev_word = None
    for alpha in _cf_convergents(coeffs):
        r = alpha if rho is None else Fraction(rho)
        word = _mechanical_word(alpha, r, length)
        if word == prev_word and alpha.denominator > length + 2:
            return word
        prev_word = word
    raise AssertionError("unreachable")


def mechanical_prefix(slope, intercept, length: int) -> bytes:
    """Mechanical (Sturmian for irrational slope) word prefix, exact
    arithmetic throughout.

    slope: Fraction in (0,1), or a list of continued-fraction coefficients
    interpreted as the periodically repeated expansion [0; c1, c2, ...].
    intercept: Fraction, or None for the characteristic convention
    (intercept equal to the slope), which makes the Fibonacci directive
    reproduce the fixed point of a->ab, b->a from its first symbol.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if isinstance(slope, (list, tuple)):
        return _mechanical_cf(tuple(slope), intercept, length)
    alpha = Fraction(slope)
    if not 0 < alpha < 1:
        raise ValueError(f"slope must be strictly between 0 and 1, got {alpha}")
    rho = alpha if intercept is None else Fraction(intercept)
    return _mechanical_word(alpha, rho, length)


@dataclass(frozen=True)
class MorphicSource:
    name: str
    morphism: Morphism
    seed: int
    aperiodic: bool = False

    @property
    def alphabet(self) -> Alphabet:
        return self.morphism.alphabet

    def prefix(self, length: int) -> bytes:
        return morphic_prefix(self.morphism, self.seed, length)


@dataclass(frozen=True)
class PaperfoldingSource:
    name: str = "paperfolding"
    aperiodic: bool = True

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet("01")

    def prefix(self, length: int) -> bytes:
        return paperfolding_prefix(length)


@dataclass(frozen=True)
class MechanicalSource:
    name: str
    slope: object  # Fraction or tuple of CF coefficients
    intercept: object = None  # Fraction or None for characteristic
    aperiodic: bool = False  # rational slopes stay flagged periodic

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet("ab")

    def prefix(self, length: int) -> bytes:
        return mechanical_prefix(self.slope, self.intercept, length)


@dataclass(frozen=True)
class UltimatelyPeriodicSource:
    name: str
    alphabet: Alphabet
    preperiod: bytes
    period: bytes
    aperiodic: bool = False

    def __post_init__(self):
        if len(self.period) == 0:
            raise ValueError("periodic part must be non-empty")

    def prefix(self, length: int) -> bytes:
        return ultimately_periodic_prefix(self.preperiod, self.period, length)


@dataclass(frozen=True)
class LiteralSource:
    """A finite word standing in for itself; used to run the structural
    checks on arbitrary words."""

    name: str
    alphabet: Alphabet
    data: bytes
    aperiodic: bool = False

    def prefix(self, length: int) -> bytes:
        if length < 1 or length > len(self.data):
            raise ValueError(f"literal source only has {len(self.data)} symbols")
        return self.data[:length]


def literal_buffer(word, alphabet: Alphabet = None) -> PrefixBuffer:
    """Wrap a finite word as its own fully-certified buffer."""
    if isinstance(word, str):
        if alphabet is None:
            alphabet = Alphabet("".join(sorted(set(word))))
        word = alphabet.encode(word)
    else:
        word = bytes(word)
        if alphabet is None:
            alphabet = Alphabet("abcdefghijklmnopqrstuvwxyz"[: max(word) + 1])
    source = LiteralSource(name="literal", alphabet=alphabet, data=word)
    return PrefixBuffer(source=source, data=word, stable_upto=len(word))


@dataclass(frozen=True)
class PrefixBuffer:
    """Immutable prefix of an infinite word plus the certified bound:
    factor sets of length <= stable_upto are trusted, longer ones are not."""

    source: object
    data: bytes
    stable_upto: int

    def __post_init__(self):
        if self.stable_upto > len(self.data):
            raise ValueError("stable_upto cannot exceed the prefix length")

    @property
    def length(self) -> int:
        return len(self.data)

    @property
    def alphabet(self) -> Alphabet:
        return self.source.alphabet

    def decode(self, word: bytes = None) -> str:
        return self.alphabet.decode(self.data if word is None else word)


def _hard_cap(override=None) -> int:
    if override is not None:
        return override
    env = os.environ.get(MAX_PREFIX_ENV)
    return int(env) if env else DEFAULT_MAX_PREFIX


def stabilized_prefix(source, n_max: int, hard_cap: int = None) -> PrefixBuffer:
    """Certify factor sets up to n_max by doubling the prefix until the
    distinct-factor counts at every length <= n_max stop changing.

    Heuristic, not a proof: a source could in principle change counts
    past the cap. The cap (default 2^22, env WORDLAB_MAX_PREFIX) bounds
    the search; hitting it raises StabilizationError with the last counts.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    cap = _hard_cap(hard_cap)
    length = 4 * n_max
    if length > cap:
        raise ValueError(f"hard cap {cap} below the starting length {length}")
    counts = distinct_counts(source.prefix(length), n_max)
    prev_counts = None
    while 2 * length <= cap:
        length *= 2
        next_data = source.prefix(length)
        next_counts = distinct_counts(next_data, n_max)
        if next_counts == counts:
            return PrefixBuffer(source=source, data=next_data, stable_upto=n_max)
        prev_counts, counts = counts, next_counts
    raise StabilizationError(cap, counts, prev_counts)


def _morphic_preset(name, rules, aperiodic=True):
    m = Morphism.parse(rules)
    return MorphicSource(name=name, morphism=m, seed=0, aperiodic=aperiodic)


PRESETS = {
    "thue-morse": _morphic_preset("thue-morse", "a=ab,b=ba"),
    "fibonacci": _morphic_preset("fibonacci", "a=ab,b=a"),
    "cantor": _morphic_preset("cantor", "a=aba,b=bbb"),
    "period-doubling": _morphic_preset("period-doubling", "a=ab,b=aa"),
    "paperfolding": PaperfoldingSource(),
    "tribonacci": _morphic_preset("tribonacci", "a=ab,b=ac,c=a"),
}


def get_preset(name: str):
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown source {name!r}; known presets: {known}") from None
