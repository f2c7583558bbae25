"""Generators for finite prefixes of classical infinite words.

Words are bytes of dense symbol codes; an Alphabet maps codes to
printable characters (presets use a, b, c). PrefixBuffer couples a
prefix with the longest factor length it is proven to hold completely;
stabilized_prefix finds such a prefix by the rule of the source's family.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction

from wordlab.errors import StabilizationError

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
        if w and max(w) >= self.alphabet.size:
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
    # sigma^k(c) for every letter c reachable from the seed, built from
    # whole images: sigma^(k+1)(c) joins sigma^k(d) over d in sigma(c)
    reachable = [seed]
    for c in reachable:  # the list grows while it is walked
        for d in m.images[c]:
            if d not in reachable:
                reachable.append(d)
    # every level is cut to `length` symbols: a letter that outgrows the
    # seed would otherwise build far more than the prefix reads
    level = {c: bytes([c]) for c in reachable}
    while len(level[seed]) < length:
        level = {c: _join_prefix([level[d] for d in m.images[c]], length) for c in reachable}
    return level[seed]


def _join_prefix(pieces, length: int) -> bytes:
    # first `length` symbols of the concatenation, joining only the pieces
    # that start before `length`
    used, total = [], 0
    for piece in pieces:
        if total >= length:
            break
        used.append(piece)
        total += len(piece)
    return b"".join(used)[:length]


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


def _mechanical_word(alpha: Fraction, rho: Fraction, length: int) -> bytes:
    # s_n = floor((n+1)a + r) - floor(na + r), n = 0..length-1
    # difference 1 -> code 0 ('a'), difference 0 -> code 1 ('b');
    # with a = p/q and r = P/Q, floor(na + r) = (n*p*Q + P*q) // (q*Q)
    p, q = alpha.numerator, alpha.denominator
    P, Q = rho.numerator, rho.denominator
    out = bytearray()
    prev = P // Q
    for n in range(1, length + 1):
        cur = (n * p * Q + P * q) // (q * Q)
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
    for alpha, after in itertools.pairwise(_cf_convergents(coeffs)):
        # the walk cannot stop before the first convergent with
        # q > length + 2, so no word is built before the one just ahead of it
        if after.denominator <= length + 2:
            continue
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
    """The fixed point of morphism from seed, read through coding when
    it is given: coding[c] is the output character of letter code c."""

    name: str
    morphism: Morphism
    seed: int
    coding: str = None

    def __post_init__(self):
        if self.coding is not None and len(self.coding) != self.morphism.alphabet.size:
            raise ValueError("coding needs one character per morphism letter")

    @property
    def alphabet(self) -> Alphabet:
        if self.coding is None:
            return self.morphism.alphabet
        return Alphabet("".join(sorted(set(self.coding))))

    def prefix(self, length: int) -> bytes:
        word = morphic_prefix(self.morphism, self.seed, length)
        if self.coding is None:
            return word
        codes = self.alphabet.encode(self.coding)
        return word.translate(bytes.maketrans(bytes(range(len(codes))), codes))


@dataclass(frozen=True)
class MechanicalSource:
    name: str
    slope: object  # Fraction or tuple of CF coefficients
    intercept: object = None  # Fraction or None for characteristic

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
    """Immutable prefix of an infinite word plus the certified bound: it
    holds every factor of length <= stable_upto, and longer factor sets
    may be incomplete."""

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


def _hard_cap() -> int:
    env = os.environ.get(MAX_PREFIX_ENV)
    return int(env) if env else DEFAULT_MAX_PREFIX


def _windows(data: bytes, n: int) -> set:
    return {data[i : i + n] for i in range(len(data) - n + 1)}


def _morphic_proof_length(source, n: int, cap: int) -> int:
    # x = sigma(x). The windows of x[:after] are the sigma(u)[o:o+n], u a
    # window of x[:length] and o < |sigma(u_0)|, where after is
    # |sigma(x[:length-n+1])| + n - 1. Equal counts make the windows of
    # x[:length] closed under that map, and it closes x[:n] to all of L_n.
    m, length, count, after = source.morphism, 0, 0, 2 * n
    while after <= cap:
        data = morphic_prefix(m, source.seed, after)
        grown = len(_windows(data, n))
        if grown == count:
            return length
        length, count, starts = after, grown, data[: after - n + 1]
        after = sum(len(img) * starts.count(c) for c, img in enumerate(m.images)) + n - 1
    return after


def _proof_length(source, n: int, cap: int) -> int:
    """A prefix length whose length-n windows are provably all the
    length-n factors of the source; past cap once the proof needs more."""
    if isinstance(source, MorphicSource):
        return _morphic_proof_length(source, n, cap)
    if isinstance(source, UltimatelyPeriodicSource):
        return len(source.preperiod) + len(source.period) + n - 1
    if not isinstance(source, MechanicalSource):
        raise TypeError(f"no certification rule for {type(source).__name__}")
    if not isinstance(source.slope, (list, tuple)):
        return Fraction(source.slope).denominator + n - 1  # period q
    # an irrational slope gives a Sturmian word: n + 1 factors of length n
    length = 2 * n
    while length <= cap and len(_windows(source.prefix(length), n)) < n + 1:
        length *= 2
    return length


def stabilized_prefix(source, n_max: int) -> PrefixBuffer:
    """A prefix proven to hold every factor of length <= n_max.

    Each shorter factor is a prefix of a length-n_max one, so the proof
    is made at n_max alone, by the rule of the source's family: a morphic
    fixed point grows its prefix until one more application of the
    morphism adds no window, a Sturmian word until it shows n_max + 1
    windows, and a periodic word reads one period past its preperiod.
    A proof that needs more than the cap (default 2^22, env
    WORDLAB_MAX_PREFIX) raises StabilizationError.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    cap = _hard_cap()
    length = _proof_length(source, n_max, cap)
    if length > cap:
        raise StabilizationError(cap, length)
    return PrefixBuffer(source=source, data=source.prefix(length), stable_upto=n_max)


def _morphic_preset(name, rules):
    return MorphicSource(name=name, morphism=Morphism.parse(rules), seed=0)


PRESETS = {
    "thue-morse": _morphic_preset("thue-morse", "a=ab,b=ba"),
    "fibonacci": _morphic_preset("fibonacci", "a=ab,b=a"),
    "cantor": _morphic_preset("cantor", "a=aba,b=bbb"),
    "period-doubling": _morphic_preset("period-doubling", "a=ab,b=aa"),
    # the regular paperfolding word (Allouche & Shallit, Automatic
    # Sequences, 2003): a, b -> 1 and c, d -> 0
    "paperfolding": MorphicSource(
        name="paperfolding", morphism=Morphism.parse("a=ab,b=cb,c=ad,d=cd"), seed=0, coding="1100"
    ),
    "tribonacci": _morphic_preset("tribonacci", "a=ab,b=ac,c=a"),
}


def get_preset(name: str):
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown source {name!r}; known presets: {known}") from None
