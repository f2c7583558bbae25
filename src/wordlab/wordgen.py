"""Generators for finite prefixes of classical infinite words.

Words are bytes of dense symbol codes; an Alphabet maps codes to
printable characters (presets use a, b, c). PrefixBuffer couples a
prefix with the maximum factor length its doubling certification covers.
"""

from __future__ import annotations

import itertools
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
