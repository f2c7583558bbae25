import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wordlab import wordgen
from wordlab.errors import StabilizationError
from wordlab.factorcount import distinct_counts

AB = wordgen.Alphabet("ab")
ABC = wordgen.Alphabet("abc")
THUE_MORSE = wordgen.Morphism.parse("a=ab,b=ba")
CANTOR = wordgen.Morphism.parse("a=aba,b=bbb")
FIBONACCI = wordgen.Morphism.parse("a=ab,b=a")

# the morphic presets and the three morphisms of ROADMAP item 1
ITERATED_MORPHISMS = [
    *(src.morphism for src in wordgen.PRESETS.values() if isinstance(src, wordgen.MorphicSource)),
    wordgen.Morphism.parse("a=aaba,b=babb"),
    wordgen.Morphism.parse("a=acb,b=bccab,c=cbc"),
    wordgen.Morphism.parse("a=ab,b=cb,c=cabc"),
]
# c is unreachable from a and outgrows every reachable letter
UNREACHABLE_GROWS = wordgen.Morphism.parse("a=ab,b=a,c=cccc")
# c is reachable from a and outgrows it: |sigma^5(a)| = 270,538, |sigma^5(c)| = 64^5
REACHABLE_GROWS = wordgen.Morphism.parse("a=ab,b=bc,c=" + "c" * 64)


def _windows(data, n):
    return {data[i : i + n] for i in range(len(data) - n + 1)}


def _random_word(rng, k, longest):
    return bytes(rng.randrange(k) for _ in range(rng.randint(1, longest)))


def _fixpoint_language(m, n):
    """L_n of the fixed point of m from a: the least set that holds its
    first n symbols and, with u, every sigma(u)[o:o+n], o < |sigma(u_0)|."""
    first = _iterated_images(m, n)[-1][:n]
    todo, language = [first], {first}
    while todo:
        u = todo.pop()
        image = m.apply(u)
        for o in range(len(m.images[u[0]])):
            if image[o : o + n] not in language:
                language.add(image[o : o + n])
                todo.append(image[o : o + n])
    return language


def _iterated_images(m, length):
    """sigma^k(a) by repeated Morphism.apply, for k = 0, 1, ... until the
    image has at least `length` symbols."""
    images = [b"\x00"]
    while len(images[-1]) < length:
        images.append(m.apply(images[-1]))
    return images


def _assert_matches_iterated_apply(m, longest=1 << 16):
    images = _iterated_images(m, longest + 1)
    boundaries = [len(img) + d for img in images[:-1] for d in (-1, 0, 1)]
    for length in sorted({1, longest, *(b for b in boundaries if b >= 1)}):
        assert wordgen.morphic_prefix(m, 0, length) == images[-1][:length], length


class TestAlphabet:
    def test_roundtrip(self):
        assert AB.decode(AB.encode("abba")) == "abba"
        assert AB.encode("ab") == b"\x00\x01"

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            AB.encode("abc")

    def test_duplicate_chars_rejected(self):
        with pytest.raises(ValueError):
            wordgen.Alphabet("aba")


class TestMorphism:
    def test_apply_examples(self):
        assert AB.decode(THUE_MORSE.apply(AB.encode("ab"))) == "abba"
        assert AB.decode(CANTOR.apply(AB.encode("a"))) == "aba"
        assert AB.decode(CANTOR.apply(AB.encode("aba"))) == "ababbbaba"

    def test_symbol_outside_alphabet(self):
        with pytest.raises(ValueError):
            THUE_MORSE.apply(b"\x02")

    def test_parse_rejects_malformed(self):
        for bad in ("a=", "ab=a", "a", "a=b=c", "a=ab,"):
            with pytest.raises(ValueError):
                wordgen.Morphism.parse(bad)

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError):
            wordgen.Morphism(AB, (b"\x00\x01", b""))


class TestMorphicPrefix:
    def test_examples(self):
        assert AB.decode(wordgen.morphic_prefix(THUE_MORSE, 0, 8)) == "abbabaab"
        assert AB.decode(wordgen.morphic_prefix(CANTOR, 0, 9)) == "ababbbaba"
        assert wordgen.morphic_prefix(THUE_MORSE, 0, 1) == b"\x00"

    def test_non_prolongable_seed(self):
        with pytest.raises(ValueError):
            wordgen.morphic_prefix(FIBONACCI, 1, 4)  # image(b)=a too short

    def test_seed_image_must_start_with_seed(self):
        m = wordgen.Morphism.parse("a=ba,b=ab")
        with pytest.raises(ValueError):
            wordgen.morphic_prefix(m, 0, 4)

    @given(st.integers(1, 120), st.integers(1, 120))
    def test_prefix_of_prefix(self, n, m):
        lo, hi = sorted((n, m))
        long = wordgen.morphic_prefix(THUE_MORSE, 0, hi)
        assert wordgen.morphic_prefix(THUE_MORSE, 0, lo) == long[:lo]

    @pytest.mark.parametrize("m", ITERATED_MORPHISMS, ids=lambda m: ",".join(
        f"{c}={m.alphabet.decode(img)}" for c, img in zip(m.alphabet.chars, m.images)))
    def test_matches_iterated_apply(self, m):
        _assert_matches_iterated_apply(m)

    def test_unreachable_letter_is_not_expanded(self):
        read = set()

        class RecordingImages(tuple):
            def __getitem__(self, code):
                read.add(code)
                return super().__getitem__(code)

        m = wordgen.Morphism.parse("a=ab,b=a,c=cccc")
        object.__setattr__(m, "images", RecordingImages(m.images))
        wordgen.morphic_prefix(m, 0, 1 << 12)
        assert read == {0, 1}
        _assert_matches_iterated_apply(UNREACHABLE_GROWS)

    def test_reachable_letter_is_cut_to_length(self):
        # 71 symbols take sigma^4(a), 4233 take sigma^5(a). Uncut, sigma^4(c)
        # alone has 64^4 symbols; joining all 64 pieces of c's image at 4233
        # would hold 64 * 4233. The second length runs only if the first passed.
        for length in (71, 4233):
            tracemalloc.start()
            try:
                wordgen.morphic_prefix(REACHABLE_GROWS, 0, length)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, length
        # only past the guard: past sigma^5(a) an uncut sigma^6(c) has 64^6
        _assert_matches_iterated_apply(REACHABLE_GROWS, longest=270_539)


class TestPaperfolding:
    SOURCE = wordgen.get_preset("paperfolding")

    def test_examples(self):
        assert self.SOURCE.alphabet == wordgen.Alphabet("01")
        assert self.SOURCE.alphabet.decode(self.SOURCE.prefix(8)) == "11011001"
        assert self.SOURCE.alphabet.decode(self.SOURCE.prefix(1)) == "1"
        assert self.SOURCE.alphabet.decode(self.SOURCE.prefix(3)) == "110"

    def test_odd_positions_alternate(self):
        w = self.SOURCE.prefix(64)
        assert list(w[0::2]) == [1, 0] * 16

    @pytest.mark.parametrize("length", [1, 3, 8, 64, (1 << 16) + 1])
    def test_matches_odd_part_formula(self, length):
        # position n (1-based) is 1 iff the odd part of n is 1 mod 4
        def symbol(n):
            while n % 2 == 0:
                n //= 2
            return 1 if n % 4 == 1 else 0

        assert self.SOURCE.prefix(length) == bytes(symbol(n) for n in range(1, length + 1))

    def test_coding_needs_a_character_per_letter(self):
        with pytest.raises(ValueError):
            wordgen.MorphicSource("pf", self.SOURCE.morphism, 0, coding="110")


class TestUltimatelyPeriodic:
    def test_examples(self):
        abc = wordgen.Alphabet("abc")
        word = wordgen.ultimately_periodic_prefix(
            abc.encode("c"), abc.encode("ab"), 7
        )
        assert abc.decode(word) == "cababab"
        assert AB.decode(wordgen.ultimately_periodic_prefix(b"", b"\x00", 4)) == "aaaa"
        word = wordgen.ultimately_periodic_prefix(
            AB.encode("ba"), AB.encode("aab"), 8
        )
        assert AB.decode(word) == "baaabaab"

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError):
            wordgen.ultimately_periodic_prefix(b"\x00", b"", 4)


class TestMechanical:
    def test_fibonacci_directive_matches_morphic(self):
        mech = wordgen.mechanical_prefix([1], None, 200)
        assert mech == wordgen.morphic_prefix(FIBONACCI, 0, 200)

    def test_rational_slope_is_periodic(self):
        w = wordgen.mechanical_prefix(Fraction(1, 2), Fraction(0), 6)
        assert AB.decode(w) == "bababa"

    def test_length_one(self):
        w = wordgen.mechanical_prefix(Fraction(1, 3), Fraction(0), 1)
        assert len(w) == 1

    def test_slope_out_of_range(self):
        for bad in (Fraction(0), Fraction(1), Fraction(3, 2)):
            with pytest.raises(ValueError):
                wordgen.mechanical_prefix(bad, Fraction(0), 4)

    @pytest.mark.parametrize("intercept", [None, Fraction(1, 3), Fraction(2, 7)])
    @pytest.mark.parametrize("slope", [Fraction(987, 1597), Fraction(3, 7), Fraction(41, 99)])
    def test_matches_fraction_reference(self, slope, intercept):
        rho = slope if intercept is None else intercept

        def floor(n):
            return math.floor(n * slope + rho)

        want = bytes(0 if floor(n + 1) - floor(n) == 1 else 1 for n in range(2000))
        assert wordgen.mechanical_prefix(slope, intercept, 2000) == want

    @pytest.mark.parametrize("intercept", [None, Fraction(1, 3)])
    @pytest.mark.parametrize("coeffs", [(1,), (2,), (1, 2), (5,), (3, 1, 4)])
    def test_cf_matches_walk_over_every_convergent(self, coeffs, intercept):
        def walk(length):
            # each convergent's word in turn, until two consecutive ones
            # with q > length + 2 agree
            p0, p1, q0, q1 = 1, 0, 0, 1
            prev = None
            for i in itertools.count():
                a = coeffs[i % len(coeffs)]
                p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
                slope = Fraction(p1, q1)
                rho = slope if intercept is None else intercept
                floors = [math.floor(n * slope + rho) for n in range(length + 1)]
                word = bytes(0 if hi - lo == 1 else 1 for lo, hi in zip(floors, floors[1:]))
                if word == prev and q1 > length + 2:
                    return word
                prev = word

        # (5,) at lengths 1 and 2: the first convergent already has q > length + 2
        for length in (1, 2, 3, 8, 40, 300):
            assert wordgen.mechanical_prefix(list(coeffs), intercept, length) == walk(length), length

    def test_cf_builds_words_only_near_the_threshold(self, monkeypatch):
        # the first convergent of [0; 1, 1, ...] with q > 4098 is the 18th
        # (q = 4181); the word of the one before it is the first built
        built = []
        word = wordgen._mechanical_word

        def counted(alpha, rho, n):
            built.append(alpha)
            return word(alpha, rho, n)

        monkeypatch.setattr(wordgen, "_mechanical_word", counted)
        wordgen.mechanical_prefix([1], None, 4096)
        assert len(built) <= 3
        assert built[0].denominator <= 4098 < built[1].denominator

    def test_bad_cf_coefficients(self):
        with pytest.raises(ValueError):
            wordgen.mechanical_prefix([1, 0, 1], None, 4)


class TestPresets:
    def test_registry_names(self):
        assert sorted(wordgen.PRESETS) == [
            "cantor",
            "fibonacci",
            "paperfolding",
            "period-doubling",
            "thue-morse",
            "tribonacci",
        ]

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown source"):
            wordgen.get_preset("rudin-shapiro")

    def test_period_doubling_rules(self):
        src = wordgen.get_preset("period-doubling")
        assert src.alphabet.decode(src.prefix(8)) == "abaaabab"


class TestStabilizedPrefix:
    def test_thue_morse_length_two(self):
        buf = wordgen.stabilized_prefix(wordgen.get_preset("thue-morse"), 2)
        factors = {buf.data[i : i + 2] for i in range(len(buf.data) - 1)}
        assert factors == {b"\x00\x00", b"\x00\x01", b"\x01\x00", b"\x01\x01"}
        assert buf.stable_upto == 2

    def test_ultimately_periodic_counts(self):
        abc = wordgen.Alphabet("abc")
        src = wordgen.UltimatelyPeriodicSource(
            "c+(ab)^w", abc, abc.encode("c"), abc.encode("ab")
        )
        buf = wordgen.stabilized_prefix(src, 3)
        assert distinct_counts(buf.data, 3)[2] == 3  # cab, aba, bab

    def test_single_length_counts_letters(self):
        buf = wordgen.stabilized_prefix(wordgen.get_preset("tribonacci"), 1)
        assert distinct_counts(buf.data, 1) == [3]

    def test_idempotent(self):
        src = wordgen.get_preset("fibonacci")
        buf1 = wordgen.stabilized_prefix(src, 12)
        buf2 = wordgen.stabilized_prefix(src, 12)
        assert distinct_counts(buf1.data, 12) == distinct_counts(buf2.data, 12)

    def test_hard_cap_error(self, monkeypatch):
        monkeypatch.setenv(wordgen.MAX_PREFIX_ENV, "128")
        with pytest.raises(StabilizationError, match="stabilize") as err:
            wordgen.stabilized_prefix(wordgen.get_preset("paperfolding"), 16)
        assert err.value.cap == 128 < err.value.needed

    def test_random_morphisms_match_the_fixpoint(self, monkeypatch):
        # every case is certified under the small cap, so no run is long
        monkeypatch.setenv(wordgen.MAX_PREFIX_ENV, str(1 << 16))
        rng = random.Random(1)
        for _ in range(200):
            k = rng.choice((2, 3))
            images = [_random_word(rng, k, 4) for _ in range(k)]
            images[0] = b"\x00" + _random_word(rng, k, 3)  # prolongable from a
            m = wordgen.Morphism(wordgen.Alphabet("abc"[:k]), tuple(images))
            for n in (2, 3, 5, 8):
                buf = wordgen.stabilized_prefix(wordgen.MorphicSource("random", m, 0), n)
                assert buf.stable_upto == n
                assert _windows(buf.data, n) == _fixpoint_language(m, n), (images, n)

    @pytest.mark.parametrize(
        "source",
        [
            wordgen.UltimatelyPeriodicSource("c(ab)^w", ABC, ABC.encode("c"), ABC.encode("ab")),
            wordgen.UltimatelyPeriodicSource("(a)^w", AB, b"", AB.encode("a")),
            wordgen.UltimatelyPeriodicSource("ba(aab)^w", AB, AB.encode("ba"), AB.encode("aab")),
            wordgen.UltimatelyPeriodicSource("cab(abaab)^w", ABC, ABC.encode("cab"), ABC.encode("abaab")),
            wordgen.MechanicalSource("3/7", Fraction(3, 7)),
            wordgen.MechanicalSource("2/5+1/3", Fraction(2, 5), Fraction(1, 3)),
            wordgen.MechanicalSource("1/2", Fraction(1, 2), Fraction(0)),
            wordgen.MechanicalSource("cf 1", (1,)),
            wordgen.MechanicalSource("cf 1,2", (1, 2), Fraction(1, 3)),
            wordgen.MechanicalSource("cf 3,1,4", (3, 1, 4)),
        ],
        ids=lambda src: src.name,
    )
    def test_other_families_hold_every_factor(self, source):
        for n in (1, 2, 3, 5, 8, 13, 20):
            data = wordgen.stabilized_prefix(source, n).data
            longer = source.prefix(4 * len(data))
            for m in range(1, n + 1):
                assert _windows(data, m) == _windows(longer, m), (n, m)

    def test_stable_upto_invariant(self):
        with pytest.raises(ValueError):
            wordgen.PrefixBuffer(
                source=wordgen.get_preset("fibonacci"), data=b"\x00\x01", stable_upto=3
            )


class TestLiteralBuffer:
    def test_wraps_text(self):
        buf = wordgen.literal_buffer("abba")
        assert buf.data == b"\x00\x01\x01\x00"
        assert buf.stable_upto == 4
        assert buf.decode() == "abba"


class TestDistinctCounts:
    @settings(max_examples=60)
    @given(st.binary(min_size=1, max_size=80).map(lambda b: bytes(c % 3 for c in b)))
    def test_matches_window_enumeration(self, data):
        n_max = len(data)
        expected = [
            len({data[i : i + n] for i in range(len(data) - n + 1)})
            for n in range(1, n_max + 1)
        ]
        assert distinct_counts(data, n_max) == expected
