import pytest

from wordlab import closure, complexity, returns, wordgen

AB = wordgen.Alphabet("ab")
ABC = wordgen.Alphabet("abc")


def fib_prefix_buffer(length=256):
    src = wordgen.get_preset("fibonacci")
    return wordgen.PrefixBuffer(source=src, data=src.prefix(length), stable_upto=0)


class TestCompleteFirstReturns:
    def test_fibonacci_letter_a(self):
        buf = fib_prefix_buffer()
        got = returns.report(buf, AB.encode("a")).complete_returns
        assert [buf.decode(w) for w in got] == ["aa", "aba"]

    def test_fibonacci_letter_b(self):
        buf = fib_prefix_buffer()
        got = returns.report(buf, AB.encode("b")).complete_returns
        assert [buf.decode(w) for w in got] == ["baab", "bab"]

    def test_purely_periodic_single_return(self):
        src = wordgen.UltimatelyPeriodicSource("(ab)^w", AB, b"", AB.encode("ab"))
        buf = wordgen.PrefixBuffer(source=src, data=src.prefix(40), stable_upto=0)
        got = returns.report(buf, AB.encode("ab")).complete_returns
        assert [buf.decode(w) for w in got] == ["abab"]

    def test_returns_are_closed_with_long_frontier(self):
        buf = fib_prefix_buffer(512)
        for k in range(1, 9):
            for v in complexity.factors_of_length(buf, k, force=True):
                for w in returns.report(buf, v).complete_returns:
                    verdict = closure.classify(w)
                    assert verdict.closed
                    assert verdict.frontier >= len(v)


class TestReturnWords:
    def test_fibonacci_examples(self):
        buf = fib_prefix_buffer()
        for text, want in (("a", ["a", "ab"]), ("b", ["ba", "baa"])):
            words = returns.report(buf, AB.encode(text)).return_words
            assert [buf.decode(w) for w in words] == want

    def test_strip_relationship(self):
        buf = fib_prefix_buffer()
        for text in ("a", "b", "ab", "aba", "aab"):
            v = AB.encode(text)
            rep = returns.report(buf, v)
            assert len(rep.return_words) == len(rep.complete_returns)
            assert tuple(sorted(u + v for u in rep.return_words)) == rep.complete_returns


class TestMaxGap:
    def test_fibonacci_short_prefix(self):
        buf = wordgen.literal_buffer("abaababaab", AB)
        assert returns.report(buf, AB.encode("b")).positions == (1, 4, 6, 9)
        assert returns.report(buf, AB.encode("b")).max_gap == 3

    def test_periodic(self):
        src = wordgen.UltimatelyPeriodicSource("(ab)^w", AB, b"", AB.encode("ab"))
        buf = wordgen.PrefixBuffer(source=src, data=src.prefix(20), stable_upto=0)
        assert returns.report(buf, AB.encode("a")).max_gap == 2

    def test_thue_morse_aa_frozen(self):
        # value fixed by a pre-build oracle scan; stable across prefix sizes
        src = wordgen.get_preset("thue-morse")
        buf = wordgen.PrefixBuffer(source=src, data=src.prefix(4096), stable_upto=0)
        assert returns.report(buf, AB.encode("aa")).max_gap == 8


class TestReport:
    def test_fields(self):
        buf = fib_prefix_buffer()
        rep = returns.report(buf, AB.encode("b"))
        assert rep.occurrence_count == len(rep.positions)
        assert rep.buffer_length == 256
        assert rep.max_gap == 3
        assert len(rep.return_words) == len(rep.complete_returns) == 2

    @pytest.mark.parametrize("source", ["fibonacci", "tribonacci", "periodic"])
    def test_fields_match_two_scans(self, source):
        # return words from the occurrence pairs directly, not stripped
        # from the complete returns
        if source == "periodic":
            src = wordgen.UltimatelyPeriodicSource("c(aab)^w", ABC, ABC.encode("c"), ABC.encode("aab"))
        else:
            src = wordgen.get_preset(source)
        buf = wordgen.PrefixBuffer(source=src, data=src.prefix(2048), stable_upto=0)
        data = buf.data
        for start, m in ((1, 1), (5, 2), (17, 3), (40, 5), (100, 8), (300, 13)):
            v = data[start : start + m]
            rep = returns.report(buf, v)
            pairs = list(zip(rep.positions, rep.positions[1:]))
            assert len(pairs) >= 2
            assert rep.complete_returns == tuple(sorted({data[i : j + m] for i, j in pairs}))
            assert rep.return_words == tuple(sorted({data[i:j] for i, j in pairs}))

    def test_text_target_is_encoded_through_the_alphabet(self):
        buf = fib_prefix_buffer(64)
        assert returns.report(buf, "a").occurrence_count == 40
        assert returns.report(buf, b"\x00").occurrence_count == 40
        assert returns.report(buf, "ab") == returns.report(buf, AB.encode("ab"))

    def test_single_occurrence_report(self):
        buf = wordgen.literal_buffer("abcd")
        rep = returns.report(buf, buf.source.alphabet.encode("cd"))
        assert rep.occurrence_count == 1
        assert rep.max_gap is None
        assert rep.complete_returns == ()
