import pytest

from wordlab import cli, complexity, verify, wordgen


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_preset(self, capsys):
        code, out, _ = run(capsys, "generate", "--source", "thue-morse", "--length", "16")
        assert code == 0
        assert out == "abbabaabbaababba\n"

    def test_custom_morphism(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--morphism", "a=aba,b=bbb", "--seed", "a", "--length", "9"
        )
        assert code == 0
        assert out == "ababbbaba\n"

    def test_mechanical_cf(self, capsys):
        code, out, _ = run(capsys, "generate", "--cf", "1", "--length", "8")
        assert code == 0
        assert out == "abaababa\n"

    def test_periodic(self, capsys):
        code, out, _ = run(capsys, "generate", "--periodic", "c:ab", "--length", "7")
        assert code == 0
        assert out == "cababab\n"

    def test_unknown_source_usage_error(self, capsys):
        code, _, err = run(capsys, "generate", "--source", "nope", "--length", "4")
        assert code == 2
        assert "unknown source" in err

    def test_malformed_morphism_usage_error(self, capsys):
        code, _, err = run(capsys, "generate", "--morphism", "a=", "--length", "4")
        assert code == 2
        assert "malformed" in err

    def test_source_required(self, capsys):
        code, _, err = run(capsys, "generate", "--length", "4")
        assert code == 2

    def test_intercept_without_slope_usage_error(self, capsys):
        code, out, err = run(
            capsys, "generate", "--source", "fibonacci", "--intercept", "1/3", "--length", "4"
        )
        assert code == 2
        assert out == ""
        assert "--intercept" in err

    def test_seed_without_morphism_usage_error(self, capsys):
        code, out, err = run(
            capsys, "generate", "--cf", "1", "--seed", "b", "--length", "4"
        )
        assert code == 2
        assert out == ""
        assert "--seed" in err


class TestProfile:
    def test_fibonacci_row(self, capsys):
        code, out, _ = run(capsys, "profile", "--source", "fibonacci", "--n", "2..2")
        assert code == 0
        assert out == "n,p,op,cl,frontier_lengths\n2,3,2,1,1\n"

    def test_csv_file_deterministic(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        argv = ["profile", "--source", "cantor", "--n", "1..10", "--csv", str(target)]
        assert cli.main(argv) == 0
        first = target.read_bytes()
        assert cli.main(argv) == 0
        assert target.read_bytes() == first
        assert b"8,15,14,1,7" in first  # n=8 row has cl=1

    def test_roundtrip_reserialization(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        assert cli.main(["profile", "--source", "thue-morse", "--n", "1..12", "--csv", str(target)]) == 0
        buf = wordgen.stabilized_prefix(wordgen.get_preset("thue-morse"), 12)
        assert target.read_text() == complexity.rows_to_csv(complexity.profile(buf, 1, 12))

    def test_syndetic_filter(self, capsys):
        code, out, _ = run(
            capsys, "profile", "--source", "thue-morse", "--n", "1..10", "--syndetic", "2:1"
        )
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["1", "3", "5", "7", "9"]

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "profile", "--source", "fibonacci", "--n", "5..x")
        assert code == 2

    def test_certification_error_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("WORDLAB_MAX_PREFIX", "128")
        code, _, err = run(capsys, "profile", "--source", "paperfolding", "--n", "1..16")
        assert code == 3
        assert "stabilize" in err

    @pytest.mark.parametrize(
        "rules,n,p",
        [
            ("a=aaba,b=babb", 8, 28),
            ("a=acb,b=bccab,c=cbc", 5, 24),
            ("a=ab,b=cb,c=cabc", 7, 21),
            # c = c is a bounded letter: c^7 first occurs at 332,921
            ("a=aab,b=ac,c=c", 7, 50),
        ],
    )
    def test_morphism_prints_true_p(self, capsys, monkeypatch, rules, n, p):
        monkeypatch.setenv("WORDLAB_MAX_PREFIX", str(1 << 20))
        code, out, _ = run(capsys, "profile", "--morphism", rules, "--n", f"{n}..{n}")
        assert code == 0
        assert out.splitlines()[1].split(",")[:2] == [str(n), str(p)]

    def test_bounded_letter_past_the_cap_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("WORDLAB_MAX_PREFIX", "65536")
        code, out, err = run(capsys, "profile", "--morphism", "a=aab,b=ac,c=c", "--n", "11..11")
        assert code == 3
        assert out == ""
        assert "stabilize" in err

    def test_force_adds_approx_column(self, capsys, monkeypatch):
        monkeypatch.setenv("WORDLAB_MAX_PREFIX", "128")
        code, out, _ = run(
            capsys, "profile", "--source", "paperfolding", "--n", "1..16", "--force"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,p,op,cl,frontier_lengths,approx"
        assert lines[1].endswith(",1")  # nothing certified under the tiny cap


class TestClassify:
    def test_closed(self, capsys):
        code, out, _ = run(capsys, "classify", "abaaaab")
        assert code == 0
        assert out == "closed frontier=2\n"

    def test_open(self, capsys):
        code, out, _ = run(capsys, "classify", "aabab")
        assert code == 0
        assert out == "open\n"


class TestRauzy:
    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "rauzy", "--source", "fibonacci", "--n", "2")
        assert code == 0
        assert out.startswith("digraph rauzy_2 {")
        assert '"ab" -> "ba" [label="aba"];' in out

    def test_dot_file_deterministic(self, tmp_path):
        target = tmp_path / "g.dot"
        argv = ["rauzy", "--source", "thue-morse", "--n", "3", "--dot", str(target)]
        assert cli.main(argv) == 0
        first = target.read_bytes()
        assert cli.main(argv) == 0
        assert target.read_bytes() == first


class TestReturns:
    def test_fibonacci(self, capsys):
        code, out, _ = run(
            capsys, "returns", "--source", "fibonacci", "--factor", "b", "--length", "64"
        )
        assert code == 0
        assert "complete_returns baab bab" in out
        assert "return_words ba baa" in out
        assert "max_gap 3" in out

    def test_rare_factor(self, capsys):
        code, out, _ = run(
            capsys, "returns", "--source", "fibonacci", "--factor", "bb", "--length", "64"
        )
        assert code == 0
        assert "occurrences 0" in out
        assert "max_gap -" in out


class TestResourceLimits:
    ARGV = {
        "generate": ["generate", "--source", "thue-morse"],
        "returns": ["returns", "--source", "thue-morse", "--factor", "ab"],
    }

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_length_past_the_cap_exit_code(self, capsys, monkeypatch, command):
        monkeypatch.setenv("WORDLAB_MAX_PREFIX", "64")
        code, out, _ = run(capsys, *self.ARGV[command], "--length", "64")
        assert code == 0
        assert out
        code, out, err = run(capsys, *self.ARGV[command], "--length", "65")
        assert (code, out) == (3, "")
        assert err == "resource limit: --length 65 exceeds the prefix cap 64 (WORDLAB_MAX_PREFIX)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ARGV["generate"] + ["--length", "16"],
            ARGV["returns"] + ["--length", "16"],
            ["profile", "--source", "thue-morse", "--n", "1..4"],
            ["rauzy", "--source", "thue-morse", "--n", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_memory_error_exit_code(self, capsys, monkeypatch, argv):
        def prefix(self, length):
            raise MemoryError

        monkeypatch.setattr(wordgen.MorphicSource, "prefix", prefix)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", "resource limit: out of memory\n")


class TestVerify:
    def test_full_suite_golden(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert out == (
            "PASS closure-oracle-equivalence: 8190 words tested\n"
            "PASS closure-worked-examples: 4 fixed examples\n"
            "PASS identity-p-op-cl: 6 presets, n <= 30\n"
            "PASS morse-hedlund-bound: 5 aperiodic presets, n <= 20\n"
            "PASS fibonacci-sturmian-complexity: p(n) = n+1 for n <= 30\n"
            "PASS fibonacci-two-returns: 135 factors, prefix length 256\n"
            "PASS cantor-closed-minimum: cl(n) = 1 at n = 8, 22, 64\n"
            "PASS rauzy-graph-consistency: presets, n <= 11\n"
            "PASS rauzy-closed-neighbors: presets n<=12 and 8188 binary words\n"
            "PASS rauzy-frontier-distance: presets n<=12 i_max=8 and 8190 binary words\n"
            "PASS rauzy-closed-path-frontiers: presets, n <= 10, walks <= 12\n"
            "PASS right-special-exists: 5 presets, n <= 15\n"
            "PASS periodic-collapse: 52 primitive periods\n"
            "PASS rotation-power-closure: primitive binary u, |u| <= 4, n = 3\n"
            "PASS unique-return-periodicity: 3 ultimately periodic words\n"
            "PASS tm-open-threshold: min op = 18 >= 18\n"
            "PASS tm-closed-syndetic-threshold: all progressions d <= 4 reach 44\n"
            "PASS paperfolding-closed-zero: cl(18) = 0\n"
            "PASS branching-witness: k=19, d=1, recurrent factors up to length 8\n"
            "19 checks, 0 failed\n"
        )

    def test_subset_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "closure-worked-examples")
        assert code == 0
        assert out.startswith("PASS closure-worked-examples")
        assert "1 checks, 0 failed" in out

    def test_factor_seen_once_fails_check(self, capsys, monkeypatch):
        # aabaa occurs once in the first 21 symbols, so it has no return word there
        monkeypatch.setattr(verify, "FIB_TWO_RETURNS_PREFIX", 21)
        code, out, _ = run(capsys, "verify", "--only", "fibonacci-two-returns")
        assert code == 1
        assert out == (
            "FAIL fibonacci-two-returns: factor 'aabaa': 0 return words []\n"
            "1 checks, 1 failed\n"
        )
