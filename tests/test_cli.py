from wordlab import cli


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
        from wordlab import complexity

        target = tmp_path / "out.csv"
        assert cli.main(["profile", "--source", "thue-morse", "--n", "1..12", "--csv", str(target)]) == 0
        text = target.read_text()
        assert complexity.rows_to_csv(complexity.rows_from_csv(text)) == text

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


class TestVerify:
    def test_subset_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "closure-worked-examples")
        assert code == 0
        assert out.startswith("PASS closure-worked-examples")
        assert "1 checks, 0 failed" in out
