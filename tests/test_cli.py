import json
from fractions import Fraction
from pathlib import Path

import pytest

import caba.oracle
from caba.cli import main, parse_universe
from caba.errors import (
    CardinalityLimit,
    DepthExceeded,
    IterationLimit,
    ResourceLimit,
    UniverseTooLarge,
)
from caba.oracle import GROUNDING_CAP

CORPUS = Path(__file__).parent.parent / "src" / "caba" / "corpus"
FA = str(CORPUS / "FA.caba")
CPCQ = str(CORPUS / "cpcq.caba")
B = str(CORPUS / "frameworkB.caba")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseUniverse:
    def test_range(self):
        assert parse_universe("0..3") == [Fraction(i) for i in range(4)]

    def test_list_with_rationals(self):
        assert parse_universe("0, 1/2, 3") == [
            Fraction(0), Fraction(1, 2), Fraction(3),
        ]

    def test_negative_range(self):
        assert parse_universe("-2..0") == [Fraction(-2), Fraction(-1), Fraction(0)]

    def test_range_beyond_cap(self):
        assert len(parse_universe(f"1..{GROUNDING_CAP}")) == GROUNDING_CAP
        with pytest.raises(UniverseTooLarge):
            parse_universe(f"0..{GROUNDING_CAP}")


class TestExitCodes:
    def test_parse_ok(self, capsys):
        code, out, _ = run(capsys, "parse", FA)
        assert code == 0
        assert "assumption a(X0, X1) contrary ca(X0, X1)." in out

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.caba"
        bad.write_text("p(X <- .\n")
        code, _, err = run(capsys, "parse", str(bad))
        assert code == 1
        assert "error:" in err

    def test_depth_limit(self, capsys, tmp_path):
        rec = tmp_path / "rec.caba"
        rec.write_text(
            "assumption a(X) contrary c(X).\n"
            "p(X) <- p(X), a(X).\n"
            "p(X) <- X > 0, a(X).\n"
        )
        code, _, err = run(capsys, "--max-depth", "3", "arguments", str(rec))
        assert code == 2
        assert "resource limit" in err

    def test_iteration_limit(self, capsys):
        code, _, err = run(capsys, "--max-iters", "1", "split", CPCQ)
        assert code == 2
        assert "resource limit" in err

    def test_cardinality_limit(self, capsys, tmp_path):
        # five same-predicate assumptions are beyond exact pairing.
        # Splitting takes the denotation of an argument only once another
        # argument has its claim predicate, so never p:1's alone; extensions
        # reads the split basis's attack matrix and takes none either
        five = tmp_path / "five.caba"
        five.write_text(
            "assumption a(X) contrary ca(X).\n"
            "p(X) <- a(X), a(Y), a(Z), a(U), a(W), "
            "X >= 0, Y >= 1, Z >= 2, U >= 3, W >= 4.\n"
        )
        paired = tmp_path / "paired.caba"
        paired.write_text(five.read_text() + "p(X) <- X < 0.\n")
        for command in ("split", "extensions"):
            code, _, _ = run(capsys, command, str(five))
            assert code == 0
            code, _, err = run(capsys, command, str(paired))
            assert code == 2
            assert err.startswith("resource limit:")
            assert "exact-pairing limit" in err

    @pytest.mark.parametrize(
        "limit", [CardinalityLimit, DepthExceeded, IterationLimit, UniverseTooLarge]
    )
    def test_resource_limits_share_one_base(self, limit):
        # main reports every ResourceLimit with exit 2
        assert issubclass(limit, ResourceLimit)
        assert limit("cap reached").partial is None

    def test_zero_repairs_on_compliant_framework(self, capsys):
        code, _, _ = run(capsys, "--max-iters", "0", "split", str(CORPUS / "tax.caba"))
        assert code == 0
        code, _, err = run(capsys, "--max-iters", "0", "split", str(CORPUS / "micro.caba"))
        assert code == 2
        assert err == (
            "resource limit: argument splitting did not converge within 0 repairs\n"
        )

    @pytest.mark.parametrize(
        "command", [("ground",), ("check", "--mode", "arguments")], ids=["ground", "check"]
    )
    def test_grounding_budget(self, capsys, monkeypatch, tmp_path, command):
        # 101**4 instances of one rule: refused before any is tried
        def product(*args, **kwargs):
            raise AssertionError("grounding started enumerating")

        monkeypatch.setattr(caba.oracle, "product", product)
        wide = tmp_path / "wide.caba"
        wide.write_text(
            "assumption a(X) contrary c(X).\n"
            "p(X) <- a(X), X + Y + Z + W >= 0.\n"
        )
        code, out, err = run(
            capsys, command[0], str(wide), "--universe", "0..100", *command[1:]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("resource limit: grounding over 101 points")
        assert err.count("\n") == 1

    def test_check_mismatch_would_exit_1(self, capsys):
        # a healthy framework: no mismatch, exit 0
        code, out, _ = run(
            capsys, "check", B, "--universe", "1..2", "--mode", "extension"
        )
        assert code == 0
        assert "MISMATCH" not in out


class TestBadInput:
    @pytest.mark.parametrize("spec", ["0..", "abc", ","])
    @pytest.mark.parametrize(
        "command", [("ground",), ("check", "--mode", "attacks")], ids=["ground", "check"]
    )
    def test_bad_universe(self, capsys, command, spec):
        code, out, err = run(capsys, command[0], B, "--universe", spec, *command[1:])
        assert code == 1
        assert out == ""
        assert err.startswith("error: --universe") and err.count("\n") == 1

    @pytest.mark.parametrize("var", ["CABA_MAX_DEPTH", "CABA_MAX_ITERS"])
    def test_non_integer_env_limit(self, capsys, monkeypatch, var):
        monkeypatch.setenv(var, "x")
        code, out, err = run(capsys, "parse", FA)
        assert code == 1
        assert out == ""
        assert err == f"error: {var} must be an integer, got 'x'\n"


    @pytest.mark.parametrize(
        "path, reason",
        [("missing.caba", "No such file or directory"), (".", "Is a directory")],
        ids=["missing", "directory"],
    )
    def test_unreadable_input(self, capsys, tmp_path, path, reason):
        target = str(tmp_path / path)
        code, out, err = run(capsys, "split", target)
        assert code == 1
        assert out == ""
        assert err == f"error: cannot read {target}: {reason}\n"

    def test_input_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "bad.caba"
        bad.write_bytes(b"p(X) <- X > 0. # \xff\n")
        code, out, err = run(capsys, "parse", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read {bad}: not UTF-8")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--max-depth", "--max-iters"])
    def test_negative_limit(self, capsys, flag):
        code, out, err = run(capsys, flag, "-1", "parse", FA)
        assert code == 1
        assert out == ""
        assert err == f"error: {flag} must not be negative, got -1\n"

    @pytest.mark.parametrize("var", ["CABA_MAX_DEPTH", "CABA_MAX_ITERS"])
    def test_negative_env_limit(self, capsys, monkeypatch, var):
        monkeypatch.setenv(var, "-3")
        code, out, err = run(capsys, "parse", FA)
        assert code == 1
        assert out == ""
        assert err == f"error: {var} must not be negative, got -3\n"


class TestValidation:
    def test_non_flat_framework_rejected(self, capsys, tmp_path):
        bad = tmp_path / "nonflat.caba"
        bad.write_text(
            "assumption a(X) contrary c(X).\n"
            "a(X) <- c(X).\n"
        )
        code, _, err = run(capsys, "parse", str(bad))
        assert code == 1
        assert "error:" in err


class TestStructuredOutput:
    def test_schema_version_present(self, capsys):
        code, out, _ = run(capsys, "--format", "structured", "arguments", FA)
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == 1
        assert len(obj["arguments"]) == 7

    def test_parse_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "parse", FA)
        assert code == 0
        echo = tmp_path / "echo.caba"
        echo.write_text(out)
        code2, out2, _ = run(capsys, "parse", str(echo))
        assert code2 == 0
        assert out2 == out

    def test_split_payload_shape(self, capsys):
        code, out, _ = run(capsys, "--format", "structured", "split", CPCQ)
        assert code == 0
        obj = json.loads(out)
        assert len(obj["before"]) == 6
        assert len(obj["after"]) == 12

    def test_check_reports(self, capsys):
        code, out, _ = run(
            capsys, "--format", "structured",
            "check", B, "--universe", "1..2", "--mode", "arguments",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["reports"][0]["verdict"] in ("EXACT-MATCH", "PARTIAL")


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("arguments", FA),
        ("attacks", FA),
        ("split", CPCQ),
        ("extensions", CPCQ, "--semantics", "stable"),
    ])
    def test_byte_identical_runs(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestCommands:
    def test_extensions_cpcq_lists_two(self, capsys):
        code, out, _ = run(capsys, "extensions", CPCQ, "--semantics", "stable")
        assert code == 0
        assert "2 stable extension(s)" in out
        assert "E1:" in out and "E2:" in out

    def test_extensions_native_check(self, capsys):
        code, out, _ = run(
            capsys, "extensions", FA, "--semantics", "stable", "--native-check"
        )
        assert code == 0
        assert "native check E1: ok" in out

    def test_ground_with_semantics(self, capsys):
        code, out, _ = run(
            capsys, "ground", B, "--universe", "1..2", "--semantics", "stable"
        )
        assert code == 0
        assert "1 stable extension(s)" in out
        assert "a(1)" in out and "q(2)" in out

    def test_attacks_text_output(self, capsys):
        code, out, _ = run(capsys, "attacks", FA)
        assert code == 0
        assert "=full=>" in out
