import sys
from fractions import Fraction
from pathlib import Path

import pytest

from caba.constraints import LinearTerm, constraint
from caba.errors import ParseError, ValidationError
from caba.framework import Atom, CabaFramework, Rule
from caba.oracle import classical_arguments, ground
from caba.parser import parse, parse_file

CORPUS = Path(__file__).parent.parent / "src" / "caba" / "corpus"


class TestParse:
    def test_fa_corpus(self):
        fw = parse_file(CORPUS / "FA.caba")
        assert len(fw.rules) == 5
        assert fw.assumption_predicates == {"a", "b"}
        assert fw.contrary_map == {"a": "ca", "b": "cb"}

    def test_tax_corpus(self):
        fw = parse_file(CORPUS / "tax.caba")
        assert len(fw.rules) == 3
        assert fw.contrary_map["nonexempt"] == "exempt"
        assert fw.contrary_map["salary_income"] == "other_incomes"

    def test_assumption_only_framework(self):
        fw = parse("assumption a(X) contrary ca(X).")
        assert fw.rules == ()
        assert fw.assumption_predicates == {"a"}

    def test_rationals_and_arithmetic(self):
        fw = parse("p(X) <- X >= 1/2, X <= 0.75.")
        (rule,) = fw.rules
        rendered = {c.render() for c in rule.body_constraints}
        assert rendered == {"1/2 <= X", "X <= 3/4"}

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse("p(X <- q(X).")
        assert err.value.line == 1

    def test_missing_period(self):
        with pytest.raises(ParseError):
            parse("p(X) <- q(X)")

    def test_undeclared_contrary_tuple_mismatch(self):
        with pytest.raises(ParseError):
            parse("assumption a(X, Y) contrary ca(Y).")

    @pytest.mark.parametrize("extra, bound", [(0, "1"), (1, "-1")])
    def test_many_unary_minus_signs(self, extra, bound):
        # three times Python's recursion limit, an even count plus extra
        signs = "- " * (3 * sys.getrecursionlimit() + extra)
        (rule,) = parse(f"p(X) <- X < {signs}1.").rules
        assert rule == parse(f"p(X) <- X < {bound}.").rules[0]

    def test_zero_arity_atoms(self):
        fw = parse("assumption a contrary ca.\nca <- a.")
        assert fw.assumption_arity["a"] == 0


class TestValidate:
    def test_non_flat(self):
        with pytest.raises(ValidationError) as err:
            parse("assumption a(X) contrary ca(X).\na(X) <- X > 0.")
        assert any(d.code == "NonFlat" for d in err.value.diagnostics)

    def test_fa_is_valid(self):
        assert parse_file(CORPUS / "FA.caba").validate() == []

    def test_contrary_clash(self):
        with pytest.raises(ParseError):
            parse(
                "assumption a(X) contrary ca(X).\n"
                "assumption a(X) contrary cb(X).\n"
            )

    def test_arity_mismatch(self):
        with pytest.raises(ValidationError) as err:
            parse("p(X) <- q(X).\nq(X, Y) <- X > Y.")
        assert any(d.code == "ArityMismatch" for d in err.value.diagnostics)

    def test_contrary_is_assumption(self):
        fw = CabaFramework.build(
            [],
            {"a": ("b", 1), "b": ("c", 1)},
        )
        assert any(d.code == "ContraryIsAssumption" for d in fw.validate())


class TestNormalise:
    def test_repeated_variable_and_ground_term(self):
        fw = parse("p(X, X, 4 + 1) <- X < 3, a(7).")
        (rule,) = fw.normalise().rules
        # head now three distinct variables
        head_vars = [t.coeffs[0][0] for t in rule.head.args]
        assert len(set(head_vars)) == 3
        (body_atom,) = rule.body_atoms
        assert len(body_atom.args[0].coeffs) == 1  # a fresh variable
        # one equality each for the duplicate, the sum, and the constant
        rendered = sorted(c.render() for c in rule.body_constraints)
        assert len(rule.body_constraints) == 4

    def test_fact_with_constant(self):
        fw = parse("p(2) <-.")
        (rule,) = fw.normalise().rules
        (cns,) = rule.body_constraints
        assert cns.render() in ("V0 = 2", "2 = V0")

    def test_idempotent(self):
        fw = parse_file(CORPUS / "FA.caba").normalise()
        assert fw.normalise() == fw

    def test_grounding_preserved(self):
        fw = parse("p(2) <-.\nq(X, X) <- r(X).\nr(1) <-.")
        uni = [Fraction(1), Fraction(2), Fraction(3)]
        before = classical_arguments(ground(fw, uni))
        after = classical_arguments(ground(fw.normalise(), uni))
        assert before == after


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", ["FA", "cpcq", "frameworkB", "tax", "micro"]
    )
    def test_parse_render_fixpoint(self, name):
        fw = parse_file(CORPUS / f"{name}.caba")
        again = parse(fw.render())
        assert again.rules == fw.rules
        assert again.assumption_predicates == fw.assumption_predicates
        assert dict(again.contrary_map) == dict(fw.contrary_map)

    def test_structured_export(self):
        fw = parse_file(CORPUS / "FA.caba")
        obj = fw.to_object()
        assert set(obj) == {"rules", "assumptions", "contraries"}
        assert obj["assumptions"] == ["a", "b"]


class TestBogusAssumption:
    def test_synthesised_when_no_assumptions(self):
        fw = parse("p(X) <- X > 0.")
        assert fw.bogus_assumption is not None
        assert fw.bogus_assumption in fw.assumption_predicates

    def test_hidden_from_output(self):
        fw = parse("p(X) <- X > 0.")
        assert "bogus" not in fw.render()
        assert fw.to_object()["assumptions"] == []
