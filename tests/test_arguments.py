import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import caba.arguments
from caba.arguments import (
    ConstrainedArgument,
    GroundArgument,
    _dependency_cyclic,
    build_mgcarg,
    constrained_instance,
    generalise_claim,
    ground_instances,
)
from caba.constraints import LinearTerm, constraint, is_consistent
from caba.equivalence import set_equiv
from caba.errors import DepthExceeded, InconsistentInstance
from caba.framework import Atom
from caba.oracle import classical_arguments, ground
from caba.parser import parse, parse_file

from generators import random_bounded_framework

CORPUS = Path(__file__).parent.parent / "src" / "caba" / "corpus"
V = LinearTerm.variable
C = LinearTerm.constant


def mk(claim, cons, assums, rules=(), name="t"):
    return ConstrainedArgument(
        name, claim, frozenset(cons), frozenset(assums), frozenset(rules)
    )


class TestBuildMgcarg:
    def test_fa_has_seven(self):
        fw = parse_file(CORPUS / "FA.caba")
        args = build_mgcarg(fw)
        assert len(args) == 7
        claims = sorted(a.claim.predicate for a in args)
        assert claims == ["a", "b", "ca", "cb", "p", "p", "s"]

    def test_fa_shapes(self):
        fw = parse_file(CORPUS / "FA.caba")
        byid = {a.id: a for a in build_mgcarg(fw)}
        a1 = byid["p:1"]
        assert {x.predicate for x in a1.assumptions} == {"a", "b"}
        assert a1.rules_used == {"R1", "R3"}
        a2 = byid["p:2"]
        assert {x.predicate for x in a2.assumptions} == {"a"}
        assert a2.rules_used == {"R2", "R5"}

    def test_cpcq_has_six(self):
        fw = parse_file(CORPUS / "cpcq.caba")
        assert len(build_mgcarg(fw)) == 6

    def test_single_rule_plus_assumption(self):
        fw = parse("assumption a(X) contrary ca(X).\np(X) <-.")
        args = build_mgcarg(fw)
        rendered = sorted(a.render() for a in args)
        assert rendered == [
            "{ ; a(V0)} |-{} a(V0)",
            "{ ; } |-{R1} p(V0)",
        ]

    def test_deterministic(self):
        fw = parse_file(CORPUS / "FA.caba")
        assert [a.render() for a in build_mgcarg(fw)] == [
            a.render() for a in build_mgcarg(fw)
        ]

    def test_all_constraint_sets_consistent(self):
        for name in ("FA", "cpcq", "frameworkB", "tax", "micro"):
            for a in build_mgcarg(parse_file(CORPUS / f"{name}.caba")):
                assert is_consistent(a.constraints)

    def test_acyclic_ignores_depth_cap(self):
        fw = parse_file(CORPUS / "FA.caba")
        assert len(build_mgcarg(fw, max_depth=1)) == 7

    def test_recursive_rules_hit_cap(self):
        fw = parse("p(X) <- p(X).\np(X) <- X > 0.")
        with pytest.raises(DepthExceeded) as err:
            build_mgcarg(fw, max_depth=4)
        assert err.value.partial  # the non-recursive branch was found


class TestNoRecursionLimit:
    """Rule bodies and dependency chains three times Python's recursion
    limit long."""

    N = 3 * sys.getrecursionlimit()

    def test_long_assumption_body(self):
        body = ", ".join(["a(X)"] * self.N)
        fw = parse(f"assumption a(X) contrary c(X).\np(X) <- {body}.")
        assert [a.render() for a in build_mgcarg(fw)] == [
            "{ ; a(V0)} |-{} a(V0)",
            "{ ; a(V0)} |-{R1} p(V0)",
        ]

    def test_long_derived_body(self):
        body = ", ".join(["q(X)"] * self.N)
        fw = parse(
            f"assumption a(X) contrary c(X).\np(X) <- {body}.\nq(X) <- a(X)."
        )
        byid = {a.id: a.render() for a in build_mgcarg(fw)}
        assert byid["p:1"] == "{ ; a(V0)} |-{R1,R2} p(V0)"

    def test_long_dependency_chain(self):
        chain = [f"p{k}(X) <- p{k + 1}(X)." for k in range(self.N)]
        assert not _dependency_cyclic(parse("\n".join(chain)))
        loop = chain + [f"p{self.N}(X) <- p0(X)."]
        assert _dependency_cyclic(parse("\n".join(loop)))


def recursive_derive(
    goals, constraints, assumptions, rules, depth,
    rules_by_head, assumption_preds, fresh, depth_cap,
):
    """Reference: backward chaining by one recursive call per body goal,
    yielding (None, None, None) where the depth cap cuts a branch."""
    if not goals:
        yield constraints, assumptions, rules
        return
    goal, rest = goals[0], goals[1:]
    if goal.predicate in assumption_preds:
        yield from recursive_derive(
            rest, constraints, assumptions | {goal}, rules, depth,
            rules_by_head, assumption_preds, fresh, depth_cap,
        )
        return
    if depth_cap is not None and depth >= depth_cap:
        yield None, None, None
        return
    for rule in rules_by_head.get(goal.predicate, ()):
        renaming = {v: fresh.var() for v in sorted(rule.vars())}
        head = rule.head.rename(renaming)
        binding = {
            t.coeffs[0][0]: g for t, g in zip(head.args, goal.args)
        }
        new_constraints = constraints | {
            c.rename(renaming).substitute(binding) for c in rule.body_constraints
        }
        if not is_consistent(new_constraints):
            continue
        body = tuple(
            a.rename(renaming).substitute(binding) for a in rule.body_atoms
        )
        yield from recursive_derive(
            body + rest, new_constraints, assumptions, rules | {rule.id},
            depth + 1, rules_by_head, assumption_preds, fresh, depth_cap,
        )


def outcome(fw, max_depth):
    """(id, rendering) of each argument built, and whether the depth cap
    cut the run (the listing is then the partial result)."""
    try:
        args, cut = build_mgcarg(fw, max_depth), False
    except DepthExceeded as err:
        args, cut = err.partial, True
    return [(a.id, a.render()) for a in args], cut


RECURSIVE = {
    "self-loop": "p(X) <- p(X).\np(X) <- X > 0.",
    "mutual": """
        assumption a(X) contrary c(X).
        p(X) <- q(Y), X = Y + 1.
        q(X) <- p(X), a(X).
        q(X) <- X >= 0, X <= 1.
        c(X) <- p(X), X >= 3.
    """,
    "two-goals": """
        assumption a(X) contrary c(X).
        p(X) <- p(Y), a(Z), p(Z), X = Y + Z.
        p(X) <- a(X), X != 2.
        c(X) <- p(X), X < 0.
    """,
}

# affine chains and a depth-2 sum tree, shaped like the benchmark's
# derive-chain frameworks
CHAINS = {
    "chain-2": """
        assumption a(X) contrary ca(X).
        assumption b(X) contrary cb(X).
        q0(X) <- a(X), X >= 1, X <= 3.
        q1(X) <- q0(Y), X = Y + 2.
        q2(X) <- q1(Y), X = Y + 1, X <= 5.
        ca(X) <- q2(X), X >= 9/2.
        cb(X) <- q1(X).
    """,
    "chain-4": """
        assumption a(X) contrary ca(X).
        assumption b(X) contrary cb(X).
        q0(X) <- a(X), X >= 0, X <= 2.
        q1(X) <- q0(Y), X = Y + 1.
        q2(X) <- q1(Y), X = Y + 0, X <= 2.
        q3(X) <- q2(Y), X = Y + 2.
        q4(X) <- q3(Y), X = Y + 1.
        ca(X) <- q4(X), X >= 9/2.
        cb(X) <- q2(X).
    """,
    "tree-2": """
        assumption a(X) contrary ca(X).
        assumption b(X) contrary cb(X).
        q0(X) <- a(X), X >= 2, X <= 3.
        q1(X) <- q0(Y), q0(Z), X = Y + Z + 1.
        q2(X) <- q1(Y), q1(Z), X = Y + Z + 0.
        ca(X) <- q2(X), X >= 21/2.
        cb(X) <- q1(X).
    """,
}


class TestMatchesRecursiveDerive:
    """The explicit-stack loop builds the same arguments, with the same
    ids in the same order, as the recursive reference."""

    @pytest.fixture
    def compare(self, monkeypatch):
        def reference(goal, rules_by_head, assumption_preds, fresh, depth_cap):
            for found in recursive_derive(
                (goal,), frozenset(), frozenset(), frozenset(), 0,
                rules_by_head, assumption_preds, fresh, depth_cap,
            ):
                yield None if found[0] is None else found

        def check(fw, max_depth=caba.arguments.DEFAULT_MAX_DEPTH):
            got = outcome(fw, max_depth)
            with monkeypatch.context() as m:
                m.setattr(caba.arguments, "_derive", reference)
                want = outcome(fw, max_depth)
            assert got == want
            return got

        return check

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.caba")), ids=lambda p: p.stem)
    def test_corpus(self, compare, path):
        compare(parse_file(path))

    @pytest.mark.parametrize("name", sorted(RECURSIVE))
    @pytest.mark.parametrize("max_depth", [0, 1, 2, 3, 5])
    def test_depth_cuts(self, compare, name, max_depth):
        _, cut = compare(parse(RECURSIVE[name]), max_depth)
        assert cut

    def test_random_frameworks(self, compare):
        rng = random.Random(5)
        for _ in range(40):
            compare(random_bounded_framework(rng))

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_chains(self, compare, name):
        listing, cut = compare(parse(CHAINS[name]))
        assert not cut and listing


class TestConstrainedInstance:
    def test_substitution_with_extra(self):
        a = mk(
            Atom("p", (C(0),)),
            [constraint(V("Y"), "<", C(10))],
            [Atom("a", (V("Y"), C(0)))],
        )
        out = constrained_instance(
            a, {"Y": C(8)}, [constraint(C(8), "<", C(12))]
        )
        assert out.claim == Atom("p", (C(0),))
        assert out.assumptions == frozenset({Atom("a", (C(8), C(0)))})
        assert is_consistent(out.constraints)

    def test_identity(self):
        a = mk(Atom("p", (V("X"),)), [constraint(V("X"), ">", C(0))], [])
        out = constrained_instance(a, {}, [])
        assert out.claim == a.claim and out.constraints == a.constraints

    def test_inconsistent_raises(self):
        a = mk(Atom("p", (V("X"),)), [constraint(V("X"), ">", C(0))], [])
        with pytest.raises(InconsistentInstance):
            constrained_instance(a, {"X": C(-1)}, [])


class TestGeneraliseClaim:
    def test_claim_tuple_replaced(self):
        a = mk(
            Atom("ca", (V("X"), V("Y"))),
            [constraint(V("X"), "<", C(5)), constraint(V("Y"), ">", C(3))],
            [],
        )
        out = generalise_claim(a)
        assert all(len(t.coeffs) == 1 for t in out.claim.args)
        assert len(out.constraints) == 4
        assert set_equiv([a], [out])

    def test_idempotent_shape(self):
        a = mk(Atom("p", (V("X"),)), [constraint(V("X"), ">", C(0))], [])
        out = generalise_claim(a)
        assert set_equiv([a], [out])

    def test_nonvariable_term_oracle(self):
        # {a(X)} |- p(X+1) versus {Z=X+1, a(X)} |- p(Z): same groundings
        a = mk(
            Atom("p", (V("X") + C(1),)),
            [],
            [Atom("a", (V("X"),))],
        )
        out = generalise_claim(a)
        uni = [Fraction(0), Fraction(1), Fraction(2)]

        def inside(instances):
            # claims of the original may evaluate outside the universe
            # (X+1 escapes); compare the part both groundings can reach
            return {
                g
                for g in instances
                if all(t.value() in uni for t in g.claim.args)
            }

        assert inside(ground_instances(a, uni)) == inside(
            ground_instances(out, uni)
        )
        assert set_equiv([a], [out])


class TestGroundInstances:
    def test_positive_claims_only(self):
        a = mk(Atom("s", (V("Y"),)), [constraint(V("Y"), ">", C(0))], [])
        out = ground_instances(a, [Fraction(-1), Fraction(0), Fraction(1), Fraction(2)])
        assert {g.claim.render() for g in out} == {"s(1)", "s(2)"}

    def test_variable_free_argument(self):
        a = mk(Atom("p", (C(3),)), [], [])
        out = ground_instances(a, [Fraction(1)])
        assert out == {GroundArgument(Atom("p", (C(3),)), frozenset())}

    def test_ground_argument_equality_ignores_rules(self):
        g1 = GroundArgument(Atom("p", (C(1),)), frozenset(), frozenset({"R1"}))
        g2 = GroundArgument(Atom("p", (C(1),)), frozenset(), frozenset({"R9"}))
        assert g1 == g2


class TestGroundingCorrespondence:
    @pytest.mark.parametrize("name", ["FA", "cpcq", "frameworkB", "micro"])
    def test_mgcarg_instances_match_classical(self, name):
        fw = parse_file(CORPUS / f"{name}.caba")
        uni = [Fraction(i) for i in range(-1, 3)]
        native = set()
        for a in build_mgcarg(fw):
            native |= ground_instances(a, uni)
        classical = classical_arguments(ground(fw, uni))
        assert native == classical

    def test_fa_includes_s4(self):
        fw = parse_file(CORPUS / "FA.caba")
        classical = classical_arguments(ground(fw, [Fraction(0), Fraction(4)]))
        assert any(g.claim.render() == "s(4)" for g in classical)
