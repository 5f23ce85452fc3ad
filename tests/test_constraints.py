import random
from fractions import Fraction

import pytest

from caba.constraints import (
    EQ,
    LE,
    LT,
    NE,
    ConstraintDNF,
    LinearConstraint,
    LinearTerm,
    _canonical,
    _eliminate,
    constraint,
    constraint_split,
    entails_projected,
    equivalent_dnf,
    eval_ground,
    is_consistent,
    negate,
    project,
)
from caba.errors import InconsistentInput, NonGroundInput

from generators import (
    random_consistent_set,
    random_constraint,
    random_term,
    sample_points,
)

X = LinearTerm.variable("X")
Y = LinearTerm.variable("Y")
Z = LinearTerm.variable("Z")
X1 = LinearTerm.variable("X1")
X2 = LinearTerm.variable("X2")


def c(val):
    return LinearTerm.constant(val)


class TestIsConsistent:
    def test_contradictory_bounds(self):
        assert not is_consistent([constraint(X, "<", c(0)), constraint(X, ">", c(0))])

    def test_two_upper_bounds_and_independent_lower(self):
        assert is_consistent(
            [
                constraint(X1, "<", c(10)),
                constraint(X1, "<", c(5)),
                constraint(X2, ">", c(3)),
            ]
        )

    def test_pinched_interval(self):
        assert is_consistent(
            [constraint(X, ">=", Y), constraint(Y, ">=", c(0)), constraint(X, "<=", c(0))]
        )

    def test_empty_set(self):
        assert is_consistent([])

    def test_disequality_chain(self):
        assert is_consistent([constraint(X, "!=", c(0))])
        assert not is_consistent([constraint(X, "!=", c(0)), constraint(X, "=", c(0))])


class TestNegate:
    def test_strict_to_nonstrict(self):
        out = negate(constraint(X, "<", c(1)))
        assert out.disjuncts == (frozenset({constraint(X, ">=", c(1))}),)

    def test_equality_trichotomy(self):
        out = negate(constraint(X, "=", c(0)))
        assert set(out.disjuncts) == {
            frozenset({constraint(X, "<", c(0))}),
            frozenset({constraint(X, ">", c(0))}),
        }

    def test_relational(self):
        out = negate(constraint(X, ">=", Y))
        assert out.disjuncts == (frozenset({constraint(X, "<", Y)}),)


class TestProject:
    def test_pinched_interval_collapses_to_point(self):
        out = project(
            [constraint(X, ">=", Y), constraint(Y, ">=", c(0)), constraint(X, "<=", c(0))],
            {"X"},
        )
        assert out.disjuncts == (frozenset({constraint(X, "=", c(0))}),)

    def test_drops_uncoupled_variable(self):
        out = project([constraint(X, ">", c(0)), constraint(Y, "<", c(2))], {"X"})
        assert out.disjuncts == (frozenset({constraint(X, ">", c(0))}),)

    def test_empty_conjunction(self):
        assert project([], {"X"}).disjuncts == (frozenset(),)

    def test_rejects_inconsistent_input(self):
        with pytest.raises(InconsistentInput):
            project([constraint(X, "<", c(0)), constraint(X, ">", c(0))], {"X"})


class TestEntailsProjected:
    def test_full_attack_validity(self):
        assert entails_projected(
            [constraint(X, ">", c(10)), constraint(Z, "<", c(3))],
            [constraint(X, ">", c(0)), constraint(Y, "<", c(2))],
            {"X"},
        )

    def test_covering_upper_bound(self):
        assert entails_projected(
            [constraint(X, "<", c(1)), constraint(Y, ">", c(0))],
            [constraint(X, "<", c(10))],
            {"X"},
        )

    def test_non_covering(self):
        assert not entails_projected(
            [constraint(X, "<", c(1)), constraint(Y, ">", c(0))],
            [constraint(X, "<", c(5)), constraint(Y, ">", c(3))],
            {"X", "Y"},
        )


class TestEquivalentDnf:
    def test_case_split_is_identity(self):
        p = ConstraintDNF((frozenset({constraint(Y, "<", c(10))}),))
        q = ConstraintDNF(
            (
                frozenset({constraint(Y, "<", c(10)), constraint(Y, ">=", c(5))}),
                frozenset({constraint(Y, "<", c(10)), constraint(Y, "<", c(5))}),
            )
        )
        assert equivalent_dnf(p, q, {"X", "Y"})

    def test_interval_equals_point(self):
        p = ConstraintDNF((frozenset({constraint(X, "=", c(0))}),))
        q = ConstraintDNF(
            (frozenset({constraint(X, "<=", c(0)), constraint(X, ">=", c(0))}),)
        )
        assert equivalent_dnf(p, q, {"X"})

    def test_strict_shift_differs(self):
        p = ConstraintDNF((frozenset({constraint(X, ">", c(0))}),))
        q = ConstraintDNF((frozenset({constraint(X, ">", c(1))}),))
        assert not equivalent_dnf(p, q, {"X"})


class TestConstraintSplit:
    def test_pinched_complement(self):
        out = constraint_split(
            [constraint(X, ">=", Y), constraint(Y, ">=", c(0))],
            [constraint(X, "<=", c(0))],
            {"X"},
        )
        assert out.disjuncts == (frozenset({constraint(X, "<", c(0))}),)

    def test_absorbed_region_derived(self):
        # oracle: not(X>0) and X>3 means X<=0 and X>3, inconsistent
        assert not is_consistent([constraint(X, "<=", c(0)), constraint(X, ">", c(3))])
        out = constraint_split([constraint(X, ">", c(0))], [constraint(X, ">", c(3))], {"X"})
        assert out.disjuncts == ()

    def test_self_split_empty(self):
        out = constraint_split([constraint(X, ">", c(0))], [constraint(X, ">", c(0))], {"X"})
        assert out.disjuncts == ()

    def test_rejects_inconsistent_operands(self):
        bad = [constraint(X, "<", c(0)), constraint(X, ">", c(0))]
        with pytest.raises(InconsistentInput):
            constraint_split(bad, [constraint(X, ">", c(0))], {"X"})
        with pytest.raises(InconsistentInput):
            constraint_split([constraint(X, ">", c(0))], bad, {"X"})


class TestEvalGround:
    def test_arithmetic_identities(self):
        assert eval_ground(
            [constraint(c(0), "<", c(10)), constraint(c(2) + c(1), "=", c(1) + c(2))]
        )

    def test_empty(self):
        assert eval_ground([])

    def test_false_constraint(self):
        assert not eval_ground([constraint(c(5), "<", c(3))])

    def test_rejects_variables(self):
        with pytest.raises(NonGroundInput):
            eval_ground([constraint(X, "<", c(3))])


def _holds(cs, point):
    return all(cc.substitute(point).eval_ground() for cc in cs)


class TestProperties:
    def test_project_soundness_sampled(self):
        rng = random.Random(7)
        for _ in range(60):
            vars_ = ["X", "Y", "Z"][: rng.randint(1, 3)]
            cs = random_consistent_set(rng, vars_)
            keep = sorted(set(rng.sample(vars_, k=rng.randint(0, len(vars_)))))
            proj = project(cs, keep)
            for point in sample_points(keep):
                in_proj = any(_holds(d, point) for d in proj.disjuncts)
                extended = frozenset(cc.substitute(point) for cc in cs)
                assert in_proj == is_consistent(extended)

    def test_negate_partitions_space(self):
        rng = random.Random(11)
        for _ in range(80):
            cc = random_constraint(rng, ["X", "Y"])
            pieces = negate(cc).disjuncts
            for point in sample_points(sorted(cc.vars())):
                holds = [_holds([cc], point)] + [_holds(d, point) for d in pieces]
                assert sum(holds) == 1

    def test_split_conditions(self):
        rng = random.Random(13)
        for _ in range(40):
            vars_ = ["X", "Y"]
            cset = random_consistent_set(rng, vars_, 2)
            dset = random_consistent_set(rng, vars_, 2)
            from caba.constraints import constraints_vars

            shared = constraints_vars(cset) & constraints_vars(dset)
            out = constraint_split(cset, dset, shared)
            for d in out.disjuncts:
                assert is_consistent(d)
            for i, a in enumerate(out.disjuncts):
                for b in out.disjuncts[i + 1 :]:
                    assert not is_consistent(a | b)
            # membership agrees with the defining formula on a point grid
            proj = project(cset, shared)
            allv = sorted(constraints_vars(cset | dset))
            for point in sample_points(allv, [Fraction(-1), Fraction(0), Fraction(1)]):
                lhs = _holds(dset, point) and not any(
                    _holds(p, point) for p in proj.disjuncts
                )
                rhs = any(_holds(e, point) for e in out.disjuncts)
                assert lhs == rhs

    def test_renaming_invariance(self):
        rng = random.Random(17)
        mapping = {"X": "U", "Y": "W"}
        for _ in range(60):
            cs = frozenset(
                random_constraint(rng, ["X", "Y"]) for _ in range(rng.randint(1, 3))
            )
            renamed = frozenset(cc.rename(mapping) for cc in cs)
            assert is_consistent(cs) == is_consistent(renamed)

    def test_entailment_monotone_in_antecedent(self):
        rng = random.Random(19)
        for _ in range(40):
            dset = random_consistent_set(rng, ["X", "Y"], 2)
            cset = random_consistent_set(rng, ["X", "Z"], 2)
            if not entails_projected(dset, cset, {"X"}):
                continue
            extra = random_constraint(rng, ["X", "Y"])
            stronger = dset | {extra}
            if is_consistent(stronger):
                assert entails_projected(stronger, cset, {"X"})


class TestRename:
    def test_variables_mapped_to_one_name_add_up(self):
        assert (X + Y).rename({"X": "Y"}) == Y.scale(2)
        merged = constraint(X - Y, "=", c(1)).rename({"X": "Y"})
        assert merged.is_ground()
        assert not is_consistent([merged])


# The term operations and the elimination loop as they were before terms
# were built by one merge and elimination became row operations; kept as
# the reference that the current engine must agree with.


def ref_build(coeffs, const=0):
    items = tuple(sorted((v, Fraction(cc)) for v, cc in coeffs.items() if cc != 0))
    return LinearTerm(items, Fraction(const))


def ref_add(t, u):
    acc = dict(t.coeffs)
    for v, cc in u.coeffs:
        acc[v] = acc.get(v, Fraction(0)) + cc
    return ref_build(acc, t.const + u.const)


def ref_sub(t, u):
    return ref_add(t, u.scale(-1))


def ref_substitute(t, mapping):
    out = LinearTerm.constant(t.const)
    for v, cc in t.coeffs:
        repl = mapping.get(v)
        if repl is None:
            out = ref_add(out, ref_build({v: cc}))
        else:
            out = ref_add(out, repl.scale(cc))
    return out


def ref_rename(t, mapping):
    return ref_build({mapping.get(v, v): cc for v, cc in t.coeffs}, t.const)


def ref_eliminate(cs, drop):
    work = set(cs)
    while True:
        for cc in list(work):
            if cc.is_ground():
                if not cc.eval_ground():
                    return None
                work.discard(cc)
        subst_done = False
        for cc in sorted(work, key=LinearConstraint.sort_key):
            if cc.rel != EQ:
                continue
            hit = cc.vars() & drop
            if not hit:
                continue
            var = min(hit)
            coeff = dict(cc.expr.coeffs)[var]
            rest = ref_sub(cc.expr, ref_build({var: coeff}))
            repl = rest.scale(Fraction(-1) / coeff)
            work = {
                _canonical(ref_substitute(d.expr, {var: repl}), d.rel)
                for d in work
                if d is not cc
            }
            subst_done = True
            break
        if subst_done:
            continue
        cands = [v for v in drop if any(v in cc.vars() for cc in work)]
        if not cands:
            return frozenset(work)

        def cost(v):
            lo = sum(1 for cc in work if dict(cc.expr.coeffs).get(v, 0) < 0)
            hi = sum(1 for cc in work if dict(cc.expr.coeffs).get(v, 0) > 0)
            return (lo * hi, v)

        var = min(cands, key=cost)
        lowers, uppers, keep = [], [], set()
        for cc in work:
            a = dict(cc.expr.coeffs).get(var, Fraction(0))
            if a == 0:
                keep.add(cc)
                continue
            bound = ref_sub(cc.expr, ref_build({var: a})).scale(Fraction(-1) / a)
            (uppers if a > 0 else lowers).append((bound, cc.rel))
        for lo, lrel in lowers:
            for hi, hrel in uppers:
                nc = _canonical(ref_sub(lo, hi), LT if LT in (lrel, hrel) else LE)
                if nc.is_ground():
                    if not nc.eval_ground():
                        return None
                else:
                    keep.add(nc)
        work = keep


class TestMatchesReferenceEngine:
    VARS = ["X", "Y", "Z"]

    def test_eliminate(self):
        rng = random.Random(23)
        for _ in range(400):
            drawn = [random_constraint(rng, self.VARS) for _ in range(rng.randint(1, 6))]
            cs = frozenset(cc for cc in drawn if cc.rel != NE)
            drop = frozenset(v for v in self.VARS if rng.random() < 0.6)
            assert _eliminate(cs, drop) == ref_eliminate(cs, drop)

    def test_terms(self):
        rng = random.Random(29)
        for _ in range(300):
            t = random_term(rng, self.VARS, 3)
            u = random_term(rng, self.VARS, 3)
            assert t + u == ref_add(t, u)
            assert t - u == ref_sub(t, u)
            mapping = {
                v: random_term(rng, self.VARS, 2)
                for v in self.VARS
                if rng.random() < 0.5
            }
            assert t.substitute(mapping) == ref_substitute(t, mapping)
            names = rng.sample(["X", "Y", "Z", "U", "W"], 3)
            injective = dict(zip(self.VARS, names))
            assert t.rename(injective) == ref_rename(t, injective)
