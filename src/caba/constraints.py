"""Exact linear rational arithmetic.

Terms are linear combinations of variables with arbitrary-precision
rational coefficients.  Constraints compare two terms with one of
``< <= = != >= >`` and are normalised to ``expr REL 0`` with
REL in ``< <= = !=``.  All decision procedures (consistency,
projection, entailment, constraint split) are exact: disequalities are
case-split, and variables are eliminated by row combinations, each
equality added to the rows that mention its variable and each
Fourier-Motzkin pair of bounds added together.  No floating point
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Mapping

from .errors import InconsistentInput, NonGroundInput

LT = "<"
LE = "<="
EQ = "="
NE = "!="

_FLIP = {">": LT, ">=": LE}
RELATIONS = (LT, LE, EQ, NE, ">=", ">")


# ---------------------------------------------------------------- terms


@dataclass(frozen=True)
class LinearTerm:
    """A linear expression: sum of coefficient*variable plus a constant."""

    coeffs: tuple[tuple[str, Fraction], ...] = ()
    const: Fraction = Fraction(0)

    @staticmethod
    def build(coeffs: Mapping[str, Fraction] | None = None, const=0) -> "LinearTerm":
        return _terms(
            ((v, Fraction(c)) for v, c in (coeffs or {}).items()), Fraction(const)
        )

    @staticmethod
    def variable(name: str) -> "LinearTerm":
        return LinearTerm(((name, Fraction(1)),), Fraction(0))

    @staticmethod
    def constant(value) -> "LinearTerm":
        return LinearTerm((), Fraction(value))

    def coeff(self, var: str) -> Fraction | int:
        for v, c in self.coeffs:
            if v == var:
                return c
        return 0

    def vars(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.coeffs)

    def is_ground(self) -> bool:
        return not self.coeffs

    def value(self) -> Fraction:
        if self.coeffs:
            raise NonGroundInput(f"term {self.render()} has free variables")
        return self.const

    def scale(self, factor) -> "LinearTerm":
        f = Fraction(factor)
        if f == 0:
            return LinearTerm()
        return LinearTerm(
            tuple((v, c * f) for v, c in self.coeffs), self.const * f
        )

    def __add__(self, other: "LinearTerm") -> "LinearTerm":
        return _terms(self.coeffs + other.coeffs, self.const + other.const)

    def __sub__(self, other: "LinearTerm") -> "LinearTerm":
        return self + other.scale(-1)

    def __neg__(self) -> "LinearTerm":
        return self.scale(-1)

    def substitute(self, mapping: Mapping[str, "LinearTerm"]) -> "LinearTerm":
        pairs: list[tuple[str, Fraction]] = []
        const = self.const
        for v, c in self.coeffs:
            repl = mapping.get(v)
            if repl is None:
                pairs.append((v, c))
            else:
                pairs.extend((w, c * d) for w, d in repl.coeffs)
                const += c * repl.const
        return _terms(pairs, const)

    def rename(self, mapping: Mapping[str, str]) -> "LinearTerm":
        return _terms(((mapping.get(v, v), c) for v, c in self.coeffs), self.const)

    def render(self) -> str:
        if not self.coeffs:
            return _render_rational(self.const)
        parts: list[str] = []
        for v, c in self.coeffs:
            if c == 1:
                piece = v
            elif c == -1:
                piece = f"-{v}"
            else:
                piece = f"{_render_rational(c)}*{v}"
            if parts and not piece.startswith("-"):
                parts.append(f"+ {piece}")
            elif parts:
                parts.append(f"- {piece[1:]}")
            else:
                parts.append(piece)
        if self.const != 0:
            sign = "+" if self.const > 0 else "-"
            parts.append(f"{sign} {_render_rational(abs(self.const))}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()


def _terms(pairs: Iterable[tuple[str, Fraction]], const: Fraction) -> LinearTerm:
    """The term sum(c*v for v, c in pairs) + const, with the coefficients
    of a repeated variable summed, zeros dropped and variables sorted."""
    acc: dict[str, Fraction] = {}
    for v, c in pairs:
        acc[v] = acc[v] + c if v in acc else c
    return LinearTerm(tuple(sorted((v, c) for v, c in acc.items() if c)), const)


def _render_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ----------------------------------------------------------- constraints


@dataclass(frozen=True)
class LinearConstraint:
    """Canonical atomic constraint: ``expr rel 0`` with rel in < <= = !=."""

    expr: LinearTerm
    rel: str

    @staticmethod
    def make(lhs: LinearTerm, rel: str, rhs: LinearTerm) -> "LinearConstraint":
        if rel not in RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        if rel in _FLIP:
            lhs, rhs, rel = rhs, lhs, _FLIP[rel]
        return _canonical(lhs - rhs, rel)

    def vars(self) -> frozenset[str]:
        return self.expr.vars()

    def is_ground(self) -> bool:
        return self.expr.is_ground()

    def eval_ground(self) -> bool:
        v = self.expr.value()
        if self.rel == LT:
            return v < 0
        if self.rel == LE:
            return v <= 0
        if self.rel == EQ:
            return v == 0
        return v != 0

    def substitute(self, mapping: Mapping[str, LinearTerm]) -> "LinearConstraint":
        return _canonical(self.expr.substitute(mapping), self.rel)

    def rename(self, mapping: Mapping[str, str]) -> "LinearConstraint":
        return _canonical(self.expr.rename(mapping), self.rel)

    def sort_key(self):
        return (
            tuple((v, c.numerator, c.denominator) for v, c in self.expr.coeffs),
            self.rel,
            self.expr.const.numerator,
            self.expr.const.denominator,
        )

    def render(self) -> str:
        pos: dict[str, Fraction] = {}
        neg: dict[str, Fraction] = {}
        for v, c in self.expr.coeffs:
            (pos if c > 0 else neg)[v] = abs(c)
        lhs = LinearTerm.build(pos)
        rhs = LinearTerm.build(neg)
        if self.expr.const > 0:
            lhs = lhs + LinearTerm.constant(self.expr.const)
        elif self.expr.const < 0:
            rhs = rhs + LinearTerm.constant(-self.expr.const)
        return f"{lhs.render()} {self.rel} {rhs.render()}"

    def __str__(self) -> str:
        return self.render()


def _canonical(expr: LinearTerm, rel: str) -> LinearConstraint:
    if expr.coeffs:
        lead = expr.coeffs[0][1]
        if rel in (EQ, NE):
            expr = expr.scale(Fraction(1) / lead)
        else:
            expr = expr.scale(Fraction(1) / abs(lead))
    elif expr.const != 0 and rel in (EQ, NE):
        expr = LinearTerm.constant(Fraction(1))
    return LinearConstraint(expr, rel)


def constraint(lhs: LinearTerm, rel: str, rhs: LinearTerm) -> LinearConstraint:
    return LinearConstraint.make(lhs, rel, rhs)


def _equate(
    lhs: Iterable[LinearTerm], rhs: Iterable[LinearTerm]
) -> list[LinearConstraint]:
    """Coordinate-wise equalities between two term tuples."""
    return [LinearConstraint.make(t, EQ, u) for t, u in zip(lhs, rhs)]


def _negation_pieces(c: LinearConstraint) -> tuple[LinearConstraint, ...]:
    e = c.expr
    if c.rel == LT:  # not(e<0) is e>=0
        return (_canonical(-e, LE),)
    if c.rel == LE:  # not(e<=0) is e>0
        return (_canonical(-e, LT),)
    if c.rel == EQ:  # trichotomy
        return (_canonical(e, LT), _canonical(-e, LT))
    return (_canonical(e, EQ),)


# ------------------------------------------------------------------ DNF


@dataclass(frozen=True)
class ConstraintDNF:
    """Disjunction of conjunctions; disjuncts consistent, mutually exclusive."""

    disjuncts: tuple[frozenset[LinearConstraint], ...]

    def vars(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for d in self.disjuncts:
            out |= constraints_vars(d)
        return out

    def render(self) -> str:
        if not self.disjuncts:
            return "false"
        return " | ".join(
            "{" + ", ".join(c.render() for c in _sorted(d)) + "}"
            for d in self.disjuncts
        )


def _sorted(cs: Iterable[LinearConstraint]) -> list[LinearConstraint]:
    return sorted(cs, key=LinearConstraint.sort_key)


def constraints_vars(cs: Iterable[LinearConstraint]) -> frozenset[str]:
    out: set[str] = set()
    for c in cs:
        out |= c.vars()
    return frozenset(out)


# ------------------------------------------------- core decision engine


def _branches(cs: frozenset[LinearConstraint]) -> Iterator[frozenset[LinearConstraint]]:
    """Case-split every disequality into the < and > alternatives."""
    neqs = [c for c in _sorted(cs) if c.rel == NE]
    rest = frozenset(c for c in cs if c.rel != NE)
    if not neqs:
        yield rest
        return
    for signs in product((LT, ">"), repeat=len(neqs)):
        branch = set(rest)
        ok = True
        for c, s in zip(neqs, signs):
            split = (
                _canonical(c.expr, LT) if s == LT else _canonical(-c.expr, LT)
            )
            if split.is_ground() and not split.eval_ground():
                ok = False
                break
            branch.add(split)
        if ok:
            yield frozenset(branch)


def _eliminate(
    cs: frozenset[LinearConstraint], drop: frozenset[str]
) -> frozenset[LinearConstraint] | None:
    """Existentially eliminate ``drop`` from a !=-free conjunction.

    Returns the equivalent conjunction over the remaining variables, or
    None when the input is inconsistent.
    """
    work = set(cs)
    while True:
        for c in list(work):
            if c.is_ground():
                if not c.eval_ground():
                    return None
                work.discard(c)
        # add one equality that mentions a variable to eliminate, scaled
        # so that var has coefficient -1, to each row that mentions var
        eq = next(
            (c for c in _sorted(work) if c.rel == EQ and c.vars() & drop), None
        )
        if eq is not None:
            var = min(eq.vars() & drop)
            row = eq.expr.scale(Fraction(-1) / eq.expr.coeff(var))
            work.discard(eq)
            work = {
                _canonical(d.expr + row.scale(a), d.rel)
                if (a := d.expr.coeff(var))
                else d
                for d in work
            }
            continue
        # Fourier-Motzkin on one inequality variable: scale each bound on
        # var to coefficient -1 (lower) or +1 (upper) and add each pair
        cands = drop & constraints_vars(work)
        if not cands:
            return frozenset(work)

        def cost(v: str) -> tuple[int, str]:
            lo = sum(1 for c in work if c.expr.coeff(v) < 0)
            hi = sum(1 for c in work if c.expr.coeff(v) > 0)
            return (lo * hi, v)

        var = min(cands, key=cost)
        lowers: list[tuple[LinearTerm, str]] = []  # bound - var rel 0
        uppers: list[tuple[LinearTerm, str]] = []  # var - bound rel 0
        keep: set[LinearConstraint] = set()
        for c in work:
            a = c.expr.coeff(var)
            if not a:
                keep.add(c)
            else:
                (uppers if a > 0 else lowers).append((c.expr.scale(1 / abs(a)), c.rel))
        for lo, lrel in lowers:
            for hi, hrel in uppers:
                rel = LT if LT in (lrel, hrel) else LE
                nc = _canonical(lo + hi, rel)
                if nc.is_ground():
                    if not nc.eval_ground():
                        return None
                else:
                    keep.add(nc)
        work = keep


@lru_cache(maxsize=200_000)
def _conj_consistent(cs: frozenset[LinearConstraint]) -> bool:
    """Consistency of a conjunction (disequalities allowed)."""
    for c in cs:
        if c.is_ground() and not c.eval_ground():
            return False
    for branch in _branches(cs):
        if _eliminate(branch, constraints_vars(branch)) is not None:
            return True
    return False


def is_consistent(cs: Iterable[LinearConstraint]) -> bool:
    """True iff the conjunction has a rational solution."""
    return _conj_consistent(frozenset(cs))


def eval_ground(cs: Iterable[LinearConstraint]) -> bool:
    """Evaluate a variable-free conjunction."""
    fs = frozenset(cs)
    if constraints_vars(fs):
        raise NonGroundInput("constraint set has free variables")
    return all(c.eval_ground() for c in fs)


def negate(c: LinearConstraint) -> ConstraintDNF:
    """Complement of a single constraint, as mutually exclusive disjuncts."""
    return ConstraintDNF(tuple(frozenset({p}) for p in _negation_pieces(c)))


# --------------------------------------------------------- simplification


@lru_cache(maxsize=100_000)
def _simplify(cs: frozenset[LinearConstraint]) -> frozenset[LinearConstraint] | None:
    """Canonicalise a consistent conjunction; None if inconsistent.

    Merges opposing non-strict bounds into equalities and drops
    constraints entailed by the rest of the set.
    """
    if not _conj_consistent(cs):
        return None
    work = set(cs)
    # x <= e and e <= x collapse to x = e
    for c in _sorted(work):
        if c.rel != LE or c not in work:
            continue
        mirror = _canonical(-c.expr, LE)
        if mirror in work and mirror != c:
            work.discard(c)
            work.discard(mirror)
            work.add(_canonical(c.expr, EQ))
    # entailment-based redundancy elimination, deterministic order
    for c in _sorted(work):
        if c not in work or len(work) == 1:
            continue
        rest = frozenset(work - {c})
        if all(
            not _conj_consistent(rest | {p}) for p in _negation_pieces(c)
        ):
            work.discard(c)
    return frozenset(work)


def _subtract(
    region: frozenset[LinearConstraint], other: frozenset[LinearConstraint]
) -> list[frozenset[LinearConstraint]]:
    """Decompose region AND NOT(other) into exclusive consistent pieces."""
    pieces: list[frozenset[LinearConstraint]] = []
    prefix: set[LinearConstraint] = set()
    for c in _sorted(other):
        for n in _negation_pieces(c):
            cand = _simplify(region | frozenset(prefix) | {n})
            if cand is not None:
                pieces.append(cand)
        prefix.add(c)
    return pieces


def _difference(
    regions: Iterable[frozenset[LinearConstraint]],
    covers: Iterable[frozenset[LinearConstraint]],
) -> list[frozenset[LinearConstraint]]:
    """Pieces of the regions that lie outside every cover region."""
    rest = list(regions)
    for cover in covers:
        if not rest:
            break
        rest = [p for r in rest for p in _subtract(r, cover)]
    return rest


def _exclusive(
    disjuncts: Iterable[frozenset[LinearConstraint]],
) -> tuple[frozenset[LinearConstraint], ...]:
    """Rewrite a union into pairwise mutually exclusive disjuncts."""
    originals = [d for d in disjuncts if _conj_consistent(d)]
    out: list[frozenset[LinearConstraint]] = []
    for i, d in enumerate(originals):
        for r in _difference([d], originals[:i]):
            s = _simplify(r)
            if s is not None and s not in out:
                out.append(s)
    return tuple(out)


# ------------------------------------------------------------ operations


def project(
    cs: Iterable[LinearConstraint], keep: Iterable[str]
) -> ConstraintDNF:
    """Existential elimination of all variables outside ``keep``."""
    fs = frozenset(cs)
    if not _conj_consistent(fs):
        raise InconsistentInput("cannot project an inconsistent constraint set")
    keep_set = frozenset(keep)
    drop = constraints_vars(fs) - keep_set
    disjuncts: list[frozenset[LinearConstraint]] = []
    for branch in _branches(fs):
        r = _eliminate(branch, drop)
        if r is None:
            continue
        s = _simplify(r)
        if s is not None:
            disjuncts.append(s)
    return ConstraintDNF(_exclusive(disjuncts))


def entails_projected(
    d: Iterable[LinearConstraint],
    c: Iterable[LinearConstraint],
    keep: Iterable[str],
) -> bool:
    """Does every solution of d satisfy the projection of c onto keep?"""
    dfs = frozenset(d)
    cfs = frozenset(c)
    if not _conj_consistent(cfs):
        return not _conj_consistent(dfs)
    proj = project(cfs, keep)
    regions = [b for b in _branches(dfs) if _conj_consistent(b)]
    return not _difference(regions, proj.disjuncts)


def _project_union(
    dnf: ConstraintDNF, keep: frozenset[str]
) -> list[frozenset[LinearConstraint]]:
    out: list[frozenset[LinearConstraint]] = []
    for d in dnf.disjuncts:
        if not _conj_consistent(d):
            continue
        out.extend(project(d, keep).disjuncts)
    return out


def _covers(
    cover: list[frozenset[LinearConstraint]],
    targets: list[frozenset[LinearConstraint]],
) -> bool:
    return not any(_difference([t], cover) for t in targets)


def equivalent_dnf(
    p: ConstraintDNF, q: ConstraintDNF, keep: Iterable[str] | None = None
) -> bool:
    """Do the two disjunctions denote the same assignments over keep?"""
    if keep is None:
        keep_set = p.vars() | q.vars()
    else:
        keep_set = frozenset(keep)
    pd = _project_union(p, keep_set)
    qd = _project_union(q, keep_set)
    return _covers(qd, pd) and _covers(pd, qd)


def constraint_split(
    c: Iterable[LinearConstraint],
    d: Iterable[LinearConstraint],
    shared: Iterable[str],
) -> ConstraintDNF:
    """Exclusive consistent cover of NOT(exists-projection of c) AND d."""
    cfs = frozenset(c)
    dfs = frozenset(d)
    if not _conj_consistent(cfs):
        raise InconsistentInput("left operand of constraint split is inconsistent")
    if not _conj_consistent(dfs):
        raise InconsistentInput("right operand of constraint split is inconsistent")
    proj = project(cfs, shared)
    pieces: list[frozenset[LinearConstraint]] = []
    for branch in _branches(dfs):
        regions = [branch] if _conj_consistent(branch) else []
        for r in _difference(regions, proj.disjuncts):
            s = _simplify(r)
            if s is not None and s not in pieces:
                pieces.append(s)
    return ConstraintDNF(tuple(pieces))
