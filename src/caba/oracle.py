"""Finite-universe grounding oracle.

Grounds a framework over a finite set of rationals into a plain
assumption-based argumentation framework (constraints evaluated and
folded away), computes classical arguments, attacks, and extensions by
brute force, and cross-checks native results against them.  The oracle
is exact only when every argument's constraints confine its variables
to the universe; otherwise results are reported as falsification-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

from .arguments import (
    ConstrainedArgument,
    GroundArgument,
    _eval_atom,
    _groundings,
    ground_instances,
)
from .attacks import attack_edges
from .constraints import LinearConstraint, LinearTerm, is_consistent
from .errors import UniverseTooLarge
from .framework import Atom, CabaFramework, Rule

DEFAULT_ARGUMENT_CAP = 2_000
GROUNDING_CAP = 50_000  # rule and assumption instances ground() may try


@dataclass(frozen=True)
class GroundAbaFramework:
    rules: tuple[Rule, ...]
    assumptions: frozenset[Atom]
    contraries: Mapping[Atom, Atom]
    universe: tuple[Fraction, ...]


@dataclass(frozen=True)
class Report:
    verdict: str  # EXACT-MATCH | PARTIAL | MISMATCH
    mode: str
    witness: str | None = None
    notes: tuple[str, ...] = ()

    def render(self) -> str:
        lines = [f"{self.verdict} [{self.mode}]"]
        if self.witness:
            lines.append(f"  witness: {self.witness}")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)

    def to_object(self) -> dict:
        return {
            "verdict": self.verdict,
            "mode": self.mode,
            "witness": self.witness,
            "notes": list(self.notes),
        }


def ground(
    framework: CabaFramework, universe: Iterable[Fraction]
) -> GroundAbaFramework:
    """All rule instances over the universe whose constraints hold;
    constraints folded away, assumptions instantiated pointwise.  Raises
    ``UniverseTooLarge`` before enumerating when that would try more
    than ``GROUNDING_CAP`` instances."""
    uni = tuple(sorted(set(Fraction(u) for u in universe)))
    if not uni:
        raise ValueError("universe must be non-empty")
    fw = framework.normalise()
    sig = fw.assumption_arity
    tries = sum(len(uni) ** len(rule.vars()) for rule in fw.rules) + sum(
        len(uni) ** sig[pred] for pred in fw.assumption_predicates
    )
    if tries > GROUNDING_CAP:
        raise UniverseTooLarge(
            f"grounding over {len(uni)} points would try {tries} instances, "
            f"more than {GROUNDING_CAP}"
        )
    rules: list[Rule] = []
    for rule in fw.rules:
        for values, subst in _groundings(rule.vars(), rule.body_constraints, uni):
            rules.append(
                Rule(
                    f"{rule.id}@{'/'.join(str(q) for q in values)}",
                    _eval_atom(rule.head, subst),
                    frozenset(),
                    tuple(_eval_atom(a, subst) for a in rule.body_atoms),
                )
            )
    assumptions: set[Atom] = set()
    contraries: dict[Atom, Atom] = {}
    for pred in sorted(fw.assumption_predicates):
        if pred == fw.bogus_assumption:
            continue
        for values in product(uni, repeat=sig[pred]):
            args = tuple(LinearTerm.constant(q) for q in values)
            atom = Atom(pred, args)
            assumptions.add(atom)
            contraries[atom] = Atom(fw.contrary_map[pred], args)
    return GroundAbaFramework(tuple(rules), frozenset(assumptions), contraries, uni)


def classical_arguments(
    g: GroundAbaFramework, cap: int = DEFAULT_ARGUMENT_CAP
) -> set[GroundArgument]:
    """Fixpoint of tree-shaped derivations: claims with the assumption
    sets (and rules) supporting them."""
    known: dict[Atom, set[GroundArgument]] = {}
    for a in g.assumptions:
        known.setdefault(a, set()).add(GroundArgument(a, frozenset({a})))
    total = len(g.assumptions)
    changed = True
    while changed:
        changed = False
        for rule in g.rules:
            if rule.head in g.assumptions:
                continue
            pools = [known.get(b, set()) for b in rule.body_atoms]
            if any(not p for p in pools):
                continue
            for combo in product(*pools):
                arg = GroundArgument(
                    rule.head,
                    frozenset().union(*(c.assumptions for c in combo))
                    if combo
                    else frozenset(),
                    frozenset({rule.id}).union(*(c.rules_used for c in combo)),
                )
                bucket = known.setdefault(rule.head, set())
                if arg not in bucket:
                    bucket.add(arg)
                    total += 1
                    if total > cap:
                        raise UniverseTooLarge(
                            f"more than {cap} ground arguments"
                        )
                    changed = True
    return set().union(*known.values()) if known else set()


def classical_attacks(
    g: GroundAbaFramework, args: Iterable[GroundArgument]
) -> set[tuple[GroundArgument, GroundArgument]]:
    pool = list(args)
    return {
        (a, b)
        for a in pool
        for b in pool
        if any(g.contraries.get(x) == a.claim for x in b.assumptions)
    }


def classical_extensions(
    g: GroundAbaFramework,
    semantics: str,
    cap: int = DEFAULT_ARGUMENT_CAP,
) -> list[frozenset[GroundArgument]]:
    """Brute-force subset enumeration under the classical definitions."""
    args = sorted(classical_arguments(g, cap), key=GroundArgument.render)
    if len(args) > 25:
        raise UniverseTooLarge(
            f"{len(args)} ground arguments is too many for subset enumeration"
        )
    att = classical_attacks(g, args)
    out = []
    for bits in product((False, True), repeat=len(args)):
        sigma = [a for a, b in zip(args, bits) if b]
        inside = set(sigma)
        if any((a, b) in att for a in sigma for b in sigma):
            continue
        if semantics == "conflict_free":
            ok = True
        elif semantics == "admissible":
            ok = all(
                any((c, b) in att for c in sigma)
                for a in sigma
                for b in args
                if (b, a) in att
            )
        elif semantics == "stable":
            ok = all(
                any((a, b) in att for a in sigma)
                for b in args
                if b not in inside
            )
        else:
            raise ValueError(f"unknown semantics {semantics!r}")
        if ok:
            out.append(frozenset(sigma))
    return out


# ------------------------------------------------------------ cross-check


def is_confined(
    arg: ConstrainedArgument, universe: Sequence[Fraction]
) -> bool:
    """Do the constraints force every variable into the universe?"""
    for v in sorted(arg.vars()):
        outside = arg.constraints | frozenset(
            LinearConstraint.make(
                LinearTerm.variable(v), "!=", LinearTerm.constant(u)
            )
            for u in universe
        )
        if is_consistent(outside):
            return False
    return True


def _instances(
    args: Iterable[ConstrainedArgument], universe: Sequence[Fraction]
) -> set[GroundArgument]:
    out: set[GroundArgument] = set()
    for a in args:
        out |= ground_instances(a, universe)
    return out


def cross_check(
    framework: CabaFramework,
    universe: Iterable[Fraction],
    native_result: Sequence[ConstrainedArgument],
    mode: str,
    cap: int = DEFAULT_ARGUMENT_CAP,
) -> Report:
    """Compare a native result against the finite grounding.

    ``arguments``: the native set must denote exactly the classical
    arguments of the grounding (holds regardless of confinement, since
    both sides are restricted to the same universe).

    ``attacks``: native full/partial attack decisions must coincide
    with all-instances/some-instances attack over the grounding; exact
    only under confinement, otherwise downgraded to PARTIAL.

    ``extension``: the native set's ground instances must form a stable
    extension of the grounding; exact only under confinement.
    """
    uni = tuple(sorted(set(Fraction(u) for u in universe)))
    g = ground(framework, uni)
    classical = classical_arguments(g, cap)
    confined = all(is_confined(a, uni) for a in native_result)
    notes: tuple[str, ...] = ()
    if not confined:
        notes = (
            "constraints do not confine every variable to the universe; "
            "the oracle can only falsify",
        )

    if mode == "arguments":
        native = _instances(native_result, uni)
        missing = classical - native
        extra = native - classical
        if missing or extra:
            w = next(iter(missing or extra))
            side = "missing from native set" if missing else "not classically derivable"
            return Report("MISMATCH", mode, f"{w.render()} ({side})", notes)
        return Report("EXACT-MATCH" if confined else "PARTIAL", mode, None, notes)

    if mode == "attacks":
        kinds: dict[tuple[str, str], set[str]] = {}
        for a, b, _, kind in attack_edges(
            native_result, native_result, framework.contrary_map
        ):
            kinds.setdefault((a.id, b.id), set()).add(kind)
        att = classical_attacks(g, classical)
        insts = {a.id: ground_instances(a, uni) for a in native_result}
        for a in native_result:
            for b in native_result:
                ga, gb = insts[a.id], insts[b.id]
                some = any((x, y) in att for x in ga for y in gb)
                every = bool(gb) and all(
                    any((x, y) in att for x in ga) for y in gb
                )
                partial = (a.id, b.id) in kinds
                full = "full" in kinds.get((a.id, b.id), ())
                if confined:
                    if full != every and gb:
                        return Report(
                            "MISMATCH", mode,
                            f"full attack {a.id}->{b.id}: native {full}, ground {every}",
                            notes,
                        )
                    if partial != some:
                        return Report(
                            "MISMATCH", mode,
                            f"partial attack {a.id}->{b.id}: native {partial}, ground {some}",
                            notes,
                        )
                else:
                    # sound directions only: ground attacks need native ones
                    if some and not partial:
                        return Report(
                            "MISMATCH", mode,
                            f"ground attack {a.id}->{b.id} without native partial attack",
                            notes,
                        )
        return Report("EXACT-MATCH" if confined else "PARTIAL", mode, None, notes)

    if mode == "extension":
        native = _instances(native_result, uni)
        att = classical_attacks(g, classical)
        name = {x: x.render() for x in classical}
        for x in native:
            if x not in classical:
                return Report(
                    "MISMATCH", mode,
                    f"{x.render()} is not a classical argument", notes,
                )
        for x in native:
            for y in native:
                if (x, y) in att:
                    return Report(
                        "MISMATCH", mode,
                        f"internal attack {name[x]} -> {name[y]}", notes,
                    )
        for y in classical - native:
            if not any((x, y) in att for x in native):
                if confined:
                    return Report(
                        "MISMATCH", mode,
                        f"{y.render()} is outside and unattacked", notes,
                    )
                return Report(
                    "PARTIAL", mode,
                    f"{y.render()} unattacked within the universe", notes,
                )
        return Report("EXACT-MATCH" if confined else "PARTIAL", mode, None, notes)

    raise ValueError(f"unknown cross-check mode {mode!r}")
