"""Full and partial attacks between constrained arguments.

An argument attacks another on an assumption whose contrary predicate
matches the attacker's claim.  The attacker is renamed apart and both
the attacker's claim tuple and the assumption's tuple are equated to
one fresh shared tuple; the attack is full when the target's region is
entirely covered by the attacker's claim region (universal entailment
after projection), partial when the two regions merely overlap.

``fully_attacks`` and ``partially_attacks`` define the relation on one
assumption; ``attack_edges`` is the one attack relation over argument
pools, and every other module (the attack graph, splitting, compliance,
semantics and the oracle) reads attacks from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .arguments import ConstrainedArgument
from .constraints import (
    LinearConstraint,
    LinearTerm,
    _equate,
    entails_projected,
    is_consistent,
)
from .framework import Atom


@dataclass(frozen=True)
class AttackEdge:
    attacker: str
    target: str
    kind: str  # "full" | "partial"
    target_assumption: Atom

    def render(self) -> str:
        return (
            f"{self.attacker} ={self.kind}=> {self.target} "
            f"[on {self.target_assumption.render()}]"
        )

    def to_object(self) -> dict:
        return {
            "attacker": self.attacker,
            "target": self.target,
            "kind": self.kind,
            "assumption": self.target_assumption.render(),
        }


def _aligned_pair(
    attacker: ConstrainedArgument,
    target: ConstrainedArgument,
    assumption: Atom,
) -> tuple[frozenset[LinearConstraint], frozenset[LinearConstraint], frozenset[str]]:
    """Rename the attacker apart from the target and equate its claim
    tuple and the attacked assumption's tuple to one fresh tuple.

    Returns the attacker's region, the target's region (over the
    target's own variables) and the fresh tuple's variables.
    """
    a = attacker.rename({v: f"_a_{v}" for v in attacker.vars()})
    shared = tuple(f"_x{i}" for i in range(len(assumption.args)))
    xs = [LinearTerm.variable(x) for x in shared]
    c = a.constraints | frozenset(_equate(xs, a.claim.args))
    d = target.constraints | frozenset(_equate(xs, assumption.args))
    return c, d, frozenset(shared)


def _matching_assumptions(
    attacker: ConstrainedArgument,
    target: ConstrainedArgument,
    contraries: Mapping[str, str],
) -> list[Atom]:
    return [
        a
        for a in sorted(target.assumptions, key=Atom.render)
        if contraries.get(a.predicate) == attacker.claim.predicate
    ]


def fully_attacks(
    attacker: ConstrainedArgument,
    target: ConstrainedArgument,
    contraries: Mapping[str, str],
    assumption: Atom | None = None,
) -> bool:
    """Every instance of the target is defeated by some attacker instance."""
    atoms = (
        [assumption]
        if assumption is not None
        else _matching_assumptions(attacker, target, contraries)
    )
    for atom in atoms:
        c, d, shared = _aligned_pair(attacker, target, atom)
        if entails_projected(d, c, shared):
            return True
    return False


def partially_attacks(
    attacker: ConstrainedArgument,
    target: ConstrainedArgument,
    contraries: Mapping[str, str],
    assumption: Atom | None = None,
) -> bool:
    """Some instance of the target is defeated by some attacker instance."""
    atoms = (
        [assumption]
        if assumption is not None
        else _matching_assumptions(attacker, target, contraries)
    )
    for atom in atoms:
        c, d, shared = _aligned_pair(attacker, target, atom)
        # renamed apart off the shared tuple, so joint consistency of the
        # union coincides with consistency of the conjoined projections
        if is_consistent(c | d):
            return True
    return False


def attack_edges(
    attackers: Iterable[ConstrainedArgument],
    targets: Iterable[ConstrainedArgument],
    contraries: Mapping[str, str],
) -> Iterator[tuple[ConstrainedArgument, ConstrainedArgument, Atom, str]]:
    """Every attack of an attacker on an assumption of a target, as
    ``(attacker, target, assumption, kind)`` with kind "full" or
    "partial" (partial but not full), attackers and targets in pool
    order and each target's assumptions in rendered order.

    Overlap is tested first: it is one consistency check, and only an
    overlapping attack needs the entailment test for its kind.
    """
    pool = list(targets)
    for a in attackers:
        for b in pool:
            for atom in _matching_assumptions(a, b, contraries):
                if partially_attacks(a, b, contraries, atom):
                    full = fully_attacks(a, b, contraries, atom)
                    yield a, b, atom, "full" if full else "partial"


def attack_graph(
    args: Iterable[ConstrainedArgument],
    contraries: Mapping[str, str],
) -> list[AttackEdge]:
    """Per-assumption attack edges with the strongest kind recorded."""
    pool = list(args)
    return [
        AttackEdge(a.id, b.id, kind, atom)
        for a, b, atom, kind in attack_edges(pool, pool, contraries)
    ]
