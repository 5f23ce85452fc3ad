"""Construction and manipulation of constrained arguments.

A constrained argument ``{C ; A} |-{R} s`` derives claim ``s`` from
assumption atoms ``A`` using rules ``R``, valid on the region described
by the consistent constraint set ``C``.  The most general arguments
(one per claim predicate shape, with fresh distinct claim variables)
are built by backward chaining over renamed-apart normalised rules and
generate every ground argument by instantiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

from .constraints import (
    LinearConstraint,
    LinearTerm,
    _equate,
    _sorted,
    constraints_vars,
    is_consistent,
)
from .errors import DepthExceeded, InconsistentInstance
from .framework import Atom, CabaFramework, Rule, _fresh_names

DEFAULT_MAX_DEPTH = 16


@dataclass(frozen=True)
class ConstrainedArgument:
    id: str = field(compare=False)
    claim: Atom
    constraints: frozenset[LinearConstraint]
    assumptions: frozenset[Atom]
    rules_used: frozenset[str]

    def vars(self) -> frozenset[str]:
        out = set(self.claim.vars()) | set(constraints_vars(self.constraints))
        for a in self.assumptions:
            out |= a.vars()
        return frozenset(out)

    def atom_vars(self) -> frozenset[str]:
        out = set(self.claim.vars())
        for a in self.assumptions:
            out |= a.vars()
        return frozenset(out)

    def rename(self, mapping: Mapping[str, str]) -> "ConstrainedArgument":
        return ConstrainedArgument(
            self.id,
            self.claim.rename(mapping),
            frozenset(c.rename(mapping) for c in self.constraints),
            frozenset(a.rename(mapping) for a in self.assumptions),
            self.rules_used,
        )

    def render(self) -> str:
        cs = ", ".join(c.render() for c in _sorted(self.constraints))
        asm = ", ".join(a.render() for a in sorted(self.assumptions, key=Atom.render))
        rules = ",".join(sorted(self.rules_used))
        return f"{{{cs} ; {asm}}} |-{{{rules}}} {self.claim.render()}"

    def to_object(self) -> dict:
        return {
            "id": self.id,
            "claim": self.claim.render(),
            "constraints": [c.render() for c in _sorted(self.constraints)],
            "assumptions": [
                a.render() for a in sorted(self.assumptions, key=Atom.render)
            ],
            "rules": sorted(self.rules_used),
        }

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class GroundArgument:
    """A variable-free argument; terms stored as canonical rationals.

    Rule identity is kept for provenance but excluded from equality so
    that comparisons work modulo the supporting derivation.
    """

    claim: Atom
    assumptions: frozenset[Atom]
    rules_used: frozenset[str] = field(default=frozenset(), compare=False)

    def render(self) -> str:
        asm = ", ".join(a.render() for a in sorted(self.assumptions, key=Atom.render))
        return f"{{{asm}}} |- {self.claim.render()}"

    def __str__(self) -> str:
        return self.render()


# ----------------------------------------------------------- fresh names


class _Fresh:
    """Per-call fresh variable source; records allocation order."""

    def __init__(self):
        self.count = 0
        self.order: list[str] = []

    def var(self) -> str:
        name = f"V{self.count}"
        self.count += 1
        self.order.append(name)
        return name

    def tuple(self, n: int) -> tuple[str, ...]:
        return tuple(self.var() for _ in range(n))


def canonicalise(arg: ConstrainedArgument, order: Iterable[str]) -> ConstrainedArgument:
    """Rename variables to V0, V1, ... following first appearance in order."""
    live = arg.vars()
    mapping: dict[str, str] = {}
    for v in order:
        if v in live and v not in mapping:
            mapping[v] = f"V{len(mapping)}"
    for v in sorted(live):
        if v not in mapping:
            mapping[v] = f"V{len(mapping)}"
    return arg.rename(mapping)


# ------------------------------------------------------ backward chaining


def _dependency_cyclic(framework: CabaFramework) -> bool:
    deps: dict[str, set[str]] = {}
    for r in framework.rules:
        deps.setdefault(r.head.predicate, set()).update(
            a.predicate for a in r.body_atoms
        )
    try:
        TopologicalSorter(deps).prepare()
    except CycleError:
        return True
    return False


def build_mgcarg(
    framework: CabaFramework, max_depth: int = DEFAULT_MAX_DEPTH
) -> list[ConstrainedArgument]:
    """All most general constrained arguments, one canonical
    representative per renaming class, in deterministic order."""
    framework.check_valid()
    fw = framework.normalise()
    cyclic = _dependency_cyclic(fw)
    depth_cap = max_depth if cyclic else None
    out: list[ConstrainedArgument] = []
    seen: set[tuple] = set()
    truncated = False

    sig = fw.signatures()
    rules_by_head: dict[str, list[Rule]] = {}
    for r in fw.rules:
        rules_by_head.setdefault(r.head.predicate, []).append(r)

    for pred in sorted(fw.assumption_predicates):
        if pred == fw.bogus_assumption:
            continue
        fresh = _Fresh()
        atom = Atom(pred, tuple(LinearTerm.variable(v) for v in fresh.tuple(sig[pred])))
        arg = ConstrainedArgument(
            f"assume:{pred}", atom, frozenset(), frozenset({atom}), frozenset()
        )
        out.append(arg)
        seen.add(_key(arg))

    for pred in sorted(rules_by_head):
        fresh = _Fresh()
        goal_vars = fresh.tuple(sig[pred])
        goal = Atom(pred, tuple(LinearTerm.variable(v) for v in goal_vars))
        n = 0
        for found in _derive(
            goal, rules_by_head, fw.assumption_predicates, fresh, depth_cap
        ):
            if found is None:
                truncated = True
                continue
            constraints, assumptions, rules = found
            n += 1
            arg = canonicalise(
                ConstrainedArgument(
                    f"{pred}:{n}", goal, constraints, assumptions, rules
                ),
                fresh.order,
            )
            key = _key(arg)
            if key not in seen:
                seen.add(key)
                out.append(arg)
    if truncated:
        raise DepthExceeded(
            f"backward chaining exceeded depth {max_depth} on a recursive "
            "rule dependency; results are incomplete",
            partial=out,
        )
    return out


def _key(arg: ConstrainedArgument) -> tuple:
    return (arg.claim, arg.constraints, arg.assumptions, arg.rules_used)


def _derive(
    goal: Atom,
    rules_by_head: dict[str, list[Rule]],
    assumption_preds: frozenset[str],
    fresh: _Fresh,
    depth_cap: int | None,
) -> Iterator[tuple | None]:
    """Yield (constraints, assumptions, rules) for each complete
    derivation of ``goal``, depth first and in rule order; yield None
    where the depth cap cuts a branch.

    The stack holds (goals, constraints, assumptions, rules, depth)
    states.  A popped state takes its leading assumption goals into its
    assumptions, then expands its first derived goal by each rule that
    keeps the constraints consistent; the new states are pushed in
    reverse, so that the first rule's state is popped first.
    """
    stack = [((goal,), frozenset(), frozenset(), frozenset(), 0)]
    while stack:
        goals, constraints, assumptions, rules, depth = stack.pop()
        i = 0
        while i < len(goals) and goals[i].predicate in assumption_preds:
            i += 1
        assumptions = assumptions.union(goals[:i])
        if i == len(goals):
            yield constraints, assumptions, rules
            continue
        if depth_cap is not None and depth >= depth_cap:
            yield None
            continue
        goal, rest = goals[i], goals[i + 1 :]
        expanded = []
        for rule in rules_by_head.get(goal.predicate, ()):
            renaming = {v: fresh.var() for v in sorted(rule.vars())}
            head = rule.head.rename(renaming)
            # normalised head args are distinct variables: bind them to
            # the goal's terms directly
            binding = {
                t.coeffs[0][0]: g for t, g in zip(head.args, goal.args)
            }
            new_constraints = constraints | {
                c.rename(renaming).substitute(binding)
                for c in rule.body_constraints
            }
            if not is_consistent(new_constraints):
                continue
            body = tuple(
                a.rename(renaming).substitute(binding) for a in rule.body_atoms
            )
            expanded.append(
                (body + rest, new_constraints, assumptions, rules | {rule.id},
                 depth + 1)
            )
        stack.extend(reversed(expanded))


# ----------------------------------------------------------- instances


def constrained_instance(
    arg: ConstrainedArgument,
    subst: Mapping[str, LinearTerm],
    extra: Iterable[LinearConstraint] = (),
) -> ConstrainedArgument:
    constraints = frozenset(
        c.substitute(subst) for c in arg.constraints
    ) | frozenset(extra)
    if not is_consistent(constraints):
        raise InconsistentInstance(
            f"instantiating {arg.id} produced an inconsistent constraint set"
        )
    return ConstrainedArgument(
        f"{arg.id}'",
        arg.claim.substitute(subst),
        constraints,
        frozenset(a.substitute(subst) for a in arg.assumptions),
        arg.rules_used,
    )


def generalise_claim(
    arg: ConstrainedArgument, assumption: Atom | None = None
) -> ConstrainedArgument:
    """Replace the claim's argument tuple (or a designated assumption's)
    by fresh distinct variables, constrained equal to the old terms."""
    target = arg.claim if assumption is None else assumption
    fresh = _fresh_names(set(arg.vars()))
    new_atom = Atom(
        target.predicate, tuple(LinearTerm.variable(next(fresh)) for _ in target.args)
    )
    eqs = frozenset(_equate(new_atom.args, target.args))
    if assumption is None:
        return ConstrainedArgument(
            arg.id, new_atom, arg.constraints | eqs, arg.assumptions, arg.rules_used
        )
    assumptions = (arg.assumptions - {assumption}) | {new_atom}
    return ConstrainedArgument(
        arg.id, arg.claim, arg.constraints | eqs, assumptions, arg.rules_used
    )


def ground_instances(
    arg: ConstrainedArgument, universe: Iterable[Fraction]
) -> set[GroundArgument]:
    """All groundings of the argument's variables over the universe
    whose constraints evaluate true; ground constraints discarded."""
    uni = sorted(set(Fraction(u) for u in universe))
    if not uni:
        raise ValueError("universe must be non-empty")
    out: set[GroundArgument] = set()
    for _, subst in _groundings(arg.vars(), arg.constraints, uni):
        out.add(
            GroundArgument(
                _eval_atom(arg.claim, subst),
                frozenset(_eval_atom(a, subst) for a in arg.assumptions),
                arg.rules_used,
            )
        )
    return out


def _groundings(
    variables: Iterable[str],
    constraints: Iterable[LinearConstraint],
    uni: Sequence[Fraction],
) -> Iterator[tuple[tuple[Fraction, ...], dict[str, LinearTerm]]]:
    """(values, substitution) for each assignment of the universe's
    points to the sorted variables under which every constraint holds."""
    vs = sorted(variables)
    for values in product(uni, repeat=len(vs)):
        subst = {v: LinearTerm.constant(q) for v, q in zip(vs, values)}
        if all(c.substitute(subst).eval_ground() for c in constraints):
            yield values, subst


def _eval_atom(atom: Atom, subst: Mapping[str, LinearTerm]) -> Atom:
    return Atom(
        atom.predicate,
        tuple(LinearTerm.constant(t.substitute(subst).value()) for t in atom.args),
    )
