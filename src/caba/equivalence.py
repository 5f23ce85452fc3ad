"""Denotation-based comparison of constrained arguments.

An argument denotes the set of its ground instances: pairs of a ground
claim atom and a ground assumption *set*.  Because assumption sets
collapse equal atoms, one argument with several same-predicate
assumptions denotes instances of several shapes (one per way of merging
the atoms).  All comparisons here — common instances, instance
disjointness, and set equivalence — reduce arguments to regions over a
canonical tuple of slot variables, one region family per shape, and
compare the regions with exact constraint reasoning.

``_sharing_pairs`` is the one instance-sharing scan: common instances,
instance disjointness and the splitting loop all read it.
Non-overlap reads the one attack relation, ``attacks.attack_edges``.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterable, Iterator, Mapping, Sequence

from .arguments import ConstrainedArgument
from .attacks import attack_edges
from .constraints import (
    LinearConstraint,
    LinearTerm,
    _conj_consistent,
    _covers,
    _difference,
    _equate,
    _simplify,
    is_consistent,
    project,
)
from .errors import CardinalityLimit
from .framework import Atom

MAX_SAME_PREDICATE = 4

# A shape identifies which ground instances two regions can share:
# the claim predicate and, per assumption predicate, how many distinct
# atoms the instance carries.
ShapeKey = tuple[str, tuple[tuple[str, int, int], ...]]

Region = frozenset[LinearConstraint]
Denotation = dict[ShapeKey, list[Region]]


def _claim_slots(arity: int) -> tuple[str, ...]:
    return tuple(f"_c{i}" for i in range(arity))


def _atom_slots(pred: str, block: int, arity: int) -> tuple[str, ...]:
    return tuple(f"_s_{pred}_{block}_{i}" for i in range(arity))


def _partitions(items: list) -> Iterable[list[list]]:
    """All set partitions, deterministic order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def denotation(arg: ConstrainedArgument) -> Denotation:
    """Regions over canonical slot variables, grouped by shape.

    Within a shape, regions may overlap; unions are what is compared.
    """
    by_pred: dict[str, list[Atom]] = {}
    for a in sorted(arg.assumptions, key=Atom.render):
        by_pred.setdefault(a.predicate, []).append(a)
    for pred, atoms in by_pred.items():
        if len(atoms) > MAX_SAME_PREDICATE:
            raise CardinalityLimit(
                f"{len(atoms)} assumption atoms with predicate {pred} "
                f"exceed the exact-pairing limit of {MAX_SAME_PREDICATE}"
            )
    preds = sorted(by_pred)
    claim_arity = len(arg.claim.args)
    cslots = _claim_slots(claim_arity)
    claim_eqs = _equate(map(LinearTerm.variable, cslots), arg.claim.args)

    out: Denotation = {}
    for combo in product(*(_partitions(by_pred[p]) for p in preds)):
        base = set(arg.constraints) | set(claim_eqs)
        for blocks in combo:
            for block in blocks:
                rep = block[0]
                for other in block[1:]:
                    base.update(_equate(rep.args, other.args))
        if not is_consistent(base):
            continue
        shape: ShapeKey = (
            arg.claim.predicate,
            tuple(
                (p, len(blocks), len(by_pred[p][0].args))
                for p, blocks in zip(preds, combo)
            ),
        )
        keep = set(cslots)
        for p, blocks in zip(preds, combo):
            arity = len(by_pred[p][0].args)
            for j in range(len(blocks)):
                keep.update(_atom_slots(p, j, arity))
        # distinctness between blocks of one predicate: at least one
        # coordinate differs, expanded by choosing the coordinate
        diseq_pairs: list[tuple[Atom, Atom]] = []
        for p, blocks in zip(preds, combo):
            for i in range(len(blocks)):
                for j in range(i + 1, len(blocks)):
                    diseq_pairs.append((blocks[i][0], blocks[j][0]))
        coord_choices = product(
            *(range(len(x.args)) for x, _ in diseq_pairs)
        ) if diseq_pairs else [()]
        for perm_combo in product(
            *(permutations(range(len(blocks))) for blocks in combo)
        ):
            slot_eqs: list[LinearConstraint] = []
            for p, blocks, perm in zip(preds, combo, perm_combo):
                arity = len(by_pred[p][0].args)
                for j, which in enumerate(perm):
                    slots = map(LinearTerm.variable, _atom_slots(p, j, arity))
                    slot_eqs.extend(_equate(slots, blocks[which][0].args))
            for choice in coord_choices:
                full = set(base) | set(slot_eqs)
                for (x, y), coord in zip(diseq_pairs, choice):
                    full.add(
                        LinearConstraint.make(x.args[coord], "!=", y.args[coord])
                    )
                if not is_consistent(full):
                    continue
                for region in project(full, keep).disjuncts:
                    out.setdefault(shape, []).append(region)
    return out


def shape_atoms(shape: ShapeKey, claim_arity: int) -> tuple[Atom, tuple[Atom, ...]]:
    """Rebuild the canonical claim and assumption atoms of a shape."""
    claim_pred, groups = shape
    claim = Atom(
        claim_pred,
        tuple(LinearTerm.variable(v) for v in _claim_slots(claim_arity)),
    )
    assumptions = []
    for p, nblocks, arity in groups:
        for j in range(nblocks):
            assumptions.append(
                Atom(p, tuple(LinearTerm.variable(v) for v in _atom_slots(p, j, arity)))
            )
    return claim, tuple(assumptions)


# ------------------------------------------------------------ predicates


def _sharing_pairs(denos: Sequence[Denotation]) -> Iterator[tuple[int, int]]:
    """Index pairs i < j, in order, whose denotations share a ground
    instance.  Callers compute each denotation once per scan."""
    for i, di in enumerate(denos):
        for j in range(i + 1, len(denos)):
            dj = denos[j]
            if any(
                is_consistent(r | other)
                for shape, regions in di.items()
                for other in dj.get(shape, ())  # regions over identical slots
                for r in regions
            ):
                yield i, j


def common_instances(a: ConstrainedArgument, b: ConstrainedArgument) -> bool:
    """Do the two arguments share a ground instance?"""
    return any(_sharing_pairs([denotation(a), denotation(b)]))


def instance_disjoint(args: Iterable[ConstrainedArgument]) -> bool:
    # every denotation is taken, so an argument beyond the exact-pairing
    # limit raises CardinalityLimit even when it has no partner
    return not any(_sharing_pairs([denotation(a) for a in args]))


def non_overlapping(
    args: Iterable[ConstrainedArgument], contraries: Mapping[str, str]
) -> bool:
    """Within the set, every partial attack is full."""
    pool = list(args)
    return all(kind == "full" for *_, kind in attack_edges(pool, pool, contraries))


def set_equiv(
    gamma: Iterable[ConstrainedArgument],
    delta: Iterable[ConstrainedArgument],
) -> bool:
    return set_equiv_witness(gamma, delta) is None


def set_equiv_witness(
    gamma: Iterable[ConstrainedArgument],
    delta: Iterable[ConstrainedArgument],
) -> str | None:
    """None when the two sets denote the same ground instances,
    otherwise a description of a region covered by one side only."""
    left: Denotation = {}
    right: Denotation = {}
    for a in gamma:
        for shape, regions in denotation(a).items():
            left.setdefault(shape, []).extend(regions)
    for a in delta:
        for shape, regions in denotation(a).items():
            right.setdefault(shape, []).extend(regions)
    for shape in sorted(set(left) | set(right)):
        lr = [r for r in left.get(shape, []) if _conj_consistent(r)]
        rr = [r for r in right.get(shape, []) if _conj_consistent(r)]
        if not _covers(rr, lr):
            return _describe(shape, "first set only", lr, rr)
        if not _covers(lr, rr):
            return _describe(shape, "second set only", rr, lr)
    return None


def _describe(
    shape: ShapeKey, side: str, regions: list[Region], cover: list[Region]
) -> str:
    for r in regions:
        rest = _difference([r], cover)
        if rest:
            simplified = _simplify(rest[0])
            body = ", ".join(
                c.render() for c in sorted(simplified, key=LinearConstraint.sort_key)
            )
            return f"shape {shape}: region {{{body}}} held by {side}"
    return f"shape {shape}: coverage differs ({side})"
