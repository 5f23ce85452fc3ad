"""Argument splitting: repair a set into instance-disjoint,
non-overlapping form while preserving its denotation.

Two repairs exist.  ``split_ci`` removes from one argument the region
it shares with another (the survivor keeps the overlap).  ``split_pa``
cuts an argument attacked only partially into a piece that is fully
attacked and pieces that are not attacked at all.
``argument_splitting`` rescans every pair of the pool after each repair
and applies the least violating one until none remains.  An argument
never changes, so each pair's result is memoised for the run and a
rescan computes only the pairs with a new piece.
"""

from __future__ import annotations

from functools import cache
from itertools import count
from typing import Iterable, Mapping

from .arguments import ConstrainedArgument, canonicalise
from .attacks import _aligned_pair, attack_edges, partially_attacks
from .constraints import (
    LinearConstraint,
    _conj_consistent,
    _difference,
    _exclusive,
    constraint_split,
    project,
)
from .equivalence import Denotation, _sharing_pairs, denotation, shape_atoms
from .errors import IterationLimit, PreconditionViolated
from .framework import Atom

# perfbench/tracing.py wraps these names in this module
from .attacks import fully_attacks  # noqa: F401
from .equivalence import common_instances  # noqa: F401

DEFAULT_MAX_ITERS = 10_000


def split_ci(
    a: ConstrainedArgument, b: ConstrainedArgument
) -> list[ConstrainedArgument]:
    """Replace b by pieces sharing no instance with a or each other."""
    da, db = denotation(a), denotation(b)
    if not any(_sharing_pairs([da, db])):
        raise PreconditionViolated(
            f"{a.id} and {b.id} have no common constrained instances"
        )
    out: list[ConstrainedArgument] = []
    k = 0
    for shape in sorted(db):
        regions = _difference(_exclusive(db[shape]), da.get(shape, ()))
        claim, assumption_atoms = shape_atoms(shape, len(b.claim.args))
        for region in regions:
            k += 1
            piece = ConstrainedArgument(
                f"{b.id}.{k}",
                claim,
                region,
                frozenset(assumption_atoms),
                b.rules_used,
            )
            out.append(canonicalise(piece, sorted(piece.vars())))
    return out


def _attack_witness(
    a: ConstrainedArgument,
    b: ConstrainedArgument,
    contraries: Mapping[str, str],
) -> Atom | None:
    """The assumption on which a partially but not fully attacks b,
    else the first partially attacked one."""
    fallback = None
    for _, _, atom, kind in attack_edges([a], [b], contraries):
        if kind == "partial":
            return atom
        fallback = fallback or atom
    return fallback


def split_pa(
    a: ConstrainedArgument,
    b: ConstrainedArgument,
    contraries: Mapping[str, str],
    assumption: Atom | None = None,
) -> list[ConstrainedArgument]:
    """Cut b along a's attack region on the matched assumption: the
    fully attacked remainder first, then the unattacked pieces."""
    atom = assumption or _attack_witness(a, b, contraries)
    if atom is None or not partially_attacks(a, b, contraries, atom):
        raise PreconditionViolated(f"{a.id} does not partially attack {b.id}")
    c, d, shared = _aligned_pair(a, b, atom)
    keep = b.atom_vars()

    regions: list[frozenset[LinearConstraint]] = []
    # fully attacked remainder: joint region of attack and target
    joint = c | d
    if _conj_consistent(joint):
        regions.extend(project(joint, keep).disjuncts)
    # unattacked pieces: target region outside the attack's projection
    for piece in constraint_split(c, d, shared).disjuncts:
        regions.extend(project(piece, keep).disjuncts)

    out = []
    for k, region in enumerate(regions, start=1):
        piece = ConstrainedArgument(
            f"{b.id}.{k}", b.claim, region, b.assumptions, b.rules_used
        )
        out.append(canonicalise(piece, sorted(piece.vars())))
    return out


class SplitBasis(list):
    """The repaired arguments in pool order, with ``attacks``: the full
    attacks among them as (attacker id, target id) pairs.  The repair
    loop stops only when no pair shares an instance and no attack is
    partial, so ``attacks`` is the whole attack matrix of the basis."""

    def __init__(
        self,
        args: Iterable[ConstrainedArgument],
        attacks: frozenset[tuple[str, str]],
    ):
        super().__init__(args)
        self.attacks = attacks


def argument_splitting(
    args: Iterable[ConstrainedArgument],
    contraries: Mapping[str, str],
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SplitBasis:
    """Repair until instance-disjoint and non-overlapping; denotation
    preserving.  Every repair is followed by a rescan of the whole pool:
    sharing pairs first, attack pairs only once no pair shares, and the
    least violating pair by ids (ties to pool order) is repaired next.
    Pair results are memoised for the run, keyed by each argument's
    serial, so a rescan computes only the pairs with a new piece.
    ``max_iters`` bounds the repairs, not the checks: a compliant set
    passes with 0."""
    seen = list(args)  # every argument of the run, indexed by serial
    pool = list(range(len(seen)))

    @cache
    def deno(s: int) -> Denotation:
        return denotation(seen[s])

    # asked only for pairs with equal claim predicates, in pool order
    @cache
    def sharing(s: int, t: int) -> bool:
        return any(_sharing_pairs([deno(s), deno(t)]))

    @cache
    def attacks(s: int, t: int) -> tuple[tuple[Atom, str], ...]:
        edges = attack_edges([seen[s]], [seen[t]], contraries)
        return tuple((atom, kind) for _, _, atom, kind in edges)

    def ids(pair) -> tuple[str, str]:
        return seen[pair[0]].id, seen[pair[1]].id

    for repairs in count():
        # a ci repair replaces the pair's second argument in render order
        ci = [
            sorted((s, t), key=lambda k: seen[k].render())
            for i, s in enumerate(pool)
            for t in pool[i + 1 :]
            if seen[s].claim.predicate == seen[t].claim.predicate and sharing(s, t)
        ]
        pa = [] if ci else [
            (s, t, atom)
            for s in pool
            for t in pool
            for atom, kind in attacks(s, t)
            if kind == "partial"
        ]
        if not ci and not pa:
            break
        if repairs == max_iters:
            raise IterationLimit(
                f"argument splitting did not converge within {max_iters} repairs",
                partial=[seen[s] for s in pool],
            )
        if ci:
            s, t = min(ci, key=ids)
            pieces = split_ci(seen[s], seen[t])
        else:
            s, t, atom = min(pa, key=ids)
            pieces = split_pa(seen[s], seen[t], contraries, atom)
        pool.remove(t)
        pool.extend(range(len(seen), len(seen) + len(pieces)))
        seen.extend(pieces)
    full = frozenset(
        ids((s, t))
        for s in pool
        for t in pool
        if any(kind == "full" for _, kind in attacks(s, t))
    )
    return SplitBasis((seen[s] for s in pool), full)
