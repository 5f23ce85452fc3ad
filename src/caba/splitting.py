"""Argument splitting: repair a set into instance-disjoint,
non-overlapping form while preserving its denotation.

Two repairs exist.  ``split_ci`` removes from one argument the region
it shares with another (the survivor keeps the overlap).  ``split_pa``
cuts an argument attacked only partially into a piece that is fully
attacked and pieces that are not attacked at all.  The repair loop
applies them until no violating pair remains.
"""

from __future__ import annotations

from collections import Counter
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
from .equivalence import _sharing_pairs, common_instances, denotation, shape_atoms
from .errors import IterationLimit, PreconditionViolated
from .framework import Atom

# perfbench/tracing.py wraps this name in this module
from .attacks import fully_attacks  # noqa: F401

DEFAULT_MAX_ITERS = 10_000


def split_ci(
    a: ConstrainedArgument, b: ConstrainedArgument
) -> list[ConstrainedArgument]:
    """Replace b by pieces sharing no instance with a or each other."""
    if not common_instances(a, b):
        raise PreconditionViolated(
            f"{a.id} and {b.id} have no common constrained instances"
        )
    da, db = denotation(a), denotation(b)
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


def argument_splitting(
    args: Iterable[ConstrainedArgument],
    contraries: Mapping[str, str],
    max_iters: int = DEFAULT_MAX_ITERS,
) -> list[ConstrainedArgument]:
    """Repair until instance-disjoint and non-overlapping; denotation
    preserving.  Common-instance repairs run before attack repairs;
    pairs are processed in canonical order."""
    pool = list(args)
    for _ in range(max_iters):
        step = _first_violation(pool, contraries)
        if step is None:
            return pool
        kind, a, b, atom = step
        pool = [x for x in pool if x is not b]
        if kind == "ci":
            pool.extend(split_ci(a, b))
        else:
            pool.extend(split_pa(a, b, contraries, atom))
    raise IterationLimit(
        f"argument splitting did not converge within {max_iters} repairs",
        partial=pool,
    )


def _first_violation(
    pool: list[ConstrainedArgument], contraries: Mapping[str, str]
):
    # only arguments with equal claim predicates can share an instance
    claims = Counter(x.claim.predicate for x in pool)
    denos = [denotation(x) if claims[x.claim.predicate] > 1 else {} for x in pool]
    # the lexicographically larger rendering is replaced
    ci_pairs = [
        sorted((pool[i], pool[j]), key=ConstrainedArgument.render)
        for i, j in _sharing_pairs(denos)
    ]
    if ci_pairs:
        alpha, beta = min(ci_pairs, key=lambda t: (t[0].id, t[1].id))
        return ("ci", alpha, beta, None)
    pa_edges = [
        (a, b, atom)
        for a, b, atom, kind in attack_edges(pool, pool, contraries)
        if kind == "partial"
    ]
    if pa_edges:
        a, b, atom = min(pa_edges, key=lambda t: (t[0].id, t[1].id))
        return ("pa", a, b, atom)
    return None
