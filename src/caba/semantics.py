"""Extension enumeration over a split argument basis.

Enumeration relies on the basis being instance-disjoint and
non-overlapping, so that full attacks carry the complete conflict
structure: conflict-free sets have no internal full attack, admissible
sets counter every full attacker, and stable sets fully attack all
outsiders.  A native check for stability without enumeration is also
provided: a set is stable when it is conflict-free (no partial attack)
and, together with everything it fully attacks, denotes the whole
argument set.  All attacks are read from the one attack relation,
``attacks.attack_edges``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .arguments import ConstrainedArgument
from .attacks import attack_edges
from .equivalence import instance_disjoint, set_equiv
from .errors import BasisNotCompliant

# perfbench/tracing.py wraps these names in this module
from .attacks import fully_attacks  # noqa: F401
from .equivalence import non_overlapping  # noqa: F401

SEMANTICS = ("conflict_free", "admissible", "stable")


@dataclass(frozen=True)
class Extension:
    members: frozenset[str]
    semantics: str
    basis: tuple[str, ...]

    def to_object(self) -> dict:
        return {
            "members": sorted(self.members),
            "semantics": self.semantics,
        }


def is_ngcf(
    sigma: Iterable[ConstrainedArgument], contraries: Mapping[str, str]
) -> bool:
    """Conflict-free in the strong sense: no internal partial attack."""
    pool = list(sigma)
    return not any(attack_edges(pool, pool, contraries))


def fatt(
    sigma: Iterable[ConstrainedArgument],
    delta: Iterable[ConstrainedArgument],
    contraries: Mapping[str, str],
) -> list[ConstrainedArgument]:
    """Members of delta fully attacked by some member of sigma."""
    pool = list(sigma)
    return [
        b
        for b in delta
        if any(kind == "full" for *_, kind in attack_edges(pool, [b], contraries))
    ]


def check_stable_native(
    sigma: Iterable[ConstrainedArgument],
    delta: Iterable[ConstrainedArgument],
    contraries: Mapping[str, str],
) -> bool:
    sigma = list(sigma)
    delta = list(delta)
    if not is_ngcf(sigma, contraries):
        return False
    return set_equiv(sigma + fatt(sigma, delta, contraries), delta)


def _full_attacks(
    basis: list[ConstrainedArgument], contraries: Mapping[str, str]
) -> set[tuple[str, str]]:
    """The full attacks of a basis as (attacker id, target id) pairs,
    once the basis is checked instance-disjoint and non-overlapping."""
    if not instance_disjoint(basis):
        raise BasisNotCompliant("basis is not instance-disjoint")
    out = set()
    for a, b, _, kind in attack_edges(basis, basis, contraries):
        if kind == "partial":
            raise BasisNotCompliant("basis is not non-overlapping")
        out.add((a.id, b.id))
    return out


def enumerate_extensions(
    delta: Iterable[ConstrainedArgument],
    semantics: str,
    contraries: Mapping[str, str],
    attacks: Iterable[tuple[str, str]] | None = None,
) -> list[Extension]:
    """All subsets of the basis accepted under the given semantics.

    ``attacks`` is the basis's full-attack matrix as (attacker id,
    target id) pairs, as ``argument_splitting`` returns it with the
    basis (``SplitBasis.attacks``): the repair loop stops only on a
    compliant basis, so the check is not repeated.  Without it the basis
    is checked and its attacks are computed here.
    """
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}")
    basis = sorted(delta, key=lambda a: a.id)
    if attacks is None:
        attacks = _full_attacks(basis, contraries)

    n = len(basis)
    index = {a.id: i for i, a in enumerate(basis)}
    matrix: list[set[int]] = [set() for _ in range(n)]
    for a, b in attacks:
        matrix[index[a]].add(index[b])
    attacked_by = [
        [i for i in range(n) if j in matrix[i]] for j in range(n)
    ]
    out: list[Extension] = []
    ids = tuple(a.id for a in basis)

    def accept(chosen: frozenset[int]) -> bool:
        if semantics == "conflict_free":
            return True
        if semantics == "admissible":
            return all(
                any(b in matrix[g] for g in chosen)
                for m in chosen
                for b in attacked_by[m]
            )
        return all(
            any(j in matrix[g] for g in chosen)
            for j in range(n)
            if j not in chosen
        )

    def search(i: int, chosen: set[int]):
        if i == n:
            frozen = frozenset(chosen)
            if accept(frozen):
                out.append(
                    Extension(
                        frozenset(ids[k] for k in frozen), semantics, ids
                    )
                )
            return
        search(i + 1, chosen)  # exclude basis[i]
        # include basis[i] unless it conflicts with the current choice
        if all(
            i not in matrix[g] and g not in matrix[i] for g in chosen
        ) and i not in matrix[i]:
            chosen.add(i)
            search(i + 1, chosen)
            chosen.remove(i)

    search(0, set())
    out.sort(key=lambda e: (len(e.members), sorted(e.members)))
    return out
