"""Argument splitting: repair a set into instance-disjoint,
non-overlapping form while preserving its denotation.

Two repairs exist.  ``split_ci`` removes from one argument the region
it shares with another (the survivor keeps the overlap).  ``split_pa``
cuts an argument attacked only partially into a piece that is fully
attacked and pieces that are not attacked at all.  The repair loop
applies them until no violating pair remains.
"""

from __future__ import annotations

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
from .equivalence import (
    Denotation,
    _sharing_pairs,
    common_instances,
    denotation,
    shape_atoms,
)
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


class _Worklist:
    """One run's pool and its memo of pair results.

    Arguments are keyed by serial number, in pool order.  An argument
    never changes, so the result for a pair holds until one of the two
    is replaced; a repair drops the replaced argument's entries and only
    the pairs with a new piece are taken.
    """

    def __init__(
        self, args: Iterable[ConstrainedArgument], contraries: Mapping[str, str]
    ):
        self.contraries = contraries
        self.pool: dict[int, ConstrainedArgument] = {}
        self.claims: dict[str, list[int]] = {}  # serials by claim predicate
        self.denos: dict[int, Denotation] = {}
        # sharing pairs ordered by render: a ci repair replaces the second
        self.sharing: set[tuple[int, int]] = set()
        self.unscanned: set[int] = set()  # attack pairs not yet taken
        self.partial: dict[tuple[int, int], Atom] = {}  # first partial atom
        self.full: set[tuple[int, int]] = set()
        self.serials = count()
        self.admit(args)

    def admit(self, args: Iterable[ConstrainedArgument]) -> None:
        new = []
        for arg in args:
            s = next(self.serials)
            self.pool[s] = arg
            self.claims.setdefault(arg.claim.predicate, []).append(s)
            new.append(s)
        self.unscanned.update(new)
        # only arguments with equal claim predicates can share an instance
        for s, arg in self.pool.items():
            if s not in self.denos and len(self.claims[arg.claim.predicate]) > 1:
                self.denos[s] = denotation(arg)
        for s in new:
            for t in self.claims[self.pool[s].claim.predicate]:
                if t < s and any(_sharing_pairs([self.denos[t], self.denos[s]])):
                    a, b = sorted((t, s), key=lambda k: self.pool[k].render())
                    self.sharing.add((a, b))

    def drop(self, s: int) -> None:
        arg = self.pool.pop(s)
        self.claims[arg.claim.predicate].remove(s)
        self.denos.pop(s, None)
        self.unscanned.discard(s)
        self.sharing = {k for k in self.sharing if s not in k}
        self.partial = {k: v for k, v in self.partial.items() if s not in k}
        self.full = {k for k in self.full if s not in k}

    def scan_attacks(self) -> None:
        """Take the attack edges of every ordered pair with an unscanned
        member.  Runs only once no pair shares an instance, so pieces a
        ci repair replaces never get edges."""
        fresh, self.unscanned = self.unscanned, set()
        for a, x in self.pool.items():
            for b, y in self.pool.items():
                if a not in fresh and b not in fresh:
                    continue
                for _, _, atom, kind in attack_edges([x], [y], self.contraries):
                    if kind == "full":
                        self.full.add((a, b))
                    else:
                        self.partial.setdefault((a, b), atom)

    def violation(self):
        """The next repair: a sharing pair before a partial attack, the
        least pair by ids (ties to the earlier arguments)."""
        ids = {s: arg.id for s, arg in self.pool.items()}
        if self.sharing:
            a, b = min(self.sharing, key=lambda k: (ids[k[0]], ids[k[1]], sorted(k)))
            return "ci", a, b, None
        self.scan_attacks()
        if self.partial:
            a, b = min(self.partial, key=lambda k: (ids[k[0]], ids[k[1]], k))
            return "pa", a, b, self.partial[a, b]
        return None

    def repair(self, kind: str, a: int, b: int, atom: Atom | None) -> None:
        x, y = self.pool[a], self.pool[b]
        if kind == "ci":
            pieces = split_ci(x, y)
        else:
            pieces = split_pa(x, y, self.contraries, atom)
        self.drop(b)
        self.admit(pieces)


def argument_splitting(
    args: Iterable[ConstrainedArgument],
    contraries: Mapping[str, str],
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SplitBasis:
    """Repair until instance-disjoint and non-overlapping; denotation
    preserving.  Common-instance repairs run before attack repairs;
    pairs are processed in canonical order.  ``max_iters`` bounds the
    repairs, not the checks: a compliant set passes with 0."""
    run = _Worklist(args, contraries)
    repairs = 0
    while (step := run.violation()) is not None:
        if repairs >= max_iters:
            raise IterationLimit(
                f"argument splitting did not converge within {max_iters} repairs",
                partial=list(run.pool.values()),
            )
        run.repair(*step)
        repairs += 1
    full = frozenset((run.pool[a].id, run.pool[b].id) for a, b in run.full)
    return SplitBasis(run.pool.values(), full)
