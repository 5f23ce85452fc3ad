import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import caba.equivalence
import caba.splitting
from caba.arguments import ConstrainedArgument, build_mgcarg
from caba.attacks import attack_edges, fully_attacks, partially_attacks
from caba.constraints import LinearTerm, constraint
from caba.equivalence import (
    _sharing_pairs,
    common_instances,
    denotation,
    instance_disjoint,
    non_overlapping,
    set_equiv,
)
from caba.errors import IterationLimit, PreconditionViolated
from caba.framework import Atom
from caba.parser import parse, parse_file
from caba.splitting import argument_splitting, split_ci, split_pa

from generators import random_argument, random_bounded_framework

CORPUS = Path(__file__).parent.parent / "src" / "caba" / "corpus"
V = LinearTerm.variable
C = LinearTerm.constant


def mk(name, claim, cons, assums):
    return ConstrainedArgument(
        name, claim, frozenset(cons), frozenset(assums), frozenset()
    )


def region(arg):
    return {c.render() for c in arg.constraints}


class TestSplitCi:
    def test_absorbed(self):
        a = mk("a", Atom("p", (V("X"),)), [constraint(V("X"), ">", C(0))], [])
        b = mk("b", Atom("p", (V("X"),)), [constraint(V("X"), ">", C(3))], [])
        assert split_ci(a, b) == []

    def test_half_open_remainder(self):
        a = mk("a", Atom("p", (V("X"),)), [constraint(V("X"), ">=", C(0))], [])
        b = mk("b", Atom("p", (V("X"),)), [constraint(V("X"), "<=", C(0))], [])
        (piece,) = split_ci(a, b)
        assert region(piece) == {"V0 < 0"}
        assert set_equiv([a, b], [a, piece])

    def test_identical_regions(self):
        a = mk("a", Atom("p", (V("X"),)), [constraint(V("X"), "=", C(0))], [])
        b = mk("b", Atom("p", (V("X"),)), [constraint(V("X"), "=", C(0))], [])
        assert split_ci(a, b) == []

    def test_requires_common_instance(self):
        a = mk("a", Atom("p", (V("X"),)), [constraint(V("X"), ">", C(0))], [])
        b = mk("b", Atom("p", (V("X"),)), [constraint(V("X"), "<", C(0))], [])
        with pytest.raises(PreconditionViolated):
            split_ci(a, b)

    def test_takes_each_denotation_once(self, monkeypatch):
        calls = []
        for module in (caba.splitting, caba.equivalence):
            real = module.denotation
            monkeypatch.setattr(
                module, "denotation", lambda x, real=real: calls.append(x) or real(x)
            )
        a = mk("a", Atom("p", (V("X"),)), [constraint(V("X"), ">=", C(0))], [])
        b = mk("b", Atom("p", (V("X"),)), [constraint(V("X"), "<=", C(0))], [])
        split_ci(a, b)
        assert len(calls) == 2

    def test_outputs_disjoint_from_attacker_and_each_other(self):
        rng = random.Random(43)
        for _ in range(25):
            a = random_argument(rng)
            b = random_argument(rng)
            if not common_instances(a, b):
                continue
            pieces = split_ci(a, b)
            pool = [a, *pieces]
            assert instance_disjoint(pool)


class TestSplitPa:
    def fixtures(self):
        fw = parse_file(CORPUS / "cpcq.caba")
        return fw, {x.id: x for x in build_mgcarg(fw)}

    def test_cq_pieces(self):
        fw, byid = self.fixtures()
        pieces = split_pa(byid["cp:1"], byid["cq:1"], fw.contrary_map)
        regions = [region(p) for p in pieces]
        assert sorted(regions, key=sorted) == sorted(
            [{"V0 = 0"}, {"V0 < 0"}], key=sorted
        )
        for p in pieces:
            assert {x.predicate for x in p.assumptions} == {"p"}
            assert p.claim.predicate == "cq"

    def test_assumption_three_way_cut(self):
        fw, byid = self.fixtures()
        pieces = split_pa(byid["cp:1"], byid["assume:p"], fw.contrary_map)
        got = [region(p) for p in pieces]
        assert sorted(got, key=sorted) == sorted(
            [{"0 <= V0"}, {"V0 < 0"}], key=sorted
        )

    def test_fully_attacked_piece_and_clean_remainder(self):
        fw, byid = self.fixtures()
        a = byid["cp:1"]
        pieces = split_pa(a, byid["cq:1"], fw.contrary_map)
        attacked = [p for p in pieces if fully_attacks(a, p, fw.contrary_map)]
        clean = [p for p in pieces if not partially_attacks(a, p, fw.contrary_map)]
        assert len(attacked) == 1 and len(clean) == len(pieces) - 1

    def test_already_full_attack_keeps_whole_region(self):
        avoid = mk("a", Atom("ca", (V("X"),)), [], [])
        target = mk(
            "b",
            Atom("p", (V("X"),)),
            [constraint(V("X"), ">", C(0))],
            [Atom("z", (V("X"),))],
        )
        contraries = {"z": "ca"}
        assert fully_attacks(avoid, target, contraries)
        pieces = split_pa(avoid, target, contraries)
        assert set_equiv(pieces, [target])

    def test_requires_partial_attack(self):
        fw, byid = self.fixtures()
        with pytest.raises(PreconditionViolated):
            split_pa(byid["r:1"], byid["s:1"], fw.contrary_map)

    def test_step_preserves_set_equiv(self):
        fw, byid = self.fixtures()
        pool = list(byid.values())
        a, b = byid["cp:1"], byid["cq:1"]
        pieces = split_pa(a, b, fw.contrary_map)
        repaired = [x for x in pool if x is not b] + pieces
        assert set_equiv(pool, repaired)


class TestArgumentSplitting:
    def test_cpcq_twelve_pieces(self):
        fw = parse_file(CORPUS / "cpcq.caba")
        before = build_mgcarg(fw)
        out = argument_splitting(before, fw.contrary_map)
        assert len(out) == 12
        assert instance_disjoint(out)
        assert non_overlapping(out, fw.contrary_map)
        assert set_equiv(before, out)

    def test_micro_single_survivor(self):
        fw = parse_file(CORPUS / "micro.caba")
        out = argument_splitting(build_mgcarg(fw), fw.contrary_map)
        (survivor,) = out
        assert region(survivor) == {"0 < V0"}
        assert survivor.claim.predicate == "p"

    def test_compliant_set_unchanged(self):
        fw = parse_file(CORPUS / "cpcq.caba")
        out = argument_splitting(build_mgcarg(fw), fw.contrary_map)
        again = argument_splitting(out, fw.contrary_map)
        assert {a.render() for a in again} == {a.render() for a in out}

    def test_fa_replaces_overlapping_pieces(self):
        fw = parse_file(CORPUS / "FA.caba")
        before = build_mgcarg(fw)
        out = argument_splitting(before, fw.contrary_map)
        assert instance_disjoint(out)
        assert non_overlapping(out, fw.contrary_map)
        assert set_equiv(before, out)
        # the R2-based argument is cut into three regions
        assert sum(1 for a in out if a.id.startswith("p:2")) == 3

    def test_iteration_limit(self):
        fw = parse_file(CORPUS / "cpcq.caba")
        with pytest.raises(IterationLimit) as err:
            argument_splitting(build_mgcarg(fw), fw.contrary_map, max_iters=1)
        assert err.value.partial


def rescan_splitting(args, contraries, max_iters=10_000):
    """Reference loop: every repair rescans every pair of the pool,
    re-deriving each denotation and each attack edge.  Returns the basis
    and the number of repairs made."""
    pool = list(args)
    for repairs in range(max_iters + 1):
        claims = Counter(x.claim.predicate for x in pool)
        denos = [denotation(x) if claims[x.claim.predicate] > 1 else {} for x in pool]
        ci = [
            sorted((pool[i], pool[j]), key=ConstrainedArgument.render)
            for i, j in _sharing_pairs(denos)
        ]
        pa = [] if ci else [
            (a, b, atom)
            for a, b, atom, kind in attack_edges(pool, pool, contraries)
            if kind == "partial"
        ]
        if not ci and not pa:
            return pool, repairs
        if repairs == max_iters:
            raise IterationLimit("reference loop did not converge", partial=pool)
        if ci:
            a, b = min(ci, key=lambda t: (t[0].id, t[1].id))
            pieces = split_ci(a, b)
        else:
            a, b, atom = min(pa, key=lambda t: (t[0].id, t[1].id))
            pieces = split_pa(a, b, contraries, atom)
        pool = [x for x in pool if x is not b] + pieces


def listing(args):
    return [(a.id, a.render()) for a in args]


def ring_text(thresholds):
    """An n-way generalisation of cpcq: p_i is attacked by c_i, which
    p_{i+1} derives above the i-th threshold."""
    n = len(thresholds)
    lines = [f"assumption p{i}(X) contrary c{i}(X)." for i in range(1, n + 1)]
    for i, t in enumerate(thresholds, start=1):
        lines.append(f"c{i}(X) <- p{i % n + 1}(X), X >= {t}.")
    return "\n".join(lines) + "\n"


RINGS = {
    "falling": ring_text(["5", "3", "1"]),
    "rising": ring_text(["1", "5/2", "4"]),
    "equal": ring_text(["2", "2", "2"]),
    "pair": ring_text(["0", "7/3"]),
}


class TestSplittingMatchesRescan:
    """Reading pair results from the run's memo, argument_splitting
    repairs the same pairs, in the same order, as a loop that recomputes
    every pair after every repair."""

    def check(self, args, contraries, max_iters=10_000):
        args = list(args)
        want, _ = rescan_splitting(args, contraries, max_iters)
        got = argument_splitting(args, contraries, max_iters)
        assert listing(got) == listing(want)
        # recomputed from scratch, not read from the loop's memo
        assert instance_disjoint(got)
        assert non_overlapping(got, contraries)
        assert got.attacks == {
            (a.id, b.id) for a, b, _, _ in attack_edges(got, got, contraries)
        }
        return got

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.caba")), ids=lambda p: p.stem)
    def test_corpus(self, path):
        fw = parse_file(path)
        self.check(build_mgcarg(fw), fw.contrary_map)

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_rings(self, name):
        fw = parse(RINGS[name])
        args = build_mgcarg(fw)
        assert len(self.check(args, fw.contrary_map)) > len(args)

    def test_random_frameworks(self):
        rng = random.Random(7)
        for _ in range(40):
            fw = random_bounded_framework(rng)
            self.check(build_mgcarg(fw), fw.contrary_map)

    def test_random_pools(self):
        # some of these pools split without end (each pa repair leaves a
        # piece that partially attacks the next); both loops must then
        # stop at the budget with the same partial pool
        rng = random.Random(11)
        contraries = {"a": "p", "b": "r"}
        converged = 0
        for _ in range(20):
            pool = [
                replace(random_argument(rng, rng.choice(["p", "r"])), id=f"g{k}")
                for k in range(rng.randint(2, 4))
            ]
            try:
                self.check(pool, contraries, max_iters=6)
                converged += 1
            except IterationLimit as err:
                with pytest.raises(IterationLimit) as got:
                    argument_splitting(pool, contraries, max_iters=6)
                assert listing(got.value.partial) == listing(err.partial)
        assert converged >= 15


class TestPairMemo:
    """However many rescans a run makes, it takes each ordered pair's
    attack edges, each pair's sharing test and each argument's
    denotation once (split_ci's own calls aside)."""

    def taken(self, monkeypatch, fw):
        taken, in_split_ci = Counter(), []
        keep = []  # holds what is counted, so that object ids stay distinct

        def count(kind, *objs):
            if not in_split_ci:
                keep.extend(objs)
                taken[(kind, *map(id, objs))] += 1

        def counted(module, name, note):
            real = getattr(module, name)

            def wrapper(*args):
                note(*args)
                return real(*args)

            monkeypatch.setattr(module, name, wrapper)

        def attack_edges(attackers, targets, contraries):
            for a in attackers:
                for b in targets:
                    count("edges", a, b)

        counted(caba.splitting, "attack_edges", attack_edges)
        counted(caba.splitting, "_sharing_pairs", lambda ds: count("sharing", *ds))
        for module in (caba.splitting, caba.equivalence):
            counted(module, "denotation", lambda x: count("denotation", x))
        real_split_ci = caba.splitting.split_ci

        def split_ci(a, b):
            in_split_ci.append(True)
            try:
                return real_split_ci(a, b)
            finally:
                in_split_ci.pop()

        monkeypatch.setattr(caba.splitting, "split_ci", split_ci)
        argument_splitting(build_mgcarg(fw), fw.contrary_map)
        return taken

    @pytest.mark.parametrize("name", ["cpcq", *sorted(RINGS)])
    def test_each_pair_taken_once(self, monkeypatch, name):
        if name == "cpcq":
            fw = parse_file(CORPUS / "cpcq.caba")
        else:
            fw = parse(RINGS[name])
        _, repairs = rescan_splitting(build_mgcarg(fw), fw.contrary_map)
        taken = self.taken(monkeypatch, fw)
        assert repairs > 1
        assert {kind for kind, *_ in taken} == {"edges", "sharing", "denotation"}
        assert max(taken.values()) == 1


class TestRepairBudget:
    """max_iters bounds the repairs, not the checks."""

    def test_compliant_set_needs_no_repair(self):
        fw = parse_file(CORPUS / "tax.caba")
        args = build_mgcarg(fw)
        out = argument_splitting(args, fw.contrary_map, max_iters=0)
        assert [a.render() for a in out] == [a.render() for a in args]

    def test_split_basis_passes_with_zero(self):
        fw = parse_file(CORPUS / "cpcq.caba")
        basis = argument_splitting(build_mgcarg(fw), fw.contrary_map)
        again = argument_splitting(basis, fw.contrary_map, max_iters=0)
        assert list(again) == list(basis)
        assert again.attacks == basis.attacks

    def test_exact_budget_converges(self):
        fw = parse_file(CORPUS / "cpcq.caba")
        args = build_mgcarg(fw)
        _, needed = rescan_splitting(args, fw.contrary_map)
        assert needed > 0
        argument_splitting(args, fw.contrary_map, max_iters=needed)
        with pytest.raises(IterationLimit) as err:
            argument_splitting(args, fw.contrary_map, max_iters=needed - 1)
        assert err.value.partial

    def test_violation_with_zero_budget(self):
        fw = parse_file(CORPUS / "micro.caba")
        args = build_mgcarg(fw)
        with pytest.raises(IterationLimit) as err:
            argument_splitting(args, fw.contrary_map, max_iters=0)
        assert err.value.partial == args
