import random
from pathlib import Path

import pytest

from caba.arguments import build_mgcarg
from caba.attacks import attack_edges, attack_graph, fully_attacks, partially_attacks
from caba.parser import parse_file
from caba.splitting import argument_splitting

from generators import random_argument, random_bounded_framework

CORPUS = Path(__file__).parent.parent / "src" / "caba" / "corpus"


def fa_args():
    fw = parse_file(CORPUS / "FA.caba")
    return fw, {a.id: a for a in build_mgcarg(fw)}


class TestFullAttack:
    def test_cb_covers_p1(self):
        fw, byid = fa_args()
        assert fully_attacks(byid["cb:1"], byid["p:1"], fw.contrary_map)

    def test_ca_does_not_cover_p1(self):
        fw, byid = fa_args()
        assert not fully_attacks(byid["ca:1"], byid["p:1"], fw.contrary_map)

    def test_no_matching_contrary(self):
        fw, byid = fa_args()
        assert not fully_attacks(byid["s:1"], byid["p:1"], fw.contrary_map)


class TestPartialAttack:
    def test_ca_overlaps_p2(self):
        fw, byid = fa_args()
        assert partially_attacks(byid["ca:1"], byid["p:2"], fw.contrary_map)

    def test_full_implies_partial_on_example(self):
        fw, byid = fa_args()
        assert partially_attacks(byid["cb:1"], byid["p:1"], fw.contrary_map)

    def test_disjoint_predicates(self):
        fw, byid = fa_args()
        assert not partially_attacks(byid["p:1"], byid["p:2"], fw.contrary_map)


class TestAttackGraph:
    def test_fa_edges(self):
        fw, byid = fa_args()
        edges = {
            (e.attacker, e.target, e.kind)
            for e in attack_graph(byid.values(), fw.contrary_map)
        }
        assert ("cb:1", "p:1", "full") in edges
        assert ("ca:1", "assume:a", "partial") in edges
        assert ("ca:1", "p:2", "partial") in edges

    def test_cpcq_mutual_partial(self):
        fw = parse_file(CORPUS / "cpcq.caba")
        byid = {a.id: a for a in build_mgcarg(fw)}
        assert partially_attacks(byid["cp:1"], byid["cq:1"], fw.contrary_map)
        assert partially_attacks(byid["cq:1"], byid["cp:1"], fw.contrary_map)

    def test_no_self_attack_single_argument(self):
        fw = parse_file(CORPUS / "micro.caba")
        args = build_mgcarg(fw)
        assert attack_graph([args[0]], fw.contrary_map) == []


class TestProperties:
    CONTRARIES = {"a": "p", "b": "q"}

    def test_full_implies_partial_random(self):
        rng = random.Random(23)
        for _ in range(60):
            x = random_argument(rng, claim_pred=rng.choice(["p", "q"]))
            y = random_argument(rng, claim_pred="r")
            if fully_attacks(x, y, self.CONTRARIES):
                assert partially_attacks(x, y, self.CONTRARIES)

    def test_renaming_invariance(self):
        rng = random.Random(29)
        mapping = {"X": "U", "Y": "W"}
        for _ in range(40):
            x = random_argument(rng, claim_pred="p")
            y = random_argument(rng, claim_pred="r")
            xr, yr = x.rename(mapping), y.rename(mapping)
            assert fully_attacks(x, y, self.CONTRARIES) == fully_attacks(
                xr, yr, self.CONTRARIES
            )
            assert partially_attacks(x, y, self.CONTRARIES) == partially_attacks(
                xr, yr, self.CONTRARIES
            )

    def test_aba_full_and_partial_coincide_unconstrained(self):
        from caba.parser import parse

        fw = parse(
            "assumption a(X) contrary q(X).\n"
            "assumption b(X) contrary r(X).\n"
            "p(X) <- a(X).\nq(X) <- b(X).\nr(X) <-.\n"
        )
        args = build_mgcarg(fw)
        for x in args:
            for y in args:
                assert fully_attacks(x, y, fw.contrary_map) == partially_attacks(
                    x, y, fw.contrary_map
                )

    def test_aba_coincide_on_ground_arguments_of_b(self):
        from fractions import Fraction

        from caba.arguments import ConstrainedArgument
        from caba.oracle import classical_arguments, ground

        fw = parse_file(CORPUS / "frameworkB.caba")
        g = ground(fw, [Fraction(1), Fraction(2)])
        args = [
            ConstrainedArgument(
                f"g{i}", x.claim, frozenset(), x.assumptions, x.rules_used
            )
            for i, x in enumerate(sorted(classical_arguments(g), key=str))
        ]
        for x in args:
            for y in args:
                assert fully_attacks(x, y, fw.contrary_map) == partially_attacks(
                    x, y, fw.contrary_map
                )


def assert_edges_match_definitions(pool, contraries):
    """attack_edges yields an edge on (a, b, alpha) exactly when a
    partially attacks b on alpha, of kind full exactly when a fully
    attacks b on alpha, in pool order and rendered assumption order."""
    edges = list(attack_edges(pool, pool, contraries))
    kinds = {(id(a), id(b), atom): kind for a, b, atom, kind in edges}
    assert len(kinds) == len(edges)
    pos = {id(x): i for i, x in enumerate(pool)}
    order = [(pos[id(a)], pos[id(b)], atom.render()) for a, b, atom, _ in edges]
    assert order == sorted(order)
    triples = 0
    for a in pool:
        for b in pool:
            for atom in b.assumptions:
                if contraries.get(atom.predicate) != a.claim.predicate:
                    continue
                triples += 1
                kind = kinds.pop((id(a), id(b), atom), None)
                assert (kind == "full") == fully_attacks(a, b, contraries, atom)
                assert (kind is not None) == partially_attacks(a, b, contraries, atom)
    assert not kinds  # no edge on an assumption without a matching contrary
    return triples


class TestAttackEdges:
    @pytest.mark.parametrize("name", ["FA", "cpcq", "frameworkB", "micro", "tax"])
    def test_corpus_matches_definitions(self, name):
        fw = parse_file(CORPUS / f"{name}.caba")
        args = build_mgcarg(fw)
        assert_edges_match_definitions(args, fw.contrary_map)
        basis = argument_splitting(args, fw.contrary_map)
        assert_edges_match_definitions(basis, fw.contrary_map)

    def test_generated_frameworks_match_definitions(self):
        rng = random.Random(31)
        triples = 0
        for _ in range(40):
            fw = random_bounded_framework(rng)
            triples += assert_edges_match_definitions(
                build_mgcarg(fw), fw.contrary_map
            )
        assert triples > 0

    def test_generated_unary_pools_match_definitions(self):
        rng = random.Random(37)
        for _ in range(15):
            pool = [
                random_argument(rng, claim_pred=rng.choice(["p", "q", "r"]))
                for _ in range(4)
            ]
            assert_edges_match_definitions(pool, {"a": "p", "b": "q"})
