from pathlib import Path

import pytest

from caba.arguments import build_mgcarg
from caba.equivalence import set_equiv
from caba.errors import BasisNotCompliant
from caba.parser import parse_file
from caba.semantics import (
    check_stable_native,
    enumerate_extensions,
    fatt,
    is_ngcf,
)
from caba.splitting import argument_splitting

CORPUS = Path(__file__).parent.parent / "src" / "caba" / "corpus"


def pipeline(name):
    fw = parse_file(CORPUS / f"{name}.caba")
    basis = argument_splitting(build_mgcarg(fw), fw.contrary_map)
    return fw, basis, {a.id: a for a in basis}


class TestNgcf:
    def test_empty(self):
        fw, basis, _ = pipeline("cpcq")
        assert is_ngcf([], fw.contrary_map)

    def test_stable_members_are_ngcf(self):
        fw, basis, byid = pipeline("FA")
        (ext,) = enumerate_extensions(basis, "stable", fw.contrary_map)
        assert is_ngcf([byid[m] for m in ext.members], fw.contrary_map)

    def test_partially_attacking_pair_is_not(self):
        fw = parse_file(CORPUS / "cpcq.caba")
        byid = {a.id: a for a in build_mgcarg(fw)}
        assert not is_ngcf([byid["cp:1"], byid["cq:1"]], fw.contrary_map)


class TestFatt:
    def test_empty_sigma(self):
        fw, basis, _ = pipeline("FA")
        assert fatt([], basis, fw.contrary_map) == []

    def test_unattacked_singleton(self):
        fw, basis, byid = pipeline("FA")
        assert fatt([byid["s:1"]], [byid["s:1"]], fw.contrary_map) == []

    def test_stable_extension_covers_complement(self):
        fw, basis, byid = pipeline("FA")
        (ext,) = enumerate_extensions(basis, "stable", fw.contrary_map)
        sigma = [byid[m] for m in ext.members]
        attacked = {a.id for a in fatt(sigma, basis, fw.contrary_map)}
        outside = {a.id for a in basis} - set(ext.members)
        assert outside <= attacked


class TestEnumerate:
    def test_cpcq_two_stable(self):
        fw, basis, _ = pipeline("cpcq")
        exts = enumerate_extensions(basis, "stable", fw.contrary_map)
        members = sorted(sorted(e.members) for e in exts)
        assert members == [
            [
                "assume:p.1.1",
                "assume:p.2",
                "assume:q.3",
                "cp:1.2",
                "cq:1.1",
                "cq:1.2",
                "r:1",
                "s:1",
            ],
            [
                "assume:p.2",
                "assume:q.1",
                "assume:q.3",
                "cp:1.1",
                "cp:1.2",
                "cq:1.2",
                "r:1",
                "s:1",
            ],
        ]

    def test_cpcq_admissible_contains_seed_sets(self):
        fw, basis, _ = pipeline("cpcq")
        exts = enumerate_extensions(basis, "admissible", fw.contrary_map)
        found = {frozenset(e.members) for e in exts}
        assert frozenset({"cp:1.1", "r:1", "s:1"}) in found
        assert frozenset({"cq:1.1", "r:1", "s:1"}) in found

    def test_empty_set_is_admissible(self):
        fw, basis, _ = pipeline("FA")
        exts = enumerate_extensions(basis, "admissible", fw.contrary_map)
        assert frozenset() in {frozenset(e.members) for e in exts}

    def test_fa_unique_stable(self):
        fw, basis, _ = pipeline("FA")
        exts = enumerate_extensions(basis, "stable", fw.contrary_map)
        assert len(exts) == 1

    def test_semantic_subset_chain(self):
        fw, basis, _ = pipeline("cpcq")
        cf = {frozenset(e.members) for e in
              enumerate_extensions(basis, "conflict_free", fw.contrary_map)}
        adm = {frozenset(e.members) for e in
               enumerate_extensions(basis, "admissible", fw.contrary_map)}
        st = {frozenset(e.members) for e in
              enumerate_extensions(basis, "stable", fw.contrary_map)}
        assert st <= adm <= cf

    def test_rejects_non_compliant_basis(self):
        fw = parse_file(CORPUS / "cpcq.caba")
        with pytest.raises(BasisNotCompliant):
            enumerate_extensions(build_mgcarg(fw), "stable", fw.contrary_map)


class TestSplitMatrix:
    """The attack matrix that splitting returns with its basis gives the
    same extensions as the full compliance check on a bare list."""

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.caba")), ids=lambda p: p.stem)
    @pytest.mark.parametrize("semantics", ["conflict_free", "admissible", "stable"])
    def test_matrix_and_bare_list_agree(self, path, semantics):
        fw = parse_file(path)
        basis = argument_splitting(build_mgcarg(fw), fw.contrary_map)
        assert enumerate_extensions(
            basis, semantics, fw.contrary_map, basis.attacks
        ) == enumerate_extensions(list(basis), semantics, fw.contrary_map)


class TestCheckStableNative:
    def test_agreement_with_enumeration(self):
        for name in ("FA", "cpcq"):
            fw, basis, byid = pipeline(name)
            stable_sets = {
                frozenset(e.members)
                for e in enumerate_extensions(basis, "stable", fw.contrary_map)
            }
            # over singleton-difference neighbours of the stable sets the
            # native characterisation must agree with enumeration
            candidates = set(stable_sets)
            for s in stable_sets:
                for x in {a.id for a in basis}:
                    candidates.add(s ^ {x})
            for cand in candidates:
                sigma = [byid[m] for m in cand]
                assert check_stable_native(sigma, basis, fw.contrary_map) == (
                    cand in stable_sets
                )

    def test_sigma_with_fatt_covers_basis(self):
        fw, basis, byid = pipeline("FA")
        (ext,) = enumerate_extensions(basis, "stable", fw.contrary_map)
        sigma = [byid[m] for m in ext.members]
        assert set_equiv(sigma + fatt(sigma, basis, fw.contrary_map), basis)

    def test_empty_set_fails_coverage(self):
        fw, basis, _ = pipeline("FA")
        assert not check_stable_native([], basis, fw.contrary_map)
