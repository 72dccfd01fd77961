import random

import pytest

from homcert import modules
from homcert.generator import build_generator, verify_resolution
from homcert.matrices import Mat, colspan_canonical, kernel_right, solve_right
from homcert.modules import (FPModule, ModuleMap, canonical_double_dual_map,
                             dual_data, dualize_map, is_projective,
                             modules_isomorphic, opposite, subquotient_module)
from homcert.rings import Fp, Zmod, ZZ
from homcert.samplers import random_fp_module, random_matrix

RINGS = [ZZ, Fp(5), Zmod(4)]


def test_cyclic_invariants():
    m = FPModule.cyclic(ZZ, "left", 6)
    assert m.abelian_invariants() == (0, (6,))
    assert not m.is_zero()
    assert FPModule.cyclic(ZZ, "left", 1).is_zero()


def test_free_module_is_projective_with_identity_section():
    m = FPModule.free(ZZ, "left", 3)
    sec = is_projective(m)
    assert sec is not None


@pytest.mark.parametrize("ring", [ZZ, Fp(5), Zmod(4), Zmod(12)], ids=str)
@pytest.mark.parametrize("relations", [0, 1, 3])
def test_modules_on_no_generators_are_zero_and_projective(ring, relations):
    m = FPModule(ring, "right", Mat.zero(ring, 0, relations))
    assert m.is_zero()
    assert is_projective(m) == ModuleMap(m, FPModule.free(ring, "right", 0), Mat.zero(ring, 0, 0))


def test_torsion_module_not_projective_over_Z():
    assert is_projective(FPModule.cyclic(ZZ, "left", 4)) is None


def test_z2_projective_over_z6_not_over_z4():
    # Z/6 = Z/2 x Z/3, so Z/2 is a summand; over Z/4 it is not
    assert is_projective(FPModule.cyclic(Zmod(6), "left", 2)) is not None
    assert is_projective(FPModule.cyclic(Zmod(4), "left", 2)) is None


def test_projective_section_splits_presentation():
    m = FPModule.cyclic(Zmod(6), "left", 2)
    sec = is_projective(m)
    assert sec is not None
    # the section composed with the quotient is the identity on M
    proj = ModuleMap(FPModule.free(m.ring, m.side, m.rank0), m,
                     Mat.identity(m.ring, m.rank0))
    # two maps into M agree when their difference lies in M's relations
    assert m.contains_in_relations(proj.matrix @ sec.matrix - Mat.identity(m.ring, m.rank0))


def test_dual_of_torsion_over_Z_vanishes():
    mstar, k = dual_data(FPModule.cyclic(ZZ, "left", 5))
    assert mstar.is_zero()
    assert k.rows == 0


def test_dual_of_z2_over_z4():
    mstar, k = dual_data(FPModule.cyclic(Zmod(4), "left", 2))
    assert mstar.abelian_invariants() == (0, (2,))
    # the generating functional sends the generator to 2 in Z/4
    assert k.row_list() == [[2]]


def test_dual_swaps_sides():
    m = FPModule.cyclic(Zmod(4), "left", 2)
    mstar = dual_data(m)[0]
    assert mstar.side == "right"
    assert dual_data(mstar)[0].side == "left"


def test_double_dual_map_iso_over_self_injective_rings():
    rng = random.Random(41)
    for ring in (Zmod(4), Fp(5)):
        for _ in range(30):
            m = random_fp_module(rng, ring)
            mu = canonical_double_dual_map(m, *dual_data(m))
            assert mu.is_well_defined()
            assert mu.is_isomorphism()


def test_double_dual_map_on_free_over_Z_is_iso():
    m = FPModule.free(ZZ, "left", 2)
    mu = canonical_double_dual_map(m, *dual_data(m))
    assert mu.is_isomorphism()


def test_double_dual_kills_torsion_over_Z():
    m = FPModule.cyclic(ZZ, "left", 6)
    mu = canonical_double_dual_map(m, *dual_data(m))
    # a map is zero when its matrix lies in the target's relations
    assert mu.target.contains_in_relations(mu.matrix)


def test_dualize_map_contravariant():
    rng = random.Random(43)
    ring = Zmod(6)
    m = random_fp_module(rng, ring, max_rank=2)
    n = random_fp_module(rng, ring, max_rank=2)
    # build a well-defined map by composing with the zero relations
    f = ModuleMap(m, n, Mat.zero(ring, n.rank0, m.rank0))
    fstar = dualize_map(f)
    assert fstar.source.side != m.side
    assert fstar.is_well_defined()


def test_modules_isomorphic_examples():
    a = FPModule(ZZ, "left", Mat(ZZ, 2, 2, (2, 0, 0, 3)))
    b = FPModule.cyclic(ZZ, "left", 6)
    assert modules_isomorphic(a, b)
    assert not modules_isomorphic(a, FPModule.cyclic(ZZ, "left", 4))
    assert not modules_isomorphic(a, FPModule.free(ZZ, "left", 1))


def test_subquotient_computes_homology_style_quotients():
    # <2> / <4> inside Z: cyclic of order 2
    gens = Mat(ZZ, 1, 1, (2,))
    zeros = Mat(ZZ, 1, 1, (4,))
    q = subquotient_module(ZZ, "left", gens, zeros)
    assert modules_isomorphic(q, FPModule.cyclic(ZZ, "left", 2))


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_elements_equal_respects_relations(ring):
    m = FPModule.cyclic(ring, "left", 2 if ring.modulus != 5 else 0)
    x = Mat(ring, 1, 1, (0,))
    y = Mat(ring, 1, 1, (2,)) if ring.modulus != 5 else x
    # x and y are equal in M when x - y lies in the relations
    assert m.contains_in_relations(x - y)


def test_is_isomorphism_needs_well_defined_surjective_and_injective():
    ring = Zmod(4)
    z2, z4 = FPModule.cyclic(ring, "left", 2), FPModule.free(ring, "left", 1)
    one, two = Mat(ring, 1, 1, (1,)), Mat(ring, 1, 1, (2,))
    assert ModuleMap(z2, z2, one).is_isomorphism()
    assert ModuleMap(z4, z4, Mat(ring, 1, 1, (3,))).is_isomorphism()
    assert not ModuleMap(z2, z4, one).is_isomorphism()  # not well defined
    assert not ModuleMap(z4, z4, two).is_isomorphism()  # not surjective
    assert not ModuleMap(z4, z2, one).is_isomorphism()  # not injective
    z2_twice = FPModule(ring, "left", Mat(ring, 2, 2, (2, 0, 0, 2)))
    assert not ModuleMap(z2_twice, z2, Mat(ring, 1, 2, (1, 0))).is_isomorphism()


def _counting_smith(monkeypatch):
    calls = []
    smith = modules.smith_invariants
    monkeypatch.setattr(modules, "smith_invariants", lambda a: calls.append(a) or smith(a))
    return calls


def test_equal_presentations_are_isomorphic_without_smith(monkeypatch):
    calls = _counting_smith(monkeypatch)
    pkg = build_generator(FPModule.cyclic(Zmod(4), "left", 2))
    # H^0(P) and M* come out with one canonical presentation
    assert verify_resolution(pkg).ok
    assert calls == []
    m = FPModule.cyclic(ZZ, "left", 6)
    assert modules_isomorphic(m, FPModule.cyclic(ZZ, "left", 6))
    assert not modules_isomorphic(m, FPModule.cyclic(ZZ, "right", 6))
    assert calls == []


def test_different_presentations_still_go_through_smith(monkeypatch):
    calls = _counting_smith(monkeypatch)
    ring = Zmod(4)
    z2 = FPModule.cyclic(ring, "left", 2)
    assert modules_isomorphic(z2, FPModule(ring, "left", Mat(ring, 1, 2, (2, 2))))
    assert len(calls) == 2
    assert not modules_isomorphic(z2, FPModule.free(ring, "left", 1))
    assert len(calls) == 4


def kernel_left(a):
    """Rows generating {x : x a = 0}."""
    return kernel_right(a.transpose()).transpose()


def _reference_dual_data(m):
    """dual_data as two left kernels, K and the relations among its rows."""
    K = kernel_left(m.presentation)
    rel_rows = kernel_left(K)
    return FPModule(m.ring, opposite(m.side), colspan_canonical(rel_rows.transpose())), K


def _reference_double_dual_map(m, mstar, K):
    """canonical_double_dual_map as a solve X^T K2 = K^T against the
    generators of M**, which eliminates them apart from their relations."""
    mstarstar, K2 = _reference_dual_data(mstar)
    return ModuleMap(m, mstarstar, solve_right(K2.transpose(), K))


def _reference_dualize_map(f):
    mstar, K_m = _reference_dual_data(f.source)
    nstar, K_n = _reference_dual_data(f.target)
    return ModuleMap(nstar, mstar, solve_right(K_m.transpose(), (K_n @ f.matrix).transpose()))


@pytest.mark.parametrize("ring", [ZZ, Fp(5), Zmod(4), Zmod(8), Zmod(12)], ids=str)
def test_duals_from_one_form_equal_the_two_kernel_reference(ring):
    rng = random.Random(f"duals/{ring}")
    for _ in range(40):
        m = random_fp_module(rng, ring, max_rank=4)
        assert dual_data(m) == _reference_dual_data(m)
        mstar, K = dual_data(m)
        assert canonical_double_dual_map(m, mstar, K) == _reference_double_dual_map(m, mstar, K)
        # maps into M that are well defined: from a free module, and a scalar
        free = FPModule.free(ring, "left", rng.randint(0, 3))
        for f in (ModuleMap(free, m, random_matrix(rng, ring, m.rank0, free.rank0)),
                  ModuleMap(m, m, Mat.identity(ring, m.rank0).scale(rng.randint(0, 5)))):
            assert dualize_map(f) == _reference_dualize_map(f)
