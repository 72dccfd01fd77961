import random
import tracemalloc

import pytest

from homcert.complexes import Complex, PeriodicTail
from homcert.flatness import (EngineConfig, FlatCertificate, FlatRelation,
                              check_certificate, cycle_flatness_probe,
                              flat_certificate, pd_bound_collapse)
from homcert.matrices import Mat, MatrixError, kernel_right
from homcert.modules import FPModule
from homcert.rings import Fp, Zmod, ZZ
from homcert.samplers import random_contractible_complex, random_matrix, random_relation

RINGS = [ZZ, Fp(5), Zmod(4)]


def test_relation_validates_sum():
    with pytest.raises(MatrixError):
        FlatRelation(ZZ, Mat(ZZ, 1, 2, (1, 1)), Mat(ZZ, 1, 2, (1, 2)))


def test_certificate_for_2_3_relation():
    # 2*3 + 3*(-2) = 0 in Z; witness a* = (3, -2)^T, q = (1)
    rel = FlatRelation(ZZ, Mat(ZZ, 1, 2, (2, 3)), Mat(ZZ, 1, 2, (3, -2)))
    cert = flat_certificate(rel)
    assert check_certificate(rel, cert)
    assert cert.ast.columns()[0] in ([3, -2], [-3, 2])
    assert cert.q.row_list() in ([[1]], [[-1]])


def test_certificate_for_zero_coefficient_row():
    rel = FlatRelation(ZZ, Mat(ZZ, 1, 1, (0,)), Mat(ZZ, 2, 1, (1, 2)))
    cert = flat_certificate(rel)
    assert check_certificate(rel, cert)
    assert cert.ast.row_list() == [[1]]


def test_certificate_for_unit_coefficient():
    # a = (1) forces z = 0; the kernel is empty and so is the certificate
    rel = FlatRelation(ZZ, Mat(ZZ, 1, 1, (1,)), Mat(ZZ, 2, 1, (0, 0)))
    cert = flat_certificate(rel)
    assert check_certificate(rel, cert)
    assert cert.ast.cols == 0


def test_checker_rejects_bad_witnesses():
    rel = FlatRelation(ZZ, Mat(ZZ, 1, 2, (2, 3)), Mat(ZZ, 1, 2, (3, -2)))
    bad = FlatCertificate(Mat(ZZ, 2, 1, (3, -1)), Mat(ZZ, 1, 1, (1,)))
    assert not check_certificate(rel, bad)
    wrong_shape = FlatCertificate(Mat(ZZ, 3, 1, (0, 0, 0)), Mat(ZZ, 1, 1, (0,)))
    assert not check_certificate(rel, wrong_shape)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_random_relations_all_certify(ring):
    rng = random.Random(53)
    for _ in range(100):
        a, z = random_relation(rng, ring, rng.randint(1, 4), rng.randint(1, 4))
        rel = FlatRelation(ring, a, z)
        cert = flat_certificate(rel)
        assert check_certificate(rel, cert)


def exact_three_term():
    # 0 -> Z --(1 2)^T--> Z^2 --(2 -1)--> Z -> 0 is exact
    return Complex(ZZ, "left", {-2: 1, -1: 2, 0: 1},
                   {-2: Mat(ZZ, 2, 1, (1, 2)), -1: Mat(ZZ, 1, 2, (2, -1))})


def test_cycle_probe_certifies_on_exact_complex():
    q = exact_three_term()
    z = Mat(ZZ, 2, 2, (1, 2, 2, 4))  # cycle columns (multiples of (1,2)^T)
    rel = FlatRelation(ZZ, Mat(ZZ, 1, 2, (2, -1)), z)
    v = cycle_flatness_probe(q, -1, rel)
    assert v.ok and v.code == "certified"
    cert = v.details["certificate"].certificate
    assert check_certificate(rel, cert)


@pytest.mark.parametrize("ring", [ZZ, Zmod(4)], ids=str)
def test_cycle_probe_with_no_term_below_lifts_to_the_empty_map(ring):
    # Z --1--> Z is exact at 0, so its only cycle there is 0; Hom(M, Q^-1)
    # has no block at all, and the lift is the 0 x 2 matrix
    q = Complex(ring, "left", {0: 1, 1: 1}, {0: Mat(ring, 1, 1, (1,))})
    rel = FlatRelation(ring, Mat(ring, 1, 2, (1, 3)), Mat(ring, 1, 2, (0, 0)))
    v = cycle_flatness_probe(q, 0, rel)
    assert v.ok and v.code == "certified"
    assert (v.details["certificate"].lift.rows, v.details["certificate"].lift.cols) == (0, 2)
    assert check_certificate(rel, v.details["certificate"].certificate)


def test_cycle_probe_rejects_non_cycles():
    q = exact_three_term()
    z = Mat(ZZ, 2, 1, (1, 0))  # not in ker d^-1
    rel = FlatRelation(ZZ, Mat(ZZ, 1, 1, (0,)), z)
    v = cycle_flatness_probe(q, -1, rel)
    assert not v.ok and v.code == "not_cycles"


def test_cycle_probe_rejects_non_exact_complex():
    q = Complex(ZZ, "left", {-1: 1, 0: 1}, {-1: Mat(ZZ, 1, 1, (4,))})
    rel = FlatRelation(ZZ, Mat(ZZ, 1, 1, (0,)), Mat(ZZ, 1, 1, (0,)))
    v = cycle_flatness_probe(q, 0, rel)
    assert not v.ok and v.code == "not_exact"


def test_cycle_probe_hypothesis_failure_on_periodic_complex():
    ring = Zmod(4)
    two = Mat(ring, 1, 1, (2,))
    q = Complex(ring, "left", {0: 1, 1: 1}, {0: two},
                tail_below=PeriodicTail(-1, 0, 1), tail_above=PeriodicTail(1, 1, 1))
    rel = FlatRelation(ring, Mat(ring, 1, 1, (2,)), two)
    v = cycle_flatness_probe(q, 0, rel)
    assert not v.ok and v.code == "hom_hypothesis_fails"
    assert v.details["degree"] == 0


def test_engine_config_per_ring():
    assert EngineConfig.for_ring(ZZ).bound == 1
    assert EngineConfig.for_ring(Zmod(4)).bound == 0
    assert EngineConfig.for_ring(Fp(5)).bound == 0
    assert EngineConfig().bound == 16
    with pytest.raises(ValueError):
        EngineConfig(-1)


def test_pd_collapse_on_contractible_complexes():
    rng = random.Random(59)
    for ring in RINGS:
        c = random_contractible_complex(rng, ring)
        span = c.support()
        window = (span[0] - 2, span[1] + 2)
        v = pd_bound_collapse(c, EngineConfig.for_ring(ring), window)
        assert v.ok and v.code == "collapsed", (ring, v.code, v.details)
        hom = v.details["homotopy"]
        from homcert.complexes import ChainMap
        assert hom.bounds(ChainMap.identity(c))


def test_pd_collapse_window_too_narrow():
    # only a complex with a tail reads the window, so only there is it narrow
    ring = Zmod(4)
    c = Complex(ring, "left", {0: 1, 1: 1}, {0: Mat(ring, 1, 1, (2,))},
                tail_below=PeriodicTail(-1, 0, 1), tail_above=PeriodicTail(1, 1, 1))
    v = pd_bound_collapse(c, EngineConfig(16), (0, 3))
    assert not v.ok and v.code == "window_too_narrow"
    assert v.details == {"width": 3, "needed": 18} and not v.window_relative
    bounded = random_contractible_complex(random.Random(2), ZZ)
    v = pd_bound_collapse(bounded, EngineConfig(16), (0, 3))
    assert v.ok and v.code == "collapsed"
    assert v == pd_bound_collapse(bounded, EngineConfig(16), None)


def test_pd_collapse_detects_homology():
    c = Complex(ZZ, "left", {-1: 1, 0: 1}, {-1: Mat(ZZ, 1, 1, (2,))})
    v = pd_bound_collapse(c, EngineConfig.for_ring(ZZ), (-4, 3))
    assert not v.ok and v.code == "not_exact"


def test_pd_collapse_cycle_not_projective():
    # the periodic Z/4 complex ... -> Z/4 --2--> Z/4 -> ... is exact with
    # every cycle Z/2, which is not projective
    ring = Zmod(4)
    c = Complex(ring, "left", {0: 1, 1: 1}, {0: Mat(ring, 1, 1, (2,))},
                tail_below=PeriodicTail(-1, 0, 1), tail_above=PeriodicTail(1, 1, 1))
    v = pd_bound_collapse(c, EngineConfig.for_ring(ring), (-4, 4))
    assert not v.ok and v.code == "cycle_not_projective" and not v.window_relative
    assert v.details["degree"] == -3
    assert isinstance(v.details["cycle"], FPModule)


def test_pd_collapse_of_a_bounded_complex_ignores_a_window_short_of_its_support():
    c = random_contractible_complex(random.Random(2), ZZ)
    span = c.support()
    v = pd_bound_collapse(c, EngineConfig.for_ring(ZZ), (span[0] - 1, span[1] + 3))
    assert v.ok and v.code == "collapsed" and not v.window_relative
    assert v == pd_bound_collapse(c, EngineConfig.for_ring(ZZ), (span[0] - 2, span[1] + 2))


PROBE_RINGS = [ZZ, Fp(7), Zmod(4), Zmod(8), Zmod(12)]


def _boundary_relation(rng, ring, c):
    """(j, a relation a . z = 0 among boundaries z in degree j of c)."""
    lo, hi = c.support()
    j = rng.choice([k for k in range(lo + 1, hi + 1) if c.rank(k - 1) and c.rank(k)])
    a = random_matrix(rng, ring, 1, rng.randint(1, 3), 5)
    k = kernel_right(a)
    z = c.diff(j - 1) @ random_matrix(rng, ring, c.rank(j - 1), k.cols, 3) @ k.transpose()
    return j, FlatRelation(ring, a, z)


@pytest.mark.parametrize("ring", PROBE_RINGS, ids=str)
def test_cycle_probe_certifies_seeded_relations_with_a_lift(ring):
    rng = random.Random(f"cycle-probe/{ring}")
    for _ in range(20):
        c = random_contractible_complex(rng, ring)
        j, rel = _boundary_relation(rng, ring, c)
        v = cycle_flatness_probe(c, j, rel)
        assert v.ok and v.code == "certified", (v.code, v.details)
        cert = v.details["certificate"]
        assert check_certificate(rel, cert.certificate)
        # the lift F lies in Hom(M, Q^(j-1)) for the module M the z's
        # span, and d^(j-1) F = Z
        assert c.diff(j - 1) @ cert.lift == rel.z
        assert (cert.lift @ kernel_right(rel.z)).is_zero()


def test_a_cycle_probe_beyond_the_size_limit_is_refused_before_it_is_built():
    # F_5^66 --I--> F_5^66 is exact at 1; the 66 z's are e_0 .. e_64 and e_0
    # again, so M has 65 functionals and Hom(M, Q^0) 4356 x 4290
    # generators: the Kronecker product that builds them, about 428 MB, is
    # refused before its cells are allocated
    ring, r = Fp(5), 66
    q = Complex(ring, "left", {0: r, 1: r}, {0: Mat.identity(ring, r)})
    z = Mat(ring, r, r, tuple(int(i == (j if j < r - 1 else 0)) for i in range(r)
                              for j in range(r)))
    rel = FlatRelation(ring, Mat(ring, 1, r, (1,) + (0,) * (r - 2) + (-1,)), z)
    tracemalloc.start()
    try:
        with pytest.raises(MatrixError, match=f"{r * r * (r - 1) * r} cells"):
            cycle_flatness_probe(q, 1, rel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 22, peak


def test_a_certified_cycle_probe_makes_three_solves(count_eliminations):
    # exactness of Q at j, then one solve in Hom(M, Q) for the hypothesis
    # and the lift together, then the free certificate; over Z every
    # kernel and every solve is one Bareiss pass over A, which each solve
    # then replays on B, and the span of a matrix that has not eliminated
    # one is a pass over its transpose
    calls = count_eliminations()
    q = exact_three_term()
    rel = FlatRelation(ZZ, Mat(ZZ, 1, 2, (2, -1)), Mat(ZZ, 2, 2, (1, 2, 2, 4)))
    assert cycle_flatness_probe(q, -1, rel).ok
    # the cycles of Q at j and its exactness (a solve: a pass and a
    # replay); the relations of the z's, then the span of those relations,
    # M's presentation; the functionals of M (once, though M appears in two
    # Hom degrees), the cycles of Hom(M, Q) at j and the Hom solve; the
    # free certificate's row kernel and its solve
    assert calls.bareiss == ["kernel", "kernel", "replay", "kernel", "kernel", "kernel", "kernel",
                             "kernel", "replay", "kernel", "kernel", "replay"]
    relations = kernel_right(rel.z)
    assert calls.passes[3] == relations.transpose().row_list()
