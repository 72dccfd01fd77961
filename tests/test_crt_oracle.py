"""Chinese-remainder oracles for composite Z/n.

Z/n is the product of the rings Z/p^k over the prime powers p^k that
divide it exactly, so every module and complex over Z/n is the product
of its reductions, and every invariant and verdict must factor the same
way: Z/12 = Z/4 x F_3 and Z/36 = Z/4 x Z/9 (two repeated primes).

  * Smith invariants: a factor d over Z/n gives the factor gcd(d, q) of
    the reduction modulo each prime power q.
  * Split exactness: the complex is split exact over Z/n exactly when
    both reductions are, it is exact in a degree exactly when both are,
    so the first degree a failing verdict names is the least degree
    either reduction names, a homology degree whenever either reduction
    has one.
  * Hom-exactness: Hom(M, Q) over Z/n is the product of the Hom
    complexes of the reductions, so it is exact in a degree exactly
    when both are.
  * Quasi-isomorphism verdicts: the package of M reduces to packages
    of the reductions of M, homotopy equivalent to the ones built over
    each factor, so Hom(cone, Q) is exact in a degree exactly when it
    is over both factors.  The comparison map is scaled by a random c,
    which over a factor stays a quasi-isomorphism only where c acts
    invertibly on the homology, so failing verdicts are compared too.
  * Canonical spans: the span of a matrix over Z/n, reduced modulo a
    prime power q, is the span of the matrix reduced modulo q.  The
    canonical forms differ as matrices, so they are compared after
    canonicalizing.

Base change Z -> F_p is a second oracle on one integer matrix A: the
rank of A mod p counts the Smith factors of A over Z that p does not
divide, so the F_p Smith invariants of A mod p are a 1 for each of
those and p in every other row.  It pits the integer Smith form
against the packed modular core.

Inputs are seeded; each test runs in well under a second.
"""

import random
from math import gcd

import pytest

from homcert.complexes import Complex, split_exactness_check
from homcert import generator
from homcert.generator import build_generator, verify_generator_quasi_iso
from homcert.homspaces import hom_into_complex
from homcert.matrices import Mat, colspan_canonical, smith_invariants
from homcert.modules import FPModule, dual_data
from homcert.rings import Fp, Zmod, ZZ
from homcert.samplers import random_bounded_complex, random_fp_module, random_matrix

FACTORINGS = {12: (Zmod(4), Fp(3)), 36: (Zmod(4), Zmod(9))}


def reduce_mat(m: Mat, ring) -> Mat:
    return Mat(ring, m.rows, m.cols, m.entries)


def reduce_complex(c: Complex, ring) -> Complex:
    return Complex(ring, c.side, dict(c.ranks),
                   {j: reduce_mat(d, ring) for j, d in c.diffs.items()})


@pytest.mark.parametrize("n", sorted(FACTORINGS))
def test_smith_invariants_factor_through_the_prime_powers(n):
    rng = random.Random(f"crt-smith/{n}")
    ring, factors = Zmod(n), FACTORINGS[n]
    for _ in range(1000):
        a = random_matrix(rng, ring, rng.randint(0, 5), rng.randint(0, 5))
        diag = smith_invariants(a)
        for f in factors:
            q = f.modulus
            assert smith_invariants(reduce_mat(a, f)) == [gcd(d, q) for d in diag], (a, f)


@pytest.mark.parametrize("n", sorted(FACTORINGS))
def test_split_exactness_verdicts_factor_through_the_prime_powers(n):
    rng = random.Random(f"crt-split/{n}")
    ring, factors = Zmod(n), FACTORINGS[n]
    window = (-4, 4)  # covers every support the sampler makes
    outcomes = set()
    for _ in range(300):
        c = random_bounded_complex(rng, ring)
        v = split_exactness_check(c, window)
        parts = [split_exactness_check(reduce_complex(c, f), window) for f in factors]
        outcomes.add((v.ok, *(p.ok for p in parts)))
        assert v.ok == all(p.ok for p in parts), c
        if v.ok:
            continue
        failing = [p for p in parts if not p.ok]
        holes = [p for p in failing if p.code == "not_exact"]
        want = ("not_exact", min(p.details["degree"] for p in holes)) if holes \
            else ("exact_not_split", min(p.details["degree"] for p in failing))
        assert (v.code, v.details["degree"]) == want, c
    # not vacuous: each reduction fails alone somewhere, and some pass both
    assert {(False, False, True), (False, True, False), (True, True, True)} <= outcomes


@pytest.mark.parametrize("n", sorted(FACTORINGS))
def test_hom_exactness_factors_through_the_prime_powers(n):
    rng = random.Random(f"crt-hom/{n}")
    ring, factors = Zmod(n), FACTORINGS[n]
    outcomes = set()
    for _ in range(300):
        m = random_fp_module(rng, ring, max_rank=2)
        q = random_bounded_complex(rng, ring)
        whole = hom_into_complex(m, q)
        parts = [hom_into_complex(FPModule(f, m.side, reduce_mat(m.presentation, f)),
                                  reduce_complex(q, f)) for f in factors]
        for j in range(-2, 3):
            exact = (whole.is_exact_at(j), *(p.is_exact_at(j) for p in parts))
            outcomes.add(exact)
            assert exact[0] == all(exact[1:]), (m, q, j)
    # not vacuous: each reduction fails alone somewhere, and some pass both
    assert {(False, False, True), (False, True, False), (True, True, True)} <= outcomes


def _scaled_dual_data(c: int):
    """dual_data with the comparison scaled by c."""
    def scaled(m: FPModule):
        mstar, K = dual_data(m)
        return mstar, K.scale(c)
    return scaled


@pytest.mark.parametrize("n", sorted(FACTORINGS))
def test_quasi_iso_verdicts_factor_through_the_prime_powers(n, monkeypatch):
    # each package is built with its comparison scaled by c
    rng = random.Random(f"crt-qiso/{n}")
    ring, factors = Zmod(n), FACTORINGS[n]
    compared, outcomes = 0, set()
    for _ in range(300):
        m = random_fp_module(rng, ring, max_rank=2)
        q = random_bounded_complex(rng, ring, max_length=3, lo=-1, hi=1)
        c = rng.randrange(1, n)
        with monkeypatch.context() as patch:
            patch.setattr(generator, "dual_data", _scaled_dual_data(c))
            pkgs = [build_generator(m), *(build_generator(FPModule(f, m.side,
                                                                   reduce_mat(m.presentation, f)))
                                          for f in factors)]
        if not all(pkg.complete for pkg in pkgs):
            continue
        targets = [q, *(reduce_complex(q, f) for f in factors)]
        v, *parts = [verify_generator_quasi_iso(pkg, target, (-4, 4))
                     for pkg, target in zip(pkgs, targets)]
        compared += 1
        outcomes.add((v.ok, *(p.ok for p in parts)))
        failing = [p.details["degree"] for p in parts if not p.ok]
        want = (False, "hom_not_exact", min(failing)) if failing else (True, "hom_exact", None)
        assert (v.ok, v.code, v.details.get("degree")) == want, (m, q, c)
    # not vacuous: cases were compared, each reduction fails alone
    # somewhere, and some pass both
    assert compared
    assert {(False, False, True), (False, True, False), (True, True, True)} <= outcomes


@pytest.mark.parametrize("n", sorted(FACTORINGS))
def test_canonical_spans_reduce_to_the_canonical_spans_of_the_factors(n):
    rng = random.Random(f"crt-span/{n}")
    ring, factors = Zmod(n), FACTORINGS[n]
    differs = 0
    for _ in range(1000):
        a = random_matrix(rng, ring, rng.randint(0, 5), rng.randint(0, 5))
        span = colspan_canonical(a)
        for f in factors:
            want = colspan_canonical(reduce_mat(a, f))
            assert colspan_canonical(reduce_mat(span, f)) == want, (a, f)
            differs += reduce_mat(span, f) != want
    # not vacuous: the reduced form is often not the factor's own
    assert differs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_smith_invariants_mod_p_count_the_integer_factors_p_does_not_divide(p):
    rng = random.Random(f"base-change/{p}")
    divided = 0
    for _ in range(1000):
        a = random_matrix(rng, ZZ, rng.randint(0, 5), rng.randint(0, 5))
        factors = smith_invariants(a)
        units = sum(d % p != 0 for d in factors)
        divided += units < len(factors)
        assert smith_invariants(reduce_mat(a, Fp(p))) == [1] * units + [p] * (a.rows - units), a
    # not vacuous: p divides some nonzero integer factor
    assert divided
