"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line (run with -s to see them).  Tolerances are exact or
exact-at-stated-precision throughout; nothing is calibrated later.
"""

import io
import itertools
import json
import random

import pytest

from dforge.fields import field_make
from dforge.poly import PolyRing, ResidueRing, FunctionField, trim
from dforge.skew import skew_kernel
from dforge.drinfeld import (DrinfeldModule, dm_torsion, torsion_basis,
                             rank1_universal, LevelStructure,
                             carlitz_cyclotomic, CyclotomicRing)
from dforge.weil import (exterior_power2, motive_oracle, moore_pair,
                         PairingContext, weil_map)
from dforge.cusps import census, gl2_enum, subgroups, MatrixRing
from dforge.tate import (tate_lattice, tate_module, j_expansion,
                         functional_equation_precision, h_sigma,
                         h_sigma_verify, h_sigma_obstruction, NotInN,
                         specialize, series_canon)
from dforge.reduction import (stable_normalize, drinfeld_approx,
                              lattice_recover, triple_extract)
from dforge import cli
from dforge import selftest


def _report(num, text):
    print("ACCEPTANCE %s: PASS  %s" % (num, text))


def _win(*vals, cap=8):
    ps = [v for v in vals if v is not None]
    return min(ps + [cap])


# -- 1. cusp census exactness ---------------------------------------------


def test_criterion_1_census():
    F3 = field_make(3, 1, 1)
    A = PolyRing(F3)
    T = A.gen()
    c1 = census(F3, T)
    assert (c1["cusp_count"], c1["component_count"],
            c1["x0_cusp_count"]) == (4, 1, 2)
    c2 = census(F3, A.mul(T, T))
    assert (c2["cusp_count"], c2["component_count"]) == (36, 3)
    c3 = census(F3, (1, 0, 1))
    assert c3["cusp_count"] == 40
    assert c3["mode"] == "enumeration"
    _report("1", "census T: 4/1/2, T^2: 36/3, T^2+1: cusps 40 "
                 "(exact, by enumeration)")


def test_criterion_1_component_count_T2plus1_as_stated():
    """component_count = [(A/fA)^* : F_q^*] = 4 for f = T^2+1, q = 3.

    T^2+1 has no root in F_3, so A/fA is the field F_9: 8 units, index
    8/2 = 4 over F_3^*.  The value once recorded here, 40, is the cusp
    count of the same curve (criterion 1); as a component count it would
    need 80 units in a ring of 9 elements.  The census value is checked
    against counts made outside ``census``: the enumerated unit group of
    A/fA, and deg Phi_f = #(A/fA)^*, whose F_q^*-fixed part of
    R' = A_f[lam]/(Phi_f) (the base of M^1(f), one point per geometric
    component) has rank deg Phi_f / (q-1).
    """
    F3 = field_make(3, 1, 1)
    A = PolyRing(F3)
    f = (1, 0, 1)
    q = F3.size
    c3 = census(F3, f)
    assert c3["mode"] == "enumeration"
    assert c3["component_count"] == 4
    units = len(ResidueRing(A, f).units())
    assert units == 8
    assert c3["component_count"] == units // (q - 1)
    phi_deg = len(carlitz_cyclotomic(A, f)) - 1
    assert phi_deg == units
    Rp = CyclotomicRing(F3, f)
    fixed_rank = sum(1 for j in range(Rp.d)
                     if Rp.in_invariant_subring(Rp.reduce_power(j)))
    assert fixed_rank == phi_deg // (q - 1) == c3["component_count"]
    _report("1b", "component count T^2+1 = 4 = [F_9^* : F_3^*], equal to "
                  "enumerated units 8/(q-1) and to the F_q^*-fixed rank of "
                  "R' (deg Phi_f = 8); 40 is the cusp count, not this")


# -- 2. formula identity [GL2:N] = |SL2|/(Q(q-1)) --------------------------


def test_criterion_2_formula_identity():
    checked = 0
    for p in (2, 3):
        K = field_make(p, 1, 1)
        A = PolyRing(K)
        for d in (1, 2):
            for f in A.monic_polys(d):
                rep = census(K, f, enumerate_groups=(K.size ** d <= 9))
                assert rep["geometric_cusps"] == rep["cusp_count"], f
                checked += 1
    _report("2", "[GL2:N] = |SL2|/(Q(q-1)) for %d moduli, q in {2,3}, "
                 "deg f <= 2" % checked)


# -- 3. Weil equivariance --------------------------------------------------


def test_criterion_3_weil_equivariance_T_exhaustive():
    F3 = field_make(3, 1, 1)
    A = PolyRing(F3)
    T = A.gen()
    phi = DrinfeldModule(A, F3, (2, 0, 1))
    tor = dm_torsion(phi, T)
    lvl = torsion_basis(tor)
    ctx = PairingContext.build(tor.phi_ext, lvl)
    R = lvl.R
    M = MatrixRing(R)
    F = ctx.psi_field
    _, mu1, _ = weil_map(tor.phi_ext, lvl, ctx=ctx)
    count = 0
    for a, b, c, d in itertools.product(list(R.elements()), repeat=4):
        s = ((a, b), (c, d))
        det = M.det(s)
        if not R.is_unit(det):
            continue
        _, mus, _ = weil_map(tor.phi_ext, lvl.compose(s), ctx=ctx)
        assert mus == ctx.psi.image(trim(det)).eval(mu1, ydom=F), s
        count += 1
    assert count == 48
    _report("3a", "mu(1) equivariance exhaustively over all 48 sigma "
                  "in GL2(F_3), f = T")


def test_criterion_3_weil_equivariance_T2_random200():
    F3 = field_make(3, 1, 1)
    A = PolyRing(F3)
    T2 = A.mul(A.gen(), A.gen())
    phi = DrinfeldModule(A, F3, (2, 0, 1))
    tor = dm_torsion(phi, T2)
    lvl = torsion_basis(tor)
    ctx = PairingContext.build(tor.phi_ext, lvl)
    R = lvl.R
    M = MatrixRing(R)
    F = ctx.psi_field
    _, mu1, _ = weil_map(tor.phi_ext, lvl, ctx=ctx)
    rng = random.Random(20260809)
    checked = 0
    while checked < 200:
        s = ((R.from_index(rng.randrange(R.size)),
              R.from_index(rng.randrange(R.size))),
             (R.from_index(rng.randrange(R.size)),
              R.from_index(rng.randrange(R.size))))
        det = M.det(s)
        if not R.is_unit(det):
            continue
        _, mus, _ = weil_map(tor.phi_ext, lvl.compose(s), ctx=ctx)
        assert mus == ctx.psi.image(trim(det)).eval(mu1, ydom=F), s
        checked += 1
    _report("3b", "mu(1) equivariance for 200 random sigma, f = T^2")


# -- 4. exterior power: oracle and Moore -----------------------------------


def test_criterion_4_exterior_oracle_and_moore():
    F3 = field_make(3, 1, 1)
    F9 = field_make(3, 1, 2)
    A = PolyRing(F3)
    rng = random.Random(4)
    n_checked = 0
    for _ in range(12):
        th, g = F9.rand(rng), F9.rand(rng)
        d = 0
        while d == 0:
            d = F9.rand(rng)
        m = DrinfeldModule(A, F9, (th, g, d))
        assert motive_oracle(m).phi_T == exterior_power2(m).phi_T
        n_checked += 1
    Ath = PolyRing(F3, "th")
    K = FunctionField(Ath)
    for _ in range(10):
        th, g = K.rand(rng, 2), K.rand(rng, 2)
        d = K.zero()
        while d == K.zero():
            d = K.rand(rng, 1)
        m = DrinfeldModule(A, K, (th, g, d))
        assert motive_oracle(m).phi_T == exterior_power2(m).phi_T
        n_checked += 1
    assert n_checked >= 20
    # Moore pairing: f = T, lands in psi[T], equals weil up to one unit
    T = A.gen()
    phi = DrinfeldModule(A, F3, (2, 0, 1))
    tor = dm_torsion(phi, T)
    lvl = torsion_basis(tor)
    ctx = PairingContext.build(tor.phi_ext, lvl)
    F = tor.field
    psi = ctx.psi
    ker = set(skew_kernel(psi.image(T)))
    units = [u for u in lvl.R.elements() if lvl.R.is_unit(u)]
    matches = []
    for crep in units:
        ok = True
        for u in tor.points:
            for v in tor.points:
                if moore_pair(F, u, v) != \
                        psi.image(trim(crep)).eval(ctx.pair(u, v), ydom=F):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            matches.append(crep)
    for u in tor.points:
        for v in tor.points:
            assert moore_pair(F, u, v) in ker
    assert len(matches) == 1
    _report("4", "%d oracle agreements; moore = weil up to the single "
                 "unit %r" % (n_checked, matches[0]))


# -- 5. Tate functional equation -------------------------------------------


def test_criterion_5_functional_equation(tate_T):
    te = tate_T
    L = te.lattice
    A = L.A
    T = A.gen()
    N = te.N
    precs = []
    for a in (T, A.mul(T, T), (1, 1)):
        p = functional_equation_precision(L, te.e, te.phi, a)
        assert p is None or p >= N - 4, (a, p)
        precs.append(p)
    _report("5", "e o psi_a = phi_a o e for a in {T, T^2, T+1} at "
                 "precisions %s >= N-4 = %d" % (precs, N - 4))


# -- 6. cusp degeneration structure ----------------------------------------


def test_criterion_6_cusp_degeneration(tate_T):
    te = tate_T
    R = te.ring
    # x = 0 fiber of phi^td equals psi exactly
    assert te.phi.phi_T.coeff(0).coeff(0) == R.theta()
    assert te.g.coeff(0) == te.uni.w
    assert te.delta.valuation() >= 1  # Delta = 0 mod x
    k, alpha = j_expansion(te, te.A.gen())
    assert k > 0
    assert k == 6
    # deterministic reproduction
    uni2 = rank1_universal(field_make(3, 1, 1), (0, 1))
    L2 = tate_lattice(uni2, N=9)
    te2 = tate_module(L2, 9)
    k2, _ = j_expansion(te2, te2.A.gen())
    assert k2 == 6
    _report("6", "x=0 fiber = psi, Delta = 0 mod x, v_x(1/j_T) = %d "
                 "reproduced deterministically" % k)


# the (q, f) cells of the benchmark's tate pool: f = T and T + 1 for
# q = 2..5, and the degree-2 cells
TATE_POOL_CELLS = [(q, f) for q in (2, 3, 4, 5) for f in ("0,1", "1,1")] \
    + [(2, "0,1,1"), (3, "0,0,1"), (3, "0,1,1"), (3, "2,0,1")]


def test_criterion_6_cusp_order_of_jinv():
    # v_x(1/j) = (q-1) q^deg f on every cell, read off the CLI document at
    # the least N the CLI accepts and at N = k; where N >= k, Delta is
    # visible with the same x-order, and below that it is zero to precision
    for q, f in TATE_POOL_CELLS:
        d = f.count(",")
        k = (q - 1) * q ** d
        for N in sorted({q ** d, k}):
            out = io.StringIO()
            argv = ["tate", "--q", str(q), "--f", f, "--N", str(N)]
            assert cli.main(argv, out=out) == 0, argv
            doc = json.loads(out.getvalue())
            assert doc["jinv"]["k"] == str(k), argv
            if N >= k:
                assert doc["Delta"]["low"] == str(k), argv
            else:
                assert doc["Delta"]["coeffs"] == [], argv
    _report("6", "v_x(1/j) = (q-1) q^deg f on %d (q, f) cells, and "
                 "v_x(Delta) = k where N >= k" % len(TATE_POOL_CELLS))


# -- 7. reduction round trip ------------------------------------------------


def test_criterion_7_reduction_round_trip(tate_T):
    te = tate_T
    F9 = field_make(3, 1, 2)
    sp = specialize(te, F9)
    phi_p, k, rrank, xi = stable_normalize(sp.phi, (0, 1))
    assert (k, rrank) == (0, 1)
    res = drinfeld_approx(phi_p, 10)
    assert res.achieved >= 5
    for i in range(max(res.s.deg(), sp.e.deg()) + 1):
        a, b = res.s.coeff(i), sp.e.coeff(i)
        assert a.agree(b, upto=_win(a.prec, b.prec, res.achieved, cap=10))
    ell, _u = lattice_recover(phi_p, res.s, (0, 1), res.psi, 10)
    expected = sp.psi.image((0, 1)).eval(sp.LD.x(-1), ydom=sp.LD)
    assert ell.agree(expected, upto=_win(ell.prec, expected.prec))
    lvl = LevelStructure(sp.phi, (0, 1), (sp.lam10, sp.lam01),
                         canon=series_canon(-3, 8), validate=True)
    triple, _ = triple_extract(sp.phi, lvl, 10)
    one = sp.LD.one()
    assert any(triple.mu1.agree(one.scalar_mul(F9.scalar(c)),
                                upto=_win(triple.mu1.prec, cap=6))
               for c in (1, 2))
    _report("7", "specialized round trip: rank 1, k=0, s = e_Lambda at "
                 "precision %d >= 5, ell and mu recovered" % res.achieved)


# -- 8. h_sigma property ----------------------------------------------------


def test_criterion_8_h_sigma(tate_T):
    te = tate_T
    Rf = ResidueRing(te.A, te.f)
    G = gl2_enum(Rf)
    N_sub = subgroups(Rf, G)[0]
    assert len(N_sub) == 12
    for s in N_sub:
        h = h_sigma(te, s)
        prec = h_sigma_verify(te, s, h, upto=5)
        assert prec >= 5, (s, prec)
    M = MatrixRing(Rf)
    nk = {M.key(x) for x in N_sub}
    outside = [s for s in G if M.key(s) not in nk]
    rng = random.Random(8)
    neg = 0
    for s in rng.sample(outside, 5):
        with pytest.raises(NotInN):
            h_sigma(te, s)
        obs = h_sigma_obstruction(te, s)
        assert obs is not None, s
        neg += 1
    _report("8", "h_sigma verified mod x^5 for all 12 sigma in N; "
                 "valuation obstruction detected for %d sigma outside N"
            % neg)


# -- 9. property suites -----------------------------------------------------


def test_criterion_9_property_suites():
    buf = io.StringIO()
    failures = selftest.run_all(seed=20260809, out=buf)
    lines = buf.getvalue().strip().splitlines()
    assert failures == 0, buf.getvalue()
    assert all(line.startswith("PASS") for line in lines)
    # determinism: a different seed still passes, same suite count
    buf2 = io.StringIO()
    failures2 = selftest.run_all(seed=7, out=buf2)
    assert failures2 == 0
    assert len(buf2.getvalue().strip().splitlines()) == len(lines)
    _report("9", "all %d selftest suites green under fixed seeds"
            % len(lines))
