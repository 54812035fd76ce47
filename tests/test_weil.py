import itertools
import random

import pytest

from dforge.fields import field_make
from dforge.poly import PolyRing, FunctionField, trim
from dforge.skew import skew_kernel
from dforge.drinfeld import (DrinfeldModule, LevelStructure, dm_torsion,
                              torsion_basis)
from dforge.weil import (exterior_power2, motive_oracle, moore_pair,
                         PairingContext, weil_map)
from dforge.cusps import MatrixRing


@pytest.fixture(scope="module")
def pairing_T(A, F3):
    """(tor, lvl, ctx) for phi_T = 2 + tau^2, f = T."""
    phi = DrinfeldModule(A, F3, (2, 0, 1))
    tor = dm_torsion(phi, A.gen())
    lvl = torsion_basis(tor)
    ctx = PairingContext.build(tor.phi_ext, lvl)
    return tor, lvl, ctx


def test_exterior_power_formulas(A, F3):
    # theta, g=0, Delta=1 -> psi_T = theta + 2 tau
    phi = DrinfeldModule(A, F3, (2, 0, 1))
    assert exterior_power2(phi).phi_T.coeffs == (2, 2)
    # Delta = -1 -> Carlitz
    assert exterior_power2(
        DrinfeldModule(A, F3, (2, 1, 2))).phi_T.coeffs == (2, 1)
    # g does not matter
    assert exterior_power2(
        DrinfeldModule(A, F3, (2, 2, 1))).phi_T.coeffs == (2, 2)


def test_exterior_rejects_bad_input(A, F3):
    with pytest.raises(ValueError):
        exterior_power2(DrinfeldModule(A, F3, (2, 1)))


def test_motive_oracle_agreement_F9(A):
    F9 = field_make(3, 1, 2)
    rng = random.Random(47)
    for _ in range(25):
        th, g = F9.rand(rng), F9.rand(rng)
        d = 0
        while d == 0:
            d = F9.rand(rng)
        m = DrinfeldModule(A, F9, (th, g, d))
        assert motive_oracle(m).phi_T == exterior_power2(m).phi_T


def test_motive_oracle_agreement_function_field(F3):
    Ath = PolyRing(F3, "th")
    K = FunctionField(Ath)
    A = PolyRing(F3)
    rng = random.Random(53)
    for _ in range(20):
        th, g = K.rand(rng, 2), K.rand(rng, 2)
        d = K.zero()
        while d == K.zero():
            d = K.rand(rng, 1)
        m = DrinfeldModule(A, K, (th, g, d))
        assert motive_oracle(m).phi_T == exterior_power2(m).phi_T


def test_weil_pair_basis_and_alternating(pairing_T):
    tor, lvl, ctx = pairing_T
    assert ctx.pair(lvl.images[0], lvl.images[1]) == ctx.t0
    for u in tor.points:
        assert ctx.pair(u, u) == tor.field.zero()


def test_weil_pair_bilinear_exhaustive(pairing_T, A):
    tor, lvl, ctx = pairing_T
    F = tor.field
    psi = ctx.psi
    pts = tor.points
    for u in pts:
        for v in pts:
            w = ctx.pair(u, v)
            assert ctx.pair(v, u) == F.neg(w)
            for c in (1, 2):
                assert ctx.pair(F.mul(c, u), v) == \
                    psi.image((c,)).eval(w, ydom=F)
            for u2 in pts[:4]:
                assert ctx.pair(F.add(u, u2), v) == \
                    F.add(w, ctx.pair(u2, v))


def test_weil_pair_action_by_phi_a(pairing_T, A):
    tor, lvl, ctx = pairing_T
    F = tor.field
    phi = tor.phi_ext
    psi = ctx.psi
    t0 = ctx.t0
    for rep in lvl.R.elements():
        if not rep:
            continue
        u = phi.image(rep).eval(lvl.images[0], ydom=F)
        got = ctx.pair(u, lvl.images[1])
        want = psi.image(rep).eval(t0, ydom=F)
        assert got == want


def test_moore_pair(pairing_T):
    tor, lvl, ctx = pairing_T
    F = tor.field
    psi = exterior_power2(tor.phi_ext)
    ker = set(skew_kernel(psi.image((0, 1))))
    pts = tor.points
    for u in pts:
        assert moore_pair(F, u, u) == F.zero()
        for v in pts:
            assert moore_pair(F, u, v) in ker
            for c in (1, 2):
                assert moore_pair(F, u, F.mul(c, v)) == \
                    F.mul(c, moore_pair(F, u, v))


def test_moore_matches_weil_up_to_unit(pairing_T):
    tor, lvl, ctx = pairing_T
    F = tor.field
    psi = ctx.psi
    R = lvl.R
    pts = tor.points
    units = [rep for rep in R.elements() if R.is_unit(rep)]
    matches = [crep for crep in units
               if all(moore_pair(F, u, v) ==
                      psi.image(trim(crep)).eval(ctx.pair(u, v), ydom=F)
                      for u in pts for v in pts)]
    assert len(matches) == 1


def test_weil_map_equivariance_exhaustive_T(pairing_T, A):
    tor, lvl, ctx = pairing_T
    F = tor.field
    R = lvl.R
    M = MatrixRing(R)
    psi = ctx.psi
    _, mu1, _ = weil_map(tor.phi_ext, lvl, ctx=ctx)
    count = 0
    els = list(R.elements())
    for a, b, c, d in itertools.product(els, repeat=4):
        s = ((a, b), (c, d))
        det = M.det(s)
        if not R.is_unit(det):
            continue
        count += 1
        _, mus, _ = weil_map(tor.phi_ext, lvl.compose(s), ctx=ctx)
        assert mus == psi.image(trim(det)).eval(mu1, ydom=F)
    assert count == 48


def test_weil_map_sl2_fixes_mu(pairing_T):
    tor, lvl, ctx = pairing_T
    R = lvl.R
    mu1 = ctx.pair(lvl.images[0], lvl.images[1])
    s = ((R.one(), R.one()), (R.zero(), R.one()))  # det 1
    assert ctx.pair(*lvl.compose(s).images) == mu1


def test_weil_map_returns_valid_rank1_pair(pairing_T, A):
    tor, lvl, ctx = pairing_T
    psi, mu1, _ = weil_map(tor.phi_ext, lvl, ctx=ctx)
    psi_lift = ctx.psi
    lv1 = LevelStructure(psi_lift, A.gen(), (mu1,))
    assert lv1.images == (mu1,)


def test_weil_map_over_series_domain(tate_T):
    # the Tate specialization: mu(1) is the deterministic generator of
    # the exterior module's torsion (basis determinant is 1)
    from dforge.fields import field_make
    from dforge.tate import specialize, series_canon
    from dforge.drinfeld import LevelStructure
    F9 = field_make(3, 1, 2)
    sp = specialize(tate_T, F9)
    lvl = LevelStructure(sp.phi, (0, 1), (sp.lam10, sp.lam01),
                         canon=series_canon(-3, 8), validate=False)
    ctx = PairingContext.build(sp.phi, lvl)
    psi, mu1, _ = weil_map(sp.phi, lvl, ctx=ctx)
    assert psi.phi_T.coeff(1).valuation() == 6  # theta - Delta tau
    assert mu1.valuation() == ctx.t0.valuation()
    window = min(p for p in (mu1.prec, ctx.t0.prec, 2) if p is not None)
    assert mu1.agree(ctx.t0, upto=window)


# -- PairingContext pins: t0 and psi fix every pairing value ---------------


def _series_pin(s):
    return (s.low, tuple(s.coeffs), s.prec)


@pytest.mark.parametrize("f,size,t0", [((0, 1), 9, 3), ((0, 0, 1), 729, 37)])
def test_pairing_context_pins_field(A, F3, f, size, t0):
    # the cells of pairing_T and of acceptance criterion 3: phi_T = 2 +
    # tau^2 over F_3, charted on its split f-torsion
    phi = DrinfeldModule(A, F3, (2, 0, 1))
    tor = dm_torsion(phi, f)
    ctx = PairingContext.build(tor.phi_ext, torsion_basis(tor))
    assert ctx.psi_field is tor.phi_ext.dom
    assert ctx.psi_field.size == size
    assert ctx.t0 == t0
    assert ctx.psi.phi_T.coeffs == (2, 2)


def test_pairing_context_pins_series(tate_T):
    from dforge.tate import specialize, series_canon
    F9 = field_make(3, 1, 2)
    sp = specialize(tate_T, F9)
    lvl = LevelStructure(sp.phi, (0, 1), (sp.lam10, sp.lam01),
                         canon=series_canon(-3, 8), validate=False)
    ctx = PairingContext.build(sp.phi, lvl)
    assert ctx.psi_field is sp.phi.dom
    assert ctx.psi_field.cdom.size == 9
    assert _series_pin(ctx.t0) == (
        -3, (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2), 14)
    assert [_series_pin(c) for c in ctx.psi.phi_T.coeffs] == [
        (0, (1,), None),
        (6, (2, 0, 1, 0, 0, 0, 2, 0, 1, 0, 0, 0, 0, 0, 1), 23)]


def test_pairing_context_rejects_psi_not_rational(A, F3):
    # psi_T = 2 - tau has only the zero T-torsion point over F_3, so phi
    # carries no level T-structure there; the images are not checked
    phi = DrinfeldModule(A, F3, (2, 0, 1))
    lvl = LevelStructure(phi, A.gen(), (1, 2), validate=False)
    with pytest.raises(ValueError, match="1 of 3 points"):
        PairingContext.build(phi, lvl)
