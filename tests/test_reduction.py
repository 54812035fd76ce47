import json
import os

import pytest

from dforge import serialize
from dforge.fields import field_make
from dforge.poly import PolyRing
from dforge.series import Series, LaurentDomain
from dforge.drinfeld import DrinfeldModule, LevelStructure
from dforge.tate import specialize, series_canon
from dforge.reduction import (newton_slopes, stable_normalize,
                              drinfeld_approx, tau_series_invert,
                              additive_roots, lattice_recover,
                              triple_extract, NonIntegralSlope, NoLattice)


@pytest.fixture(scope="module")
def F9():
    return field_make(3, 1, 2)


@pytest.fixture(scope="module")
def spec9(tate_T, F9):
    """The (q=3, f=T) Tate expansion specialized to F_9((x))."""
    return specialize(tate_T, F9)


def _win(*vals, cap=8):
    ps = [v for v in vals if v is not None]
    return min(ps + [cap])


def test_newton_slopes_tate(spec9):
    sl = newton_slopes(spec9.phi.image((0, 1)))
    assert sl == [(0, 2), (1, 6)]
    # root-count consistency: sum of lengths = q^(r deg f) - 1
    assert sum(l for _, l in sl) == 9 - 1


def test_newton_slopes_units(F9, A):
    LD = LaurentDomain(F9, default_prec=10)
    phi = DrinfeldModule(A, LD, [Series.const(F9, c, 10)
                                 for c in (4, 1, 1)])
    assert newton_slopes(phi.image((0, 1))) == [(0, 8)]
    psi = DrinfeldModule(A, LD, [Series.const(F9, c, 10)
                                 for c in (4, 1)])
    assert newton_slopes(psi.image((0, 1))) == [(0, 2)]


def test_stable_normalize_tate(spec9):
    phi_p, k, rrank, xi = stable_normalize(spec9.phi, (0, 1))
    assert k == 0 and rrank == 1
    assert phi_p.phi_T == spec9.phi.phi_T


def test_stable_normalize_good_reduction(F9, A):
    LD = LaurentDomain(F9, default_prec=10)
    phi = DrinfeldModule(A, LD, [Series.const(F9, c, 10)
                                 for c in (4, 1, 1)])
    _, k, rrank, _ = stable_normalize(phi, (0, 1))
    assert (k, rrank) == (0, 2)


def test_stable_normalize_nonintegral(F9, A):
    LD = LaurentDomain(F9, default_prec=12)
    phi = DrinfeldModule(A, LD, (Series.const(F9, 4, 12),
                                 Series.const(F9, 1, 12),
                                 Series(F9, 1, (1,), 12)))
    with pytest.raises(NonIntegralSlope):
        stable_normalize(phi, (0, 1))


def test_stable_normalize_twist_invariance(spec9):
    # conjugating by a power of pi lands in the same P'-class
    LD = spec9.LD
    tw = spec9.phi.twist(LD.x(2))
    phi_p, k, rrank, _ = stable_normalize(tw, (0, 1))
    assert (k, rrank) == (2, 1)
    for c1, c2 in zip(phi_p.phi_T.coeffs, spec9.phi.phi_T.coeffs):
        assert c1.agree(c2, upto=_win(c1.prec, c2.prec))


def test_drinfeld_approx_matches_exponential(spec9):
    phi_p, _, _, _ = stable_normalize(spec9.phi, (0, 1))
    res = drinfeld_approx(phi_p, 10)
    assert res.achieved >= 10 - 4
    for i in range(max(res.s.deg(), spec9.e.deg()) + 1):
        a, b = res.s.coeff(i), spec9.e.coeff(i)
        assert a.agree(b, upto=_win(a.prec, b.prec, res.achieved, cap=10))
    # s = 1 mod pi
    for i in range(1, res.s.deg() + 1):
        vi = res.s.coeff(i)
        assert vi.is_zero() or vi.valuation() >= 1


def test_drinfeld_approx_psi(spec9):
    phi_p, _, _, _ = stable_normalize(spec9.phi, (0, 1))
    res = drinfeld_approx(phi_p, 10)
    c1 = res.psi.phi_T.coeff(1)
    want = spec9.psi.phi_T.coeff(1)
    assert c1.agree(want, upto=_win(c1.prec, want.prec))
    # conjugation identity: phi' s = s psi to the achieved precision
    LD = spec9.LD
    F = phi_p.phi_T.mul(res.s).sub(res.s.mul(res.psi.phi_T))
    for c in F.coeffs:
        assert c.truncate(res.achieved).is_zero()


def test_drinfeld_approx_rank1_trivial(spec9, A):
    res = drinfeld_approx(spec9.psi, 10)
    assert res.s.deg() == 0 and res.s.coeff(0).coeff(0) == 1


def test_tau_series_invert(spec9):
    phi_p, _, _, _ = stable_normalize(spec9.phi, (0, 1))
    res = drinfeld_approx(phi_p, 10)
    sinv = tau_series_invert(res.s)
    comp = res.s.mul(sinv, cap=sinv.deg())
    assert comp.coeff(0).agree(spec9.LD.one(),
                               upto=_win(comp.coeff(0).prec))
    for i in range(1, sinv.deg() + 1):
        assert comp.coeff(i).is_zero()


def test_additive_roots_counts(spec9):
    pts = additive_roots(spec9.phi.image((0, 1)), expected=9)
    assert len(pts) == 9
    vals = sorted((p.valuation() for p in pts if not p.is_zero()))
    assert vals == [-1] * 6 + [0] * 2
    # each is a root to good precision
    phif = spec9.phi.image((0, 1))
    for p in pts:
        img = phif.eval(p, ydom=spec9.LD)
        assert img.truncate(5).is_zero()


def test_lattice_recover(spec9):
    phi_p, _, _, _ = stable_normalize(spec9.phi, (0, 1))
    res = drinfeld_approx(phi_p, 10)
    ell, u = lattice_recover(phi_p, res.s, (0, 1), res.psi, 10)
    assert ell.valuation() < 0
    expected = spec9.psi.image((0, 1)).eval(spec9.LD.x(-1), ydom=spec9.LD)
    assert ell.agree(expected, upto=_win(ell.prec, expected.prec))
    # A-module stability: psi_a(ell) stays in ker(s) mod precision
    for a in ((0, 1), (1, 1), (0, 0, 1)):
        la = res.psi.image(a).eval(ell, ydom=spec9.LD)
        img = res.s.eval(la, ydom=spec9.LD)
        assert img.truncate(4).is_zero()


def test_lattice_recover_good_reduction(F9, A):
    LD = LaurentDomain(F9, default_prec=10)
    phi = DrinfeldModule(A, LD, [Series.const(F9, c, 10)
                                 for c in (4, 1, 1)])
    with pytest.raises(NoLattice):
        lattice_recover(phi, None, (0, 1), None, 10)


@pytest.fixture(scope="module")
def triple9(spec9):
    lvl = LevelStructure(spec9.phi, (0, 1), (spec9.lam10, spec9.lam01),
                         canon=series_canon(-3, 8), validate=True)
    triple, approx = triple_extract(spec9.phi, lvl, 10)
    return lvl, triple, approx


def test_triple_extract_round_trip(spec9, triple9):
    lvl, triple, approx = triple9
    F9 = spec9.field
    # psi matches the specialized universal module
    for i in (0, 1):
        a = triple.psi.phi_T.coeff(i)
        b = spec9.psi.phi_T.coeff(i)
        assert a.agree(b, upto=_win(a.prec, b.prec))
    # mu matches the specialized mu(1) = 1 up to F_q^*
    mu = triple.mu1
    one = spec9.LD.one()
    assert any(mu.agree(one.scalar_mul(F9.scalar(c)),
                        upto=_win(mu.prec, cap=6)) for c in (1, 2))
    # ell matches the specialized psi_T(1/x)
    expected = spec9.psi.image((0, 1)).eval(spec9.LD.x(-1), ydom=spec9.LD)
    assert triple.ell.agree(expected,
                            upto=_win(triple.ell.prec, expected.prec))
    assert triple.report["approx_achieved"] >= 5


def test_triple_extract_pins(triple9):
    # exact mu1, ell and report, so that any change in how the twisted
    # torsion is charted and keyed shows here
    _, triple, _ = triple9
    assert (triple.mu1.low, triple.mu1.coeffs, triple.mu1.prec) == \
        (0, (1,), None)
    assert (triple.ell.low, triple.ell.coeffs, triple.ell.prec) == \
        (-3, (2, 0, 1), 1)
    assert triple.report == {"k": 0, "reduction_rank": 1,
                             "approx_achieved": 10, "tau_degree": 2,
                             "ell_valuation": -3}


def test_triple_sigma_invariance(spec9, triple9):
    # det(sigma) in F_q^* leaves the triple unchanged up to F_q^*
    lvl, triple, _ = triple9
    F9 = spec9.field
    R = lvl.R
    sigma = (((2,), R.one()), (R.zero(), (2,)))  # det = 4 = 1 in F_3
    lvl2 = LevelStructure(spec9.phi, (0, 1), lvl.compose(sigma).images,
                          canon=series_canon(-3, 8), validate=False)
    t2, _ = triple_extract(spec9.phi, lvl2, 10)
    assert any(t2.mu1.agree(triple.mu1.scalar_mul(F9.scalar(c)),
                            upto=_win(t2.mu1.prec, triple.mu1.prec, cap=6))
               for c in (1, 2))
    assert t2.ell.agree(triple.ell,
                        upto=_win(t2.ell.prec, triple.ell.prec))


def test_unit_conjugation_invariance(spec9):
    # eq-(1)/(2) sanity: a unit twist changes nothing but the same
    # unit's action on the triple data
    F9 = spec9.field
    LD = spec9.LD
    v = Series.const(F9, 5, None)  # a unit of V
    tw = spec9.phi.twist(v)
    lvl = LevelStructure(tw, (0, 1),
                         (spec9.lam10.mul(v), spec9.lam01.mul(v)),
                         canon=series_canon(-3, 8), validate=False)
    t2, _ = triple_extract(tw, lvl, 10)
    phi_p, k, rrank, _ = stable_normalize(tw, (0, 1))
    assert (k, rrank) == (0, 1)
    # the recovered lattice generator is the v-scaled one
    base = spec9.psi.image((0, 1)).eval(LD.x(-1), ydom=LD)
    scaled = base.mul(v)
    got = t2.ell
    ok = any(got.agree(scaled.scalar_mul(F9.scalar(c)),
                       upto=_win(got.prec, scaled.prec))
             for c in (1, 2))
    assert ok


def test_drinfeld_approx_small_tau_degree(spec9):
    # a smaller starting tau-degree gives the same approximant (the
    # omitted coefficients vanish at this precision)
    phi_p, _, _, _ = stable_normalize(spec9.phi, (0, 1))
    res0 = drinfeld_approx(phi_p, 10, tau_degree=1)
    res2 = drinfeld_approx(phi_p, 10)
    assert res0.achieved >= 6
    for i in range(max(res0.s.deg(), res2.s.deg()) + 1):
        a, b = res0.s.coeff(i), res2.s.coeff(i)
        assert a.agree(b, upto=_win(a.prec, b.prec, res0.achieved, cap=10))


def test_triple_extract_maps_each_twisted_point_once(spec9, monkeypatch):
    # the twisted chart keys the points it mapped for the torsion list
    lvl = LevelStructure(spec9.phi, (0, 1), (spec9.lam10, spec9.lam01),
                         canon=series_canon(-3, 8), validate=True)
    calls = []
    real = LevelStructure.map

    def counted(self, vec):
        calls.append(vec)
        return real(self, vec)

    monkeypatch.setattr(LevelStructure, "map", counted)
    triple_extract(spec9.phi, lvl, 10)
    assert len(calls) == 9


def _pool_phi(job_id):
    """phi of a `reduce` document from the benchmark pool, over F_q^m((x))
    as the command builds it."""
    pool = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench", "pool.json")
    with open(pool) as fh:
        strata = json.load(fh)["reduce"]
    doc = next(job["doc"] for jobs in strata.values() for job in jobs
               if job["id"] == job_id)
    q = int(doc["q"])
    field = field_make(q, 1, int(doc["m"]))
    LD = LaurentDomain(field, default_prec=int(doc["N"]) + 1, var="x")
    phi = [serialize.parse_series_field(c, field) for c in doc["phi"]]
    return DrinfeldModule(PolyRing(field_make(q, 1, 1)), LD, phi)


def test_additive_roots_q2_digit_lifting_forms_no_inverse(monkeypatch):
    # phi'_T on this cell has digits on the face c_0 a + c_1 a^2; all four
    # roots lift by face equations, none by inverting c_0
    phi = _pool_phi("reduce sp.q2.T.F4 lam=2 k=0")
    phi_p, k, rrank, _ = stable_normalize(phi, (0, 1))
    assert (k, rrank) == (0, 1)
    calls = []
    real = Series.inv

    def counted(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Series, "inv", counted)
    sp = phi_p.phi_T
    roots = additive_roots(sp, expected=4)
    assert calls == []
    assert len(roots) == 4
    for z in roots:
        assert sp.eval(z, ydom=phi_p.dom).is_zero()
