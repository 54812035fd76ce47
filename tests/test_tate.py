import pytest

from dforge.drinfeld import rank1_universal
from dforge.fields import field_make
from dforge.poly import ResidueRing, trim
from dforge.series import PrecisionError, Series
from dforge.skew import SkewPoly
from dforge.tate import (tate_lattice, lattice_exp, tate_module,
                         j_expansion, functional_equation_precision,
                         h_sigma, h_sigma_verify, h_sigma_obstruction,
                         NotInN, universal_assembly, specialize,
                         find_specialization_point)
from dforge.cusps import gl2_enum, subgroups, MatrixRing


@pytest.fixture(scope="module")
def setup(tate_T):
    te = tate_T
    L = te.lattice
    return L, te


def test_lattice_generator(uni_T):
    L = tate_lattice(uni_T, N=9)
    Af = L.ring.Af
    T = (0, 1)
    # ell = psi_T(1/x) = T/x + 2T/x^3
    assert L.ell.valuation() == -3
    assert L.ell.coeff(-1) == L.ring.from_af(Af.from_poly(T))
    assert L.ell.coeff(-3) == L.ring.from_af(Af.from_poly((0, 2)))
    # shell d = deg f: the F_q-multiples of ell
    pts = L.shell_points(0)
    assert len(pts) == 2
    keys = {p.sort_key() for p in pts}
    assert L.ell.sort_key() in keys


def test_shell_valuations(uni_T):
    L = tate_lattice(uni_T, N=9)
    for i in range(3):
        w = L.shell_point(i)
        assert w.valuation() == -(3 ** (1 + i))
        assert L.ring.is_unit(w.leading())


def test_lattice_exp_coefficients(setup):
    L, te = setup
    e = te.e
    Af = L.ring.Af
    s1 = e.coeff(1)
    # s_1 = -1/ell^2 = 2 T^-2 x^6 + T^-2 x^8 mod x^9
    assert s1.coeff(6) == L.ring.from_af(Af.make((2,), 2))
    assert s1.coeff(8) == L.ring.from_af(Af.make((1,), 2))
    for k in (0, 1, 2, 3, 4, 5, 7):
        assert s1.coeff(k) == L.ring.zero()
    # e mod x is the identity additive series
    assert e.coeff(0).coeff(0) == L.ring.one()
    for i in range(1, e.deg() + 1):
        si = e.coeff(i)
        assert si.is_zero() or si.valuation() >= 1


def test_lattice_exp_kills_lattice(setup):
    # the defining kernel property at the stored precision: e vanishes
    # on the F_q-multiples of ell (deeper shells would need a larger
    # working precision to be visible)
    L, te = setup
    for pt in L.shell_points(0):
        img = te.e.eval(pt, ydom=L.LD)
        assert img.is_zero()
        assert img.prec >= te.N + 1 - 4


def test_functional_equation(setup):
    L, te = setup
    A = L.A
    T = A.gen()
    for a in (T, A.mul(T, T), (1, 1)):
        p = functional_equation_precision(L, te.e, te.phi, a)
        assert p is None or p >= te.N + 1 - 4


def test_tate_module_structure(setup):
    L, te = setup
    R = L.ring
    Af = R.Af
    # x = 0 fiber is psi
    assert te.g.coeff(0) == L.uni.w
    assert te.delta.valuation() == 6
    assert te.delta.coeff(6) == R.from_af(Af.from_poly((0, 1)))
    assert R.is_unit(te.delta.leading())
    # unit leading coefficients of phi_a for deg a <= 2
    A = L.A
    for a in ((0, 1), (0, 0, 1), (1, 1), (1, 2, 1)):
        top = te.phi.image(a).coeffs[-1]
        assert R.is_unit(top.leading())


def test_subring_membership(setup):
    L, te = setup
    R = L.ring
    for s in (te.g, te.delta):
        for c in s.coeffs:
            assert R.in_invariant_subring(c)
    for si in te.e.coeffs:
        for c in si.coeffs:
            assert R.in_invariant_subring(c)


def test_level_points(setup):
    L, te = setup
    assert te.lam10.valuation() == -1
    assert te.lam01.valuation() == 0
    lv = te.level(validate=True)  # exactly q^2 span points
    # phi_f(lam10) = e(ell) = 0 to precision
    assert te.achieved["torsion_lam10"] >= te.N + 1 - 4
    assert te.achieved["torsion_lam01"] >= te.N + 1 - 4


def test_j_expansion(setup):
    L, te = setup
    A = L.A
    T = A.gen()
    k, alpha = j_expansion(te, T)
    assert k == 6
    assert alpha.coeff(0) == L.ring.from_af(L.ring.Af.make((1,), 3))
    # both T and T^2 give positive k
    k2, _ = j_expansion(te, A.mul(T, T))
    assert k2 > 0
    with pytest.raises(ValueError):
        j_expansion(te, (1,))


def test_precision_guard(uni_T):
    # shell 0 (e = 1, so e(w) = ell is exact) already meets the bound
    with pytest.raises(PrecisionError, match="shell 0 .*W=3"):
        L = tate_lattice(uni_T, work_prec=3)
        lattice_exp(L, N=9)


# -- oracles: the lattice exponential and 1/j as first written ------------


def lattice_exp_oracle(L):
    """(e, contributing shells): invert e(w)^(q-1) on every shell and stop
    at the first one whose corrections all vanish below W."""
    LD = L.LD
    W = L.work_prec
    q = L.ring.q
    e = SkewPoly.one(LD)
    for i in range(16):
        gq = LD.pow(e.eval(L.shell_point(i), ydom=LD), q - 1)
        ginv = gq.inv(work_prec=W) if gq.prec is None else gq.inv()
        corr = [ginv.mul(LD.qpow(c, 1)).truncate(W) for c in e.coeffs]
        if all(c.is_zero() for c in corr):
            return e, i
        new_coeffs = [e.coeff(0)]
        for k in range(1, len(e.coeffs) + 1):
            new_coeffs.append(e.coeff(k).truncate(W).sub(corr[k - 1])
                              .truncate(W))
        e = SkewPoly(LD, new_coeffs)
    raise AssertionError("oracle did not stabilize")


def j_expansion_oracle(te, a):
    """(k, alpha) with b_d^(q^d + 1) by square-and-multiply."""
    a = trim(a)
    d = te.A.deg(a)
    phi_a = te.phi.image(a)
    bd = phi_a.coeff(d)
    inv_j = phi_a.coeff(2 * d).mul(
        te.LD.pow(bd, te.ring.q ** d + 1).inv())
    k = inv_j.valuation()
    return k, inv_j.shift(-k)


# (q, f, N): deg f = 1 for q = 2..5 and deg f = 2 for q = 2, 3
ORACLE_CELLS = [(2, (0, 1), 12), (2, (1, 1), 9), (3, (0, 1), 9),
                (3, (1, 1), 16), (4, (0, 1), 10), (4, (1, 1), 8),
                (5, (0, 1), 8), (5, (1, 1), 6), (2, (0, 0, 1), 8),
                (2, (1, 1, 1), 9), (3, (0, 0, 1), 9), (3, (2, 0, 1), 9)]


@pytest.fixture(scope="module", params=ORACLE_CELLS,
                ids=["q%d-f%s-N%d" % (q, "".join(map(str, f)), N)
                     for q, f, N in ORACLE_CELLS])
def oracle_cell(request):
    q, f, N = request.param
    p, e = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}[q]
    uni = rank1_universal(field_make(p, e, 1), f)
    return uni, N


def test_lattice_exp_matches_oracle(oracle_cell):
    # Series equality is coefficient for coefficient and precision for
    # precision
    uni, N = oracle_cell
    e = lattice_exp(tate_lattice(uni, N=N), N=N)
    want, _ = lattice_exp_oracle(tate_lattice(uni, N=N))
    assert e.coeffs == want.coeffs


def test_lattice_exp_inverts_only_contributing_shells(oracle_cell,
                                                      monkeypatch):
    # one Series.inv per shell that changes e; the stopping shell is
    # decided by its valuation alone
    uni, N = oracle_cell
    _, contributing = lattice_exp_oracle(tate_lattice(uni, N=N))
    calls = []
    inv = Series.inv

    def counted(self, *args, **kwargs):
        calls.append(1)
        return inv(self, *args, **kwargs)

    L = tate_lattice(uni, N=N)
    monkeypatch.setattr(Series, "inv", counted)
    lattice_exp(L, N=N)
    assert len(calls) == contributing
    assert sorted(L._shells) == list(range(contributing + 1))


def test_lattice_exp_evaluates_no_skew_poly(oracle_cell, monkeypatch):
    # e(w) on a shell comes from the recursion on values, never from the
    # truncated e evaluated at w; the oracle leaves every shell point the
    # lattice exponential reads already computed
    uni, N = oracle_cell
    L = tate_lattice(uni, N=N)
    want, _ = lattice_exp_oracle(L)
    calls = []
    ev = SkewPoly.eval

    def counted(self, *args, **kwargs):
        calls.append(1)
        return ev(self, *args, **kwargs)

    monkeypatch.setattr(SkewPoly, "eval", counted)
    assert lattice_exp(L, N=N).coeffs == want.coeffs
    assert calls == []


def test_j_expansion_matches_oracle(oracle_cell):
    uni, N = oracle_cell
    te = tate_module(tate_lattice(uni, N=N), N)
    T = te.A.gen()
    for a in (T, te.A.mul(T, T)):
        k, alpha = j_expansion(te, a)
        assert (k, alpha) == j_expansion_oracle(te, a)


def test_h_sigma_identity(setup):
    L, te = setup
    Rf = ResidueRing(L.A, L.f)
    M = MatrixRing(Rf)
    h = h_sigma(te, M.identity())
    assert h.delta.agree(te.LD.one(), upto=8)
    assert h_sigma_verify(te, M.identity(), h, upto=5) >= 5


def test_h_sigma_unipotent_formula(setup):
    # sigma = [[1,1],[0,1]]: delta^-1 = 1 + mu(1) x = 1 + x
    L, te = setup
    Rf = ResidueRing(L.A, L.f)
    s = ((Rf.one(), Rf.one()), (Rf.zero(), Rf.one()))
    h = h_sigma(te, s)
    dinv = h.delta.inv()
    assert dinv.coeff(0) == te.ring.one()
    assert dinv.coeff(1) == te.ring.one()
    assert h_sigma_verify(te, s, h, upto=5) >= 5


def test_h_sigma_diagonal_case(setup):
    # sigma = diag(1, alpha): the R'-action is the alpha-Galois map
    L, te = setup
    Rf = ResidueRing(L.A, L.f)
    s = ((Rf.one(), Rf.zero()), (Rf.zero(), (2,)))
    h = h_sigma(te, s)
    lam = te.ring.lam()
    assert h.galois_fn(lam) == te.ring.mul(te.ring.scalar(2), lam)
    assert h_sigma_verify(te, s, h, upto=5) >= 5


def test_h_sigma_all_of_N(setup):
    L, te = setup
    Rf = ResidueRing(L.A, L.f)
    G = gl2_enum(Rf)
    N = subgroups(Rf, G)[0]
    assert len(N) == 12
    for s in N:
        h = h_sigma(te, s)
        assert h_sigma_verify(te, s, h, upto=5) >= 5


def test_h_sigma_rejects_outside_N(setup):
    L, te = setup
    Rf = ResidueRing(L.A, L.f)
    G = gl2_enum(Rf)
    N = subgroups(Rf, G)[0]
    nk = {MatrixRing(Rf).key(x) for x in N}
    M = MatrixRing(Rf)
    outside = [s for s in G if M.key(s) not in nk]
    for s in outside[:5]:
        with pytest.raises(NotInN):
            h_sigma(te, s)
        assert h_sigma_obstruction(te, s) is not None


def test_obstruction_clean_inside_N(setup):
    L, te = setup
    Rf = ResidueRing(L.A, L.f)
    G = gl2_enum(Rf)
    N = subgroups(Rf, G)[0]
    for s in N:
        assert h_sigma_obstruction(te, s) is None


def test_universal_assembly(setup):
    L, te = setup
    asm = universal_assembly(te)
    assert len(asm.reps) == 4
    Rf = asm.Rf
    M = MatrixRing(Rf)
    assert asm.reps[0] == M.identity()
    G = gl2_enum(Rf)
    lv = te.level()
    # locating any sigma reproduces (phi, lambda o sigma) through h_tau
    import random
    rng = random.Random(61)
    for s in rng.sample(G, 10):
        i, tau, h = asm.locate(s)
        target = lv.compose(s)
        _, copy_lv = asm.copies[i]
        for a in (0, 1):
            lhs = h.apply_series(copy_lv.images[a])
            rhs = h.xi.mul(target.images[a])
            assert lhs.sub(rhs).truncate(5).is_zero()
    # identity locates to copy 0 with trivial tau
    i0, tau0, _ = asm.locate(M.identity())
    assert i0 == 0 and tau0 == M.identity()


def test_specialization_point_and_map(setup):
    L, te = setup
    F9 = field_make(3, 1, 2)
    t, u = find_specialization_point(L.uni, F9)
    # Phi_T(u) = u^2 + t = 0
    assert F9.add(F9.mul(u, u), t) == 0
    sp = specialize(te, F9)
    # x = 0 fiber of the specialized module is the specialized psi
    assert sp.phi.phi_T.coeff(0).coeff(0) == sp.t
    assert sp.phi.phi_T.coeff(1).coeff(0) == \
        sp.psi.phi_T.coeff(1).coeff(0)
    assert sp.phi.phi_T.coeff(2).valuation() == 6


def test_tate_level_function(setup):
    from dforge.tate import tate_level
    L, te = setup
    lv = tate_level(te)
    assert lv.images == (te.lam10, te.lam01)


def test_shell_space_dimension(uni_T):
    # shell d is an F_q-space of dimension d+1 beyond deg f (with 0)
    L = tate_lattice(uni_T, N=9)
    assert len(L.shell_points(0)) + 1 == 3
    assert len(L.shell_points(1)) + 1 == 9
