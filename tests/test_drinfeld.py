import random

import pytest

from dforge.fields import field_make
from dforge import linalg
from dforge.poly import (PolyRing, ResidueRing, LocalizedRing,
                         FunctionField)
from dforge.drinfeld import (CyclotomicRing, DrinfeldModule, LevelStructure,
                             dm_torsion, torsion_basis,
                             carlitz_module, carlitz_cyclotomic,
                             rank1_universal, CharacteristicError,
                             RankError)


@pytest.fixture(scope="module")
def F3():
    return field_make(3, 1, 1)


@pytest.fixture(scope="module")
def A(F3):
    return PolyRing(F3)


def test_dm_make_validation(A, F3):
    carl = DrinfeldModule(A, F3, (2, 1))
    assert carl.rank == 1
    rank2 = DrinfeldModule(A, F3, (2, 1, 1))
    assert rank2.rank == 2
    with pytest.raises(RankError):
        DrinfeldModule(A, F3, (2,))


def test_dm_image_carlitz_square(A):
    C = carlitz_module(A)
    T = A.gen()
    ct2 = C.image(A.mul(T, T))
    assert ct2.coeffs == (A.mul(T, T), A.add(T, A.pow(T, 3)), A.one())


def test_dm_image_trivial_cases(A, F3):
    phi = DrinfeldModule(A, F3, (2, 1, 1))
    assert phi.image(A.one()).coeffs == (1,)
    for c in (1, 2):
        assert phi.image((c,)).coeffs == (c,)
    assert phi.image(()).is_zero()


def test_dm_image_is_ring_homomorphism(A):
    F9 = field_make(3, 1, 2)
    phi = DrinfeldModule(A, F9, (5, 3, 1))
    rng = random.Random(31)
    for _ in range(200):
        a, b = A.rand(rng, 2), A.rand(rng, 2)
        assert phi.image(A.mul(a, b)) == phi.image(a).mul(phi.image(b))
        assert phi.image(A.add(a, b)) == phi.image(a).add(phi.image(b))
        assert phi.image(a).deg() == (2 * A.deg(a) if a else
                                      phi.image(a).deg())
        assert phi.image(a).coeff(0) == phi.char_of(a)


def test_torsion_carlitz(A, F3, T=None):
    T = A.gen()
    phi = DrinfeldModule(A, F3, (2, 1))
    tor = dm_torsion(phi, T)
    assert tor.m == 1 and tor.points == [0, 1, 2]


def test_torsion_rank2_count(A, F3):
    T = A.gen()
    phi = DrinfeldModule(A, F3, (2, 0, 1))
    tor = dm_torsion(phi, T)
    assert len(tor.points) == 9
    assert tor.m == 2


def test_torsion_counts_various(A, F3):
    T = A.gen()
    for coeffs, f, r in [((2, 1), A.mul(T, T), 1), ((1, 1, 2), T, 2)]:
        tor = dm_torsion(DrinfeldModule(A, F3, coeffs), f)
        assert len(tor.points) == 3 ** (r * A.deg(f))


def test_torsion_characteristic_guard(A, F3):
    with pytest.raises(CharacteristicError):
        dm_torsion(DrinfeldModule(A, F3, (0, 1)), A.gen())


def test_level_structure(A, F3):
    T = A.gen()
    tor = dm_torsion(DrinfeldModule(A, F3, (2, 0, 1)), T)
    lvl = torsion_basis(tor)
    # colinear pair fails
    pt = next(p for p in tor.points if p != 0)
    with pytest.raises(ValueError):
        LevelStructure(tor.phi_ext, T, (pt, pt))
    # module structure: lambda(a v) = phi_a(lambda(v))
    R = lvl.R
    F = tor.field
    for rep in R.elements():
        got = lvl.map((rep, ()))
        want = tor.phi_ext.image(rep).eval(lvl.images[0], ydom=F)
        assert got == want


def test_twist_properties(A):
    F9 = field_make(3, 1, 2)
    phi = DrinfeldModule(A, F9, (5, 3, 1))
    assert phi.twist(1) == phi
    xi = 7
    assert phi.twist(xi).twist(F9.inv(xi)) == phi
    rng = random.Random(37)
    for _ in range(100):
        x1, x2 = 0, 0
        while not x1:
            x1 = F9.rand(rng)
        while not x2:
            x2 = F9.rand(rng)
        assert phi.twist(x1).twist(x2) == phi.twist(F9.mul(x2, x1))
    with pytest.raises(ValueError):
        phi.twist(0)
    # torsion scales by xi
    T = A.gen()
    tor = dm_torsion(phi, T)
    tw = tor.phi_ext.twist(5)
    tor_tw = sorted(tor.field.mul(5, p) for p in tor.points)
    from dforge.skew import skew_kernel
    assert skew_kernel(tw.image(T)) == tor_tw


def test_carlitz_twist_to_universal_shape(A, F3):
    # Carlitz twisted by lam^-1 has tau-coefficient lam^(q-1)
    uni = rank1_universal(F3, A.gen())
    R = uni.ring
    lam = R.lam()
    C = carlitz_module(A)
    C_R = C.map_coeffs(lambda c: R.from_af(R.Af.from_poly(c)), R)
    tw = C_R.twist(R.inv(lam))
    assert tw.phi_T == uni.psi.phi_T


def test_cyclotomic_polynomials(A):
    T = A.gen()
    # Phi_T = X^2 + T for q = 3
    assert carlitz_cyclotomic(A, T) == ((0, 1), (), (1,))
    # Phi_{T^2} = C_{T^2}/C_T of degree 6
    phi2 = carlitz_cyclotomic(A, A.mul(T, T))
    assert len(phi2) - 1 == 6
    C = carlitz_module(A)
    from dforge.drinfeld import _skew_to_commutative
    from dforge.poly import PolyRing as PR
    AX = PR(A, var="X")
    ct2 = _skew_to_commutative(A, C.image(A.mul(T, T)))
    ct = _skew_to_commutative(A, C.image(T))
    assert AX.mul(phi2, ct) == ct2
    with pytest.raises(ValueError):
        carlitz_cyclotomic(A, (1,))


def test_cyclotomic_degree_is_unit_count(A):
    T = A.gen()
    for f in [T, A.mul(T, T), (1, 0, 1), (1, 1), (2, 1, 1)]:
        assert len(carlitz_cyclotomic(A, f)) - 1 == \
            len(ResidueRing(A, f).units())


def test_rank1_universal_T(A, F3):
    uni = rank1_universal(F3, A.gen())
    R = uni.ring
    Af = R.Af
    # lam^2 = -T, psi_T = T + 2T tau
    assert uni.w == R.from_af(Af.neg(Af.from_poly(A.gen())))
    assert uni.psi.phi_T.coeffs == (R.theta(), uni.w)
    assert uni.torsion_point((1,)) == R.one()
    # lam is invertible
    lam = R.lam()
    assert R.mul(lam, R.inv(lam)) == R.one()


def test_rank1_universal_T2(A, F3):
    uni = rank1_universal(F3, A.mul(A.gen(), A.gen()))
    assert uni.ring.d == 6
    # constructor validated psi_{T^2}(1) = 0


def test_universal_ring_axioms(F3, A):
    uni = rank1_universal(F3, A.gen())
    R = uni.ring
    rng = random.Random(41)
    for _ in range(150):
        a, b, c = R.rand(rng), R.rand(rng), R.rand(rng)
        assert R.mul(a, b) == R.mul(b, a)
        assert R.mul(a, R.mul(b, c)) == R.mul(R.mul(a, b), c)
        assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
        assert R.qpow(R.mul(a, b)) == R.mul(R.qpow(a), R.qpow(b))


def test_invariant_subring_membership(F3, A):
    uni = rank1_universal(F3, A.gen())
    R = uni.ring
    assert R.in_invariant_subring(uni.w)
    assert not R.in_invariant_subring(R.lam())


def test_galois_action(F3, A):
    uni = rank1_universal(F3, A.gen())
    R = uni.ring
    lam = R.lam()
    g2 = R.galois((2,))
    assert g2(lam) == R.mul(R.scalar(2), lam)
    # a ring homomorphism
    rng = random.Random(43)
    for _ in range(50):
        a, b = R.rand(rng), R.rand(rng)
        assert g2(R.mul(a, b)) == R.mul(g2(a), g2(b))


# -- the common-denominator kernel of R' against per-coordinate A_f ------


def cyclotomic_mul_oracle(R, a, b):
    """a*b in R' by convolution over A_f, one A_f operation per term."""
    Af, d = R.Af, R.d
    conv = [Af.zero()] * (2 * d - 1)
    for i, x in enumerate(a):
        if x == Af.zero():
            continue
        for j, y in enumerate(b):
            if y == Af.zero():
                continue
            conv[i + j] = Af.add(conv[i + j], Af.mul(x, y))
    out = list(conv[:d])
    for j in range(d, 2 * d - 1):
        c = conv[j]
        if c != Af.zero():
            red = R.reduce_power(j)
            for i in range(d):
                out[i] = Af.add(out[i], Af.mul(c, red[i]))
    return tuple(out)


def cyclotomic_qpow_oracle(R, a):
    """a^q in R' coordinate by coordinate over A_f."""
    Af = R.Af
    out = [Af.zero()] * R.d
    for i, c in enumerate(a):
        if c == Af.zero():
            continue
        cq = Af.qpow(c, 1)
        red = R.reduce_power(R.q * i)
        for t in range(R.d):
            out[t] = Af.add(out[t], Af.mul(cq, red[t]))
    return tuple(out)


def cyclotomic_galois_oracle(R, a_res, z):
    """lam -> C_a(lam) applied to z, coordinate by coordinate over A_f."""
    Af = R.Af
    img = carlitz_module(R.A).image(a_res)
    lam_img = [Af.zero()] * R.d
    for i, c in enumerate(img.coeffs):
        red = R.reduce_power(R.q ** i)
        for t in range(R.d):
            lam_img[t] = Af.add(lam_img[t], Af.mul(Af.from_poly(c), red[t]))
    powers = [R.one()]
    for _ in range(R.d - 1):
        powers.append(cyclotomic_mul_oracle(R, powers[-1], tuple(lam_img)))
    out = [Af.zero()] * R.d
    for i, c in enumerate(z):
        for t in range(R.d):
            out[t] = Af.add(out[t], Af.mul(c, powers[i][t]))
    return tuple(out)


KERNEL_CASES = [(2, (0, 1)), (3, (1, 1)), (5, (0, 1)), (2, (0, 1, 1)),
                (3, (0, 0, 1)), (3, (1, 0, 1))]
KERNEL_IDS = ["q2-T", "q3-T+1", "q5-T", "q2-T^2+T", "q3-T^2", "q3-T^2+1"]


def _mixed_element(R, rng):
    """A random element of R' with zero coordinates and f-powers 0..4.
    Numerators often carry a prime factor of f, so that over f = T^2 or
    T^2+T two numerators not divisible by f can have a product that is."""
    A, Af = R.A, R.Af
    primes = [p for p, _ in A.factor(R.f)]
    out = []
    for _ in range(R.d):
        if rng.random() < 0.3:
            out.append(Af.zero())
            continue
        num = A.rand(rng, rng.randrange(4))
        if rng.random() < 0.5:
            num = A.mul(num, rng.choice(primes))
        out.append(Af.normalize(num, rng.randrange(5)))
    return tuple(out)


@pytest.mark.parametrize("q,f", KERNEL_CASES, ids=KERNEL_IDS)
def test_cyclotomic_kernel_matches_oracle(q, f):
    R = rank1_universal(field_make(q, 1, 1), f).ring
    rng = random.Random(1000 * q + len(f))
    for _ in range(40):
        a, b = _mixed_element(R, rng), _mixed_element(R, rng)
        assert R.mul(a, b) == cyclotomic_mul_oracle(R, a, b)
        assert R.qpow(a) == cyclotomic_qpow_oracle(R, a)
    assert R.mul(R.zero(), _mixed_element(R, rng)) == R.zero()
    for a_res in ResidueRing(R.A, R.f).units()[:4]:
        g = R.galois(a_res)
        for _ in range(5):
            z = _mixed_element(R, rng)
            assert g(z) == cyclotomic_galois_oracle(R, a_res, z)


# -- R' products on the support of their operands, against the dense
#    product and the linear-algebra inverse --


def dense_mul_oracle(R, a, b):
    """a*b in R' the dense way: every coordinate lifted to one f-power, a
    (2d-1)-slot convolution over A, reduction by lam^j mod Phi_f and one
    normalisation per coordinate."""
    A, Af, d = R.A, R.Af, R.d

    def lift(z):
        K = max(k for _, k in z)
        return [A.mul(n, Af.fpow(K - k)) for n, k in z], K

    na, ka = lift(a)
    nb, kb = lift(b)
    conv = [A.zero()] * (2 * d - 1)
    for i, x in enumerate(na):
        for j, y in enumerate(nb):
            conv[i + j] = A.add(conv[i + j], A.mul(x, y))
    out = conv[:d]
    for j in range(d, 2 * d - 1):
        for i, (r, _) in enumerate(R.reduce_power(j)):
            out[i] = A.add(out[i], A.mul(conv[j], r))
    return tuple(Af.normalize(n, ka + kb) for n in out)


def solve(dom, M, rhs):
    """One solution x of M x = rhs, or None if inconsistent: the kernel
    vector of (M | -rhs) whose last coordinate is the free one."""
    n = len(M[0])
    aug = [list(row) + [dom.neg(b)] for row, b in zip(M, rhs)]
    for v in linalg.nullspace(dom, aug, n + 1):
        if v[n] == dom.one():
            return v[:n]
    return None


def solve_inv_oracle(R, a):
    """a^-1 from the multiplication matrix of a over Frac(A); raises
    ZeroDivisionError when a is no unit of R'."""
    A, Af, d = R.A, R.Af, R.d
    FF = FunctionField(A)
    cols = [dense_mul_oracle(R, a, tuple(Af.one() if i == j else Af.zero()
                                         for i in range(d)))
            for j in range(d)]
    M = [[(cols[j][i][0], Af.fpow(cols[j][i][1])) if cols[j][i][0]
          else FF.zero() for j in range(d)] for i in range(d)]
    x = solve(FF, M, [FF.one()] + [FF.zero()] * (d - 1))
    if x is None:
        raise ZeroDivisionError("zero divisor in R'")
    out = []
    for num, den in x:
        if not num:
            out.append(Af.zero())
            continue
        for e in range(A.deg(den) + 1):
            b, r = A.divmod(Af.fpow(e), den)
            if r == ():
                out.append(Af.normalize(A.mul(num, b), e))
                break
        else:
            raise ZeroDivisionError("inverse does not lie in R'")
    return tuple(out)


def _inv_or_raise(fn, R, a):
    try:
        return fn(R, a)
    except ZeroDivisionError:
        return ZeroDivisionError


# q = 4 runs the norm inverse over an ExtField: the encoding 2 is a
# primitive cube root of unity, so T^2+T+1 = (T+2)(T+3) over F_4
SUPPORT_CASES = [(2, (0, 1)), (3, (1, 1)), (5, (0, 1)), (3, (1, 0, 1)),
                 (2, (1, 1, 1)), (3, (0, 1, 1)), (3, (0, 0, 1)),
                 (4, (0, 1)), (4, (2, 1)), (4, (1, 1, 1))]
SUPPORT_IDS = ["q2-T", "q3-T+1", "q5-T", "q3-T^2+1", "q2-T^2+T+1",
               "q3-T^2+T", "q3-T^2", "q4-T", "q4-T+w", "q4-T^2+T+1"]


def _fq(q):
    """F_q for a prime power q < 8."""
    return field_make(2, 2, 1) if q == 4 else field_make(q, 1, 1)


def _af_elem(R, rng):
    """A non-zero element of A_f whose numerator carries a prime factor
    of f half of the time."""
    A, Af = R.A, R.Af
    num = ()
    while not num:
        num = A.rand(rng, rng.randrange(3))
    if rng.random() < 0.5:
        num = A.mul(num, rng.choice([p for p, _ in A.factor(R.f)]))
    return Af.normalize(num, rng.randrange(4))


def _shaped_elements(R, rng):
    """Seeded elements of every support shape: zero, supported on lam^0
    only, on one other coordinate, on several coordinates; units of A_f
    (scalars over powers of f) and of R' (times lam), and non-units."""
    Af, d = R.Af, R.d
    out = [R.zero()]
    for _ in range(3):
        out.append(R.from_af(_af_elem(R, rng)))
        out.append(R.from_af(Af.normalize((rng.randrange(1, R.q),),
                                          rng.randrange(4))))
        v = [Af.zero()] * d
        v[rng.randrange(d)] = _af_elem(R, rng)
        out.append(tuple(v))
        out.append(tuple(_af_elem(R, rng) if rng.random() < 0.6
                         else Af.zero() for _ in range(d)))
        out.append(R.mul(out[-3], R.lam()))
    return out


@pytest.mark.parametrize("q,f", SUPPORT_CASES, ids=SUPPORT_IDS)
def test_support_kernel_matches_dense_oracles(q, f):
    """mul, add, qpow and inv equal the dense product, the per-coordinate
    sum, the per-coordinate Frobenius and the linear-algebra inverse
    exactly, on every support shape; non-units raise on both sides."""
    R = CyclotomicRing(_fq(q), f)
    rng = random.Random("support-%d-%s" % (q, f))
    els = _shaped_elements(R, rng)
    for a in els:
        for b in els:
            assert R.mul(a, b) == dense_mul_oracle(R, a, b)
            assert R.add(a, b) == tuple(R.Af.add(x, y)
                                        for x, y in zip(a, b))
        aq = cyclotomic_qpow_oracle(R, a)
        assert R.qpow(a) == aq
        assert R.qpow(a, 2) == cyclotomic_qpow_oracle(R, aq)
    units = 0
    for a in els[::2]:
        got = _inv_or_raise(CyclotomicRing.inv, R, a)
        assert got == _inv_or_raise(solve_inv_oracle, R, a)
        assert R.is_unit(a) == (got is not ZeroDivisionError)
        units += got is not ZeroDivisionError
    assert 0 < units < len(els[::2])


def _counted(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("q,f", [(5, (1, 1)), (3, (1, 0, 1)),
                                 (2, (1, 1, 1))],
                         ids=["q5-T+1", "q3-T^2+1", "q2-T^2+T+1"])
def test_af_product_over_prime_f_makes_no_normalize(monkeypatch, q, f):
    """Over irreducible f, f divides no product of two numerators it
    does not divide; with k = 0 on both sides there is nothing to strip."""
    R = CyclotomicRing(field_make(q, 1, 1), f)
    rng = random.Random(q)
    A, Af = R.A, R.Af

    def af_elem(k):
        while True:
            x = Af.normalize(A.rand(rng, 3), k)
            if x[0] and x[1] == k:
                return R.from_af(x)

    pairs = []
    for ka, kb in [(0, 0), (1, 1), (3, 2)] * 2:
        a, b = af_elem(ka), af_elem(kb)
        pairs.append((a, b, dense_mul_oracle(R, a, b)))
    calls = _counted(monkeypatch, LocalizedRing, "normalize")
    for a, b, want in pairs:
        assert R.mul(a, b) == want
    assert calls == []


@pytest.mark.parametrize("q,f", [(3, (0, 1)), (3, (0, 0, 1)),
                                 (2, (1, 1, 1))],
                         ids=["q3-T", "q3-T^2", "q2-T^2+T+1"])
def test_inv_of_af_element_makes_no_solve(monkeypatch, q, f):
    R = CyclotomicRing(field_make(q, 1, 1), f)
    Af = R.Af
    els = [R.from_af(Af.normalize((c,), k)) for c in range(1, q)
           for k in range(3)]
    calls = _counted(monkeypatch, linalg, "_rref")
    for a in els:
        assert R.mul(a, R.inv(a)) == R.one()
    with pytest.raises(ZeroDivisionError):
        R.inv(R.from_af(Af.normalize((1, 1, 1, 1), 0)))
    assert calls == []


@pytest.mark.parametrize("q,f", [(3, (1, 1)), (3, (1, 0, 1)), (4, (0, 1)),
                                 (2, (1, 1, 1))],
                         ids=["q3-T+1", "q3-T^2+1", "q4-T", "q2-T^2+T+1"])
def test_inv_outside_af_makes_no_solve(monkeypatch, q, f):
    """Outside A_f, inv and is_unit go through the norm to A_f: no
    Gaussian elimination over Frac(A) runs."""
    R = CyclotomicRing(_fq(q), f)
    Af = R.Af
    lam = R.lam()
    unit = R.mul(R.from_af(Af.normalize((1,), 2)), lam)  # lam / f^2
    non_unit = R.add(R.one(), R.mul(R.from_af(Af.normalize(R.f, 0)), lam))
    rng = random.Random("norm-%d-%s" % (q, f))
    mixed = [e for e in _shaped_elements(R, rng) if not R._in_af(e)]
    want = {e: _inv_or_raise(solve_inv_oracle, R, e)
            for e in [unit, non_unit] + mixed}
    assert want[unit] is not ZeroDivisionError
    assert want[non_unit] is ZeroDivisionError
    calls = _counted(monkeypatch, linalg, "_rref")
    for a, a_inv in want.items():
        assert _inv_or_raise(CyclotomicRing.inv, R, a) == a_inv
        assert R.is_unit(a) == (a_inv is not ZeroDivisionError)
    assert calls == []
