import random

import pytest

from dforge.fields import field_make
from dforge.poly import PolyRing, ResidueRing, residue_units
from dforge.drinfeld import (DrinfeldModule, dm_make, dm_image, dm_twist,
                             dm_torsion, level_make, torsion_basis,
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
    carl = dm_make(A, F3, 2, (2, 1))
    assert carl.rank == 1
    rank2 = dm_make(A, F3, 2, (2, 1, 1))
    assert rank2.rank == 2
    with pytest.raises(RankError):
        dm_make(A, F3, 2, (2,))
    with pytest.raises(ValueError):
        dm_make(A, F3, 1, (2, 1))  # constant must equal theta


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
        assert phi.image(a).constant_term() == phi.char_of(a)


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
        level_make(tor.phi_ext, T, (pt, pt))
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
    assert dm_twist(phi, 1) == phi
    xi = 7
    assert dm_twist(dm_twist(phi, xi), F9.inv(xi)) == phi
    rng = random.Random(37)
    for _ in range(100):
        x1, x2 = 0, 0
        while not x1:
            x1 = F9.rand(rng)
        while not x2:
            x2 = F9.rand(rng)
        assert dm_twist(dm_twist(phi, x1), x2) == \
            dm_twist(phi, F9.mul(x2, x1))
    with pytest.raises(ValueError):
        dm_twist(phi, 0)
    # torsion scales by xi
    T = A.gen()
    tor = dm_torsion(phi, T)
    tw = dm_twist(tor.phi_ext, 5)
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
            len(residue_units(A, f))


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
        out.append(Af.make(num, rng.randrange(5)))
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
