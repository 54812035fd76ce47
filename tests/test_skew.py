import random

import pytest

from dforge.fields import field_make, PrimeField
from dforge.poly import PolyRing, FunctionField, NEG_INF
from dforge.skew import (SkewPoly, skew_mul, skew_right_divmod, skew_eval,
                         skew_kernel, skew_solve, _prime_dim,
                         _to_prime_vec, _from_prime_vec)


@pytest.fixture(scope="module")
def F3():
    return field_make(3, 1, 1)


@pytest.fixture(scope="module")
def F9():
    return field_make(3, 1, 2)


def test_twist_rule(F3):
    # (1 + tau)(2 + tau) = 2 + tau^2 over F_3 (since 2^3 = 2)
    a = SkewPoly(F3, (1, 1))
    b = SkewPoly(F3, (2, 1))
    assert skew_mul(a, b).coeffs == (2, 0, 1)


def test_mul_identity(F3):
    rng = random.Random(0)
    for _ in range(50):
        a = SkewPoly(F3, [F3.rand(rng) for _ in range(4)])
        assert a.mul(SkewPoly.one(F3)) == a
        assert SkewPoly.one(F3).mul(a) == a


def test_carlitz_square_over_function_field(F3):
    A = PolyRing(F3, "th")
    K = FunctionField(A)
    th = K.from_poly((0, 1))
    c = SkewPoly(K, (th, K.one()))
    sq = c.mul(c)
    assert sq.coeffs == (K.mul(th, th), K.add(th, K.pow(th, 3)), K.one())
    q, r = skew_right_divmod(sq, c)
    assert r.is_zero() and q == c


def test_divmod_examples(F9):
    a = SkewPoly(F9, (3, 1, 5))
    q, r = skew_right_divmod(a, a)
    assert q == SkewPoly.one(F9) and r.is_zero()
    t2 = SkewPoly.tau(F9, 2)
    t1 = SkewPoly.tau(F9, 1)
    q, r = skew_right_divmod(t2, t1)
    assert q == t1 and r.is_zero()


def test_divmod_requires_unit_lead():
    # a leading coefficient that is zero to precision cannot be divided by
    from dforge.series import Series, LaurentDomain
    F3 = field_make(3, 1, 1)
    LD = LaurentDomain(F3, default_prec=8)
    b = SkewPoly(LD, (LD.one(), Series(F3, 0, (), 4)))
    a = SkewPoly(LD, (LD.one(), LD.one(), LD.one()))
    with pytest.raises(ZeroDivisionError):
        a.right_divmod(b)


def test_degree_law(F9):
    rng = random.Random(3)
    for _ in range(300):
        a = SkewPoly(F9, [F9.rand(rng) for _ in range(3)])
        b = SkewPoly(F9, [F9.rand(rng) for _ in range(3)])
        if a.is_zero() or b.is_zero():
            assert a.mul(b).deg() is NEG_INF
        else:
            assert a.mul(b).deg() == a.deg() + b.deg()


def test_ring_axioms_1000(F9):
    rng = random.Random(17)
    for _ in range(1000):
        a = SkewPoly(F9, [F9.rand(rng) for _ in range(3)])
        b = SkewPoly(F9, [F9.rand(rng) for _ in range(3)])
        c = SkewPoly(F9, [F9.rand(rng) for _ in range(3)])
        assert a.mul(b.mul(c)) == a.mul(b).mul(c)
        assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))


def test_eval_is_additive_polynomial(F3):
    F27 = field_make(3, 1, 3)
    sp = SkewPoly(F3, (2, 1, 1))
    rng = random.Random(23)
    for _ in range(200):
        u, v = F27.rand(rng), F27.rand(rng)
        assert sp.eval(F27.add(u, v), ydom=F27) == \
            F27.add(sp.eval(u, ydom=F27), sp.eval(v, ydom=F27))
    for c in range(3):  # F_q-linearity
        for u in range(0, 27, 7):
            assert sp.eval(F27.mul(c, u), ydom=F27) == \
                F27.mul(c, sp.eval(u, ydom=F27))


def test_eval_examples(F3):
    assert skew_eval(SkewPoly(F3, (2, 1)), 1) == 0  # theta=2 Carlitz at 1
    assert skew_eval(SkewPoly(F3, (2, 1, 2)), 0) == 0
    F9 = field_make(3, 1, 2)
    tau = SkewPoly.tau(F9)
    for y in range(9):
        assert tau.eval(y) == F9.pow(y, 3)


def test_kernel_examples(F3, F9):
    carl = SkewPoly(F3, (2, 1))     # 2X + X^3
    assert skew_kernel(carl) == [0, 1, 2]
    assert skew_kernel(SkewPoly(F9, (0, 1))) == [0]       # Frobenius
    frob2 = SkewPoly(F9, (F9.neg(1), 0, 1))               # X^9 - X
    assert skew_kernel(frob2) == list(range(9))
    with pytest.raises(ValueError):
        skew_kernel(SkewPoly(F9, ()))


def test_kernel_matrix_vs_exhaustive():
    F27 = field_make(3, 1, 3)
    rng = random.Random(29)
    done = 0
    while done < 40:
        a = SkewPoly(F27, [F27.rand(rng) for _ in range(3)])
        if a.is_zero():
            continue
        pts = skew_kernel(a)
        assert pts == skew_kernel(a, exhaustive=True)
        # size q^j, closure under addition
        n = len(pts)
        while n % 3 == 0:
            n //= 3
        assert n == 1
        ps = set(pts)
        for u in pts:
            for v in pts:
                assert F27.add(u, v) in ps
        done += 1


def test_compositional_inverse(F3):
    from dforge.series import Series, LaurentDomain
    LD = LaurentDomain(F3, default_prec=15)
    one = LD.one()
    s = SkewPoly(LD, (one, Series(F3, 2, (1, 2), 15)))
    w = s.compositional_inverse(4)
    sw = s.mul(w, cap=4)
    assert sw.coeff(0).agree(one)
    for i in range(1, 5):
        assert sw.coeff(i).is_zero()
    ws = w.mul(s, cap=4)
    assert ws.coeff(0).agree(one)
    for i in range(1, 5):
        assert ws.coeff(i).is_zero()
    # invert twice returns the original, up to the cap
    w2 = w.compositional_inverse(1)
    for i in range(2):
        assert w2.coeff(i).agree(s.coeff(i))


# -- F_p-coordinates: base-p digits against the recursive tower walk -------

def _to_prime_vec_oracle(F, a):
    if isinstance(F, PrimeField):
        return [a]
    out = []
    for digit in F.vec(a):
        out.extend(_to_prime_vec_oracle(F.base, digit))
    return out


def _from_prime_vec_oracle(F, v):
    if isinstance(F, PrimeField):
        return v[0] % F.p
    step = _prime_dim(F.base)
    return F.unvec([_from_prime_vec_oracle(F.base, v[i * step:(i + 1) * step])
                    for i in range(F.degree)])


def _subspace_poly(F, vs):
    """The monic additive polynomial whose roots are the F_q-span of vs."""
    P = SkewPoly.one(F)
    for v in vs:
        c = P.eval(v)
        if c != 0:
            P = SkewPoly(F, (F.neg(F.pow(c, F.q - 1)), 1)).mul(P)
    return P


@pytest.mark.parametrize("p,e,m", [(2, 2, 3), (3, 2, 3)],
                         ids=["F4<F64", "F9<F729"])
def test_prime_coordinates_match_tower_walk(p, e, m):
    F = field_make(p, e, m)
    for a in F.elements():
        v = _to_prime_vec(F, a)
        assert v == _to_prime_vec_oracle(F, a)
        assert _from_prime_vec(F, v) == _from_prime_vec_oracle(F, v) == a
    rng = random.Random(F.size)
    for k in range(3):
        vs = [F.rand(rng) for _ in range(k)]
        a = _subspace_poly(F, vs)
        pts = skew_kernel(a)
        assert pts == skew_kernel(a, exhaustive=True)
        assert len(pts) == F.q ** a.deg()


@pytest.mark.parametrize("p,e,m", [(3, 1, 2), (3, 1, 3), (2, 1, 6),
                                   (2, 2, 3)])
def test_skew_solve_vs_exhaustive(p, e, m):
    # F_9, F_27 and F_64 (twisted by q = 2 and by q = 4): a(y) = b has a
    # solution exactly when some field element solves it by evaluation
    F = field_make(p, e, m)
    rng = random.Random(31 * m + p)
    one_term = [SkewPoly(F, (0,) * i + (rng.randrange(1, F.size),))
                for i in range(3)]
    multi = [SkewPoly(F, (F.neg(1), 1)),             # y^q - y: image F_q-trace 0
             SkewPoly(F, (rng.randrange(1, F.size), 0, 1))]
    while len(multi) < 6:
        a = SkewPoly(F, [F.rand(rng) for _ in range(3)])
        if sum(c != 0 for c in a.coeffs) >= 2:
            multi.append(a)
    unsolvable = 0
    for a in one_term + multi:
        image = {a.eval(y) for y in F.elements()}
        for b in F.elements():
            y = skew_solve(a, b)
            if b in image:
                assert y is not None and a.eval(y) == b, (a, b)
            else:
                assert y is None, (a, b, y)
                unsolvable += 1
    assert unsolvable > 0
    with pytest.raises(ValueError):
        skew_solve(SkewPoly(F, ()), 1)
