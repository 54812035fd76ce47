import random

import pytest

from dforge.drinfeld import CyclotomicRing
from dforge.fields import field_make
from dforge.series import Series, LaurentDomain, PrecisionError


@pytest.fixture(scope="module")
def F3():
    return field_make(3, 1, 1)


def test_geometric_inverse(F3):
    s = Series(F3, 0, (1, 0, 2), 6)          # 1 - x^2 mod x^6
    si = s.inv()
    assert [si.coeff(k) for k in range(6)] == [1, 0, 1, 0, 1, 0]
    assert s.mul(si).agree(Series.one(F3), 6)


def test_identity_inverse(F3):
    one = Series.one(F3)
    assert one.inv(work_prec=5).agree(one)


def test_laurent_inverse(F3):
    t = Series(F3, 1, (1, 1), None)           # x(1+x)
    ti = t.inv(work_prec=5)
    assert ti.low == -1
    assert [ti.coeff(k) for k in range(-1, 4)] == [1, 2, 1, 2, 1]
    assert t.mul(ti).agree(Series.one(F3), 5)


def test_nonunit_low_coefficient_rejected():
    F9 = field_make(3, 1, 2)
    zero_led = Series(F9, 0, (), 4)
    with pytest.raises(ZeroDivisionError):
        zero_led.inv()


def test_precision_of_products(F3):
    a = Series(F3, 2, (1,), 10)
    b = Series(F3, -1, (1,), 4)
    assert a.mul(b).prec == min(10 - 1, 4 + 2)
    z = Series(F3, 0, (), 5)     # zero to precision 5
    w = Series(F3, -2, (1,), 8)
    assert z.mul(w).prec == 3
    # exact zero annihilates exactly
    assert Series.zero(F3).mul(w).prec is None


def test_never_reports_beyond_precision(F3):
    s = Series(F3, 0, (1, 1), 3)
    with pytest.raises(PrecisionError):
        s.coeff(3)


def test_frobenius_scaling(F3):
    u = Series(F3, -3, (1, 2, 0, 1), 9)
    u3 = u.qpow(1)
    assert u3.low == -9 and u3.prec == 27
    assert u3.coeff(-9) == 1 and u3.coeff(0) == 1
    # freshman's dream against direct cubing
    v = Series(F3, 0, (1, 2, 1), None)
    assert v.qpow(1).agree(v.mul(v).mul(v))


def test_inverse_random(F3):
    LD = LaurentDomain(F3, default_prec=12)
    rng = random.Random(7)
    done = 0
    while done < 200:
        s = LD.rand(rng, window=5)
        if s.is_zero() or not F3.is_unit(s.leading()):
            continue
        assert s.mul(s.inv()).agree(Series.one(F3))
        done += 1


def test_exact_monomial_inverse_stays_exact(F3):
    m = Series.x_pow(F3, -4)
    mi = m.inv()
    assert mi.prec is None and mi.low == 4


def test_valuation_and_ultrametric(F3):
    rng = random.Random(13)
    LD = LaurentDomain(F3, default_prec=15)
    for _ in range(300):
        a, b = LD.rand(rng), LD.rand(rng)
        va, vb = a.valuation(), b.valuation()
        if va is None or vb is None:
            continue
        assert a.mul(b).valuation() == va + vb
        s = a.add(b)
        if s.valuation() is not None:
            assert s.valuation() >= min(va, vb)


def _mul_oracle(a, b):
    """The untruncated schoolbook product, then the constructor's cut at
    the x-adic precision rule."""
    dom = a.dom
    va, vb = a._vbound(), b._vbound()
    if (va is None and a.prec is None) or (vb is None and b.prec is None):
        return Series(dom, 0, (), None)
    parts = []
    if a.prec is not None:
        parts.append(a.prec + (vb if vb is not None else 0))
    if b.prec is not None:
        parts.append(b.prec + (va if va is not None else 0))
    prec = min(parts) if parts else None
    out = [dom.zero()] * max(0, len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = dom.add(out[i + j], dom.mul(x, y))
    return Series(dom, a.low + b.low, out, prec)


def _rand_series(dom, rng):
    coeffs = [dom.zero() if rng.random() < 0.3 else dom.rand(rng)
              for _ in range(rng.randrange(0, 7))]
    low = rng.randrange(-3, 4)
    prec = None if rng.random() < 0.2 else low + rng.randrange(-1, 8)
    return Series(dom, low, coeffs, prec)


@pytest.mark.parametrize("make", [
    lambda: field_make(3, 1, 2),
    lambda: CyclotomicRing(field_make(3, 1, 1), (0, 0, 1)),
], ids=["F9", "R',q=3,f=T^2"])
def test_mul_equals_truncated_schoolbook(make):
    dom = make()
    rng = random.Random(41)
    for _ in range(300):
        a, b = _rand_series(dom, rng), _rand_series(dom, rng)
        got, want = a.mul(b), _mul_oracle(a, b)
        assert (got.low, got.coeffs, got.prec) == \
            (want.low, want.coeffs, want.prec)


def _init_oracle(dom, low, coeffs, prec):
    """(low, coeffs, prec) as the constructor computed them before it
    trimmed in one slice: cut at prec, pop trailing, pop(0) leading."""
    coeffs = list(coeffs)
    if prec is not None:
        coeffs = coeffs[:max(0, prec - low)]
    while coeffs and coeffs[-1] == dom.zero():
        coeffs.pop()
    while coeffs and coeffs[0] == dom.zero():
        coeffs.pop(0)
        low += 1
    if not coeffs:
        low = 0
    return low, tuple(coeffs), prec


@pytest.mark.parametrize("make", [
    lambda: field_make(3, 1, 2),
    lambda: CyclotomicRing(field_make(3, 1, 1), (0, 0, 1)),
], ids=["F9", "R',q=3,f=T^2"])
def test_constructor_trims_like_oracle(make):
    """Leading and trailing zero runs, all-zero lists, and precisions
    that cut inside, at the ends of and outside the stored list."""
    dom = make()
    rng = random.Random(43)
    z = dom.zero()
    for _ in range(400):
        body = [z if rng.random() < 0.3 else dom.rand(rng)
                for _ in range(rng.randrange(0, 5))]
        coeffs = [z] * rng.randrange(0, 4) + body + [z] * rng.randrange(0, 4)
        low = rng.randrange(-4, 5)
        prec = None if rng.random() < 0.2 else \
            low + rng.randrange(-2, len(coeffs) + 3)
        for seq in (coeffs, tuple(coeffs)):
            s = Series(dom, low, seq, prec)
            assert (s.low, s.coeffs, s.prec) == \
                _init_oracle(dom, low, coeffs, prec)
