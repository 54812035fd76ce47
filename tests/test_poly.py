import random

import pytest

from dforge.drinfeld import CyclotomicRing
from dforge.fields import field_make
from dforge.poly import (PolyRing, ResidueRing, LocalizedRing,
                         FunctionField, residue_units, char_eval, NEG_INF)
from dforge.series import Series


@pytest.fixture(scope="module")
def A():
    return PolyRing(field_make(3, 1, 1))


def test_degree_of_zero_is_neg_inf(A):
    assert A.deg(()) is NEG_INF
    assert NEG_INF < 0
    assert NEG_INF + 5 is NEG_INF


def test_degree_additivity(A):
    rng = random.Random(3)
    for _ in range(200):
        a, b = A.rand(rng), A.rand(rng)
        if a and b:
            assert A.deg(A.mul(a, b)) == A.deg(a) + A.deg(b)


def test_ring_axioms_random(A):
    rng = random.Random(1)
    for _ in range(1000):
        a, b, c = A.rand(rng), A.rand(rng), A.rand(rng)
        assert A.mul(a, b) == A.mul(b, a)
        assert A.mul(a, A.mul(b, c)) == A.mul(A.mul(a, b), c)
        assert A.mul(a, A.add(b, c)) == A.add(A.mul(a, b), A.mul(a, c))


def test_divmod_roundtrip(A):
    rng = random.Random(2)
    for _ in range(300):
        a = A.rand(rng, 6)
        b = A.rand(rng, 3)
        if not b:
            continue
        q, r = A.divmod(a, b)
        assert A.add(A.mul(q, b), r) == a
        assert A.deg(r) < A.deg(b)


def test_char_eval_is_homomorphism(A):
    rng = random.Random(4)
    F9 = field_make(3, 1, 2)
    theta = 7
    for _ in range(200):
        a, b = A.rand(rng), A.rand(rng)
        lhs = char_eval(A, A.mul(a, b), theta, dom=F9)
        rhs = F9.mul(char_eval(A, a, theta, dom=F9),
                     char_eval(A, b, theta, dom=F9))
        assert lhs == rhs
    # spot values
    assert char_eval(A, (1, 0, 1), 5, dom=F9) == F9.add(F9.mul(5, 5), 1)
    assert char_eval(A, (1,), 5, dom=F9) == 1
    assert char_eval(A, (0, 1), 2) == 2


def test_residue_units_examples(A):
    assert residue_units(A, (0, 1)) == [(1,), (2,)]
    u2 = residue_units(A, (0, 0, 1))
    assert sorted(u2) == sorted(
        [(c,) + ((d,) if d else ()) for c in (1, 2) for d in (0, 1, 2)])
    assert len(u2) == 6
    # A/(T^2+1) is the field F_9: 8 units
    assert len(residue_units(A, (1, 0, 1))) == 8


def test_residue_units_closed_under_multiplication(A):
    R = ResidueRing(A, (0, 0, 1))
    us = set(residue_units(A, (0, 0, 1)))
    for x in us:
        for y in us:
            assert R.mul(x, y) in us


def test_residue_partition(A):
    # units + non-units = Q, by enumeration
    for f in [(0, 1), (0, 0, 1), (1, 0, 1), (2, 1, 1)]:
        R = ResidueRing(A, f)
        els = list(R.elements())
        units = [a for a in els if R.is_unit(a)]
        nonunits = [a for a in els if not R.is_unit(a)]
        assert len(units) + len(nonunits) == R.size


def test_residue_constant_rejected(A):
    with pytest.raises(ValueError):
        residue_units(A, (1,))


def test_localized_ring(A):
    Af = LocalizedRing(A, (0, 1))
    x = Af.make((0, 1), 2)          # T/T^2 normalizes to 1/T
    assert x == ((1,), 1)
    assert Af.mul(x, Af.inv(x)) == Af.one()
    assert not Af.is_unit(Af.make((1, 1), 0))      # 1+T is no unit
    z = Af.make((0, 2), 3)                          # 2T/T^3
    assert Af.mul(z, Af.inv(z)) == Af.one()
    rng = random.Random(9)
    for _ in range(1000):
        a, b, c = Af.rand(rng), Af.rand(rng), Af.rand(rng)
        assert Af.qpow(Af.mul(a, b)) == Af.mul(Af.qpow(a), Af.qpow(b))
        assert Af.add(a, b) == Af.add(b, a)
        assert Af.mul(a, b) == Af.mul(b, a)
        assert Af.mul(a, Af.mul(b, c)) == Af.mul(Af.mul(a, b), c)
        assert Af.mul(a, Af.add(b, c)) == Af.add(Af.mul(a, b),
                                                 Af.mul(a, c))


@pytest.mark.parametrize("q,f", [(2, (0, 0, 1)), (3, (0, 0, 1)),
                                 (2, (0, 1, 1)), (3, (0, 1, 1))],
                         ids=["q2-T^2", "q3-T^2", "q2-T^2+T", "q3-T^2+T"])
def test_localized_shortcuts_equal_naive(q, f):
    """add and mul skip work on canonical inputs; each must return
    exactly normalize of the naive sum or product over f^max / f^(ka+kb).
    Numerators carry a prime factor of f half of the time, so sums and
    products that are divisible by f come up."""
    A = PolyRing(field_make(q, 1, 1))
    Af = LocalizedRing(A, f)
    primes = [p for p, _ in A.factor(f)]
    rng = random.Random(q * 100 + len(f))

    def elem():
        num = A.rand(rng, rng.randrange(4))
        if rng.random() < 0.5:
            num = A.mul(num, rng.choice(primes))
        return Af.make(num, rng.randrange(4))

    for _ in range(500):
        (na, ka), (nb, kb) = a, b = elem(), elem()
        k = max(ka, kb)
        naive_sum = A.add(A.mul(na, A.pow(Af.f, k - ka)),
                          A.mul(nb, A.pow(Af.f, k - kb)))
        assert Af.add(a, b) == Af.normalize(naive_sum, k)
        assert Af.mul(a, b) == Af.normalize(A.mul(na, nb), ka + kb)
        assert Af.fpow(k) == A.pow(Af.f, k)


def test_pow_negative_exponent(A, deadline):
    """Negative powers invert first: units come back, non-units raise.
    A square-and-multiply loop on n itself never ends (-1 >> 1 == -1)."""
    R = ResidueRing(A, (1, 0, 1))
    Af = LocalizedRing(A, (0, 1))
    with deadline(5):
        assert A.pow((2,), -3) == (2,)
        with pytest.raises(ZeroDivisionError):
            A.pow((0, 1), -1)
        assert R.pow((0, 1), -1) == (0, 2)          # 1/T = -T mod T^2+1
        assert Af.pow(((0, 1), 0), -2) == ((1,), 2)
        with pytest.raises(ZeroDivisionError):
            Af.pow(((1, 1), 0), -1)


def test_function_field(A):
    FF = FunctionField(A)
    rng = random.Random(11)
    for _ in range(200):
        a = FF.rand(rng)
        b = FF.rand(rng)
        if FF.is_unit(b):
            assert FF.mul(FF.div(a, b), b) == a
        assert FF.mul(a, b) == FF.mul(b, a)


def test_factor(A):
    T = A.gen()
    f = A.mul(A.mul(T, T), (1, 1))
    assert dict(A.factor(f)) == {(0, 1): 2, (1, 1): 1}
    assert dict(A.factor((1, 0, 1))) == {(1, 0, 1): 1}


def test_squarefree_divisors(A):
    sq = dict(A.squarefree_monic_divisors((0, 0, 1)))
    assert sq == {(1,): 1, (0, 1): -1}


# -- oracles: schoolbook long division, and A_f normalisation as a loop
#    of long divisions by f --

def divmod_oracle(A, a, b):
    """Schoolbook long division, popping the dividend's top each step."""
    K, z = A.K, A.K.zero()
    inv_lead = K.inv(b[-1])
    a = list(a)
    q = [z] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        if a[-1] == z:
            a.pop()
            continue
        k = len(a) - len(b)
        c = K.mul(a[-1], inv_lead)
        q[k] = c
        for j in range(len(b)):
            a[k + j] = K.sub(a[k + j], K.mul(c, b[j]))
        a.pop()
    return A._trim(q), A._trim(a)


def normalize_oracle(Af, num, k):
    """Divide by f while the remainder is zero and k > 0; clear k < 0."""
    A = Af.A
    num = A._trim(num)
    if not num:
        return ((), 0)
    while k > 0:
        q, r = divmod_oracle(A, num, Af.f)
        if r != ():
            break
        num, k = q, k - 1
    if k < 0:
        num = A.mul(num, A.pow(Af.f, -k))
        k = 0
    return (num, k)


NORMALIZE_MODULI = {"T": (0, 1), "T+1": (1, 1), "T+2": (2, 1),
                    "T^2": (0, 0, 1), "T^2+T": (0, 1, 1),
                    "T^2+1": (1, 0, 1)}
NORMALIZE_CELLS = [(p, e, fname) for p, e in [(2, 1), (3, 1), (2, 2), (5, 1)]
                   for fname in NORMALIZE_MODULI
                   if fname != "T+2" or p ** e >= 3]


@pytest.mark.parametrize("p,e,fname", NORMALIZE_CELLS,
                         ids=["F%d-%s" % (p ** e, fname)
                              for p, e, fname in NORMALIZE_CELLS])
def test_normalize_matches_oracle(p, e, fname):
    """normalize(f^j * g, k) equals the long-division loop exactly, for
    j in 0..4 and k in -2..j+2; g carries a prime factor of f half of
    the time, so more than j factors of f can be stripped."""
    A = PolyRing(field_make(p, e))
    Af = LocalizedRing(A, NORMALIZE_MODULI[fname])
    primes = [pr for pr, _ in A.factor(Af.f)]
    rng = random.Random("%d-%d-%s" % (p, e, fname))
    for _ in range(60):
        g = A.rand(rng, rng.randrange(5))
        if rng.random() < 0.5:
            g = A.mul(g, rng.choice(primes))
        for j in range(5):
            num = A.mul(A.pow(Af.f, j), g)
            for k in range(-2, j + 3):
                assert Af.normalize(num, k) == normalize_oracle(Af, num, k)


@pytest.mark.parametrize("p,e", [(5, 1), (2, 2)], ids=["F5", "F4"])
def test_divmod_matches_oracle(p, e):
    """Untrimmed dividends, dividends shorter than the divisor, and
    non-monic divisors all give the long-division result exactly."""
    K = field_make(p, e)
    A = PolyRing(K)
    rng = random.Random(17 * p + e)
    for _ in range(500):
        b = A.rand(rng, rng.randrange(4))
        if not b:
            continue
        a = tuple(K.rand(rng) for _ in range(rng.randrange(9)))
        a += (0,) * rng.randrange(3)
        q, r = A.divmod(a, b)
        assert (q, r) == divmod_oracle(A, a, b)
        assert A.add(A.mul(q, b), r) == A._trim(a)


def _count_calls(monkeypatch, cls, name):
    calls = []
    real = getattr(cls, name)

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("p,e,f", [(3, 1, (0, 1)), (5, 1, (1, 1)),
                                   (2, 2, (0, 1)), (2, 2, (3, 1))],
                         ids=["F3-T", "F5-T+1", "F4-T", "F4-T+3"])
def test_normalize_linear_f_makes_no_divmod(monkeypatch, p, e, f):
    A = PolyRing(field_make(p, e))
    Af = LocalizedRing(A, f)
    rng = random.Random(5)
    cases = []
    for j in range(5):
        g = A.rand(rng, 6)
        cases.append((A.mul(A.pow(Af.f, j), g), j + 1))
    calls = _count_calls(monkeypatch, PolyRing, "divmod")
    for num, k in cases:
        Af.normalize(num, k)
    assert calls == []


def test_series_inv_inverts_the_low_coefficient_once(monkeypatch):
    R = CyclotomicRing(field_make(3, 1), (0, 0, 1))
    s = Series(R, -1, (R.one(), R.theta(), R.lam()), 5)
    calls = _count_calls(monkeypatch, CyclotomicRing, "inv")
    si = s.inv()
    assert len(calls) == 1
    assert s.mul(si).agree(Series.one(R), 3)


# -- normalisation for f = T^e, and the mul/qpow skips of A_f --

TPOW_CELLS = [(p, e, fname) for p, e in [(2, 1), (3, 1), (2, 2)]
              for fname in ("T^2", "T^3")]
TPOW_MODULI = {"T^2": (0, 0, 1), "T^3": (0, 0, 0, 1)}


@pytest.mark.parametrize("p,e,fname", TPOW_CELLS,
                         ids=["F%d-%s" % (p ** e, fname)
                              for p, e, fname in TPOW_CELLS])
def test_normalize_t_power_matches_oracle(monkeypatch, p, e, fname):
    """For f = T^e, normalize(f^j * g, k) equals the long-division loop
    exactly, for j in 0..4 and k in -2..j+2, and divides nothing: g is
    divisible by T half of the time, so low zero runs that are not a
    multiple of e come up."""
    A = PolyRing(field_make(p, e))
    Af = LocalizedRing(A, TPOW_MODULI[fname])
    rng = random.Random("tpow-%d-%d-%s" % (p, e, fname))
    cases = []
    for _ in range(60):
        g = A.rand(rng, rng.randrange(5))
        if rng.random() < 0.5:
            g = A.mul(g, A.pow(A.gen(), rng.randrange(1, 4)))
        for j in range(5):
            num = A.mul(A.pow(Af.f, j), g)
            cases += [(num, k) for k in range(-2, j + 3)]
    want = [normalize_oracle(Af, num, k) for num, k in cases]
    calls = _count_calls(monkeypatch, PolyRing, "divmod")
    assert [Af.normalize(num, k) for num, k in cases] == want
    assert calls == []


LOCALIZED_SKIP_CELLS = {
    "F5-T+1": (5, (1, 1)),                # irreducible
    "F3-T^2+1": (3, (1, 0, 1)),           # irreducible
    "F2-T^2+T+1": (2, (1, 1, 1)),         # irreducible
    "F3-T^2+T": (3, (0, 1, 1)),           # squarefree, composite
    "F2-T^3+1": (2, (1, 0, 0, 1)),        # squarefree, (T+1)(T^2+T+1)
    "F3-T^2": (3, (0, 0, 1)),             # not squarefree
    "F2-T^3+T^2": (2, (0, 0, 1, 1)),      # not squarefree, T^2 (T+1)
}


@pytest.mark.parametrize("fname", list(LOCALIZED_SKIP_CELLS))
def test_localized_mul_qpow_equal_normalized_naive(fname):
    """mul and qpow equal the long-division normalisation of the naive
    product num_a * num_b / f^(ka+kb) and power num^(q^k) / f^(k q^k).
    Numerators carry prime factors of f at every k, k = 0 included."""
    q, f = LOCALIZED_SKIP_CELLS[fname]
    A = PolyRing(field_make(q, 1, 1))
    Af = LocalizedRing(A, f)
    primes = [p for p, _ in A.factor(f)]
    rng = random.Random("skip-" + fname)

    def elem():
        num = A.rand(rng, rng.randrange(4))
        for _ in range(rng.randrange(3)):
            num = A.mul(num, rng.choice(primes))
        return Af.make(num, rng.randrange(4))

    for _ in range(300):
        (na, ka), (nb, kb) = a, b = elem(), elem()
        assert Af.mul(a, b) == normalize_oracle(Af, A.mul(na, nb), ka + kb)
        for k in (1, 2):
            assert Af.qpow(a, k) == normalize_oracle(
                Af, A.qpow(na, k), ka * q ** k)
