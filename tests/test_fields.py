import random

import pytest

from dforge.fields import (field_make, embed, least_irreducible, ExtField,
                           PrimeField, DEFAULT_MAX_Q)
from dforge.poly import PolyRing


def test_f9_structure():
    F9 = field_make(3, 1, 2)
    i = 3  # the power-basis generator
    assert F9.mul(i, i) == 2           # i^2 = 2 with modulus z^2 + 1
    assert F9.frobenius(i) == F9.mul(2, i)  # i^3 = 2i


def test_prime_field_frobenius_identity():
    F3 = field_make(3, 1, 1)
    for a in F3.elements():
        assert F3.frobenius(a) == a


def test_f4_multiplication():
    F4 = field_make(2, 2, 1)
    x = 2
    assert F4.mul(x, F4.add(x, 1)) == 1


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 1),
                                 (2, 4), (3, 4)])
def test_multiplicative_group_order(p, e):
    F = field_make(p, e, 1)
    for a in F.units():
        assert F.pow(a, F.size - 1) == 1
        assert F.mul(a, F.inv(a)) == 1


def test_frobenius_is_ring_automorphism():
    F27 = field_make(3, 1, 3)
    rng = random.Random(5)
    for _ in range(200):
        a, b = F27.rand(rng), F27.rand(rng)
        assert F27.frobenius(F27.mul(a, b)) == \
            F27.mul(F27.frobenius(a), F27.frobenius(b))
        assert F27.frobenius(F27.add(a, b)) == \
            F27.add(F27.frobenius(a), F27.frobenius(b))


def test_xq_fixes_subfield():
    F81 = field_make(3, 1, 4)
    for a in range(3):  # F_3 inside F_81 by encoding
        assert F81.frobenius(a) == a


def test_frobenius_order():
    F = field_make(3, 2, 3)  # F_9^3 with q = 9
    rng = random.Random(1)
    for _ in range(20):
        a = F.rand(rng)
        assert F.qpow(a, 3) == a


def test_tower_embedding_is_homomorphism():
    F9 = field_make(3, 1, 2)
    F81 = field_make(3, 1, 4)
    phi = embed(F9, F81)
    for a in F9.elements():
        for b in F9.elements():
            assert phi(F9.mul(a, b)) == F81.mul(phi(a), phi(b))
            assert phi(F9.add(a, b)) == F81.add(phi(a), phi(b))


def test_reducible_modulus_rejected():
    F3 = PrimeField(3)
    with pytest.raises(ValueError):
        ExtField(F3, 2, modulus=(0, 0, 1))  # z^2 is reducible


def test_supplied_modulus_of_wrong_shape_rejected():
    F3 = PrimeField(3)
    for modulus in [(1, 0, 1, 1),   # irreducible, degree 3 for degree 2
                    (2, 0, 2),      # 2 (z^2 + 1): irreducible, not monic
                    (1, 1)]:        # degree 1
        with pytest.raises(ValueError):
            ExtField(F3, 2, modulus=modulus)
    assert ExtField(F3, 2, modulus=(1, 0, 1)).modulus == (1, 0, 1)


def _extension_triples():
    """(p, e, m) with e * m > 1 for every extension field of at most
    DEFAULT_MAX_Q elements."""
    for p in range(2, int(DEFAULT_MAX_Q ** 0.5) + 1):
        if any(p % d == 0 for d in range(2, p)):
            continue
        for e in range(1, 16):
            for m in range(1, 16):
                if e * m > 1 and p ** (e * m) <= DEFAULT_MAX_Q:
                    yield p, e, m


def test_moduli_are_least_irreducibles_by_factoring():
    """Every extension up to DEFAULT_MAX_Q elements is built on the first
    ``monic_polys`` candidate that trial-division factoring calls
    irreducible, so the Rabin test picks the same modulus."""
    count = 0
    for p, e, m in _extension_triples():
        F = field_make(p, e, m)
        A = PolyRing(F.base)
        want = next(g for g in A.monic_polys(F.degree)
                    if A.factor(g) == [(g, 1)])
        assert F.modulus == want == least_irreducible(F.base, F.degree), \
            (p, e, m)
        count += 1
    assert count == 212


def test_size_bound_enforced():
    with pytest.raises(ValueError):
        field_make(3, 1, 11)  # 3^11 > default bound 3^10


# -- log/antilog and Zech tables against the schoolbook path --------------

def _add_oracle(F, a, b):
    """Digit-wise addition down to F_p, through vec/unvec at every level."""
    if isinstance(F, PrimeField):
        return (a + b) % F.p
    return F.unvec([_add_oracle(F.base, x, y)
                    for x, y in zip(F.vec(a), F.vec(b))])


def _neg_oracle(F, a):
    if isinstance(F, PrimeField):
        return (-a) % F.p
    return F.unvec([_neg_oracle(F.base, x) for x in F.vec(a)])


def _pow_oracle(F, a, n):
    r = 1
    while n:
        if n & 1:
            r = F._mul_raw(r, a)
        a = F._mul_raw(a, a)
        n >>= 1
    return r


def _check_against_oracle(F, pairs):
    for a, b in pairs:
        assert F.mul(a, b) == F._mul_raw(a, b), (F, a, b)
        assert F.add(a, b) == _add_oracle(F, a, b), (F, a, b)
    for a, _ in pairs:
        assert F.neg(a) == _neg_oracle(F, a), (F, a)
        if a:
            assert F._mul_raw(a, F.inv(a)) == 1, (F, a)
        frob = _pow_oracle(F, a, F.q)
        assert F.frobenius(a) == frob, (F, a)
        x = a
        for k in range(F._frob_order + 2):
            assert F.qpow(a, k) == x, (F, a, k)
            x = _pow_oracle(F, x, F.q)


# (p, e, m): F_{q^m} for q = p^e; the ones up to 27 elements are exhaustive
EXHAUSTIVE_FIELDS = [(2, 2, 1), (2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2),
                     (3, 1, 3)]
SEEDED_FIELDS = [(2, 2, 3), (3, 1, 5), (2, 1, 8), (3, 1, 6), (2, 1, 11),
                 (3, 1, 7)]


@pytest.mark.parametrize("p,e,m", EXHAUSTIVE_FIELDS,
                         ids=["F%d" % p ** (e * m) for p, e, m in
                              EXHAUSTIVE_FIELDS])
def test_table_field_exhaustive(p, e, m):
    F = field_make(p, e, m)
    assert F._log is not None
    _check_against_oracle(F, [(a, b) for a in F.elements()
                              for b in F.elements()])


@pytest.mark.parametrize("p,e,m", SEEDED_FIELDS,
                         ids=["F%d" % p ** (e * m) for p, e, m in
                              SEEDED_FIELDS])
def test_field_seeded(p, e, m):
    # F_2048 and F_2187 lie above the table limit: the schoolbook path
    F = field_make(p, e, m)
    assert (F._log is not None) == (F.size <= 1024)
    rng = random.Random(F.size)
    pairs = [(F.rand(rng), F.rand(rng)) for _ in range(300)]
    pairs += [(0, F.rand(rng)), (F.rand(rng), 0), (1, F.size - 1)]
    _check_against_oracle(F, pairs)


def test_table_build_is_linear(monkeypatch):
    calls = [0]
    raw = ExtField._mul_raw

    def counting(self, a, b):
        calls[0] += 1
        return raw(self, a, b)

    monkeypatch.setattr(ExtField, "_mul_raw", counting)
    F = field_make(2, 1, 8)
    assert F._log is not None
    assert calls[0] < 4 * F.size


def test_frobenius_is_identity_on_fq():
    # F_4 and F_16 made as F_q (m = 1): x -> x^q fixes every element
    for e in (2, 4):
        F = field_make(2, e, 1)
        assert F.q == F.size
        assert all(F.frobenius(a) == a for a in F.elements())
