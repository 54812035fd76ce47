"""The shared domain protocol (``dforge.ring.Ring``) on every domain class:
sub, pow (negative exponents included) and equality of domain objects."""

import random

import pytest

from dforge.drinfeld import CyclotomicRing
from dforge.fields import field_make
from dforge.poly import PolyRing, ResidueRing, LocalizedRing, FunctionField
from dforge.series import LaurentDomain, Series


def _A():
    return PolyRing(field_make(3, 1, 1))


def _laurent():
    return LaurentDomain(CyclotomicRing(field_make(3, 1, 1), (0, 0, 1)),
                         default_prec=4)


CASES = {
    "F5": lambda: field_make(5, 1),
    "F9": lambda: field_make(3, 1, 2),
    "F3[T]": _A,
    "F3[T]/(T^2+1)": lambda: ResidueRing(_A(), (1, 0, 1)),
    "A_f,f=T^2+T": lambda: LocalizedRing(_A(), (0, 1, 1)),
    "Frac(F3[T])": lambda: FunctionField(_A()),
    "R',q=3,f=T^2": lambda: CyclotomicRing(field_make(3, 1, 1), (0, 0, 1)),
    "R'((x))": _laurent,
}


def _units(R, elems):
    """Units among elems, plus known ones: f and its factor T in A_f,
    and lam in R' (N(lam) = Phi_f(0) divides a power of f)."""
    out = [R.one(), R.scalar(2)]
    if isinstance(R, LocalizedRing):
        out += [R.from_poly(R.f), R.from_poly((0, 1))]
    if isinstance(R, CyclotomicRing):
        out.append(R.lam())
    if isinstance(R, LaurentDomain):
        out.append(R.mul(R.x(-1), R.const(R.cdom.lam())))
    return out + [a for a in elems if R.is_unit(a)]


def _is_one(R, a):
    d = R.sub(a, R.one())
    return d.is_zero() if isinstance(d, Series) else d == R.zero()


@pytest.mark.parametrize("name", list(CASES))
def test_ring_protocol(name, deadline):
    R = CASES[name]()
    rng = random.Random(name)
    elems = [R.rand(rng) for _ in range(6)]
    for a, b in zip(elems, elems[1:]):
        assert R.sub(R.add(a, b), b) == a
    for a in elems[:3]:
        r = R.one()
        for n in range(10):
            assert R.pow(a, n) == r      # Series: prec included
            r = R.mul(r, a)
    with deadline(20):
        for u in _units(R, elems):
            for n in (1, 2, 5):
                assert _is_one(R, R.mul(R.pow(u, -n), R.pow(u, n)))


@pytest.mark.parametrize("name", list(CASES))
def test_ring_equality(name):
    R, S = CASES[name](), CASES[name]()
    assert R is not S
    assert R == S and hash(R) == hash(S)
    assert not R != S


def test_ring_equality_separates_classes_and_fields():
    A = _A()
    f = (1, 0, 1)
    assert ResidueRing(A, f) != LocalizedRing(A, f)
    assert PolyRing(field_make(3, 1, 1)) != PolyRing(field_make(3, 1, 2))
