"""Deterministic property suites behind `dforge selftest`.

Each suite returns quietly or raises AssertionError; the runner turns
that into one PASS/FAIL line.  Seeds are fixed (overridable) so reruns
give the same verdict.
"""

import random

from .fields import field_make
from .poly import PolyRing, ResidueRing, LocalizedRing
from .series import Series, LaurentDomain
from .skew import SkewPoly, skew_kernel
from .drinfeld import (DrinfeldModule, LevelStructure, carlitz_cyclotomic,
                       dm_torsion, rank1_universal)
from .weil import exterior_power2, motive_oracle, moore_pair, PairingContext
from .cusps import census, unit_count
from .tate import tate_lattice, tate_module, functional_equation_precision
from .reduction import newton_slopes
from . import serialize


def _rand_skew(dom, rng, d=3):
    return SkewPoly(dom, [dom.rand(rng) for _ in range(d + 1)])


def suite_skew_axioms(seed):
    rng = random.Random(seed)
    F9 = field_make(3, 1, 2)
    for _ in range(1000):
        a, b, c = (_rand_skew(F9, rng, 2) for _ in range(3))
        assert a.mul(b.mul(c)) == a.mul(b).mul(c)
        assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
        assert b.add(c).mul(a) == b.mul(a).add(c.mul(a))
        assert a.mul(b).coeff(0) == F9.mul(a.coeff(0), b.coeff(0))


def suite_divmod_roundtrip(seed):
    rng = random.Random(seed)
    F9 = field_make(3, 1, 2)
    done = 0
    while done < 300:
        a = _rand_skew(F9, rng, 4)
        b = _rand_skew(F9, rng, 2)
        if b.is_zero() or not F9.is_unit(b.coeffs[-1]):
            continue
        q, r = a.right_divmod(b)
        assert q.mul(b).add(r) == a
        assert r.deg() < b.deg()
        done += 1


def suite_kernel_oracle(seed):
    rng = random.Random(seed)
    F27 = field_make(3, 1, 3)
    done = 0
    while done < 25:
        a = _rand_skew(F27, rng, 2)
        if a.is_zero():
            continue
        pts = skew_kernel(a)
        assert pts == skew_kernel(a, exhaustive=True)
        # size is a power of q and the set is F_q-linear
        n = len(pts)
        while n % 3 == 0:
            n //= 3
        assert n == 1
        ps = set(pts)
        for u in pts[:6]:
            for v in pts[:6]:
                assert F27.add(u, v) in ps
        done += 1


def suite_series_inversion(seed):
    rng = random.Random(seed)
    F3 = field_make(3, 1, 1)
    LD = LaurentDomain(F3, default_prec=14)
    done = 0
    while done < 200:
        s = LD.rand(rng, window=5)
        if s.is_zero() or not F3.is_unit(s.leading()):
            continue
        inv = s.inv()
        prod = s.mul(inv)
        assert prod.agree(LD.one())
        done += 1


def suite_residue_partition(seed):
    F3 = field_make(3, 1, 1)
    A = PolyRing(F3)
    for f in [(0, 1), (0, 0, 1), (1, 0, 1), (1, 1), (2, 1, 1)]:
        R = ResidueRing(A, f)
        units = R.units()
        assert len(units) == unit_count(A, A.factor(f))
        assert len(list(R.elements())) == R.size
        us = set(units)
        for u in list(us)[:12]:
            for v in list(us)[:12]:
                assert R.mul(u, v) in us


def suite_torsion_counts(seed):
    F3 = field_make(3, 1, 1)
    A = PolyRing(F3)
    T = A.gen()
    for coeffs, f, r in [((2, 1), T, 1), ((2, 0, 1), T, 2),
                         ((1, 1), A.mul(T, T), 1), ((1, 1, 2), T, 2)]:
        phi = DrinfeldModule(A, F3, coeffs)
        tor = dm_torsion(phi, f)
        assert len(tor.points) == 3 ** (r * A.deg(f))


def suite_dm_homomorphism(seed):
    rng = random.Random(seed)
    F9 = field_make(3, 1, 2)
    A = PolyRing(field_make(3, 1, 1))
    phi = DrinfeldModule(A, F9, (5, 3, 1))
    for _ in range(200):
        a, b = A.rand(rng, 2), A.rand(rng, 2)
        assert phi.image(A.mul(a, b)) == phi.image(a).mul(phi.image(b))
        assert phi.image(A.add(a, b)) == phi.image(a).add(phi.image(b))


def suite_twist_action(seed):
    rng = random.Random(seed)
    F9 = field_make(3, 1, 2)
    A = PolyRing(field_make(3, 1, 1))
    phi = DrinfeldModule(A, F9, (5, 3, 1))
    for _ in range(100):
        x1 = 0
        while x1 == 0:
            x1 = F9.rand(rng)
        x2 = 0
        while x2 == 0:
            x2 = F9.rand(rng)
        lhs = phi.twist(x1).twist(x2)
        rhs = phi.twist(F9.mul(x2, x1))
        assert lhs == rhs


def suite_cyclotomic_degrees(seed):
    F3 = field_make(3, 1, 1)
    A = PolyRing(F3)
    T = A.gen()
    for f in [T, A.mul(T, T), (1, 0, 1), (1, 1), A.mul(T, (1, 1))]:
        phi = carlitz_cyclotomic(A, f)
        assert len(phi) - 1 == len(ResidueRing(A, f).units())


def suite_census_identity(seed):
    for (p, e) in [(2, 1), (3, 1)]:
        K = field_make(p, e, 1)
        A = PolyRing(K)
        fs = [g for d in (1, 2) for g in A.monic_polys(d)]
        for f in fs:
            rep = census(K, f, enumerate_groups=False)
            assert rep["cusp_count"] == rep["geometric_cusps"]


def suite_weil_small(seed):
    rng = random.Random(seed)
    F3 = field_make(3, 1, 1)
    F9 = field_make(3, 1, 2)
    A = PolyRing(F3)
    T = A.gen()
    for _ in range(20):
        th, g = F9.rand(rng), F9.rand(rng)
        d = 0
        while d == 0:
            d = F9.rand(rng)
        m = DrinfeldModule(A, F9, (th, g, d))
        assert motive_oracle(m).phi_T == exterior_power2(m).phi_T
    # alternating + bilinear, exhaustive for f = T
    phi = DrinfeldModule(A, F3, (2, 0, 1))
    tor = dm_torsion(phi, T)
    lvl = None
    for ua in tor.points:
        for vb in tor.points:
            if ua == 0 or vb == 0:
                continue
            try:
                lvl = LevelStructure(tor.phi_ext, T, (ua, vb))
                break
            except ValueError:
                continue
        if lvl:
            break
    ctx = PairingContext.build(tor.phi_ext, lvl)
    F = tor.field
    psi = ctx.psi
    ker = set(skew_kernel(psi.image(T)))
    for u in tor.points:
        assert ctx.pair(u, u) == F.zero()
        for v in tor.points:
            assert moore_pair(F, u, v) in ker
            w1 = ctx.pair(F.add(u, u), v)
            w2 = F.add(ctx.pair(u, v), ctx.pair(u, v))
            assert w1 == w2


def suite_tate_functional(seed):
    F3 = field_make(3, 1, 1)
    A = PolyRing(F3)
    T = A.gen()
    uni = rank1_universal(F3, T)
    L = tate_lattice(uni, N=7)
    te = tate_module(L, 7)
    for a in (T, A.mul(T, T), (1, 1)):
        p = functional_equation_precision(L, te.e, te.phi, a)
        assert p is None or p >= 7 - 4
    # subring check: every coefficient is F_q^*-invariant
    R = te.ring
    for s in (te.g, te.delta):
        for c in s.coeffs:
            assert R.in_invariant_subring(c)
    for si in te.e.coeffs:
        for c in si.coeffs:
            assert R.in_invariant_subring(c)


def suite_newton_rootcount(seed):
    F3 = field_make(3, 1, 1)
    F9 = field_make(3, 1, 2)
    A = PolyRing(F3)
    T = A.gen()
    uni = rank1_universal(F3, T)
    from .tate import specialize
    L = tate_lattice(uni, N=7)
    te = tate_module(L, 7)
    sp = specialize(te, F9)
    slopes = newton_slopes(sp.phi.image(T))
    assert sum(l for _, l in slopes) == 3 ** 2 - 1


def suite_serialization(seed):
    rng = random.Random(seed)
    F3 = field_make(3, 1, 1)
    A = PolyRing(F3)
    T = A.gen()
    Af = LocalizedRing(A, T)
    for _ in range(100):
        a = Af.rand(rng, 3)
        assert serialize.parse_af(serialize.ser_af(a), Af) == a
    uni = rank1_universal(F3, T)
    R = uni.ring
    for _ in range(50):
        v = R.rand(rng)
        assert serialize.parse_rp(serialize.ser_rp(v), R) == v
    LD = LaurentDomain(R)
    s = Series(R, -2, [R.rand(rng) for _ in range(5)], 9)
    doc = serialize.ser_series_rp(s)
    assert serialize.parse_series_rp(doc, R) == s


SUITES = [
    ("skew-ring-axioms", suite_skew_axioms),
    ("skew-divmod-roundtrip", suite_divmod_roundtrip),
    ("skew-kernel-oracle", suite_kernel_oracle),
    ("series-inversion", suite_series_inversion),
    ("residue-unit-partition", suite_residue_partition),
    ("torsion-counts", suite_torsion_counts),
    ("dm-ring-homomorphism", suite_dm_homomorphism),
    ("twist-group-action", suite_twist_action),
    ("carlitz-cyclotomic-degrees", suite_cyclotomic_degrees),
    ("census-formula-identity", suite_census_identity),
    ("weil-pairing-properties", suite_weil_small),
    ("tate-functional-equation", suite_tate_functional),
    ("newton-root-count", suite_newton_rootcount),
    ("serialization-roundtrip", suite_serialization),
]


def run_all(seed=20260809, out=None):
    failures = 0
    for name, fn in SUITES:
        try:
            fn(seed)
            line = "PASS %s" % name
        except Exception as exc:  # report and continue
            failures += 1
            line = "FAIL %s: %s" % (name, exc)
        if out is not None:
            out.write(line + "\n")
    return failures
