"""Drinfeld modules for A = F_q[T]: construction, torsion, level
structures, twists, the Carlitz module and its cyclotomic polynomials,
and the universal rank-1 module with mu(1) = 1.

A Drinfeld module is stored by the single skew polynomial phi_T (the
ring map A -> K{tau} is determined by it since A = F_q[T]).  The
characteristic is described by theta = gamma(T), the constant term of
phi_T.
"""

from .fields import ExtField
from .poly import PolyRing, ResidueRing, LocalizedRing, trim
from .ring import Ring
from .skew import SkewPoly, skew_kernel

DEFAULT_TORSION_BOUND = 12


class RankError(ValueError):
    pass


class CharacteristicError(ValueError):
    """f is not away from the characteristic."""


class DrinfeldModule:
    """phi: A -> dom{tau}, phi_T = theta + a_1 tau + ... + a_r tau^r."""

    def __init__(self, A, dom, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == dom.zero():
            coeffs.pop()
        if len(coeffs) < 2:
            raise RankError("rank 0: phi_T must have a tau-term")
        if not dom.is_unit(coeffs[-1]):
            raise RankError("leading coefficient of phi_T must be a unit")
        self.A = A
        self.dom = dom
        self.phi_T = SkewPoly(dom, coeffs)
        self.theta = coeffs[0]
        self.rank = len(coeffs) - 1

    def image(self, a):
        """phi_a for a in A, via a = sum c_i T^i => phi_a = sum c_i phi_T^i."""
        dom = self.dom
        acc = SkewPoly(dom, ())
        power = SkewPoly.one(dom)
        for i, c in enumerate(a):
            if i > 0:
                power = power.mul(self.phi_T)
            if c != 0:
                acc = acc.add(power.scalar_mul(dom.scalar(c)))
        return acc

    def char_of(self, a):
        """gamma(a) = a(theta)."""
        return self.A.eval(a, self.theta, dom=self.dom,
                           embed_scalar=self.dom.scalar)

    def twist(self, xi):
        """The conjugate xi * phi * xi^-1; coefficient i becomes
        xi^(1-q^i) a_i.  Torsion points scale by xi."""
        dom = self.dom
        if not dom.is_unit(xi):
            raise ValueError("twist by a non-unit")
        xi_inv = dom.inv(xi)
        out = []
        for i, c in enumerate(self.phi_T.coeffs):
            out.append(dom.mul(dom.mul(xi, c), dom.qpow(xi_inv, i)))
        return DrinfeldModule(self.A, dom, out)

    def map_coeffs(self, fn, newdom):
        return DrinfeldModule(self.A, newdom,
                              [fn(c) for c in self.phi_T.coeffs])

    def __eq__(self, other):
        return (isinstance(other, DrinfeldModule) and other.dom == self.dom
                and other.phi_T == self.phi_T)

    def __repr__(self):
        return "DrinfeldModule(rank %d, phi_T = %r)" % (self.rank, self.phi_T)


class TorsionModule:
    """The f-torsion of phi, realized over an explicit extension field."""

    def __init__(self, phi, f, ext_degree, field, phi_ext, points):
        self.phi = phi
        self.f = f
        self.m = ext_degree
        self.field = field
        self.phi_ext = phi_ext
        self.points = points

    def __len__(self):
        return len(self.points)


def dm_torsion(phi, f):
    """Smallest extension F_{q^m} containing all f-torsion, with points.

    Requires f away from the characteristic: gamma(f) must be a unit.
    """
    f = trim(f)
    A = phi.A
    base = phi.dom
    gamma_f = phi.char_of(f)
    if not base.is_unit(gamma_f):
        raise CharacteristicError("characteristic divides f")
    want = base.q ** (phi.rank * (len(f) - 1))
    m0 = 1
    while base.q ** m0 < base.size:
        m0 += 1
    for m in range(1, DEFAULT_TORSION_BOUND + 1):
        if m % m0 != 0:
            continue
        # base embeds into ExtField(base, k) as the single-digit encodings
        try:
            Fm = base if m == m0 else ExtField(base, m // m0, q=base.q)
        except ValueError:
            break  # field size bound reached
        phi_m = phi if m == m0 else phi.map_coeffs(lambda a: a, Fm)
        pts = skew_kernel(phi_m.image(f))
        if len(pts) == want:
            return TorsionModule(phi, f, m, Fm, phi_m, pts)
    raise ValueError("torsion not split within the search bound")


class LevelStructure:
    """A level f-structure: images of the standard basis of (A/fA)^r.

    ``canon`` maps a point to a hashable canonical key (identity for
    field elements; a coefficient window from ``series.series_canon`` or
    ``series.torsion_canon`` for series points).  The points are mapped
    once (``points``); ``span`` keys them with ``canon`` on first use.
    """

    def __init__(self, phi, f, images, canon=None, validate=True):
        self.phi = phi
        self.f = trim(f)
        self.images = tuple(images)
        self.A = phi.A
        self.R = ResidueRing(phi.A, self.f)
        self.canon = canon or (lambda x: x)
        self._points = self._span = None
        if len(self.images) != phi.rank:
            raise ValueError("need exactly rank-many images")
        if validate:
            self.validate()

    def map(self, vec):
        """lambda(vec) for vec a tuple of residue representatives."""
        dom = self.phi.dom
        acc = dom.zero()
        for v, u in zip(vec, self.images):
            pa = self.phi.image(trim(v))
            acc = dom.add(acc, pa.eval(u, ydom=dom))
        return acc

    def points(self):
        """[(coordinate vector, lambda(vector))] over all of (A/fA)^r,
        each point mapped once."""
        if self._points is None:
            R, r = self.R, self.phi.rank
            vecs = (tuple(R.from_index(idx // R.size ** j % R.size)
                          for j in range(r)) for idx in range(R.size ** r))
            self._points = [(vec, self.map(vec)) for vec in vecs]
        return self._points

    def span(self):
        """dict canonical-key -> coordinate vector, over all of (A/fA)^r."""
        if self._span is None:
            self._span = {self.canon(pt): vec for vec, pt in self.points()}
        return self._span

    def coordinates(self, point):
        key = self.canon(point)
        sp = self.span()
        if key not in sp:
            raise ValueError("point is not in the f-torsion span")
        return sp[key]

    def validate(self):
        dom = self.phi.dom
        phif = self.phi.image(self.f)
        for u in self.images:
            if self.canon(phif.eval(u, ydom=dom)) != self.canon(dom.zero()):
                raise ValueError("image is not f-torsion")
        want = dom.q ** (self.phi.rank * self.A.deg(self.f))
        if len(self.span()) != want:
            raise ValueError("not a basis: images generate a proper "
                             "submodule (%d of %d points)"
                             % (len(self.span()), want))

    def compose(self, sigma):
        """The level structure lambda .sigma: v -> lambda(v*sigma), for
        sigma a 2x2 matrix over A/fA (rank 2 only)."""
        if self.phi.rank != 2:
            raise ValueError("matrix action implemented for rank 2")
        R = self.R
        (a, b), (c, d) = sigma
        e1 = (a, b)  # (1,0) * sigma
        e2 = (c, d)  # (0,1) * sigma
        return LevelStructure(
            self.phi, self.f,
            (self.map(e1), self.map(e2)),
            canon=self.canon, validate=False)


def torsion_basis(tor):
    """A deterministic level structure on the split torsion module.

    Filters for points of full order first (cheap), then validates the
    span; for rank 2 the first full-order pair that spans wins.
    """
    phi_m = tor.phi_ext
    A = phi_m.A
    f = trim(tor.f)
    killers = [phi_m.image(A.divexact(f, p)) for p, _ in A.factor(f)]
    full = [u for u in tor.points
            if u != phi_m.dom.zero()
            and all(k.eval(u) != phi_m.dom.zero() for k in killers)]
    if phi_m.rank == 1:
        return LevelStructure(phi_m, f, (full[0],))
    for u in full:
        for v in full:
            try:
                return LevelStructure(phi_m, f, (u, v))
            except ValueError:
                continue
    raise ValueError("no torsion basis found")


# -- Carlitz module and cyclotomic polynomials ---------------------------


def carlitz_module(A):
    """The Carlitz module C_T = T + tau over A itself (theta = T)."""
    return DrinfeldModule(A, A, (A.gen(), A.one()))


def _skew_to_commutative(A, sp):
    """Additive polynomial sum a_i X^(q^i) as a dense polynomial in X
    over A (a tuple of A-elements)."""
    q = A.q
    if sp.is_zero():
        return ()
    n = q ** sp.deg() + 1
    out = [A.zero()] * n
    for i, c in enumerate(sp.coeffs):
        out[q ** i] = c
    return tuple(out)


def carlitz_cyclotomic(A, f):
    """The Carlitz cyclotomic polynomial Phi_f(X) over A.

    Phi_f(X) = prod over monic g | f of C_(f/g)(X)^moebius(g), computed by
    exact division in A[X]; deg Phi_f = #(A/fA)^* and Phi_f | C_f.
    """
    f = A.monic(trim(f))
    if A.deg(f) < 1:
        raise ValueError("f must be non-constant")
    C = carlitz_module(A)
    AX = PolyRing(A, var="X")
    num = AX.one()
    den = AX.one()
    for g, mu in A.squarefree_monic_divisors(f):
        if mu == 0:
            continue
        part = _skew_to_commutative(A, C.image(A.divexact(f, g)))
        if mu == 1:
            num = AX.mul(num, part)
        else:
            den = AX.mul(den, part)
    phi = AX.divexact(num, den)  # exact or it is a bug
    return phi


# -- the universal rank 1 module over R' ----------------------------------


class CyclotomicRing(Ring):
    """R' = A_f[lam]/(Phi_f(lam)): coefficients of the universal rank-1
    Drinfeld module with mu(1) = 1 live here.

    Elements are tuples of length deg(Phi_f) over A_f (the lam-power
    basis).  The subring fixed by lam -> c*lam (c in F_q^*) is the base
    ring the rank-1 moduli actually live over; membership is simply
    'coordinates vanish outside indices divisible by q-1'.

    Products work on the support of their operands (the non-zero
    coordinates) and on one common denominator: the support of each
    operand is lifted to numerators over A on a single power f^K, the
    numerators are convolved and reduced in A[lam], and each coordinate
    is normalised once.  Phi_f is monic with coefficients in A, so the
    table of lam^j mod Phi_f lives over A and needs no denominators.  An
    all-zero operand gives zero at once, and two single-coordinate
    operands at lam^i and lam^j with i + j < d give one A_f product at
    lam^(i+j), with nothing to reduce.  A sum copies a coordinate that
    is zero on one side.

    Elements of A_f (only lam^0 non-zero) stay in A_f: their q-power is
    the A_f q-power, and their inverse is the A_f inverse.  R' is free
    over A_f with basis 1, lam, ..., lam^(d-1), so a * b = 1 for a in
    A_f forces a * b_0 = 1 in A_f: a is a unit of R' exactly when it is
    a unit of A_f, with the same inverse.

    Any other element is inverted by its norm.  R' tensored with
    Frac(A) is the Carlitz cyclotomic field, Galois over Frac(A) with
    group (A/fA)^* acting by lam -> C_u(lam) (Hayes, "Explicit class
    field theory for rational function fields", Trans. AMS 189, 1974),
    so c = prod_{u != 1} sigma_u(a) lies in R' and N(a) = a * c is fixed
    by every sigma_u, hence lies in A_f.  Then a is a unit of R' exactly
    when N(a) is a unit of A_f, and a^-1 = c * N(a)^-1.
    """

    def __init__(self, K, f):
        A = PolyRing(K)
        f = A.monic(trim(f))
        self.K = K
        self.A = A
        self.f = f
        self.Af = LocalizedRing(A, f)
        self.q = A.q
        self.char = K.char
        self.phi_f = carlitz_cyclotomic(A, f)
        self.d = len(self.phi_f) - 1
        self._lampow = []  # lam^j mod Phi_f over A, extended on demand
        self._conjugates = None  # sigma_u for the units u != 1, on demand

    def _lam_row(self, j):
        """lam^j mod Phi_f as a length-d tuple over A, cached."""
        rows = self._lampow
        A, d = self.A, self.d
        while len(rows) <= j:
            k = len(rows)
            if k < d:
                rows.append(tuple(A.one() if i == k else A.zero()
                                  for i in range(d)))
                continue
            prev = rows[-1]
            top = prev[-1]
            vec = [A.zero()] + list(prev[:-1])
            if top:
                for i, c in enumerate(self.phi_f[:d]):
                    if c:
                        vec[i] = A.sub(vec[i], A.mul(top, c))
            rows.append(tuple(vec))
        return rows[j]

    def reduce_power(self, j):
        """lam^j as a lam-power-basis vector over A_f."""
        return [self.Af.from_poly(c) for c in self._lam_row(j)]

    @staticmethod
    def _support(a):
        """The non-zero coordinates of a, as (i, a_i) in index order."""
        return [(i, c) for i, c in enumerate(a) if c[0]]

    def _lift(self, sup):
        """(terms, K) with sum of n lam^i / f^K over the terms (i, n)
        equal to the element of support ``sup``; n over A."""
        K = max(k for _, (_, k) in sup)
        if K == 0:
            return [(i, n) for i, (n, _) in sup], 0
        A, fpow = self.A, self.Af.fpow
        return [(i, n if k == K else A.mul(n, fpow(K - k)))
                for i, (n, k) in sup], K

    def _in_af(self, a):
        """True when only the lam^0 coordinate of a can be non-zero."""
        return not any(c[0] for c in a[1:])

    def _fold(self, conv, k):
        """The element sum_j conv[j] lam^j / f^k, conv over A: reduce
        mod Phi_f in A[lam], then normalise each coordinate once."""
        A, d = self.A, self.d
        out = list(conv[:d]) + [A.zero()] * (d - len(conv))
        for j in range(d, len(conv)):
            c = conv[j]
            if c:
                for i, r in enumerate(self._lam_row(j)):
                    if r:
                        out[i] = A.add(out[i], A.mul(c, r))
        if k == 0:
            zero = self.Af.zero()
            return tuple((n, 0) if n else zero for n in out)
        normalize = self.Af.normalize
        return tuple(normalize(n, k) for n in out)

    def zero(self):
        return (self.Af.zero(),) * self.d

    def one(self):
        return self.from_af(self.Af.one())

    def from_af(self, a):
        return (a,) + (self.Af.zero(),) * (self.d - 1)

    def scalar(self, c):
        return self.from_af(self.Af.scalar(c))

    def theta(self):
        return self.from_af(self.Af.from_poly(self.A.gen()))

    def lam(self):
        if self.d == 1:
            return tuple(self.reduce_power(1))
        v = [self.Af.zero()] * self.d
        v[1] = self.Af.one()
        return tuple(v)

    def add(self, a, b):
        add = self.Af.add
        return tuple(y if not x[0] else x if not y[0] else add(x, y)
                     for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.Af.neg(x) for x in a)

    def mul(self, a, b):
        sa = self._support(a)
        if not sa:
            return a
        sb = self._support(b)
        if not sb:
            return b
        if len(sa) == 1 == len(sb) and sa[0][0] + sb[0][0] < self.d:
            (i, x), (j, y) = sa[0], sb[0]
            out = list(self.zero())
            out[i + j] = self.Af.mul(x, y)
            return tuple(out)
        A = self.A
        ta, ka = self._lift(sa)
        tb, kb = self._lift(sb)
        conv = [A.zero()] * (ta[-1][0] + tb[-1][0] + 1)
        for i, x in ta:
            for j, y in tb:
                conv[i + j] = A.add(conv[i + j], A.mul(x, y))
        return self._fold(conv, ka + kb)

    def qpow(self, a, k=1):
        """a^(q^k): Frobenius is additive, so lam^i / f^K goes to
        lam^(q i) / f^(q K) with q-th power numerators."""
        if self._in_af(a):
            return self.from_af(self.Af.qpow(a[0], k))
        A, q = self.A, self.q
        for _ in range(k):
            terms, K = self._lift(self._support(a))
            conv = [A.zero()] * (q * terms[-1][0] + 1)
            for i, n in terms:
                conv[q * i] = A.qpow(n, 1)
            a = self._fold(conv, q * K)
        return a

    def _norm(self, a):
        """(c, N) with c the product of sigma_u(a) over the units u != 1
        of A/fA, and N = a * c, the norm of a to A_f."""
        if self._conjugates is None:
            one = self.A.one()
            self._conjugates = [self.galois(u) for u in
                                ResidueRing(self.A, self.f).units()
                                if u != one]
        c = self.one()
        for sigma in self._conjugates:
            c = self.mul(c, sigma(a))
        n = self.mul(a, c)
        if not self._in_af(n):
            raise AssertionError("norm to A_f has lam-coordinates")
        return c, n[0]

    def is_unit(self, a):
        if self._in_af(a):
            return self.Af.is_unit(a[0])
        return self.Af.is_unit(self._norm(a)[1])

    def inv(self, a):
        """The A_f inverse for an element of A_f; else c / N(a) with
        (c, N(a)) from ``_norm``: a is a unit of R' exactly when its norm
        is a unit of A_f."""
        if self._in_af(a):
            return self.from_af(self.Af.inv(a[0]))
        c, n = self._norm(a)
        return self.mul(c, self.from_af(self.Af.inv(n)))

    def in_invariant_subring(self, a):
        """True when a lies in the F_q^*-invariant subring A_f[lam^(q-1)]
        (coordinates vanish off indices divisible by q-1)."""
        for i, c in enumerate(a):
            if i % (self.q - 1) != 0 and c != self.Af.zero():
                return False
        return True

    def galois(self, a_res):
        """The automorphism lam -> C_{a}(lam) for a unit residue a_res;
        returns a callable on ring elements."""
        A, d = self.A, self.d
        img = carlitz_module(A).image(trim(a_res))
        # C_a(lam) = sum c_i lam^(q^i) with every c_i in A
        conv = [A.zero()] * (self.q ** len(img.coeffs))
        for i, c in enumerate(img.coeffs):
            conv[self.q ** i] = c
        lam_img = self._fold(conv, 0)
        powers = [self.one()]
        for _ in range(d - 1):
            powers.append(self.mul(powers[-1], lam_img))
        # the powers of lam_img lie over A (every f-exponent is 0)
        rows = [[n for n, _ in p] for p in powers]

        def apply(z):
            sup = self._support(z)
            if not sup:
                return z
            terms, K = self._lift(sup)
            out = [A.zero()] * d
            for i, n in terms:
                for t, r in enumerate(rows[i]):
                    if r:
                        out[t] = A.add(out[t], A.mul(n, r))
            return self._fold(out, K)

        return apply

    def rand(self, rng):
        return tuple(self.Af.rand(rng, 2) for _ in range(self.d))

    def repr_elem(self, a):
        parts = []
        for i, c in enumerate(a):
            if c == self.Af.zero():
                continue
            s = self.Af.repr_elem(c)
            parts.append(s if i == 0 else "(%s)*lam^%d" % (s, i))
        return " + ".join(parts) if parts else "0"

    def _key(self):
        return (self.K, self.f)

    def __repr__(self):
        return "A_f[lam]/(Phi_f), f=%s" % (self.A.repr_elem(self.f),)


class UniversalRank1:
    """The rank-1 module psi_T = theta + lam^(q-1) tau over R', with the
    level structure mu(1) = 1."""

    def __init__(self, K, f):
        self.ring = CyclotomicRing(K, f)
        R = self.ring
        self.f = R.f
        w = R.pow(R.lam(), R.q - 1)
        self.psi = DrinfeldModule(R.A, R, (R.theta(), w))
        self.w = w
        self.mu1 = R.one()
        psif = self.psi.image(self.f)
        val = psif.eval(self.mu1, ydom=R)
        if val != R.zero():
            raise AssertionError("mu(1)=1 failed to be f-torsion; "
                                 "cyclotomic construction is broken")

    def torsion_point(self, a_res):
        """mu(a) = psi_a(1) for a residue representative a."""
        return self.psi.image(trim(a_res)).eval(self.mu1, ydom=self.ring)


def rank1_universal(K, f):
    """``UniversalRank1(K, f)`` under the name the benchmark uses: its
    per-layer trace reads the self time of ``drinfeld.rank1_universal``
    and ``bench/make_pool.py`` calls it, so it stays a function."""
    return UniversalRank1(K, f)
