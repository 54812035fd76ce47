"""Stable reduction of rank-2 Drinfeld modules over V = F_{q^m}[[pi]].

Pipeline: the Newton polygon of the f-division polynomial decides the
twist exponent k, and the same polygon shifted by k is that of the
twisted module; twisting by pi^(-k) produces the normal form with
integral coefficients whose reduction has rank 1 (or 2 = good
reduction); Drinfeld's successive approximation then finds the additive
series s = 1 + sum v_i tau^i (v_i in (pi)) with phi' o s = s o psi for a
rank-1 psi over V, solved order by order in pi -- the linearization at
each pi-level is a bidiagonal system closed by the tau-degree cutoff, so
plain back-substitution applies.  The lattice generator is recovered by
pulling a negative-valuation torsion point through s^(-1) and pushing
with psi_f.

Torsion points are the K_V-rational roots of additive polynomials, and
``additive_roots`` finds them digit by digit: each digit solves one face
equation over the residue field, the Newton-polygon calculus of additive
polynomials (Goss, *Basic Structures of Function Field Arithmetic*,
ch. 4).

The approximant s is the truncated lattice exponential e_Lambda (they
satisfy the same equation with the same pi-adic normalization, which is
unique), so the Tate specialization round trip compares s with e
coefficientwise.
"""

from fractions import Fraction

from .poly import trim
from .series import Series, PrecisionError, SLACK_BUDGET, torsion_canon
from .skew import SkewPoly, skew_kernel, skew_solve
from .drinfeld import DrinfeldModule, CharacteristicError, LevelStructure

TAU_DEGREE_CAP = 12
# working precision of additive_roots on an all-exact polynomial
EXACT_PREC = 60


class NonIntegralSlope(ArithmeticError):
    """Potentially stable reduction only: a slope is not an integer."""


class NoLattice(ArithmeticError):
    """No negative-valuation torsion: the reduction is good (rank 2)."""


def newton_slopes(sp):
    """Slopes (ascending) with horizontal lengths of the lower convex
    hull of {(q^i - 1, v(c_i))} for the additive polynomial sp, i.e. of
    (1/X) sp(X).  Zero-to-precision coefficients must lie provably above
    the hull or the polygon is indeterminate."""
    q = sp.dom.q
    pts = []
    unknown = []
    for i, c in enumerate(sp.coeffs):
        v = c.valuation()
        if v is not None:
            pts.append((q ** i - 1, v))
        elif c.prec is not None:
            unknown.append((q ** i - 1, c.prec))
    if len(pts) < 1:
        raise ValueError("zero polynomial has no Newton polygon")
    # lower convex hull, monotone chain
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    # indeterminacy: an unknown coefficient could dip below the hull
    for (x, prec) in unknown:
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 <= x <= x2:
                hull_y = Fraction(y1) + Fraction(y2 - y1, x2 - x1) * (x - x1)
                if prec <= hull_y:
                    raise PrecisionError(
                        "coefficient valuation exceeds stored precision; "
                        "polygon indeterminate")
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        s = int(slope) if slope.denominator == 1 else slope
        out.append((s, x2 - x1))
    return out


def stable_normalize(phi, f):
    """Twist phi into the P'-normal form over V.

    Returns (phi_prime, k, reduction_rank, xi) where k is the largest
    torsion valuation (= minus the smallest slope of the f-division
    polygon), xi = pi^(-k), and reduction_rank is the rank of
    phi_prime mod pi (2 means good reduction).  Raises NonIntegralSlope
    when the f-torsion cannot be K_V-rational, and CharacteristicError
    when gamma(f) = f(theta) is not a unit of V.
    """
    f = trim(f)
    LD = phi.dom
    q = LD.q
    A = phi.A
    degf = A.deg(f)
    gamma_f = phi.char_of(f)
    if gamma_f.valuation() != 0:
        raise CharacteristicError(
            "f(theta) is not a unit of V (valuation %s): f must be away "
            "from the characteristic" % gamma_f.valuation())
    slopes = newton_slopes(phi.image(f))
    for s, _ in slopes:
        if not isinstance(s, int):
            raise NonIntegralSlope(
                "slope %s is not an integer: potentially stable "
                "reduction only" % (s,))
    k = -slopes[0][0]
    xi = Series.x_pow(LD.cdom, -k)
    phi_prime = phi.twist(xi) if k != 0 else phi
    for i, c in enumerate(phi_prime.phi_T.coeffs):
        v = c.valuation()
        if v is not None and v < 0:
            raise AssertionError(
                "normalized coefficient %d has negative valuation" % i)
    red = [c.coeff(0) for c in phi_prime.phi_T.coeffs]
    rrank = 0
    for i in range(len(red) - 1, 0, -1):
        if red[i] != LD.cdom.zero():
            rrank = i
            break
    if rrank == 0:
        raise AssertionError("reduction is not a Drinfeld module; "
                             "normalization failed")
    # P': integral torsion is exactly A/fA, i.e. the slope-0 part of the
    # normalized polygon has horizontal length q^deg(f) - 1.  Twisting by
    # pi^(-k) adds k(q^i - 1) to v(c_i), so that polygon is (s + k, l).
    zero_len = sum(l for s, l in slopes if s + k == 0)
    if rrank == 1 and zero_len != q ** degf - 1:
        raise AssertionError("phi'[f](V) is not isomorphic to A/fA")
    return phi_prime, k, rrank, xi


class ApproxResult:
    def __init__(self, s, psi, achieved, tau_degree):
        self.s = s
        self.psi = psi
        self.achieved = achieved
        self.tau_degree = tau_degree


def drinfeld_approx(phi_prime, N, tau_degree=None):
    """Drinfeld's successive approximation: the additive series
    s = 1 + sum v_i tau^i with v_i in (pi) and phi' o s = s o psi for the
    rank-1 psi = theta + c_1 tau over V, solved mod pi^N.

    The residual phi'_T s - s psi_T is made to vanish one pi-order at a
    time; at each order the corrections satisfy a bidiagonal linear
    system over the residue field closed by the tau-degree cutoff
    (coefficients above it vanish at this precision), solved by
    back-substitution from the top.
    """
    LD = phi_prime.dom
    kappa = LD.cdom
    if phi_prime.rank == 1:
        return ApproxResult(SkewPoly.one(LD), phi_prime, N, 0)
    theta = phi_prime.phi_T.coeff(0)
    g = phi_prime.phi_T.coeff(1)
    delta = phi_prime.phi_T.coeff(2)
    gbar = g.coeff(0)
    if gbar == kappa.zero():
        raise ValueError("reduction rank is not 1; run stable_normalize")
    dv = delta.valuation()
    if dv is not None and dv < 1:
        raise ValueError("Delta is a unit: good reduction, nothing to do")
    D = max(tau_degree if tau_degree is not None else 2, 1)
    while D <= TAU_DEGREE_CAP:
        result = _approx_at_degree(phi_prime, N, D, theta, g, delta,
                                   gbar, LD, kappa)
        if result is not None:
            return result
        D += 1
    raise PrecisionError("tau-degree cap exceeded in the approximation")


def _approx_at_degree(phi_prime, N, D, theta, g, delta, gbar, LD, kappa):
    thbar = theta.coeff(0)
    # v[k] : list of kappa coefficients of pi^1..pi^(N-1)
    v = [[kappa.zero()] * N for _ in range(D + 1)]  # v[0] unused

    def v_series(k):
        return Series(kappa, 0, [kappa.zero()] + v[k][1:], N)

    def build_s():
        return SkewPoly(LD, [LD.one()] + [v_series(k)
                                          for k in range(1, D + 1)])

    thq = LD.qpow(theta, 1)
    for n in range(1, N):
        s = build_s()
        c1 = g.sub(v_series(1).mul(thq.sub(theta)))
        psi = SkewPoly(LD, (theta, c1))
        F = phi_prime.phi_T.mul(s).sub(s.mul(psi))
        c1bar = c1.coeff(0)
        # residuals at pi^n for tau-degrees 2 .. D+2
        rho = {}
        for k in range(2, D + 3):
            rho[k] = F.coeff(k).coeff(n) if (F.coeff(k).prec is None
                                             or n < F.coeff(k).prec) \
                else kappa.zero()
        # consistency row: no unknown multiplies into tau-degree D+2
        if rho[D + 2] != kappa.zero():
            return None  # tau-degree too small, retry higher
        t = [kappa.zero()] * (D + 1)
        # top row (k = D+1): t_D * cbar^(q^D) = rho_{D+1}
        t[D] = kappa.mul(rho[D + 1],
                         kappa.inv(kappa.qpow(c1bar, D)))
        for k in range(D, 1, -1):
            # rho_k + t_k (thbar - thbar^(q^k)) - t_{k-1} cbar^(q^{k-1}) = 0
            coef = kappa.sub(thbar, kappa.qpow(thbar, k))
            num = kappa.add(rho[k], kappa.mul(t[k], coef))
            t[k - 1] = kappa.mul(num, kappa.inv(kappa.qpow(c1bar, k - 1)))
        # apply the corrections: v_k += t_k pi^n
        for k in range(1, D + 1):
            v[k][n] = kappa.add(v[k][n], t[k])
    # final verification
    s = build_s()
    c1 = g.sub(v_series(1).mul(thq.sub(theta)))
    psi = SkewPoly(LD, (theta, c1))
    F = phi_prime.phi_T.mul(s).sub(s.mul(psi))
    achieved = None
    for k in range(0, D + 3):
        c = F.coeff(k).truncate(N)
        if c.coeffs:
            return None  # inconsistent; retry with a larger tau-degree
        p = c.prec
        if p is not None:
            achieved = p if achieved is None else min(achieved, p)
    for k in range(1, D + 1):
        vk = v_series(k)
        if vk.coeffs and vk.valuation() < 1:
            raise AssertionError("approximant coefficient not in (pi)")
    psi_mod = DrinfeldModule(phi_prime.A, LD, (theta, c1))
    return ApproxResult(s, psi_mod, achieved, D)


def tau_series_invert(s, cap=None):
    """Compositional inverse of an additive series with constant term 1."""
    if cap is None:
        cap = max(2 * s.deg(), 2) + 2
    return s.compositional_inverse(cap)


# -- rational roots of additive polynomials over K_V ----------------------


def additive_roots(sp, expected=None):
    """All K_V-rational roots of the additive polynomial sp, digit by
    digit on one rule.

    The face of sp at valuation mu is the additive polynomial over the
    residue field formed by the terms c_i (a x^mu)^(q^i) of least
    valuation.  A seed c x^(-s) is a nonzero kernel element of the face at
    an integer slope s; since sp(z + w) = sp(z) + sp(w), every later digit
    a x^mu of a root z solves face(mu)(a) = -lead(sp(z)), where mu is the
    valuation whose face reaches that of sp(z).  Every root, a seed that
    is already a root to precision too, is known to prec(sp(z)) - v(c_0).
    Slopes ascend, so a seed that leads a root found
    so far lifts into their span and is skipped; the F_q-span of the
    independent roots found closes the set.  An all-exact sp is truncated
    to ``EXACT_PREC``.

    Raises if the expected count is not reached (torsion not rational or
    precision too low)."""
    LD = sp.dom
    kappa = LD.cdom
    q = LD.q
    c0 = sp.coeff(0)
    if c0.is_zero():
        raise ValueError("additive polynomial with zero linear term")
    if all(c.prec is None for c in sp.coeffs):
        # an exact residual would never vanish at a root that is an
        # infinite series, so work to EXACT_PREC
        sp = SkewPoly(LD, [c.truncate(EXACT_PREC) for c in sp.coeffs])
    terms = [(i, c.valuation(), c.leading())
             for i, c in enumerate(sp.coeffs) if not c.is_zero()]

    def face(mu):
        least = min(v + mu * q ** i for i, v, _ in terms)
        fc = [kappa.zero()] * len(sp.coeffs)
        for i, v, lead in terms:
            if v + mu * q ** i == least:
                fc[i] = lead
        return least, SkewPoly(kappa, fc)

    def lift(z):
        r = sp.eval(z, ydom=LD)
        while not r.is_zero():
            nu = r.valuation()
            # the face valuation is strictly increasing in mu, so at most
            # one mu reaches nu, and some term meets it there
            for i, v, _ in terms:
                mu = (nu - v) // q ** i
                least, G = face(mu)
                if least == nu:
                    break
            else:
                return None
            a = skew_solve(G, kappa.neg(r.leading()))
            if a is None:
                return None
            digit = Series(kappa, mu, (a,), None)
            z = z.add(digit)
            r = r.add(sp.eval(digit, ydom=LD))
        return z.truncate(r.prec - c0.valuation())

    roots = [LD.zero()]
    for s, _length in newton_slopes(sp):
        if not isinstance(s, int):
            continue
        for c in skew_kernel(face(-s)[1]):
            if c == kappa.zero() or any(
                    r.valuation() == -s and r.leading() == c for r in roots):
                continue
            z = lift(Series(kappa, -s, (c,), None))
            if z is None:
                continue
            roots += [r.add(z.scalar_mul(kappa.scalar(cc)))
                      for r in roots for cc in range(1, q)]
    if expected is not None and len(roots) != expected:
        raise NoLattice(
            "found %d rational roots, expected %d (torsion not rational "
            "at this precision?)" % (len(roots), expected))
    return roots


def lattice_recover(phi_prime, s_approx, f, psi, N, torsion=None):
    """The lattice generator ell = psi_f(s^(-1)(u)) for a deterministic
    negative-valuation f-torsion point u of phi'.

    Contract: v(ell) < 0 and s(ell) = 0 mod pi^(N - slack).
    """
    LD = phi_prime.dom
    kappa = LD.cdom
    A = phi_prime.A
    f = trim(f)
    degf = A.deg(f)
    q = LD.q
    if torsion is None:
        torsion = additive_roots(phi_prime.image(f),
                                 expected=q ** (phi_prime.rank * degf))
    negs = [u for u in torsion
            if (not u.is_zero()) and u.valuation() < 0]
    if not negs:
        raise NoLattice("no negative-valuation torsion point: "
                        "good reduction")
    vmin = min(u.valuation() for u in negs)
    cands = [u for u in negs if u.valuation() == vmin]
    # normalize the F_q-scale: smallest encoded leading coefficient
    best = None
    for u in cands:
        lead = u.leading()
        for c in range(1, q):
            scaled_lead = kappa.mul(kappa.scalar(c), lead)
            cand = (scaled_lead, u.scalar_mul(kappa.scalar(c)))
            if best is None or (cand[0], cand[1].sort_key()) < \
                    (best[0], best[1].sort_key()):
                best = cand
    u = best[1]
    sinv = tau_series_invert(s_approx, cap=max(s_approx.deg() + 2, 4))
    ell_pre = sinv.eval(u, ydom=LD)
    ell = psi.image(f).eval(ell_pre, ydom=LD)
    if ell.is_zero():
        # each tau^k term of s^(-1) scales by u^(q^k), v(u) < 0, so the
        # precision of the document is lost in the inverse
        raise PrecisionError(
            "lattice generator ell is zero to its precision %s at N=%d; "
            "N must be raised" % (ell.prec, N))
    if ell.valuation() >= 0:
        raise AssertionError("lattice generator fails v(ell) < 0")
    img = s_approx.eval(ell, ydom=LD).truncate(N - SLACK_BUDGET)
    if not img.is_zero():
        raise AssertionError("s does not kill the recovered lattice "
                             "generator")
    return ell, u


class Triple:
    """(psi, mu, ell) extracted from a rank-2 pair with stable rank-1
    reduction, unique up to F_q^* as in the classification."""

    def __init__(self, psi, mu1, ell, k, xi, report):
        self.psi = psi
        self.mu1 = mu1
        self.ell = ell
        self.k = k
        self.xi = xi
        self.report = report


def triple_extract(phi, level, N):
    """Extract (psi, mu, ell) from (phi, lambda) over K_V.

    psi and s come from the successive approximation, ell from the
    lattice, and mu is pinned by the Weil-pairing normalization: mu(1)
    is the integral generator m with det(coords(u), coords(s(m))) = 1 in
    the lambda-coordinates, u the deterministic deep torsion choice.
    """
    LD = phi.dom
    kappa = LD.cdom
    A = phi.A
    f = level.f
    q = LD.q
    degf = A.deg(f)
    phi_prime, k, rrank, xi = stable_normalize(phi, f)
    if rrank != 1:
        raise NoLattice("stable reduction has rank %d, not 1" % rrank)
    # the level structure of xi phi xi^-1 scales the images by xi; its
    # torsion points, mapped once, fix the window that keys its chart
    lv = LevelStructure(phi_prime, f, [img.mul(xi) for img in level.images],
                        validate=False)
    torsion = [pt for _, pt in lv.points()]
    lv.canon = torsion_canon(torsion)
    Rf = lv.R
    approx = drinfeld_approx(phi_prime, N)
    ell, u = lattice_recover(phi_prime, approx.s, f, approx.psi, N,
                             torsion=torsion)
    # integral torsion of psi over V and its generators
    psi_tor = additive_roots(approx.psi.image(f), expected=q ** degf)
    mu1 = None
    for m in psi_tor:
        if m.is_zero():
            continue
        sm = approx.s.eval(m, ydom=LD)
        try:
            cu = lv.coordinates(u)
            cm = lv.coordinates(sm)
        except ValueError:
            continue
        det = Rf.sub(Rf.mul(cu[0], cm[1]), Rf.mul(cu[1], cm[0]))
        if det == Rf.one():
            mu1 = m
            break
    if mu1 is None:
        raise AssertionError("no integral generator satisfies the "
                             "pairing normalization")
    report = {
        "k": k,
        "reduction_rank": rrank,
        "approx_achieved": approx.achieved,
        "tau_degree": approx.tau_degree,
        "ell_valuation": ell.valuation(),
    }
    return Triple(approx.psi, mu1, ell, k, xi, report), approx

