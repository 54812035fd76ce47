"""The Tate-Drinfeld module over R'[[x]].

Everything is built from the universal rank-1 module psi with mu(1) = 1:
the lattice generated by ell = psi_f(1/x), the truncated lattice
exponential e(z) = z prod(1 - z/alpha), the rank-2 coefficients g(x) and
Delta(x) of the conjugated module, the level structure
(e(1/x), e(1)), the expansion of 1/j at the cusp, the h_sigma maps that
realize the N-action on the formal neighbourhood, and the assembly of
one copy per coset of N in GL_2(A/fA).

All series are carried at an internal working precision comfortably above
the requested N; every congruence records the precision it achieved, and
nothing is ever reported beyond it.

The lattice exponential is assembled shell by shell: adjoining a lattice
generator w to the kernel replaces e by e - e^q / e(w)^(q-1), and the same
recursion on values gives e(w) itself (Goss, Basic Structures of Function
Field Arithmetic, ch. 4; Gekeler, Invent. Math. 93, 1988).  So e is never
evaluated at a lattice point, where its tau^k term would lose q^k |v_x(w)|,
and the valuation of e(w) is known before any arithmetic.
"""

from .poly import PolyRing, ResidueRing, trim
from .series import (Series, LaurentDomain, PrecisionError, SLACK_BUDGET,
                     series_canon)
from .skew import SkewPoly
from .drinfeld import DrinfeldModule, LevelStructure

def default_work_prec(A, f, N):
    return N + 1 + A.K.size ** (A.deg(f) + 1) + SLACK_BUDGET


class TateLattice:
    """The lattice Lambda = {psi_b(1/x) : b in fA} inside R'((x)).

    Shell i adjoins the generator psi_{T^i}(ell), ell = psi_f(1/x);
    v_x(psi_b(1/x)) = -q^(deg b) with a unit leading coefficient.
    """

    def __init__(self, uni, work_prec):
        self.uni = uni
        self.ring = uni.ring
        self.A = uni.ring.A
        self.f = uni.f
        self.work_prec = work_prec
        self.LD = LaurentDomain(self.ring, default_prec=work_prec)
        psi_f = uni.psi.image(self.f)
        xinv = self.LD.x(-1)
        self.ell = psi_f.eval(xinv, ydom=self.LD,
                              embed=lambda c: self.LD.const(c))
        degf = self.A.deg(self.f)
        if self.ell.valuation() != -(self.ring.q ** degf):
            raise AssertionError("lattice generator has wrong valuation")
        if not self.ring.is_unit(self.ell.leading()):
            raise AssertionError("lattice generator leading coefficient "
                                 "is not a unit")
        self._shells = {}

    def shell_point(self, i):
        """psi_{T^i}(ell): the i-th new lattice generator."""
        if i not in self._shells:
            a = self.A.pow(self.A.gen(), i)
            pt = self.uni.psi.image(a).eval(
                self.ell, ydom=self.LD, embed=lambda c: self.LD.const(c))
            self._shells[i] = pt
        return self._shells[i]

    def shell_points(self, d):
        """All nonzero lattice points of the shell deg b <= deg f + d,
        an F_q-space of dimension d+1 (for checks)."""
        gens = [self.shell_point(i) for i in range(d + 1)]
        pts = [self.LD.zero()]
        for gpt in gens:
            pts = [p.add(gpt.scalar_mul(self.ring.scalar(c)))
                   for p in pts for c in range(self.ring.q)]
        return [p for p in pts if not p.is_zero()]


def tate_lattice(uni, work_prec=None, N=None):
    A = uni.ring.A
    if work_prec is None:
        work_prec = default_work_prec(A, uni.f, N if N is not None else 9)
    return TateLattice(uni, work_prec)


def lattice_exp(L, N=None):
    """The truncated lattice exponential e = sum s_i tau^i over R'[[x]].

    Additive with s_0 = 1 and s_i = 0 mod x for i >= 1; kills every
    included lattice point.  Shell i finds G_i = e_i(w_i), e_i the
    exponential of the shells before i, as g = w_i after
    g <- g - G_j^(1-q) g^q for j < i, of valuation v = v_x(w_i) after
    v <- q v + v_x(G_j^(1-q)).  The corrections G_i^(1-q) s_k^q
    (v_x(s_k) >= 0) reach below the working precision W only through
    the R = W + (q-1) v leading coefficients of G_i, so g is kept to
    relative precision R, and the first shell with R <= 0 stops: its
    corrections, and every later shell's, vanish below W.
    """
    LD = L.LD
    W = L.work_prec
    q = L.ring.q
    e = SkewPoly.one(LD)
    ginvs = []  # G_j^(1-q), one per shell adjoined
    while True:
        i = len(ginvs)
        w = L.shell_point(i)
        vals = [w.valuation()]
        for gj in ginvs:
            vals.append(q * vals[-1] + gj.valuation())
        R = W + (q - 1) * vals[-1]
        if R <= 0:
            if i == 0:
                raise PrecisionError(
                    "lattice exponential: shell 0 already has "
                    "(q-1)|v(e(w))| = %d >= W=%d; raise the working "
                    "precision" % ((1 - q) * vals[0], W))
            break
        g = w.truncate(vals[0] + R)
        for gj, v in zip(ginvs, vals[1:]):
            g = g.sub(gj.mul(LD.qpow(g, 1))).truncate(v + R)
        if g.valuation() != vals[-1]:
            raise AssertionError("e(w) on shell %d has valuation %s, not %d"
                                 % (i, g.valuation(), vals[-1]))
        ginv = LD.pow(g, q - 1).inv()
        ginvs.append(ginv)
        s = e.coeffs + (LD.zero(),)
        e = SkewPoly(LD, s[:1] + tuple(
            s[k].sub(ginv.mul(LD.qpow(s[k - 1], 1))).truncate(W)
            for k in range(1, len(s))))
    # contract: s_0 = 1, s_i = 0 mod x for i >= 1
    if not e.coeff(0).agree(LD.one(), upto=min(W, e.coeff(0).prec or W)):
        raise AssertionError("e does not reduce to the identity mod x")
    for i in range(1, len(e.coeffs)):
        si = e.coeffs[i]
        if si.coeffs and si.valuation() < 1:
            raise AssertionError("s_%d has a constant term" % i)
    if N is not None:
        for i, si in enumerate(e.coeffs):
            if si.prec is not None and si.prec < N + 1:
                raise PrecisionError(
                    "s_%d only known mod x^%d; raise the working "
                    "precision above %d" % (i, si.prec, L.work_prec))
    return e


class TateExpansion:
    """phi^td_T = theta + g(x) tau + Delta(x) tau^2 with its level pair."""

    def __init__(self, lattice, N, e, phi, g, delta, lam10, lam01,
                 achieved):
        self.lattice = lattice
        self.uni = lattice.uni
        self.ring = lattice.ring
        self.A = lattice.A
        self.f = lattice.f
        self.N = N
        self.e = e
        self.phi = phi
        self.g = g
        self.delta = delta
        self.lam10 = lam10
        self.lam01 = lam01
        self.achieved = achieved
        self.LD = lattice.LD

    def level(self, validate=False):
        """The level structure (e(1/x), e(1)), keyed by the series window
        the stored precision certifies; ``validate`` adds the span check
        (q^(2 deg f) distinct points at that precision)."""
        degf = self.A.deg(self.f)
        window = series_canon(-(self.ring.q ** degf), self.N + 1 - SLACK_BUDGET)
        lv = LevelStructure(self.phi, self.f, (self.lam10, self.lam01),
                            canon=window, validate=validate)
        return lv


def tate_module(L, N):
    """Conjugate the rank-1 module by the lattice exponential.

    Coefficient extraction from e o psi_T = phi_T o e:
        g     = w + s_1 (theta^q - theta)
        Delta = s_2 (theta^(q^2) - theta) + s_1 w^q - g s_1^q
    and the same identity at every higher tau-degree is verified to the
    achieved precision (for a = T here; tests drive more a's).
    """
    LD = L.LD
    if L.work_prec < N + 1:
        raise PrecisionError("working precision below requested N")
    e = lattice_exp(L, N=N)
    R = L.ring
    th = LD.const(R.theta())
    w = LD.const(L.uni.w)
    s1 = e.coeff(1)
    s2 = e.coeff(2)
    thq = LD.qpow(th, 1)
    thq2 = LD.qpow(th, 2)
    g = w.add(s1.mul(thq.sub(th)))
    delta = s2.mul(thq2.sub(th)) \
        .add(s1.mul(LD.qpow(w, 1))) \
        .sub(g.mul(LD.qpow(s1, 1)))
    g = g.truncate(L.work_prec)
    delta = delta.truncate(L.work_prec)
    if delta.is_zero():
        raise PrecisionError("precision insufficient to resolve the "
                             "x-order of Delta")
    if delta.valuation() < 1:
        raise AssertionError("Delta does not vanish at the cusp x = 0")
    if not R.is_unit(delta.leading()):
        raise AssertionError("Delta's lowest coefficient is not a unit")
    if g.coeff(0) != L.uni.w:
        raise AssertionError("g(0) is not the rank-1 tau-coefficient")
    phi = DrinfeldModule(L.A, LD, (th, g, delta))
    achieved = {}
    # functional equation for a = T at full strength
    achieved["functional_eq_T"] = functional_equation_precision(
        L, e, phi, L.A.gen())
    # level points
    lam10 = e.eval(LD.x(-1), ydom=LD)
    lam01 = e.eval(LD.one(), ydom=LD)
    if lam10.valuation() != -1:
        raise AssertionError("e(1/x) must have valuation -1")
    if lam01.valuation() != 0:
        raise AssertionError("e(1) must have valuation 0")
    phif = phi.image(L.f)
    for name, pt in (("lam10", lam10), ("lam01", lam01)):
        img = phif.eval(pt, ydom=LD)
        achieved["torsion_" + name] = _zero_to(img)
    te = TateExpansion(L, N, e, phi, g, delta, lam10, lam01, achieved)
    return te


def _zero_to(s):
    """The precision to which the series is zero; raises if it is not."""
    if s.coeffs:
        raise AssertionError("congruence failed at x^%d" % s.valuation())
    return s.prec


def functional_equation_precision(L, e, phi, a):
    """Precision to which e o psi_a = phi_a o e holds, coefficientwise."""
    LD = L.LD
    psi_a = L.uni.psi.image(a).map_coeffs(lambda c: LD.const(c), LD)
    lhs = e.mul(psi_a)
    rhs = phi.image(a).mul(e)
    diff = lhs.sub(rhs)
    prec = None
    for c in diff.coeffs:
        p = _zero_to(c.truncate(L.work_prec))
        if p is not None:
            prec = p if prec is None else min(prec, p)
    return prec


def j_expansion(te, a):
    """1/j_a = b_(2 deg a) / b_(deg a)^(q^deg a + 1) as x^k * unit.

    Returns (k, alpha) with k > 0 and alpha a unit power series.
    """
    A = te.A
    a = trim(a)
    d = A.deg(a)
    if d < 1:
        raise ValueError("j_a needs a nonconstant a")
    phi_a = te.phi.image(a)
    bd = phi_a.coeff(d)
    b2d = phi_a.coeff(2 * d)
    # b_d^(q^d + 1) as Frobenius times b_d, one product: Frobenius is
    # exact, and since v(b_d) < prec(b_d) the product's precision
    # prec + q^d v is the one square-and-multiply reaches
    denom = te.LD.qpow(bd, d).mul(bd)
    inv_j = b2d.mul(denom.inv())
    k = inv_j.valuation()
    if k is None:
        raise PrecisionError("valuation of 1/j unresolved at this precision")
    if k <= 0:
        raise AssertionError("1/j fails to vanish at the cusp")
    alpha = inv_j.shift(-k)
    if not te.ring.is_unit(alpha.leading()):
        raise AssertionError("unit part of 1/j is not a unit")
    return k, alpha


# -- the h_sigma maps and the universal assembly --------------------------


class NotInN(ValueError):
    """sigma is outside the Tate stabilizer N."""


class HSigmaMap:
    """An A_f-linear ring endomorphism of R'[[x]]: a Galois action on R'
    together with x -> delta * x, plus the conjugating unit xi that
    witnesses h(phi, lambda) ~ (phi, lambda o sigma)."""

    def __init__(self, ring, LD, galois_fn, delta, xi):
        self.ring = ring
        self.LD = LD
        self.galois_fn = galois_fn
        self.delta = delta  # unit series
        self.xi = xi        # unit series (constant in practice)

    def apply_series(self, s):
        """z(x) -> z^G(delta(x) * x)."""
        LD = self.LD
        t = self.delta.mul(LD.x(1))
        out = LD.zero()
        tpow = {0: LD.one()}

        def power(k):
            if k not in tpow:
                if k > 0:
                    tpow[k] = power(k - 1).mul(t)
                else:
                    tpow[k] = power(k + 1).mul(t.inv())
            return tpow[k]

        for i, c in enumerate(s.coeffs):
            k = s.low + i
            if c == self.ring.zero():
                continue
            out = out.add(power(k).scalar_mul(self.galois_fn(c)))
        if s.prec is not None:
            out = out.truncate(s.prec)
        return out

    def then(self, other):
        """The composite other o self (self applied first)."""
        LD = self.LD
        delta = other.apply_series(self.delta).mul(other.delta)
        xi = other.apply_series(self.xi).mul(other.xi)

        def gal(c):
            return other.galois_fn(self.galois_fn(c))

        return HSigmaMap(self.ring, LD, gal, delta, xi)


def _sigma_entries(R, sigma):
    (a, b), (c, d) = sigma
    return R.reduce(a), R.reduce(b), R.reduce(c), R.reduce(d)


def _is_scalar_residue(R, a):
    """a in F_q^* (a nonzero constant residue)?"""
    return len(a) == 1


def h_sigma(te, sigma):
    """The ring map (delta, det sigma) for sigma in N, with the
    conjugating unit; raises NotInN outside N (the only-if direction).
    """
    R = te.ring
    LD = te.LD
    Rf = ResidueRing(te.A, te.f)
    a, b, c, d = _sigma_entries(Rf, sigma)
    if c != Rf.zero() or not _is_scalar_residue(Rf, a) \
            or not Rf.is_unit(d):
        raise NotInN("sigma is not in the Tate stabilizer N")
    # sigma = U * D with U = [[a, b d^-1],[0, 1]] and D = diag(1, d):
    # h_sigma = h_D o h_U (U applied first).
    dinv = Rf.inv(d)
    rho12 = Rf.mul(b, dinv)
    u_term = te.uni.torsion_point(rho12)  # psi_{rho12}(mu(1)) in R'
    a_scal = R.scalar(a[0] if a else 0)
    delta_u_inv = Series(R, 0, (a_scal, u_term), None)
    h_u = HSigmaMap(R, LD, lambda z: z,
                    delta_u_inv.inv(work_prec=te.lattice.work_prec),
                    LD.one())
    gd = R.galois(d)
    lam = R.lam()
    cd_lam = gd(lam)
    xi_d_const = R.mul(lam, R.inv(cd_lam))
    h_d = HSigmaMap(R, LD, gd,
                    LD.const(R.inv(xi_d_const)),
                    LD.const(xi_d_const))
    return h_u.then(h_d)


def h_sigma_verify(te, sigma, hmap, upto=None):
    """Check h(phi^td, lambda^td) = xi-conjugate of (phi^td,
    lambda^td o sigma); returns the achieved precision."""
    LD = te.LD
    R = te.ring
    xi = hmap.xi
    xi_inv = xi.inv() if xi.prec is not None else \
        xi.inv(work_prec=te.lattice.work_prec)
    achieved = None

    def upd(diff):
        nonlocal achieved
        p = _zero_to(diff if upto is None else diff.truncate(upto))
        if p is not None:
            achieved = p if achieved is None else min(achieved, p)

    # coefficients: h(c_i) = xi^(1-q^i) c_i
    for i, ci in enumerate(te.phi.phi_T.coeffs):
        lhs = hmap.apply_series(ci)
        rhs = xi.mul(ci).mul(LD.qpow(xi_inv, i))
        upd(lhs.sub(rhs))
    # level points: h(lambda(v)) = xi * (lambda o sigma)(v)
    lv = te.level()
    lv_s = lv.compose(sigma)
    for mine, target in ((te.lam10, lv_s.images[0]),
                         (te.lam01, lv_s.images[1])):
        lhs = hmap.apply_series(mine)
        rhs = xi.mul(target)
        upd(lhs.sub(rhs))
    return achieved


def h_sigma_obstruction(te, sigma):
    """For sigma outside N: the valuation mismatch that rules out any
    ring map x -> delta x (delta a unit) realizing the sigma-action.

    Returns a dict naming the obstruction, or None if valuations are
    consistent (which for sigma in N they always are).
    """
    lv = te.level()
    lv_s = lv.compose(sigma)
    v10 = lv_s.images[0].valuation()
    v01 = lv_s.images[1].valuation()
    # h preserves valuations (delta is a unit, the Galois part is a ring
    # automorphism), so h(lam10) has valuation -1 and h(lam01) has 0.
    if v01 != 0:
        return {"point": "(0,1)", "valuation": v01, "required": 0}
    if v10 != -1:
        return {"point": "(1,0)", "valuation": v10, "required": -1}
    return None


class UniversalAssembly:
    """One copy of Spec R'[[x]] per coset sigma_i N of the Tate
    stabilizer, carrying (phi^td, lambda^td o sigma_i); locating a level
    structure returns its copy and the h_tau map that reproduces it."""

    def __init__(self, te, reps):
        self.te = te
        self.reps = reps
        Rf = ResidueRing(te.A, te.f)
        self.Rf = Rf
        self.copies = []
        lv = te.level()
        for rep in reps:
            self.copies.append((rep, lv.compose(rep)))

    def locate(self, sigma):
        """(i, tau, h_tau) with sigma = sigma_i tau, tau in N."""
        from .cusps import MatrixRing
        M = MatrixRing(self.Rf)
        for i, rep in enumerate(self.reps):
            tau = M.mul(M.inv(rep), sigma)
            try:
                h = h_sigma(self.te, tau)
            except NotInN:
                continue
            return i, tau, h
        raise ValueError("sigma not in GL_2 or reps don't cover it")


def universal_assembly(te):
    from .cusps import coset_reps, gl2_enum, subgroups, MatrixRing
    Rf = ResidueRing(te.A, te.f)
    group = gl2_enum(Rf)
    N = subgroups(Rf, group)[0]
    # left cosets sigma_i N: h_tau on copy sigma_i realizes sigma_i tau
    M = MatrixRing(Rf)
    right_reps = coset_reps(Rf, group, N)
    reps = [M.inv(r) for r in right_reps]
    reps.sort(key=M.key)
    # keep the identity first
    ident = M.identity()
    reps = [ident] + [r for r in reps if M.key(r) != M.key(ident)]
    return UniversalAssembly(te, reps)


# -- specialization R' -> F_{q^m} ------------------------------------------


class SpecializedTate:
    def __init__(self, field, t, lam_val, LD, phi, e, psi, lam10, lam01):
        self.field = field
        self.t = t
        self.lam_val = lam_val
        self.LD = LD
        self.phi = phi
        self.e = e
        self.psi = psi
        self.lam10 = lam10
        self.lam01 = lam01


def find_specialization_point(uni, field):
    """Deterministic (t, lam_root) with f(t) != 0 and
    Phi_f(lam_root; T=t) = 0 in the given field."""
    A = uni.ring.A
    from .drinfeld import carlitz_cyclotomic
    phi_poly = carlitz_cyclotomic(A, uni.f)
    Fx = PolyRing(field)
    for t in field.elements():
        ft = A.eval(uni.f, t, dom=field)
        if ft == field.zero():
            continue
        coeffs = [A.eval(c, t, dom=field) for c in phi_poly]
        for u in field.elements():
            if Fx.eval(coeffs, u) == field.zero():
                return t, u
    raise ValueError("no specialization point in this field")


def specialize(te, field, t=None, lam_root=None):
    """Push the Tate expansion through R' -> field, T -> t, lam -> root."""
    uni = te.uni
    R = te.ring
    A = te.A
    if t is None or lam_root is None:
        t, lam_root = find_specialization_point(uni, field)
    f_t = A.eval(te.f, t, dom=field)
    if f_t == field.zero():
        raise ValueError("f vanishes at the specialization point")
    f_t_inv = field.inv(f_t)
    lam_pows = [field.one()]
    for _ in range(R.d - 1):
        lam_pows.append(field.mul(lam_pows[-1], lam_root))

    def sp_af(a):
        num, k = a
        val = A.eval(num, t, dom=field)
        for _ in range(k):
            val = field.mul(val, f_t_inv)
        return val

    def sp_R(vec):
        out = field.zero()
        for c, lp in zip(vec, lam_pows):
            out = field.add(out, field.mul(sp_af(c), lp))
        return out

    LDs = LaurentDomain(field, default_prec=te.lattice.work_prec, var="x")

    def sp_series(s):
        return Series(field, s.low, [sp_R(c) for c in s.coeffs], s.prec)

    phi_s = te.phi.map_coeffs(sp_series, LDs)
    e_s = te.e.map_coeffs(sp_series, LDs)
    psi_s = uni.psi.map_coeffs(lambda c: Series.const(field, sp_R(c)), LDs)
    lam10_s = sp_series(te.lam10)
    lam01_s = sp_series(te.lam01)
    return SpecializedTate(field, t, lam_root, LDs, phi_s, e_s, psi_s,
                           lam10_s, lam01_s)
