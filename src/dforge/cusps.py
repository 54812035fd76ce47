"""Matrix groups over A/fA and the cusp/component census.

The groups are enumerated at desk scale: GL_2(A/fA) as a list of 2x2
tuples, the subgroups N (upper triangular, top-left entry in F_q^*),
H (upper triangular), Sigma (determinant in F_q^*) and SL_2, and coset
representatives of N\\GL_2 normalized into SL_2.  The double cosets
N\\GL_2/H are computed on the quotient GL_2/H, as the N-orbits of the
cosets gH: |G| products to split G into cosets, then |N| products per
double coset (see ``double_cosets``).  The census numbers are

    cusp_count       = h * |SL_2| / (Q (q-1))     (copies of M^1(f))
    component_count  = h * [(A/fA)^* : F_q^*]
    geometric_cusps  = h * [GL_2 : N]
    x0_cusp_count    = h * #(N\\GL_2/H)

with the internal identity [GL_2 : N] = |SL_2|/(Q(q-1)) asserted whenever
enumeration is possible.  Above the enumeration bound only the closed
formulas are reported and the census is marked formula-only.
"""

import os

from .poly import PolyRing, ResidueRing, trim

# the enumeration is a list of about Q^4 matrices: Q = 32 takes some 12 s and
# 160 MB, and the next prime power, 49, does not finish
ENUM_BOUND_DEFAULT = 32


def _enum_bound():
    return int(os.environ.get("DFORGE_MAX_GL2Q", ENUM_BOUND_DEFAULT))


class MatrixRing:
    """2x2 matrices over A/fA, as ((a, b), (c, d)) residue tuples."""

    def __init__(self, R):
        self.R = R

    def identity(self):
        R = self.R
        return ((R.one(), R.zero()), (R.zero(), R.one()))

    def mul(self, s, t):
        R = self.R
        (a, b), (c, d) = s
        (e, f), (g, h) = t
        return ((R.add(R.mul(a, e), R.mul(b, g)),
                 R.add(R.mul(a, f), R.mul(b, h))),
                (R.add(R.mul(c, e), R.mul(d, g)),
                 R.add(R.mul(c, f), R.mul(d, h))))

    def det(self, s):
        R = self.R
        (a, b), (c, d) = s
        return R.sub(R.mul(a, d), R.mul(b, c))

    def inv(self, s):
        R = self.R
        (a, b), (c, d) = s
        di = R.inv(self.det(s))
        return ((R.mul(di, d), R.mul(di, R.neg(b))),
                (R.mul(di, R.neg(c)), R.mul(di, a)))

    def scalar(self, c):
        R = self.R
        z = R.zero()
        return ((c, z), (z, c))

    def key(self, s):
        R = self.R
        (a, b), (c, d) = s
        return (R.index(a), R.index(b), R.index(c), R.index(d))


def gl2_enum(R, bound=None):
    """All of GL_2(A/fA) by full enumeration, in deterministic order."""
    bound = bound if bound is not None else _enum_bound()
    if R.size > bound:
        raise ValueError(
            "Q = %d exceeds the enumeration bound %d "
            "(set DFORGE_MAX_GL2Q to raise; the census then runs "
            "formula-only)" % (R.size, bound))
    M = MatrixRing(R)
    els = list(R.elements())
    units = set(R.units())
    out = []
    for a in els:
        for d in els:
            ad = R.mul(a, d)
            for b in els:
                for c in els:
                    if R.sub(ad, R.mul(b, c)) in units:
                        out.append(((a, b), (c, d)))
    return out


def fq_star(R):
    """The scalars F_q^* inside (A/fA)^*, as constant residues."""
    return [R.A.scalar(c) for c in range(1, R.K.size)]


def subgroups(R, group=None):
    """(N, H, Sigma, Sl2) as element lists inside GL_2(A/fA)."""
    M = MatrixRing(R)
    if group is None:
        group = gl2_enum(R)
    consts = set(fq_star(R))
    N, H, Sig, Sl = [], [], [], []
    one = R.one()
    for s in group:
        (a, b), (c, d) = s
        det = M.det(s)
        upper = (c == R.zero())
        if upper and a in consts:
            N.append(s)
        if upper:
            H.append(s)
        if det in consts:
            Sig.append(s)
        if det == one:
            Sl.append(s)
    return N, H, Sig, Sl


def coset_reps(R, group=None, sub=None):
    """Representatives of the right cosets N*sigma, all chosen in SL_2,
    deterministic, with the identity's coset first and sigma_1 = I."""
    M = MatrixRing(R)
    if group is None:
        group = gl2_enum(R)
    if sub is None:
        sub = subgroups(R, group)[0]
    one = R.one()
    remaining = {M.key(g): g for g in group}
    ident = M.identity()
    ident_key = M.key(ident)
    reps = []
    # each element is keyed once here and once as a member of its coset
    for k in [ident_key] + [k for k in remaining if k != ident_key]:
        g = remaining.get(k)
        if g is None:
            continue
        best = best_key = None
        for n in sub:
            x = M.mul(n, g)
            kx = M.key(x)
            remaining.pop(kx, None)
            if M.det(x) == one and (best is None or kx < best_key):
                best, best_key = x, kx
        if best is None:
            raise AssertionError("coset without SL_2 element; det(N) "
                                 "should be all units")
        reps.append(best if k != ident_key else ident)
    return reps


def locate_coset(R, sigma, reps, sub):
    """The unique i with sigma in N*reps[i], plus tau = sigma*reps[i]^-1
    in N."""
    M = MatrixRing(R)
    sub_keys = {M.key(n) for n in sub}
    for i, rep in enumerate(reps):
        tau = M.mul(sigma, M.inv(rep))
        if M.key(tau) in sub_keys:
            return i, tau
    raise ValueError("element not located in any coset (not in GL_2?)")


def double_cosets(R, group, left, right):
    """Partition of ``group`` into double cosets left\\group/right, for
    subgroups ``left`` and ``right`` of ``group``.

    Works on the quotient group/right.  One pass splits ``group`` into
    the cosets g*right (|G| products) and maps each element to its coset.
    The double coset left*g*right is the union of the cosets n*g*right,
    n in ``left``; as ``left`` is a group, the images of one
    representative already give its whole orbit on group/right, so each
    class costs |left| products: |G| + #classes * |left| in all.
    Returns the classes as sets of keys, ordered by least key.

    Matrices are canonical tuples, so one dict over the elements of
    ``group`` maps each product to its coset; assigning to a key already
    present keeps the group's own object, so the dict holds no product.
    Each element is keyed once, when its class is filled.
    """
    M = MatrixRing(R)
    coset_of = dict.fromkeys(group)
    reps = []
    for g in group:
        if coset_of[g] is None:
            for h in right:
                coset_of[M.mul(g, h)] = len(reps)
            reps.append(g)
    class_of = [None] * len(reps)
    n_classes = 0
    for c, g in enumerate(reps):
        if class_of[c] is None:
            for n in left:
                class_of[coset_of[M.mul(n, g)]] = n_classes
            n_classes += 1
    classes = [set() for _ in range(n_classes)]
    for g, c in coset_of.items():
        classes[class_of[c]].add(M.key(g))
    return sorted(classes, key=min)


# -- closed-form orders ---------------------------------------------------


def unit_count(A, f):
    """#(A/fA)^* by the product formula over prime divisors."""
    q = A.K.size
    Q = q ** A.deg(f)
    out = Q
    for p, _ in A.factor(f):
        dp = A.deg(p)
        out = out * (q ** dp - 1) // (q ** dp)
    return out


def gl2_order(A, f):
    """#GL_2(A/fA): multiplicative over prime powers,
    #GL_2(A/p^k) = #GL_2(F_(q^d)) * q^(4 d (k-1))."""
    q = A.K.size
    out = 1
    for p, k in A.factor(f):
        Qp = q ** A.deg(p)
        out *= (Qp ** 2 - 1) * (Qp ** 2 - Qp) * Qp ** (4 * (k - 1))
    return out


def census(K, f, h=1, enumerate_groups=None):
    """Cusp and component counts for M^2(f) over F_q with q = K.size.

    Verifies the closed formulas against full enumeration whenever
    Q = q^deg(f) is within the bound (or when ``enumerate_groups`` is
    True); the x0 cusp count requires enumeration.
    """
    if h < 1:
        raise ValueError("h must be a positive integer, got %d" % h)
    A = PolyRing(K)
    f = A.monic(trim(f))
    if A.deg(f) < 1:
        raise ValueError("f must be non-constant")
    R = ResidueRing(A, f)
    q = K.size
    Q = R.size
    U = unit_count(A, f)
    nGL = gl2_order(A, f)
    nSL = nGL // U
    nN = (q - 1) * Q * U
    nH = U * U * Q
    nSigma = (q - 1) * nSL
    if enumerate_groups is None:
        enumerate_groups = Q <= _enum_bound()
    mode = "enumeration" if enumerate_groups else "formula-only"
    x0 = None
    if enumerate_groups:
        group = gl2_enum(R, bound=max(Q, _enum_bound()))
        N, H, Sig, Sl = subgroups(R, group)
        checks = {
            "gl2": (len(group), nGL),
            "sl2": (len(Sl), nSL),
            "N": (len(N), nN),
            "H": (len(H), nH),
            "Sigma": (len(Sig), nSigma),
            "units": (len(R.units()), U),
        }
        for name, (got, want) in checks.items():
            if got != want:
                raise AssertionError(
                    "order mismatch for %s: enumerated %d, formula %d"
                    % (name, got, want))
        reps = coset_reps(R, group, N)
        if len(reps) * nN != nGL:
            raise AssertionError("coset partition failed")
        x0 = h * len(double_cosets(R, group, N, H))
    if nSL % (Q * (q - 1)) != 0 or nGL % nN != 0:
        raise AssertionError("integrality of the census formulas failed")
    cusp_count = h * nSL // (Q * (q - 1))
    geometric = h * nGL // nN
    if cusp_count != geometric:
        raise AssertionError(
            "[GL2:N] = |SL2|/(Q(q-1)) failed: %d vs %d"
            % (geometric, cusp_count))
    if U % (q - 1) != 0:
        raise AssertionError("F_q^* does not divide the unit group order")
    return {
        "q": q,
        "f": f,
        "h": h,
        "Q": Q,
        "units": U,
        "gl2_order": nGL,
        "sl2_order": nSL,
        "n_order": nN,
        "h_order": nH,
        "sigma_order": nSigma,
        "cusp_count": cusp_count,
        "component_count": h * U // (q - 1),
        "geometric_cusps": geometric,
        "x0_cusp_count": x0,
        "mode": mode,
    }
