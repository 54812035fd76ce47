"""The rank-2 Weil pairing: exterior power of the motive, the pairing on
f-torsion, and the moduli-level map (phi, lambda) -> (psi, mu).

The exterior square of a rank-2 module phi_T = theta + g tau + Delta tau^2
is the rank-1 module psi_T = theta - Delta tau.  An independent oracle
checks this through the motive: on the T-module K{tau} with basis {1, tau}
(T acting by right multiplication with phi_T), the top exterior power
multiplies by -Delta^(-1) (T - theta), which pins psi up to twist.

The pairing itself is the determinant in lambda-coordinates, normalized by
a fixed generator t0 of psi[f]: w(u, v) = psi_det(coords u, coords v)(t0).
It is alternating and A/fA-bilinear, and GL_2-reindexing of lambda scales
it by the determinant, which is the equivariance the moduli map needs.
"""

from .poly import PolyRing, trim
from .series import torsion_canon
from .skew import SkewPoly, skew_kernel
from .drinfeld import DrinfeldModule, LevelStructure


def exterior_power2(phi):
    """The rank-1 module psi with M(psi) = wedge^2 M(phi)."""
    if phi.rank != 2:
        raise ValueError("exterior square needs a rank-2 module")
    dom = phi.dom
    delta = phi.phi_T.coeffs[2]
    if not dom.is_unit(delta):
        raise ValueError("top coefficient must be a unit")
    return DrinfeldModule(phi.A, dom, (phi.theta, dom.neg(delta)))


def _motive_coords(phi, z, KT, K):
    """Coordinates of z in the K[T]-basis {1, tau} of the motive of phi.

    T acts by right multiplication with phi_T; reduction strips the top
    tau-degree with the matching basis multiple.  Entirely independent of
    the closed form used by exterior_power2.
    """
    dom = phi.dom
    p0, p1 = KT.zero(), KT.zero()
    phiT_pow = [SkewPoly.one(dom)]

    def phit(k):
        while len(phiT_pow) <= k:
            phiT_pow.append(phiT_pow[-1].mul(phi.phi_T))
        return phiT_pow[k]

    tau = SkewPoly.tau(dom)
    while z.deg() >= 2:
        d = z.deg()
        k = d // 2
        if d % 2 == 0:
            basis_elt = phit(k)  # T^k . 1
        else:
            basis_elt = tau.mul(phit(k))  # T^k . tau
        c = dom.mul(z.coeffs[-1], dom.inv(basis_elt.coeffs[-1]))
        z = z.sub(basis_elt.scalar_mul(c))
        mono = KT.mul(KT.const(c), KT.pow(KT.gen(), k))
        if d % 2 == 0:
            p0 = KT.add(p0, mono)
        else:
            p1 = KT.add(p1, mono)
    p0 = KT.add(p0, KT.const(z.coeff(0)))
    p1 = KT.add(p1, KT.const(z.coeff(1)))
    return p0, p1


def motive_oracle(phi):
    """Recover the exterior-square rank-1 module by linear algebra on the
    motive; returns a DrinfeldModule to compare with exterior_power2."""
    dom = phi.dom
    KT = PolyRing(dom, var="Tm")
    tau = SkewPoly.tau(dom)
    # columns: coordinates of tau.1 and tau.tau
    c11, c21 = _motive_coords(phi, tau, KT, dom)
    c12, c22 = _motive_coords(phi, tau.mul(tau), KT, dom)
    det = KT.sub(KT.mul(c11, c22), KT.mul(c12, c21))
    # rank-1 psi_T = theta + c tau has multiplier c^(-1) (T - theta)
    lin = KT.add(KT.gen(), KT.const(dom.neg(phi.theta)))  # T - theta
    quot, rem = KT.divmod(lin, det)
    if rem != KT.zero() or KT.deg(quot) != 0:
        raise AssertionError("motive determinant is not a unit multiple "
                             "of T - theta")
    # det = c^(-1) (T - theta), so the degree-0 quotient is c itself
    return DrinfeldModule(phi.A, dom, (phi.theta, quot[0]))


def moore_pair(dom, u, v):
    """u*v^q - u^q*v; for f = T this lands in psi[T] of the exterior
    square and matches the Weil pairing up to one fixed unit."""
    return dom.sub(dom.mul(u, dom.qpow(v, 1)), dom.mul(dom.qpow(u, 1), v))


class PairingContext:
    """Everything needed to evaluate w_f on the f-torsion of phi.

    Carries a reference level structure (the coordinate chart), the
    exterior-square module psi, and the deterministic generator t0
    (least encoding among A/fA-generators of the kernel psi[f]).

    psi is evaluated over phi's own field: psi[f] is the image of the
    Weil pairing on phi[f], so it is rational over every field that
    carries a level structure of phi.
    """

    def __init__(self, phi, level, psi, psi_field, t0):
        self.phi = phi
        self.level = level
        self.psi = psi
        self.psi_field = psi_field
        self.t0 = t0
        self.R = level.R

    @classmethod
    def build(cls, phi, level):
        f = level.f
        psi = exterior_power2(phi)
        dom = phi.dom
        want = dom.q ** phi.A.deg(f)
        if hasattr(dom, "cdom"):
            # Laurent-series domain: rational roots digit by digit,
            # keyed on the window that separates torsion points
            from .reduction import additive_roots
            pts = additive_roots(psi.image(f), expected=want)
            canon = torsion_canon(pts)
        else:
            pts = skew_kernel(psi.image(f))
            if len(pts) != want:
                raise ValueError("psi[f] has %d of %d points over phi's "
                                 "field, so phi has no level f-structure "
                                 "over it" % (len(pts), want))
            canon = None
        t0 = _least_generator(psi, f, pts, canon)
        return cls(phi, level, psi, dom, t0)

    def pair(self, u, v):
        """w(u, v) = psi_{det(coords)}(t0); alternating, A/fA-bilinear."""
        R = self.R
        (a1, a2) = self.level.coordinates(u)
        (b1, b2) = self.level.coordinates(v)
        det = R.sub(R.mul(a1, b2), R.mul(a2, b1))
        return self.psi.image(trim(det)).eval(self.t0, ydom=self.psi_field)


def _least_generator(psi, f, points, canon):
    """Least torsion point generating psi[f] as an A/fA-module.

    ``canon`` keys points for distinctness (None over a field; needed
    over series domains, where structural equality is finer than
    mathematical agreement); it also fixes the deterministic order.
    Each candidate is tested by charting psi[f] with it."""
    key = canon or (lambda t: t)
    zero_key = key(psi.dom.zero())
    for t in sorted(points, key=key):
        if key(t) == zero_key:
            continue
        try:
            LevelStructure(psi, f, (t,), canon)
        except ValueError:
            continue
        return t
    raise ValueError("kernel has no single generator (not cyclic?)")


def weil_map(phi, level, ctx=None):
    """(phi, lambda) -> (psi, mu): the moduli-level Weil map.

    mu(1) := w(lambda(1,0), lambda(0,1)).  Supplying a shared ctx keeps
    the generator normalization fixed across different level structures
    on the same phi (this is what the equivariance statement is about).
    """
    if ctx is None:
        ctx = PairingContext.build(phi, level)
    mu1 = ctx.pair(level.images[0], level.images[1])
    return ctx.psi, mu1, ctx
