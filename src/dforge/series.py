"""Truncated power and Laurent series with absolute precision tracking.

A series is stored as (low, coeffs, prec) over a coefficient domain:
``coeffs[i]`` is the coefficient of x^(low+i), every exponent from
low+len(coeffs) up to (but excluding) ``prec`` has coefficient zero, and
nothing is known at exponents >= prec.  ``prec = None`` means the series
is exact (a Laurent polynomial).  Arithmetic never reports a coefficient
at or beyond the precision bound; products combine precision by the
standard x-adic rule.

Coefficients live in any exact domain from this package (finite fields,
A_f, the cyclotomic ring R').  Since all domains have characteristic p,
the q-power map on series is the coefficientwise q-power composed with
exponent scaling, which costs nothing in precision.
"""

from .ring import Ring

# x-adic coefficients kept as slack between a working precision and what
# is checked or reported at it (the Tate working precision, the h_sigma
# window, the lattice check after stable reduction).
SLACK_BUDGET = 4


class PrecisionError(ArithmeticError):
    """A computation needed a coefficient beyond the stored precision."""


class Series:
    __slots__ = ("dom", "low", "coeffs", "prec")

    def __init__(self, dom, low, coeffs, prec):
        """``coeffs`` is a list or tuple; entries at or beyond ``prec``
        are dropped and zeros at both ends trimmed, in one slice."""
        zero = dom.zero()
        hi = len(coeffs)
        if prec is not None:
            hi = max(0, min(hi, prec - low))
        while hi and coeffs[hi - 1] == zero:
            hi -= 1
        lo = 0
        while lo < hi and coeffs[lo] == zero:
            lo += 1
        self.dom = dom
        if lo < hi:
            self.low = low + lo
            self.coeffs = tuple(coeffs[lo:hi])
        else:
            self.low = 0
            self.coeffs = ()
        self.prec = prec

    # -- constructors --

    @classmethod
    def const(cls, dom, c, prec=None):
        return cls(dom, 0, (c,), prec)

    @classmethod
    def zero(cls, dom, prec=None):
        return cls(dom, 0, (), prec)

    @classmethod
    def one(cls, dom, prec=None):
        return cls(dom, 0, (dom.one(),), prec)

    @classmethod
    def x_pow(cls, dom, k, prec=None):
        return cls(dom, k, (dom.one(),), prec)

    # -- inspection --

    def is_zero(self):
        """True when no nonzero coefficient is stored (zero to precision)."""
        return not self.coeffs

    def valuation(self):
        """x-valuation; None when zero to the stored precision."""
        if self.coeffs:
            return self.low
        return None

    def coeff(self, k):
        if self.prec is not None and k >= self.prec:
            raise PrecisionError(
                "coefficient of x^%d requested, precision is %d"
                % (k, self.prec))
        if k < self.low or k >= self.low + len(self.coeffs):
            return self.dom.zero()
        return self.coeffs[k - self.low]

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero series has no leading coefficient")
        return self.coeffs[0]

    # -- arithmetic --

    def _prec_add(self, other):
        if self.prec is None:
            return other.prec
        if other.prec is None:
            return self.prec
        return min(self.prec, other.prec)

    def add(self, other):
        dom = self.dom
        prec = self._prec_add(other)
        if not self.coeffs:
            return Series(dom, other.low, other.coeffs, prec)
        if not other.coeffs:
            return Series(dom, self.low, self.coeffs, prec)
        low = min(self.low, other.low)
        hi = max(self.low + len(self.coeffs), other.low + len(other.coeffs))
        out = [dom.zero()] * (hi - low)
        for i, c in enumerate(self.coeffs):
            out[self.low - low + i] = c
        for i, c in enumerate(other.coeffs):
            j = other.low - low + i
            out[j] = dom.add(out[j], c)
        return Series(dom, low, out, prec)

    def neg(self):
        return Series(self.dom, self.low,
                      [self.dom.neg(c) for c in self.coeffs], self.prec)

    def sub(self, other):
        return self.add(other.neg())

    def _vbound(self):
        # lower bound on the valuation; None = provably zero
        if self.coeffs:
            return self.low
        return self.prec  # zero to precision; None means exact zero

    def mul(self, other):
        dom = self.dom
        # x-adic rule: prec(ab) = min(prec_a + v(b), prec_b + v(a))
        va, vb = self._vbound(), other._vbound()
        if (va is None and self.prec is None) or \
           (vb is None and other.prec is None):
            return Series(dom, 0, (), None)  # exact zero factor
        parts = []
        if self.prec is not None:
            parts.append(self.prec + (vb if vb is not None else 0))
        if other.prec is not None:
            parts.append(other.prec + (va if va is not None else 0))
        prec = min(parts) if parts else None
        if not self.coeffs or not other.coeffs:
            return Series(dom, 0, (), prec)
        low = self.low + other.low
        # form only the products below the result's precision
        n = len(self.coeffs) + len(other.coeffs) - 1
        if prec is not None:
            n = max(0, min(n, prec - low))
        zero = dom.zero()
        out = [zero] * n
        bs = other.coeffs
        for i, a in enumerate(self.coeffs[:n]):
            if a == zero:
                continue
            # index rather than slice: a slice per row is a fresh tuple
            for j in range(min(len(bs), n - i)):
                b = bs[j]
                if b == zero:
                    continue
                out[i + j] = dom.add(out[i + j], dom.mul(a, b))
        return Series(dom, low, out, prec)

    def scalar_mul(self, c):
        dom = self.dom
        return Series(dom, self.low, [dom.mul(c, a) for a in self.coeffs],
                      self.prec)

    def shift(self, k):
        prec = None if self.prec is None else self.prec + k
        return Series(self.dom, self.low + k, self.coeffs, prec)

    def truncate(self, prec):
        newp = prec if self.prec is None else min(prec, self.prec)
        return Series(self.dom, self.low, self.coeffs, newp)

    def inv(self, work_prec=None):
        """Inverse of a series whose lowest coefficient is a unit.

        For an exact Laurent polynomial a working precision must be
        supplied (the inverse is in general an infinite series).
        """
        dom = self.dom
        if not self.coeffs:
            raise ZeroDivisionError("inverse of (0 to precision) series")
        # one inversion serves as the unit test and as b[0]; over R'
        # is_unit would itself be a full inversion
        try:
            b0 = dom.inv(self.coeffs[0])
        except ZeroDivisionError:
            raise ZeroDivisionError(
                "lowest series coefficient is not a unit") from None
        if len(self.coeffs) == 1 and self.prec is None:
            # exact monomial: the inverse is exact too
            return Series(dom, -self.low, (b0,), None)
        L = self.low
        if self.prec is None:
            if work_prec is None:
                raise PrecisionError("inverting an exact series needs "
                                     "an explicit working precision")
            nrel = work_prec + L  # relative coefficient count
        else:
            nrel = self.prec - L
        if nrel <= 0:
            raise PrecisionError("no coefficients left at this precision")
        zero = dom.zero()
        a = list(self.coeffs[:nrel]) + [zero] * max(0, nrel - len(self.coeffs))
        b = [zero] * nrel
        b[0] = b0
        for k in range(1, nrel):
            acc = zero
            for i in range(1, min(k, len(a) - 1) + 1):
                if a[i] != zero:
                    acc = dom.add(acc, dom.mul(a[i], b[k - i]))
            b[k] = dom.neg(dom.mul(b[0], acc))
        prec = work_prec if self.prec is None else self.prec - 2 * L
        return Series(dom, -L, b, prec)

    def qpow(self, k=1):
        """Raise to the q^k-th power: exact Frobenius on series."""
        dom = self.dom
        q = dom.q
        s = self
        for _ in range(k):
            coeffs = [dom.zero()] * (q * (len(s.coeffs) - 1) + 1) \
                if s.coeffs else []
            for i, c in enumerate(s.coeffs):
                coeffs[q * i] = dom.qpow(c, 1)
            prec = None if s.prec is None else s.prec * q
            s = Series(dom, s.low * q, coeffs, prec)
        return s

    # -- comparisons / ordering --

    def agree_prec(self, other):
        """Largest P such that both series are known below P."""
        ps = [p for p in (self.prec, other.prec) if p is not None]
        return min(ps) if ps else None

    def agree(self, other, upto=None):
        """Exact coefficientwise agreement below ``upto`` (default: the
        joint precision).  Raises PrecisionError if the requested window
        exceeds what both series know."""
        P = self.agree_prec(other)
        if upto is None:
            if P is None:
                upto = max(self.low + len(self.coeffs),
                           other.low + len(other.coeffs))
            else:
                upto = P
        elif P is not None and upto > P:
            raise PrecisionError("agreement window exceeds precision")
        lo = min(self.low, other.low)
        for k in range(lo, upto):
            if self.coeff(k) != other.coeff(k):
                return False
        return True

    def sort_key(self):
        """Deterministic total-order key (valuation, then coefficients)."""
        return (self.low if self.coeffs else 10 ** 9,
                self.coeffs, self.low)

    def __eq__(self, other):
        return (isinstance(other, Series) and other.dom == self.dom
                and other.low == self.low and other.coeffs == self.coeffs
                and other.prec == self.prec)

    def __hash__(self):
        return hash((self.low, self.coeffs, self.prec))

    def __repr__(self):
        dom = self.dom
        rep = getattr(dom, "repr_elem", None) or (lambda c: str(c))
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == dom.zero():
                continue
            k = self.low + i
            cs = rep(c)
            if k == 0:
                terms.append("(%s)" % cs)
            else:
                terms.append("(%s)*x^%d" % (cs, k))
        body = " + ".join(terms) if terms else "0"
        if self.prec is not None:
            body += " + O(x^%d)" % self.prec
        return body


class LaurentDomain(Ring):
    """Domain-protocol wrapper: Laurent series over a coefficient domain.

    ``default_prec`` is used when an exact element must be inverted.
    """

    def __init__(self, dom, default_prec=None, var="x"):
        self.cdom = dom
        self.q = dom.q
        self.char = getattr(dom, "char", None)
        self.default_prec = default_prec
        self.var = var

    def zero(self):
        return Series.zero(self.cdom)

    def one(self):
        return Series.one(self.cdom)

    def const(self, c):
        return Series.const(self.cdom, c)

    def scalar(self, c):
        return Series.const(self.cdom, self.cdom.scalar(c))

    def x(self, k=1):
        return Series.x_pow(self.cdom, k)

    def add(self, a, b):
        return a.add(b)

    def neg(self, a):
        return a.neg()

    def mul(self, a, b):
        return a.mul(b)

    def is_unit(self, a):
        return bool(a.coeffs) and self.cdom.is_unit(a.coeffs[0])

    def inv(self, a):
        return a.inv(work_prec=self.default_prec)

    def qpow(self, a, k=1):
        return a.qpow(k)

    def rand(self, rng, window=4):
        low = rng.randrange(-2, 2)
        coeffs = [self.cdom.rand(rng) for _ in range(window)]
        return Series(self.cdom, low, coeffs,
                      self.default_prec)

    def repr_elem(self, a):
        return repr(a)

    def _key(self):
        return (self.cdom, self.var)

    def __repr__(self):
        return "%s((%s))" % (self.cdom, self.var)


def series_canon(window_lo, window_hi):
    """Canonical key for series points: the coefficient window
    [window_lo, window_hi).  Two points mapping to the same key agree on
    the whole window."""
    def canon(s):
        if isinstance(s, Series):
            return tuple(s.coeff(k) for k in range(window_lo, window_hi))
        return ("const", s)
    return canon


def torsion_canon(points):
    """``series_canon`` on the window that separates a set of torsion
    points: differences of torsion points are torsion points, so the
    window from one below the least valuation to one past the largest
    tells them all apart."""
    vals = [p.valuation() for p in points if not p.is_zero()]
    return series_canon(min(vals) - 1, max(vals) + 1)
