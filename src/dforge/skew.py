"""The twisted polynomial ring K{tau} with tau*c = c^q*tau.

A skew polynomial sum(a_i tau^i) acts on any F_q-algebra as the additive
polynomial z -> sum(a_i z^(q^i)).  Multiplication follows
(a tau^i)(b tau^j) = a*b^(q^i) tau^(i+j).  Right division works whenever
the divisor's leading coefficient is a unit, which is all this package
ever needs (leading coefficients of Drinfeld module images are units).

The same class doubles as the ring of additive power series truncated in
tau-degree: compose with ``mul``, invert compositionally with
``compositional_inverse``.
"""

from .poly import NEG_INF
from . import linalg
from .fields import PrimeField


class SkewPoly:
    __slots__ = ("dom", "coeffs")

    def __init__(self, dom, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == dom.zero():
            coeffs.pop()
        self.dom = dom
        self.coeffs = tuple(coeffs)

    @classmethod
    def const(cls, dom, c):
        return cls(dom, (c,))

    @classmethod
    def one(cls, dom):
        return cls(dom, (dom.one(),))

    @classmethod
    def tau(cls, dom, i=1):
        return cls(dom, (dom.zero(),) * i + (dom.one(),))

    def deg(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coeff(self, i):
        if i < len(self.coeffs):
            return self.coeffs[i]
        return self.dom.zero()

    def is_zero(self):
        return not self.coeffs

    def add(self, other):
        dom = self.dom
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(dom, [dom.add(self.coeff(i), other.coeff(i))
                              for i in range(n)])

    def neg(self):
        return SkewPoly(self.dom, [self.dom.neg(c) for c in self.coeffs])

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other, cap=None):
        """Skew product; ``cap`` truncates the result above that
        tau-degree (for additive-series work)."""
        dom = self.dom
        if not self.coeffs or not other.coeffs:
            return SkewPoly(dom, ())
        n = len(self.coeffs) + len(other.coeffs) - 1
        if cap is not None:
            n = min(n, cap + 1)
        out = [dom.zero()] * n
        for i, a in enumerate(self.coeffs):
            if a == dom.zero() or i >= n:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= n:
                    break
                if b == dom.zero():
                    continue
                out[i + j] = dom.add(out[i + j], dom.mul(a, dom.qpow(b, i)))
        return SkewPoly(dom, out)

    def scalar_mul(self, c):
        dom = self.dom
        return SkewPoly(dom, [dom.mul(c, a) for a in self.coeffs])

    def right_divmod(self, b):
        """(quotient, remainder) with self = quotient*b + remainder and
        deg(remainder) < deg(b); needs a unit leading coefficient in b."""
        dom = self.dom
        if b.is_zero():
            raise ZeroDivisionError("skew division by zero")
        if not dom.is_unit(b.coeffs[-1]):
            raise ZeroDivisionError(
                "skew division needs a unit leading coefficient")
        db = b.deg()
        rem = list(self.coeffs)
        quo = [dom.zero()] * max(0, len(rem) - db)
        while len(rem) - 1 >= db and rem:
            if rem[-1] == dom.zero():
                rem.pop()
                continue
            k = len(rem) - 1 - db
            c = dom.mul(rem[-1], dom.inv(dom.qpow(b.coeffs[-1], k)))
            quo[k] = c
            for j, bj in enumerate(b.coeffs):
                rem[k + j] = dom.sub(rem[k + j], dom.mul(c, dom.qpow(bj, k)))
            rem.pop()
        return SkewPoly(dom, quo), SkewPoly(dom, rem)

    def eval(self, y, ydom=None, embed=None):
        """Evaluate the additive polynomial at y.

        ``ydom`` may be an extension or series domain over the coefficient
        domain; ``embed`` maps coefficients into it (defaults to the
        identity, correct along the integer-encoded field towers and for
        subring inclusions with shared encodings)."""
        dom = ydom if ydom is not None else self.dom
        emb = embed or (lambda c: c)
        acc = dom.zero()
        ypow = y
        for i, c in enumerate(self.coeffs):
            if i > 0:
                ypow = dom.qpow(ypow, 1)
            if c != self.dom.zero():
                acc = dom.add(acc, dom.mul(emb(c), ypow))
        return acc

    def compositional_inverse(self, cap):
        """Additive series w with self*w = 1 up to tau-degree ``cap``;
        the constant term must be 1 (or at least a unit)."""
        dom = self.dom
        if self.is_zero() or not dom.is_unit(self.coeffs[0]):
            raise ZeroDivisionError("constant term must be a unit")
        s0inv = dom.inv(self.coeffs[0])
        w = [s0inv]
        for k in range(1, cap + 1):
            acc = dom.zero()
            for i in range(1, min(k, len(self.coeffs) - 1) + 1):
                si = self.coeffs[i]
                if si != dom.zero():
                    acc = dom.add(acc, dom.mul(si, dom.qpow(w[k - i], i)))
            w.append(dom.neg(dom.mul(s0inv, acc)))
        return SkewPoly(dom, w)

    def map_coeffs(self, fn, newdom=None):
        return SkewPoly(newdom if newdom is not None else self.dom,
                        [fn(c) for c in self.coeffs])

    def __eq__(self, other):
        return (isinstance(other, SkewPoly) and other.dom == self.dom
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        dom = self.dom
        rep = getattr(dom, "repr_elem", None) or (lambda c: str(c))
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == dom.zero():
                continue
            if i == 0:
                terms.append(rep(c))
            else:
                terms.append("(%s)*t^%d" % (rep(c), i))
        return " + ".join(terms) if terms else "0"


# -- kernels of additive polynomials over the finite field towers --------


def _prime_dim(F):
    d, n = 0, F.size
    while n > 1:
        n //= F.char
        d += 1
    return d


def _to_prime_vec(F, a):
    """Coordinates of a over F_p: the base-p digits of its encoding,
    which along the whole tower are its flattened power-basis digits."""
    p = F.char
    out = []
    for _ in range(_prime_dim(F)):
        a, digit = divmod(a, p)
        out.append(digit)
    return out


def _from_prime_vec(F, v):
    p = F.char
    a = 0
    for digit in reversed(v):
        a = a * p + digit
    return a


def _prime_matrix(a):
    """Rows of the F_p-matrix of z -> a(z) on the coefficient field (a is
    F_q-linear, hence F_p-linear): column j is the image of the basis
    vector with encoding p^j."""
    F = a.dom
    dim = _prime_dim(F)
    cols = [_to_prime_vec(F, a.eval(F.char ** j)) for j in range(dim)]
    return [[col[i] for col in cols] for i in range(dim)]


def skew_kernel(a, exhaustive=False):
    """All roots in the coefficient field of the additive polynomial a.

    Computed from the nullspace of the matrix of z -> a(z) as an
    F_p-linear map on the field.  The result is an F_q-subspace; its size
    is a power of q.  With ``exhaustive`` the kernel is found by
    evaluating at every field element instead (an independent oracle for
    testing).
    """
    if a.is_zero():
        raise ValueError("kernel of the zero polynomial is everything")
    F = a.dom
    if exhaustive:
        return sorted(z for z in F.elements() if a.eval(z) == 0)
    dim = _prime_dim(F)
    p = F.char
    null = linalg.nullspace(PrimeField(p), _prime_matrix(a), dim)
    # expand the nullspace to the full set of kernel points
    points = set()
    span = [[0] * dim]
    for bvec in null:
        new = []
        for v in span:
            for c in range(p):
                new.append([(x + c * y) % p for x, y in zip(v, bvec)])
        span = new
    for v in span:
        points.add(_from_prime_vec(F, v))
    return sorted(points)


def skew_solve(a, b):
    """Some y in the coefficient field with a(y) = b, or None when there
    is none.  A one-term a = c tau^i inverts by Frobenius; otherwise the
    F_p-matrix of a gets the column -b, and a nullspace vector whose last
    coordinate is 1 carries a solution."""
    if a.is_zero():
        raise ValueError("the zero polynomial solves only b = 0")
    F = a.dom
    terms = [i for i, c in enumerate(a.coeffs) if c != F.zero()]
    if len(terms) == 1:
        i = terms[0]
        return F.qpow(F.mul(b, F.inv(a.coeffs[i])), -i)
    dim = _prime_dim(F)
    p = F.char
    M = [row + [-d % p]
         for row, d in zip(_prime_matrix(a), _to_prime_vec(F, b))]
    for v in linalg.nullspace(PrimeField(p), M, dim + 1):
        if v[dim]:
            return _from_prime_vec(F, v[:dim])
    return None
