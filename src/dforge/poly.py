"""Polynomials over a finite field and the rings built from them.

This module provides, for A = F_q[T]:

* ``PolyRing``      -- A itself, elements are trimmed little-endian tuples
                       of field encodings;
* ``ResidueRing``   -- A/fA with canonical representatives of degree
                       < deg f and a fixed enumeration order;
* ``LocalizedRing`` -- A_f = A[1/f], elements are pairs (numerator, k)
                       meaning numerator / f^k with k minimal;
* ``FunctionField`` -- Frac(A), elements are coprime pairs with monic
                       denominator.

All element encodings are canonical, so ``==`` and hashing work on the raw
data; the ring objects compare and hash by their defining data (``_key``).
The degree of the zero polynomial is the sentinel ``NEG_INF``.
"""

from .ring import Ring


class _NegInf:
    """Degree of the zero polynomial; compares below every integer."""

    def __lt__(self, other):
        return not isinstance(other, _NegInf)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _NegInf)

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "-inf"


NEG_INF = _NegInf()


def trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


class PolyRing(Ring):
    """F_q[T] over a field object from ``dforge.fields``."""

    def __init__(self, K, var="T"):
        self.K = K
        self.var = var
        self.q = K.q
        self.char = K.char
        self._z = K.zero()

    def _trim(self, coeffs):
        c = list(coeffs)
        while c and c[-1] == self._z:
            c.pop()
        return tuple(c)

    def zero(self):
        return ()

    def one(self):
        return (self.K.one(),)

    def gen(self):
        return (self.K.zero(), self.K.one())

    def const(self, c):
        return self._trim((c,))

    def scalar(self, c):
        return self._trim((c,))

    def deg(self, a):
        return len(a) - 1 if a else NEG_INF

    def add(self, a, b):
        K = self.K
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = K.add(out[i], c)
        return self._trim(out)

    def neg(self, a):
        K = self.K
        return tuple(K.neg(c) for c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        K = self.K
        z = self._z
        out = [z] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == z:
                continue
            for j, y in enumerate(b):
                if y != z:
                    out[i + j] = K.add(out[i + j], K.mul(x, y))
        return self._trim(out)

    def scalar_mul(self, c, a):
        K = self.K
        return self._trim(tuple(K.mul(c, x) for x in a))

    def qpow(self, a, k=1):
        """a^(q^k) -- freshman's dream in characteristic p."""
        q = self.q
        K = self.K
        for _ in range(k):
            out = [self._z] * (q * (len(a) - 1) + 1) if a else []
            for i, c in enumerate(a):
                out[q * i] = K.qpow(c, 1)
            a = self._trim(out)
        return a

    def divmod(self, a, b):
        """(quotient, remainder) of a by b in one pass from the top
        quotient coefficient down; a may be untrimmed or shorter than b."""
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        K = self.K
        z = self._z
        add, mul = K.add, K.mul
        m = len(b) - 1
        inv_lead = None if b[m] == K.one() else K.inv(b[m])
        # the divisor's non-zero low coefficients, negated once
        low = [(j, K.neg(c)) for j, c in enumerate(b[:m]) if c != z]
        r = list(a)
        q = [z] * max(0, len(r) - m)
        for k in range(len(r) - m - 1, -1, -1):
            c = r[k + m]
            if c == z:
                continue
            if inv_lead is not None:
                c = mul(c, inv_lead)
            q[k] = c
            for j, nb in low:
                r[k + j] = add(r[k + j], mul(c, nb))
        return self._trim(q), self._trim(r[:m])

    def divexact(self, a, b):
        q, r = self.divmod(a, b)
        if r != ():
            raise ArithmeticError("division was not exact")
        return q

    def mod(self, a, b):
        return self.divmod(a, b)[1]

    def divides(self, b, a):
        return self.divmod(a, b)[1] == ()

    def monic(self, a):
        if not a:
            return a
        return self.scalar_mul(self.K.inv(a[-1]), a)

    def gcd(self, a, b):
        while b:
            a, b = b, self.mod(a, b)
        return self.monic(a)

    def xgcd(self, a, b):
        """Return (g, s, t) with s*a + t*b = g, g monic (or zero)."""
        r0, r1 = a, b
        s0, s1 = self.one(), self.zero()
        t0, t1 = self.zero(), self.one()
        while r1:
            q, r = self.divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self.sub(s0, self.mul(q, s1))
            t0, t1 = t1, self.sub(t0, self.mul(q, t1))
        if r0:
            c = self.K.inv(r0[-1])
            r0 = self.scalar_mul(c, r0)
            s0 = self.scalar_mul(c, s0)
            t0 = self.scalar_mul(c, t0)
        return r0, s0, t0

    def eval(self, a, theta, dom=None, embed_scalar=None):
        """Evaluate a at theta inside the domain dom (default: K).

        ``embed_scalar`` maps coefficient encodings of K into dom; by
        default the encodings are used directly, which is correct along
        the field tower of ``dforge.fields``.
        """
        if dom is None:
            dom = self.K
        emb = embed_scalar or (lambda c: c)
        acc = dom.zero()
        for c in reversed(a):
            acc = dom.add(dom.mul(acc, theta), emb(c))
        return acc

    def is_unit(self, a):
        return len(a) == 1

    def inv(self, a):
        if len(a) != 1:
            raise ZeroDivisionError("non-unit polynomial")
        return (self.K.inv(a[0]),)

    def from_index(self, idx, length):
        B = self.K.size
        digits = []
        for _ in range(length):
            digits.append(idx % B)
            idx //= B
        return trim(digits)

    def to_index(self, a, length):
        B = self.K.size
        idx = 0
        for c in reversed(tuple(a) + (0,) * (length - len(a))):
            idx = idx * B + c
        return idx

    def monic_polys(self, d):
        """All monic polynomials of degree exactly d, in index order."""
        B = self.K.size
        for code in range(B ** d):
            lower = []
            c = code
            for _ in range(d):
                lower.append(c % B)
                c //= B
            yield tuple(lower) + (1,)

    def factor(self, f):
        """Factor into monic irreducibles by trial division; returns
        a list of (prime, multiplicity).  Desk scale only."""
        f = self.monic(trim(f))
        out = []
        d = 1
        while self.deg(f) >= 1 and 2 * d <= self.deg(f):
            for g in self.monic_polys(d):
                mult = 0
                while self.divides(g, f):
                    f = self.divexact(f, g)
                    mult += 1
                if mult:
                    out.append((g, mult))
                if self.deg(f) < 2 * d:
                    break
            d += 1
        if self.deg(f) >= 1:
            out.append((f, 1))
        return out

    def squarefree_monic_divisors(self, f):
        """Monic squarefree divisors of f with their Moebius sign."""
        primes = [p for p, _ in self.factor(f)]
        out = []
        for mask in range(1 << len(primes)):
            g = self.one()
            bits = 0
            for i, p in enumerate(primes):
                if mask >> i & 1:
                    g = self.mul(g, p)
                    bits += 1
            out.append((g, -1 if bits % 2 else 1))
        return out

    def rand(self, rng, maxdeg=4):
        return self._trim(tuple(self.K.rand(rng) for _ in range(maxdeg + 1)))

    def repr_elem(self, a):
        if not a:
            return "0"
        parts = []
        for i, c in enumerate(a):
            if c == self._z:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%s*%s" % (c, self.var) if c != 1 else self.var)
            else:
                parts.append(("%s*" % c if c != 1 else "")
                             + "%s^%d" % (self.var, i))
        return " + ".join(parts)

    def _key(self):
        return (self.K, self.var)

    def __repr__(self):
        return "%s[%s]" % (self.K, self.var)


class ResidueRing(Ring):
    """A/fA with canonical representatives of degree < deg f."""

    def __init__(self, A, f):
        f = trim(f)
        if A.deg(f) < 1:
            raise ValueError("modulus must be non-constant")
        self.A = A
        self.K = A.K
        self.f = A.monic(f)
        self.d = A.deg(f)
        self.size = self.K.size ** self.d  # Q = q^(deg f)
        self.q = A.q
        self.char = A.char
        # memoized products/sums (group enumeration hits these hard)
        self._mulmemo = {} if self.size <= 128 else None
        self._addmemo = {} if self.size <= 128 else None

    def zero(self):
        return ()

    def one(self):
        return (1,)

    def scalar(self, c):
        return trim((c,))

    def reduce(self, a):
        return self.A.mod(a, self.f)

    def add(self, a, b):
        if self._addmemo is None:
            return self.A.add(a, b)
        key = (a, b)
        out = self._addmemo.get(key)
        if out is None:
            out = self.A.add(a, b)
            self._addmemo[key] = out
        return out

    def neg(self, a):
        return self.A.neg(a)

    def mul(self, a, b):
        if self._mulmemo is None:
            return self.reduce(self.A.mul(a, b))
        key = (a, b)
        out = self._mulmemo.get(key)
        if out is None:
            out = self.reduce(self.A.mul(a, b))
            self._mulmemo[key] = out
        return out

    def qpow(self, a, k=1):
        return self.pow(a, self.q ** k)

    def is_unit(self, a):
        return self.A.gcd(a, self.f) == self.A.one()

    def inv(self, a):
        g, s, _ = self.A.xgcd(a, self.f)
        if g != self.A.one():
            raise ZeroDivisionError("non-unit residue")
        return self.reduce(s)

    def elements(self):
        for idx in range(self.size):
            yield self.A.from_index(idx, self.d)

    def units(self):
        return [a for a in self.elements() if self.is_unit(a)]

    def index(self, a):
        return self.A.to_index(a, self.d)

    def from_index(self, idx):
        return self.A.from_index(idx, self.d)

    def rand(self, rng):
        return self.from_index(rng.randrange(self.size))

    def repr_elem(self, a):
        return self.A.repr_elem(a)

    def _key(self):
        return (self.A, self.f)

    def __repr__(self):
        return "%s/(%s)" % (self.A, self.A.repr_elem(self.f))


def residue_units(A, f):
    """Ordered list of the unit classes of A/fA (enumeration order)."""
    f = trim(f)
    if A.deg(f) < 1:
        raise ValueError("f must be non-constant")
    return ResidueRing(A, f).units()


class LocalizedRing(Ring):
    """A_f = A[1/f]; elements are (num, k) = num / f^k with k minimal.

    Canonical form: zero is ((), 0), and when k > 0, f does not divide
    num.  (For composite f this is weaker than coprime: over f = T^2 the
    numerator T is allowed with k > 0.)  Hence a sum num_a / f^ka +
    num_b / f^kb with ka > kb is canonical as it stands, since its
    numerator num_a + f^(ka-kb) num_b is again not divisible by f;
    ``add`` skips the normalisation there.  Powers of f come from one
    table, ``fpow``, extended on demand.

    ``normalize`` strips factors of f from the numerator, at most k of
    them, without long division for f = T^e and f = T - r: for f = T^e
    it counts the zero low coefficients j and slices off min(k, j // e)
    factors at once, and for f = T - r it divides by synthetic division
    (Horner), one pass giving quotient and remainder, until the
    remainder is non-zero.  Otherwise it divides by f with
    ``PolyRing.divmod`` until the remainder is non-zero.

    Two products are canonical by construction, read off the
    factorisation of f once, at construction:

    * f irreducible: f divides num_a * num_b only if it divides num_a or
      num_b, so a product of two elements with k > 0 keeps its
      numerator as it is;
    * f squarefree: f divides num^q only if every prime of f divides
      num, that is only if f divides num, so ``qpow`` of a canonical
      element is canonical.

    Products with a k = 0 factor, and these operations over other f,
    normalise.
    """

    def __init__(self, A, f):
        f = trim(f)
        if A.deg(f) < 1:
            raise ValueError("cannot localize at a constant")
        self.A = A
        self.K = A.K
        self.f = A.monic(f)
        self.q = A.q
        self.char = A.char
        self._fpows = [A.one(), self.f]
        # e when f = T^e, else None
        self._texp = len(self.f) - 1 if not any(self.f[:-1]) else None
        # the non-zero root r of a linear f = T - r, else None
        self._root = (self.K.neg(self.f[0])
                      if len(self.f) == 2 and self.f[0] else None)
        mults = [m for _, m in A.factor(self.f)]
        self._irreducible = mults == [1]
        self._squarefree = max(mults) == 1

    def fpow(self, e):
        """f^e, from the cached table of powers of f."""
        pows = self._fpows
        while len(pows) <= e:
            pows.append(self.A.mul(pows[-1], self.f))
        return pows[e]

    def normalize(self, num, k):
        num = trim(num)
        if not num:
            return ((), 0)
        if k < 0:
            return (self.A.mul(num, self.fpow(-k)), 0)
        e = self._texp
        if e is not None:
            j, top = 0, k * e
            while j < top and num[j] == 0:
                j += 1
            s = j // e
            num, k = num[s * e:], k - s
        elif self._root is not None:
            num, k = self._strip_root(num, k, self._root)
        else:
            while k > 0:
                q, rem = self.A.divmod(num, self.f)
                if rem != ():
                    break
                num, k = q, k - 1
        return (num, k)

    def _strip_root(self, num, k, r):
        """Divide num by f = T - r while the remainder is zero, at most k
        times: Horner's rule from the top coefficient gives the quotient's
        coefficients and, last, the remainder num(r)."""
        add, mul = self.K.add, self.K.mul
        while k > 0:
            n = len(num) - 1
            quo = [0] * n
            acc = num[n]
            for i in range(n - 1, -1, -1):
                quo[i] = acc
                acc = add(num[i], mul(r, acc))
            if acc != 0:
                break
            num, k = quo, k - 1
        return tuple(num), k

    def make(self, num, k=0):
        return self.normalize(num, k)

    def zero(self):
        return ((), 0)

    def one(self):
        return ((1,), 0)

    def scalar(self, c):
        return (trim((c,)), 0)

    def from_poly(self, a):
        return (trim(a), 0)

    def add(self, a, b):
        (na, ka), (nb, kb) = a, b
        A = self.A
        if ka == kb:
            num = A.add(na, nb)
            return self.normalize(num, ka) if ka or not num else (num, 0)
        if ka < kb:
            na, ka, nb, kb = nb, kb, na, ka
        # f does not divide na (canonical, ka > 0), so neither does the sum
        return (A.add(na, A.mul(nb, self.fpow(ka - kb))), ka)

    def neg(self, a):
        return (self.A.neg(a[0]), a[1])

    def mul(self, a, b):
        (na, ka), (nb, kb) = a, b
        num = self.A.mul(na, nb)
        if ka and kb and self._irreducible:
            return (num, ka + kb)
        k = ka + kb
        return self.normalize(num, k) if k or not num else (num, 0)

    def qpow(self, a, k=1):
        num, j = a
        num = self.A.qpow(num, k)
        if j == 0 or self._squarefree:
            return (num, j * self.q ** k)
        return self.normalize(num, j * self.q ** k)

    def is_unit(self, a):
        num = a[0]
        if not num:
            return False
        g = self.A.gcd(num, self.f)
        while self.A.deg(g) >= 1:
            num = self.A.divexact(num, g)
            g = self.A.gcd(num, self.f)
        return self.A.deg(num) == 0

    def inv(self, a):
        num, k = a
        if not num:
            raise ZeroDivisionError("inverse of zero in A_f")
        # a unit of A_f has num | f^e for some e <= deg(num); then
        # f^e = b * num gives 1/(num/f^k) = b * f^k / f^e.
        for e in range(self.A.deg(num) + 1):
            b, r = self.A.divmod(self.fpow(e), num)
            if r == ():
                return self.normalize(self.A.mul(b, self.fpow(k)), e)
        raise ZeroDivisionError("non-unit of A_f")

    def rand(self, rng, maxdeg=3):
        return self.make(self.A.rand(rng, maxdeg), rng.randrange(2))

    def repr_elem(self, a):
        num, k = a
        s = self.A.repr_elem(num)
        if k == 0:
            return s
        return "(%s)/(%s)^%d" % (s, self.A.repr_elem(self.f), k)

    def _key(self):
        return (self.A, self.f)

    def __repr__(self):
        return "%s[1/(%s)]" % (self.A, self.A.repr_elem(self.f))


class FunctionField(Ring):
    """Frac(F_q[T]) with coprime (num, den), den monic."""

    def __init__(self, A):
        self.A = A
        self.K = A.K
        self.q = A.q
        self.char = A.char

    def normalize(self, num, den):
        num, den = trim(num), trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return ((), (1,))
        g = self.A.gcd(num, den)
        if self.A.deg(g) >= 1:
            num = self.A.divexact(num, g)
            den = self.A.divexact(den, g)
        c = self.K.inv(den[-1])
        return (self.A.scalar_mul(c, num), self.A.scalar_mul(c, den))

    def make(self, num, den=((1,))):
        return self.normalize(num, den)

    def zero(self):
        return ((), (1,))

    def one(self):
        return ((1,), (1,))

    def from_poly(self, a):
        return (trim(a), (1,))

    def scalar(self, c):
        return (trim((c,)), (1,))

    def add(self, a, b):
        A = self.A
        return self.normalize(
            A.add(A.mul(a[0], b[1]), A.mul(b[0], a[1])),
            A.mul(a[1], b[1]))

    def neg(self, a):
        return (self.A.neg(a[0]), a[1])

    def mul(self, a, b):
        return self.normalize(self.A.mul(a[0], b[0]),
                              self.A.mul(a[1], b[1]))

    def is_unit(self, a):
        return a[0] != ()

    def inv(self, a):
        if not a[0]:
            raise ZeroDivisionError("inverse of zero")
        return self.normalize(a[1], a[0])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def qpow(self, a, k=1):
        return (self.A.qpow(a[0], k), self.A.qpow(a[1], k))

    def rand(self, rng, maxdeg=2):
        num = self.A.rand(rng, maxdeg)
        den = ()
        while not den:
            den = self.A.rand(rng, maxdeg)
        return self.normalize(num, den)

    def repr_elem(self, a):
        if a[1] == (1,):
            return self.A.repr_elem(a[0])
        return "(%s)/(%s)" % (self.A.repr_elem(a[0]), self.A.repr_elem(a[1]))

    def _key(self):
        return (self.A,)

    def __repr__(self):
        return "Frac(%s)" % (self.A,)


def char_eval(A, a, theta, dom=None, embed_scalar=None):
    """The characteristic map evaluated at a: the image a(theta)."""
    return A.eval(a, theta, dom=dom, embed_scalar=embed_scalar)
