"""Exact arithmetic for the finite field tower F_p < F_q < F_{q^m}.

Field elements are plain integers.  An element of an extension of degree d
over a base field of size B is the integer sum(digit_i * B**i) where
(digit_0, ..., digit_{d-1}) are its coordinates in the power basis,
little-endian.  With this encoding the base field sits inside every
extension as the integers 0..B-1, so embeddings along the tower are the
identity on encodings and integer order gives a fixed, total enumeration
order on every field.

Through the whole tower this encoding is the base-p integer of the
element's coordinates over F_p (each digit below B is itself the base-p
integer of its coordinates over F_p), so addition is digit-wise addition
mod p of base-p integers: XOR when p = 2.

Every field object carries a designated twist order ``q`` (the size of the
F_q that acts as scalars everywhere else in the package).  An extension
with at most ``_TABLE_LIMIT`` elements holds log/antilog tables on its
least primitive element g, built with Q - 1 schoolbook products, so mul,
inv, the Frobenius and its powers are exponent arithmetic mod Q - 1.  For
odd p it also holds Zech logarithms Z(i) = log(1 + g^i) for addition,
a + b = a * (1 + b/a) (Huber, "Some comments on Zech's logarithms", IEEE
Trans. Inf. Theory 36, 1990); adding 1 changes only the lowest base-p
digit, so the Zech table costs O(Q) as well.  Larger fields multiply by
schoolbook polynomial arithmetic over the base field and, for odd p, add
digit by digit.  No floating point, no randomness.

An extension's modulus is the least monic irreducible of its degree in
``PolyRing.monic_polys`` order, found by Rabin's test run in
``ResidueRing(PolyRing(base), m)``: the polynomial arithmetic is that of
``dforge.poly``, not a second copy.  A modulus the caller supplies is
checked by the same test.
"""

import os

from .poly import PolyRing, ResidueRing
from .ring import Ring

DEFAULT_MAX_Q = 3 ** 10

# log/antilog tables up to this field size.  They cost Q - 1 products to
# build (13 ms at Q = 1024, 30 ms at Q = 2048 on a 2-vCPU Xeon), and
# dm_torsion builds a field for each degree it tries, so the larger
# fields that no workload reaches keep the schoolbook path.
_TABLE_LIMIT = 1024


def _max_field_size():
    return int(os.environ.get("DFORGE_MAX_Q", DEFAULT_MAX_Q))


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField(Ring):
    """F_p with elements 0..p-1."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError("characteristic must be prime, got %r" % (p,))
        self.p = p
        self.char = p
        self.size = p
        self.q = p
        self.degree = 1  # over itself
        self.base = None
        self.name = "F%d" % p

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_unit(self, a):
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in %s" % self.name)
        return pow(a, self.p - 2, self.p)

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        return pow(a, n, self.p)

    def qpow(self, a, k=1):
        # a^(q^k) with q = p: Frobenius is the identity on the prime field
        return a % self.p

    def frobenius(self, a):
        return a % self.p

    def elements(self):
        return range(self.p)

    def units(self):
        return range(1, self.p)

    def rand(self, rng):
        return rng.randrange(self.p)

    def scalar(self, c):
        return c % self.p

    def _key(self):
        return (self.p,)

    def __repr__(self):
        return self.name


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(A, m):
    """Rabin test for a monic polynomial m over the field A.K, A = A.K[z]:
    z^(B^d) = z mod m, and z^(B^(d/l)) - z is a unit mod m for every
    prime l dividing d = deg m, where B = |A.K|."""
    d = len(m) - 1
    if d < 1:
        return False
    R = ResidueRing(A, m)
    B = A.K.size
    z = R.reduce(A.gen())
    if R.sub(R.pow(z, B ** d), z) != R.zero():
        return False
    return all(R.is_unit(R.sub(R.pow(z, B ** (d // ell)), z))
               for ell in _prime_divisors(d))


def least_irreducible(F, d):
    """Smallest-encoding monic irreducible of degree d over F.

    Candidates come in ``PolyRing.monic_polys`` order, the integer
    encoding of their lower coefficient vector, so the choice is
    deterministic and reproducible.
    """
    A = PolyRing(F)
    for m in A.monic_polys(d):
        if _is_irreducible(A, m):
            return m
    raise RuntimeError("no irreducible of degree %d over %s" % (d, F))


class ExtField(Ring):
    """Extension of degree d over a base field, elements encoded as ints.

    Fields of at most ``_TABLE_LIMIT`` elements multiply through log and
    antilog tables on a primitive element; larger ones use the schoolbook
    ``_mul_raw`` and, for odd p, digit-wise addition.
    """

    def __init__(self, base, degree, modulus=None, q=None):
        self.base = base
        self.degree = degree
        self.char = base.char
        self.size = base.size ** degree
        self.q = q if q is not None else base.q
        if self.size > _max_field_size():
            raise ValueError(
                "field size %d exceeds bound %d (set DFORGE_MAX_Q to raise)"
                % (self.size, _max_field_size()))
        if modulus is None:
            modulus = least_irreducible(base, degree)
        elif len(modulus) - 1 != degree or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree %d" % degree)
        elif not _is_irreducible(PolyRing(base), tuple(modulus)):
            raise ValueError("reducible modulus supplied")
        self.modulus = tuple(modulus)
        self.name = "F%d" % self.size
        self._B = base.size
        # reduction table: z^k mod modulus for k = degree .. 2*degree-2
        red = []
        cur = tuple(base.neg(c) for c in self.modulus[:-1])  # z^degree
        red.append(cur)
        for _ in range(degree - 2):
            cur = self._shift_reduce(cur)
            red.append(cur)
        self._red = red
        # the Frobenius x -> x^q has order log_q(size) on this field
        self._frob_order = 1
        t = self.q
        while t < self.size:
            t *= self.q
            self._frob_order += 1
        self._log = self._exp = self._zech = None
        if self.size <= _TABLE_LIMIT:
            self._build_tables()

    # -- encoding helpers --

    def vec(self, a):
        digits = []
        for _ in range(self.degree):
            digits.append(a % self._B)
            a //= self._B
        return digits

    def unvec(self, v):
        a = 0
        for d in reversed(v):
            a = a * self._B + d
        return a

    def _shift_reduce(self, v):
        # v * z reduced, v a full-length vector
        b = self.base
        out = [0] + list(v[:-1])
        top = v[-1]
        if top != 0:
            for i, mi in enumerate(self.modulus[:-1]):
                out[i] = b.sub(out[i], b.mul(top, mi))
        return tuple(out)

    def _primitive_element(self):
        """Least encoding that generates the multiplicative group.

        Runs before the tables exist, so ``pow`` multiplies with
        ``_mul_raw``: O(log Q) products per prime factor of Q - 1.
        """
        n = self.size - 1
        for g in range(1 if n == 1 else 2, self.size):
            if all(self.pow(g, n // ell) != 1 for ell in _prime_divisors(n)):
                return g
        raise RuntimeError("no primitive element in %s" % self.name)

    def _build_tables(self):
        n = self.size - 1
        g = self._primitive_element()
        # exp[i] = g^i, stored twice over so exp[i + j] needs no reduction
        exp = [1] * (2 * n)
        for i in range(1, n):
            exp[i] = self._mul_raw(exp[i - 1], g)
        exp[n:] = exp[:n]
        log = [None] * self.size
        for i in range(n):
            log[exp[i]] = i
        self._qexp = [pow(self.q, k, n) for k in range(self._frob_order)]
        p = self.char
        if p != 2:
            # zech[i] = log(1 + g^i), None where g^i = -1.  Adding 1 only
            # changes the lowest base-p digit of the encoding.
            self._zech = [log[x + 1 if x % p != p - 1 else x + 1 - p]
                          for x in exp[:n]]
        self._exp, self._log = exp, log

    # -- ring operations --

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        if self.char == 2:
            return a ^ b
        if self._log is None:
            bb = self.base
            va, vb = self.vec(a), self.vec(b)
            return self.unvec([bb.add(x, y) for x, y in zip(va, vb)])
        if not a:
            return b
        if not b:
            return a
        # a + b = a * (1 + b/a)
        la = self._log[a]
        z = self._zech[self._log[b] - la]  # a negative index wraps mod n
        return 0 if z is None else self._exp[la + z]

    def neg(self, a):
        if self.char == 2:
            return a
        if self._log is None:
            bb = self.base
            return self.unvec([bb.neg(x) for x in self.vec(a)])
        # -1 = g^(n/2)
        return self._exp[self._log[a] + (self.size - 1) // 2] if a else 0

    def _mul_raw(self, a, b):
        bb = self.base
        va, vb = self.vec(a), self.vec(b)
        conv = [0] * (2 * self.degree - 1)
        for i, x in enumerate(va):
            if x == 0:
                continue
            for j, y in enumerate(vb):
                conv[i + j] = bb.add(conv[i + j], bb.mul(x, y))
        acc = conv[:self.degree]
        for k in range(self.degree, 2 * self.degree - 1):
            c = conv[k]
            if c != 0:
                red = self._red[k - self.degree]
                acc = [bb.add(u, bb.mul(c, r)) for u, r in zip(acc, red)]
        return self.unvec(acc)

    def mul(self, a, b):
        if self._log is None:
            return self._mul_raw(a, b)
        if a and b:
            return self._exp[self._log[a] + self._log[b]]
        return 0

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in %s" % self.name)
        if self._log is None:
            return self.pow(a, self.size - 2)
        return self._exp[self.size - 1 - self._log[a]]

    def frobenius(self, a):
        """a -> a^q for the designated twist order q."""
        return self.qpow(a, 1)

    def qpow(self, a, k=1):
        k %= self._frob_order
        if self._log is None:
            for _ in range(k):
                a = self.pow(a, self.q)
            return a
        if not a:
            return 0
        return self._exp[self._log[a] * self._qexp[k] % (self.size - 1)]

    def elements(self):
        return range(self.size)

    def units(self):
        return range(1, self.size)

    def rand(self, rng):
        return rng.randrange(self.size)

    def scalar(self, c):
        # encodings 0..q-1 are the subfield F_q along the tower
        return c

    def _key(self):
        return (self.size, self.modulus, self.base)

    def __repr__(self):
        return self.name


def field_make(p, e, m=1):
    """Build F_{q^m} for q = p^e, with the twist order q attached.

    Returns a field object whose ``frobenius`` is x -> x^q and for which
    the subfield F_q consists of the encodings 0..q-1 when m > 1 (the
    power-basis encoding makes the inclusion the identity on integers).
    """
    if not _is_prime(p):
        raise ValueError("p must be prime")
    if e < 1 or m < 1:
        raise ValueError("e and m must be >= 1")
    # p^(em) >= 2^(em): a large em exceeds the bound without forming p^(em)
    bound = _max_field_size()
    if e * m >= bound.bit_length() or p ** (e * m) > bound:
        raise ValueError(
            "requested field F_%d^%d exceeds size bound %d"
            % (p ** e, m, bound))
    if e == 1:
        Fq = PrimeField(p)
    else:
        Fq = ExtField(PrimeField(p), e, q=p ** e)
    if m == 1:
        return Fq
    return ExtField(Fq, m, q=Fq.size)


def embed(src, dst):
    """Embedding of src into dst along the tower over the common F_q.

    Both fields must be extensions of the same base field (or src may be
    the base itself).  Returns a callable on encodings.  The image of the
    power-basis generator is the least root in dst of src's modulus, so
    the embedding is deterministic.
    """
    if src == dst:
        return lambda a: a
    base = getattr(src, "base", None)
    if base is None or src.degree == 1:
        return lambda a: a
    if getattr(dst, "base", None) != src.base:
        raise ValueError("fields are not towers over a common base")
    # find least root of src.modulus in dst
    dst_x = PolyRing(dst)
    root = None
    for cand in dst.elements():
        if dst_x.eval(src.modulus, cand) == 0:
            root = cand
            break
    if root is None:
        raise ValueError("%s does not embed in %s" % (src, dst))
    powers = [1]
    for _ in range(src.degree - 1):
        powers.append(dst.mul(powers[-1], root))

    def phi(a):
        out = 0
        for d, pw in zip(src.vec(a), powers):
            if d:
                out = dst.add(out, dst.mul(d, pw))
        return out

    return phi
