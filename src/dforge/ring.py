"""The part of the domain protocol that every exact domain shares.

A domain supplies ``zero``, ``one``, ``add``, ``neg``, ``mul``, ``inv``
and ``_key`` (the data that identifies it); ``Ring`` derives ``sub``,
``pow`` and equality/hashing of domain objects from them.
"""


class Ring:

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def pow(self, a, n):
        """a^n; n < 0 inverts a first (ZeroDivisionError on a non-unit)."""
        if n < 0:
            return self.pow(self.inv(a), -n)
        if n == 0:
            return self.one()
        # square up to the lowest set bit, so no product by one() is formed
        while not n & 1:
            a = self.mul(a, a)
            n >>= 1
        r = a
        n >>= 1
        while n:
            a = self.mul(a, a)
            if n & 1:
                r = self.mul(r, a)
            n >>= 1
        return r

    def __eq__(self, other):
        return other is self or (type(other) is type(self)
                                 and other._key() == self._key())

    def __hash__(self):
        return hash((type(self).__name__, self._key()))
