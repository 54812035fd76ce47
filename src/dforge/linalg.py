"""Dense linear algebra over any exact field-protocol domain.

Matrices are lists of row lists.  Only Gaussian elimination at desk scale,
for skew kernels (over F_p).  The cyclotomic ring R' does not invert
through it: it inverts by its Galois norm to A_f
(``drinfeld.CyclotomicRing``).
"""


def _rref(dom, M, ncols):
    """Row-reduce M in place; returns list of pivot column indices."""
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(M)):
            if M[i][c] != dom.zero():
                pr = i
                break
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = dom.inv(M[r][c])
        M[r] = [dom.mul(inv, x) for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != dom.zero():
                f = M[i][c]
                M[i] = [dom.sub(x, dom.mul(f, y))
                        for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return pivots


def nullspace(dom, M, ncols):
    """Basis of the right nullspace of M (rows = equations)."""
    M = [list(r) for r in M]
    pivots = _rref(dom, M, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [dom.zero()] * ncols
        v[fc] = dom.one()
        for r, pc in enumerate(pivots):
            v[pc] = dom.neg(M[r][fc])
        basis.append(v)
    return basis

