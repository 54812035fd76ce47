import pytest

from dforge.fields import field_make
from dforge.poly import PolyRing, ResidueRing
from dforge.cusps import (gl2_enum, subgroups, coset_reps, census,
                          double_cosets, MatrixRing, locate_coset,
                          unit_count, gl2_order)


@pytest.fixture(scope="module")
def F3():
    return field_make(3, 1, 1)


@pytest.fixture(scope="module")
def A(F3):
    return PolyRing(F3)


@pytest.fixture(scope="module")
def R_T(A):
    return ResidueRing(A, A.gen())


@pytest.fixture(scope="module")
def G_T(R_T):
    return gl2_enum(R_T)


def test_gl2_orders(A, F3, R_T, G_T):
    assert len(G_T) == 48
    T = A.gen()
    R2 = ResidueRing(A, A.mul(T, T))
    assert len(gl2_enum(R2)) == 3888 == gl2_order(A, A.mul(T, T))
    assert gl2_order(A, (1, 0, 1)) == (81 - 1) * (81 - 9)
    M = MatrixRing(R_T)
    assert M.identity() in G_T


def test_group_laws_by_enumeration(R_T, G_T):
    M = MatrixRing(R_T)
    keys = {M.key(g) for g in G_T}
    import random
    rng = random.Random(3)
    sample = rng.sample(G_T, 12)
    for a in sample:
        assert M.key(M.mul(a, M.inv(a))) == M.key(M.identity())
        for b in sample:
            assert M.key(M.mul(a, b)) in keys


def test_subgroups_T(R_T, G_T):
    N, H, Sig, Sl = subgroups(R_T, G_T)
    assert (len(N), len(H), len(Sig), len(Sl)) == (12, 12, 48, 24)
    assert {MatrixRing(R_T).key(x) for x in N} == \
        {MatrixRing(R_T).key(x) for x in H}
    # closure
    M = MatrixRing(R_T)
    nk = {M.key(x) for x in N}
    for a in N:
        for b in N:
            assert M.key(M.mul(a, b)) in nk


def test_subgroups_T2(A):
    T = A.gen()
    R2 = ResidueRing(A, A.mul(T, T))
    G = gl2_enum(R2)
    N, H, Sig, Sl = subgroups(R2, G)
    assert len(N) == 108 and len(H) == 324
    assert len(Sl) == 648 and len(Sig) == 1296
    nk = {MatrixRing(R2).key(x) for x in N}
    assert all(MatrixRing(R2).key(x) in
               {MatrixRing(R2).key(y) for y in H} for x in N)


def test_lagrange_divisibility(A):
    T = A.gen()
    for f in (T, A.mul(T, T), (1, 0, 1)):
        rep = census(field_make(3, 1, 1), f)
        assert rep["gl2_order"] % rep["n_order"] == 0
        assert rep["h_order"] % rep["n_order"] == 0
        assert rep["gl2_order"] % rep["h_order"] == 0


def test_coset_reps(R_T, G_T):
    N = subgroups(R_T, G_T)[0]
    reps = coset_reps(R_T, G_T, N)
    M = MatrixRing(R_T)
    assert len(reps) == 4
    assert reps[0] == M.identity()
    assert all(M.det(r) == R_T.one() for r in reps)
    # cosets partition the group
    seen = set()
    for r in reps:
        coset = {M.key(M.mul(n, r)) for n in N}
        assert len(coset) == len(N)
        assert not (coset & seen)
        seen |= coset
    assert len(seen) == len(G_T)
    # locate
    for i, r in enumerate(reps):
        j, tau = locate_coset(R_T, r, reps, N)
        assert j == i and tau == M.identity()


def test_coset_count_T2(A):
    T = A.gen()
    R2 = ResidueRing(A, A.mul(T, T))
    G = gl2_enum(R2)
    N = subgroups(R2, G)[0]
    reps = coset_reps(R2, G, N)
    assert len(reps) == 36


def double_cosets_oracle(R, group, left, right):
    """Reference partition: every product n*g*h for each class."""
    M = MatrixRing(R)
    remaining = {M.key(g): g for g in group}
    classes = []
    while remaining:
        k = min(remaining)
        g = remaining.pop(k)
        block = {k}
        for n in left:
            ng = M.mul(n, g)
            for h in right:
                xk = M.key(M.mul(ng, h))
                if xk in remaining:
                    del remaining[xk]
                    block.add(xk)
        classes.append(block)
    return classes


# (id, (p, e) with q = p^e, f little-endian, swap N and H): all Q <= 9
DOUBLE_COSET_CASES = [
    ("q3-T", (3, 1), (0, 1), False),
    ("q2-T^2", (2, 1), (0, 0, 1), False),
    ("q3-T^2+1", (3, 1), (1, 0, 1), False),
    ("q2-T^2+T", (2, 1), (0, 1, 1), False),
    ("q4-T", (2, 2), (0, 1), False),
    ("q5-T", (5, 1), (0, 1), False),
    ("q2-T^3+T+1", (2, 1), (1, 1, 0, 1), False),
    ("q3-T^2-swapped", (3, 1), (0, 0, 1), True),
]


@pytest.mark.parametrize("pe,f,swap", [c[1:] for c in DOUBLE_COSET_CASES],
                         ids=[c[0] for c in DOUBLE_COSET_CASES])
def test_double_cosets_partition(pe, f, swap):
    R = ResidueRing(PolyRing(field_make(pe[0], pe[1], 1)), f)
    G = gl2_enum(R)
    N, H = subgroups(R, G)[:2]
    left, right = (H, N) if swap else (N, H)
    blocks = double_cosets(R, G, left, right)
    assert blocks == double_cosets_oracle(R, G, left, right)
    total = set()
    for b in blocks:
        assert not (b & total)
        total |= b
    assert len(total) == len(G)


def test_census_acceptance_values(F3, A):
    T = A.gen()
    c1 = census(F3, T)
    assert (c1["cusp_count"], c1["component_count"],
            c1["x0_cusp_count"]) == (4, 1, 2)
    c2 = census(F3, A.mul(T, T))
    assert (c2["cusp_count"], c2["component_count"]) == (36, 3)
    c3 = census(F3, (1, 0, 1))
    assert c3["cusp_count"] == 40
    # component count from the unit-group index: [(A/fA)^* : F_q^*] = 8/2
    assert c3["component_count"] == 4
    assert c3["x0_cusp_count"] == 2


def test_census_formula_identity_q23(A):
    for p in (2, 3):
        K = field_make(p, 1, 1)
        Ap = PolyRing(K)
        for d in (1, 2):
            for f in Ap.monic_polys(d):
                rep = census(K, f, enumerate_groups=(K.size ** d <= 9))
                assert rep["cusp_count"] == rep["geometric_cusps"]


def test_census_h_parameter(F3, A):
    rep = census(F3, A.gen(), h=2)
    assert rep["cusp_count"] == 8 and rep["component_count"] == 2
    for h in (0, -2):
        with pytest.raises(ValueError):
            census(F3, A.gen(), h=h)


def test_enum_bound(A):
    R = ResidueRing(A, (1, 2, 0, 0, 1))  # deg 4: Q = 81
    with pytest.raises(ValueError):
        gl2_enum(R, bound=27)


def test_unit_count_formula(A):
    T = A.gen()
    for f in (T, A.mul(T, T), (1, 0, 1), (2, 1, 1)):
        assert unit_count(A, f) == len(ResidueRing(A, f).units())
