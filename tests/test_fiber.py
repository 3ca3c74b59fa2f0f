import random
from itertools import product as iproduct

import pytest

from qorder.exactnum import cyclotomic_build
from qorder import cli, engine, fiber, models, strata
from conftest import make_character
from test_cli import CUSTOM_WEYL


def plane_ctx(r):
    m = models.build_twisted([[0, 1], [-1, 0]], 2)
    return m, strata.enumerate_strata(m, r)


def test_fiber_dims(r3):
    m, ctx = plane_ctx(r3)
    chi = make_character(r3, {"x1": 1, "x2": 1},
                         {"x1": 1, "x2": 1}).check(m, r3)
    A = fiber.fiber_algebra(m, chi, r3)
    assert A.dim == 9 and A.monomial
    W = models.build_weyl([[0]], [1])
    chiw = make_character(r3, {"x1": 0, "y1": 0}).check(W, r3)
    Aw = fiber.fiber_algebra(W, chiw, r3)
    assert Aw.dim == 9 and not Aw.monomial
    mc = models.build_twisted([[0]], 1)
    chic = make_character(r3, {"x1": 1}, {"x1": 1}).check(mc, r3)
    Ac = fiber.fiber_algebra(mc, chic, r3)
    assert Ac.dim == 3


def test_fiber_too_large():
    r = cyclotomic_build(5)
    m = models.build_twisted([[0] * 6 for _ in range(6)], 6)
    chi = make_character(r, {g: 0 for g in m.gens}).check(m, r)
    with pytest.raises(fiber.TooLarge):
        fiber.fiber_algebra(m, chi, r)


def test_fiber_associativity_spot(r3):
    rng = random.Random(12)
    m, ctx = plane_ctx(r3)
    chi = make_character(r3, {"x1": 0, "x2": 1}, {"x2": 1}).check(m, r3)
    loc = strata.locate(chi, ctx)
    A = fiber.fiber_algebra(m, chi, r3, loc)
    for _ in range(200):
        i, j, k = (rng.randrange(A.dim) for _ in range(3))
        left = {}
        for t, c in A.product(i, j).items():
            for s, d in A.product(t, k).items():
                left[s] = left.get(s, r3.zero()) + c * d
        right = {}
        for t, c in A.product(j, k).items():
            for s, d in A.product(i, t).items():
                right[s] = right.get(s, r3.zero()) + c * d
        assert {k2: v for k2, v in left.items() if not v.is_zero()} == \
            {k2: v for k2, v in right.items() if not v.is_zero()}


def test_clock_shift_quantum_plane(r3):
    m, ctx = plane_ctx(r3)
    chi = make_character(r3, {"x1": 1, "x2": 1},
                         {"x1": 1, "x2": 1}).check(m, r3)
    loc = strata.locate(chi, ctx)
    reps = fiber.clock_shift_irreps(ctx, loc, chi)
    assert len(reps) == 1 and reps[0].dim == 3 and reps[0].verified
    # h g = eps g h on the representing matrices of the generators
    X1 = reps[0].mats["x1"]
    X2 = reps[0].mats["x2"]
    lhs = fiber.mat_mul_c(X1, X2, r3)
    rhs = fiber.mat_scale_c(fiber.mat_mul_c(X2, X1, r3), r3.eps())
    assert fiber.mat_eq_c(lhs, rhs)


def test_clock_shift_killed_stratum(r3):
    m, ctx = plane_ctx(r3)
    chi = make_character(r3, {"x1": 0, "x2": 1}, {"x2": 1}).check(m, r3)
    loc = strata.locate(chi, ctx)
    reps = fiber.clock_shift_irreps(ctx, loc, chi)
    assert [p.dim for p in reps] == [1, 1, 1]
    # killed generator acts by zero; the other by the three cube roots
    seen = set()
    for p in reps:
        assert p.mats["x1"][0][0].is_zero()
        v = p.mats["x2"][0][0]
        assert v ** 3 == r3.one()
        seen.add(tuple(v.vec))
    assert len(seen) == 3


def test_clock_shift_commutative(r3):
    mc = models.build_twisted([[0]], 1)
    ctx = strata.enumerate_strata(mc, r3)
    chi = make_character(r3, {"x1": 1}, {"x1": 1}).check(mc, r3)
    loc = strata.locate(chi, ctx)
    reps = fiber.clock_shift_irreps(ctx, loc, chi)
    assert [p.dim for p in reps] == [1]


def test_census_examples(r3):
    m, ctx = plane_ctx(r3)
    chi = make_character(r3, {"x1": 1, "x2": 1},
                         {"x1": 1, "x2": 1}).check(m, r3)
    loc = strata.locate(chi, ctx)
    res = fiber.census(fiber.fiber_algebra(m, chi, r3, loc))
    assert (res.rad_dim, res.count) == (0, 1)
    chi2 = make_character(r3, {"x1": 0, "x2": 1}, {"x2": 1}).check(m, r3)
    loc2 = strata.locate(chi2, ctx)
    res2 = fiber.census(fiber.fiber_algebra(m, chi2, r3, loc2))
    assert (res2.rad_dim, res2.count) == (6, 3)
    assert res2.blocks == [1, 1, 1]


def test_census_weyl_edge(r3):
    # the spec-mandated confirmation: the dim-3 matrices with
    # c = (0, 1, -eps^2) satisfy x y = eps y x + 1 exactly
    e = r3.eps()
    z, one = r3.zero(), r3.one()
    Y = [[z, z, z], [one, z, z], [z, one, z]]
    X = [[z, one, z], [z, z, -(e * e)], [z, z, z]]
    lhs = fiber.mat_mul_c(X, Y, r3)
    rhs = fiber.mat_add_c(fiber.mat_scale_c(fiber.mat_mul_c(Y, X, r3), e),
                          fiber.mat_eye(3, r3))
    assert fiber.mat_eq_c(lhs, rhs)
    assert fiber.mat_is_zero(fiber.mat_pow_c(X, 3, r3))
    assert fiber.mat_is_zero(fiber.mat_pow_c(Y, 3, r3))
    # with that confirmed, the census values are frozen
    W = models.build_weyl([[0]], [1])
    chi = make_character(r3, {"x1": 0, "y1": 0}).check(W, r3)
    res = fiber.census(fiber.fiber_algebra(W, chi, r3))
    assert (res.rad_dim, res.count, res.blocks) == (0, 1, [3])


def test_census_agreement_sweep(r3):
    # constructed irreducibles match the census on every covered character
    cases = [
        ([[0, 1], [-1, 0]], 2),
        ([[0, 0], [0, 0]], 2),
        ([[0, 2], [-2, 0]], 1),
        ([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], 3),
    ]
    from itertools import product as iproduct
    for S, n_poly in cases:
        m = models.build_twisted(S, n_poly)
        if not m.admissibility(3):
            continue
        ctx = strata.enumerate_strata(m, r3)
        gens = m.presentation.gens
        for bits in iproduct((0, 1), repeat=n_poly):
            vals = {g: b for g, b in zip(gens, bits)}
            vals.update({g: 1 for g in gens[n_poly:]})
            wits = {g: 1 for g, v in vals.items() if v}
            chi = make_character(r3, vals, wits).check(m, r3)
            loc = strata.locate(chi, ctx)
            reps = fiber.clock_shift_irreps(ctx, loc, chi)
            A = fiber.fiber_algebra(m, chi, r3, loc)
            res = fiber.census(A, [p.dim for p in reps])
            assert res.blocks_method == "construction"
            assert len(reps) == res.count == 3 ** loc.stratum.torus.t
            assert sum(p.dim ** 2 for p in reps) == A.dim - res.rad_dim
            # non-isomorphism: central scalar tuples separate the list
            assert len({tuple(tuple(z.vec) for z in p.z_scalars)
                        for p in reps}) == len(reps)


def test_census_galois_invariance():
    for j in (1, 2):
        r = cyclotomic_build(3, j)
        m = models.build_twisted([[0, 1], [-1, 0]], 2)
        ctx = strata.enumerate_strata(m, r)
        chi = make_character(r, {"x1": 0, "x2": 1}, {"x2": 1}).check(m, r)
        loc = strata.locate(chi, ctx)
        res = fiber.census(fiber.fiber_algebra(m, chi, r, loc))
        assert (res.rad_dim, res.count) == (6, 3)


def test_extension_quotient_matches_representation_count(r3):
    # commutative direction: the quotient by the extending central monomial
    # reduces the fiber to the single character's share
    m = models.build_twisted([[0, 0], [0, 0]], 2)
    ctx = strata.enumerate_strata(m, r3)
    chi = make_character(r3, {"x1": 1, "x2": 1},
                         {"x1": 1, "x2": 1}).check(m, r3)
    loc = strata.locate(chi, ctx)
    A = fiber.fiber_algebra(m, chi, r3, loc)
    assert A.dim == 1
    res = fiber.census(A)
    assert res.count == 1
    # without the located stratum the l-center fiber counts all extensions
    A0 = fiber.fiber_algebra(m, chi, r3)
    res0 = fiber.census(A0)
    assert res0.count == 9


def test_census_nonsplit_raised(r3):
    # matrix-units block plus a lone idempotent: semisimple of dimension 5
    # with a 2-dimensional center; no uniform block size exists, so the
    # census refuses to certify blocks
    r = r3
    basis = ["e11", "e12", "e21", "e22", "f"]
    idx = {b: i for i, b in enumerate(basis)}
    table = {}

    def put(a, b, c):
        if c is not None:
            table[(idx[a], idx[b])] = {idx[c]: r.one()}

    for a in ("e11", "e12", "e21", "e22"):
        for b in ("e11", "e12", "e21", "e22"):
            i, j = a[1:], b[1:]
            c = "e" + i[0] + j[1] if i[1] == j[0] else None
            put(a, b, c)
    put("f", "f", "f")
    A = fiber.FDAlgebra(dim=5, root=r, basis_labels=basis, monomial=False,
                        unit_index=0, gens=list(range(5)), table=table)
    res_rad = fiber._census_table(A)
    assert res_rad[0] == 0 and res_rad[1] == 2
    with pytest.raises(fiber.NonSplit):
        fiber.census(A)


def _center_dim_of_quotient(A):
    """(dim J, dim Z(A/J)) straight from the definitions: J is the kernel of
    the trace form, and Z(A/J) is {x : [x, b_j] in J for all j} / J, found
    by one kernel of the stacked system over every basis element b_j."""
    n, r = A.dim, A.root
    prod = {(i, j): A.product(i, j) for i in range(n) for j in range(n)}

    # tr(L_i L_j): the coefficient of b_k in b_i b_j b_k, summed over k
    gram = [[r.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            tr = r.zero()
            for k in range(n):
                for t, c in prod[j, k].items():
                    d = prod[i, t].get(k)
                    if d is not None:
                        tr = tr + c * d
            gram[i][j] = tr
    rad = fiber.kernel_c(gram, n, r)
    ech, pivots = fiber.rref_c(rad)
    stacked = []
    for j in range(n):
        cols = []
        for u in range(n):
            comm = [r.zero()] * n
            for k, c in prod[u, j].items():
                comm[k] = comm[k] + c
            for k, c in prod[j, u].items():
                comm[k] = comm[k] - c
            cols.append(fiber.reduce_c(comm, ech, pivots))
        stacked.extend([cols[u][k] for u in range(n)] for k in range(n))
    K = fiber.kernel_c(stacked, n, r)
    return len(rad), len(K) - len(rad)


def _small_fibers(r3):
    W = models.build_weyl([[0]], [1])
    for y, x in iproduct((0, 1), repeat=2):
        wits = {g: 1 for g, v in (("y1", y), ("x1", x)) if v}
        chi = make_character(r3, {"y1": y, "x1": x}, wits).check(W, r3)
        yield fiber.fiber_algebra(W, chi, r3)
    spec = cli.parse_jobspec(CUSTOM_WEYL)
    mc = cli.build_model(spec)
    yield fiber.fiber_algebra(mc, cli.character_from_spec(spec, mc, r3), r3)
    m = models.build_twisted([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], 3)
    ctx = strata.enumerate_strata(m, r3)
    for bits in iproduct((0, 1), repeat=3):
        vals = dict(zip(m.presentation.gens, bits))
        chi = make_character(r3, vals, {g: 1 for g, v in vals.items() if v})
        loc = strata.locate(chi.check(m, r3), ctx)
        yield fiber.fiber_algebra(m, chi, r3, loc)


def test_census_count_is_center_dimension(r3):
    # count = dim A/([A, A] + J) from generator commutators equals the
    # center dimension of A/J computed from every basis commutator
    seen = set()
    for A in _small_fibers(r3):
        res = fiber.census(A)
        assert (res.rad_dim, res.count) == _center_dim_of_quotient(A)
        seen.add((A.monomial, A.dim))
    # table fibers, full monomial fibers and extension quotients all occur
    assert {(False, 9), (True, 27), (True, 9)} <= seen


def test_representation_element_evaluation(r3):
    m, ctx = plane_ctx(r3)
    chi = make_character(r3, {"x1": 1, "x2": 1},
                         {"x1": 1, "x2": 1}).check(m, r3)
    loc = strata.locate(chi, ctx)
    rep = fiber.clock_shift_irreps(ctx, loc, chi)[0]
    elem = engine.Element(2, {(3, 0): 1})
    M = rep.matrix_of_element(m, elem, r3)
    assert fiber.mat_eq_c(M, fiber.mat_eye(3, r3))


# ---------------------------------------------------------------------------
# The row-reduction core on seeded random systems with planted rank.

def _rand_scalar(rng, r):
    if rng.random() < 0.3:
        return r.zero()
    out = r.zero()
    for k in range(r.deg):
        out = out + r.eps_power(k) * rng.randint(-2, 2)
    return out


def _planted_system(rng, r, m, n, k):
    """(A, left) with A = B C of rank exactly k, and `left` spanning the
    vectors u with u A = 0: B holds I_k in k of its rows and C holds I_k in
    k of its columns."""
    rows_b = rng.sample(range(m), k)
    others = [i for i in range(m) if i not in rows_b]
    B = [[r.zero()] * k for _ in range(m)]
    for t, i in enumerate(rows_b):
        B[i][t] = r.one()
    for i in others:
        B[i] = [_rand_scalar(rng, r) for _ in range(k)]
    cols_c = rng.sample(range(n), k)
    C = [[_rand_scalar(rng, r) for _ in range(n)] for _ in range(k)]
    for t, j in enumerate(cols_c):
        for s in range(k):
            C[s][j] = r.one() if s == t else r.zero()
    A = fiber.mat_mul_c(B, C, r) if k else [[r.zero()] * n for _ in range(m)]
    left = []
    for i in others:
        u = [r.zero()] * m
        u[i] = r.one()
        for t, i2 in enumerate(rows_b):
            u[i2] = -B[i][t]
        left.append(u)
    return A, left


def _apply(A, x, r):
    return [fiber.mat_mul_c([row], [[c] for c in x], r)[0][0] for row in A]


def _dot(u, v, r):
    total = r.zero()
    for a, b in zip(u, v):
        total = total + a * b
    return total


def _systems():
    rng = random.Random(20101095)
    for l in (3, 5):
        r = cyclotomic_build(l)
        for _ in range(40):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            k = rng.randint(0, min(m, n))
            A, left = _planted_system(rng, r, m, n, k)
            yield rng, r, A, left, m, n, k


def test_core_kernel_and_rank():
    for rng, r, A, _, m, n, k in _systems():
        ech, pivots = fiber.rref_c(A)
        assert len(pivots) == k == len(ech)
        assert pivots == sorted(pivots)
        ker = fiber.kernel_c(A, n, r)
        assert len(ker) + k == n
        for v in ker:
            assert all(c.is_zero() for c in _apply(A, v, r))
        # the reduced form does not depend on the order of the rows
        shuffled = A[:]
        rng.shuffle(shuffled)
        assert fiber.rref_c(shuffled) == (ech, pivots)


def test_core_solve():
    for rng, r, A, left, m, n, k in _systems():
        pivots = fiber.rref_c(A)[1]
        x0 = [_rand_scalar(rng, r) for _ in range(n)]
        for b in (_apply(A, x0, r), [_rand_scalar(rng, r) for _ in range(m)]):
            consistent = all(_dot(u, b, r).is_zero() for u in left)
            x = fiber.solve_c(A, b, n, r)
            assert (x is not None) == consistent
            if x is not None:
                assert _apply(A, x, r) == b
                assert all(x[j].is_zero() for j in range(n)
                           if j not in pivots)


def test_core_inverse():
    for rng, r, A, _, m, n, k in _systems():
        if m != n:
            continue
        if k < n:
            with pytest.raises(ZeroDivisionError):
                fiber.mat_inv_c(A, r)
            continue
        Ainv = fiber.mat_inv_c(A, r)
        eye = fiber.mat_eye(n, r)
        assert fiber.mat_eq_c(fiber.mat_mul_c(A, Ainv, r), eye)
        assert fiber.mat_eq_c(fiber.mat_mul_c(Ainv, A, r), eye)


def test_core_span_membership():
    for rng, r, A, _, m, n, k in _systems():
        ech, pivots = fiber.rref_c(A)
        coeffs = [_rand_scalar(rng, r) for _ in range(m)]
        combo = [_dot(coeffs, col, r) for col in zip(*A)]
        for v in (combo, [_rand_scalar(rng, r) for _ in range(n)]):
            rest = fiber.reduce_c(v, ech, pivots)
            member = all(c.is_zero() for c in rest)
            assert member == (len(fiber.rref_c(A + [v])[1]) == k)
        assert all(c.is_zero() for c in fiber.reduce_c(combo, ech, pivots))
