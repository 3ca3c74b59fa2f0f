import dataclasses
import pathlib
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import chain, product as iproduct

import pytest

from qorder.exactnum import CycloNum, cyclotomic_build, residue_map
from qorder import cli, engine, exactnum, fiber, models, strata, zlattice
from conftest import (has_derived, make_character, mat_add_c, mat_eq_c,
                      mat_eye, mat_inv_c, mat_is_zero, mat_pow_c,
                      mat_scale_c, pp_from_dense, pp_to_dense, sp_from_dense,
                      sp_to_dense)
from test_cli import CUSTOM_WEYL


def plane_ctx(r):
    m = models.build_twisted([[0, 1], [-1, 0]], 2)
    return m, strata.enumerate_strata(m, r)


# ---------------------------------------------------------------------------
# Products of basis elements, which fibers do not store: the weighted
# union-find that divided monomial fibers by their extension values before
# the Hermite form, and compositions of a table fiber's left operators.

class _WeightedUF:
    """Union-find with multiplicative weights: element = weight * rep."""

    def __init__(self, r):
        self.parent = {}
        self.weight = {}
        self.root_field = r

    def find(self, v):
        if v not in self.parent:
            return v, self.root_field.one()
        path = []
        cur = v
        w = self.root_field.one()
        while cur in self.parent:
            path.append((cur, self.weight[cur]))
            w = w * self.weight[cur]
            cur = self.parent[cur]
        # path compression with weight accumulation
        acc = self.root_field.one()
        for node, _ in reversed(path):
            acc = self.weight[node] * acc
            self.parent[node] = cur
            self.weight[node] = acc
        return cur, w

    def union(self, a, b, c):
        """Impose element_a = c * element_b; returns False on conflict."""
        ra, wa = self.find(a)
        rb, wb = self.find(b)
        if ra == rb:
            return wa == c * wb
        # keep the lexicographically smaller representative
        if rb < ra:
            self.parent[ra] = rb
            self.weight[ra] = c * wb / wa
        else:
            self.parent[rb] = ra
            self.weight[rb] = wa / (c * wb)
        return True


def _union_find_quotient(model, character, r, located=None):
    """(labels, mono_mult) of the monomial fiber: every basis monomial b_w
    is unioned with b_(u + w), u the embedded row of an extending z with a
    value, at the weight that the value gives it, and a cycle whose weights
    disagree raises.  labels are the least vectors of the classes, in basis
    order, and mono_mult(i, j) is (k, c) with b_i b_j = c b_k, or None when
    the product vanishes."""
    P = model.presentation
    N, l, S = P.N, r.l, P.S
    chi = [character.value(g) for g in P.gens]
    basis = list(iproduct(range(l), repeat=N))
    uf = _WeightedUF(r)

    def reduced(a, b):
        """(c, d) with mono(a) mono(b) = d mono(c), c in the basis range,
        or None when a vanishing l-th power truncates it."""
        red = fiber._reduce_exponent(tuple(x + y for x, y in zip(a, b)), l,
                                     chi)
        if red is None:
            return None
        lam = r.eps_power(strata.survivor_cocycle(S, a, b))
        return red[0], lam if red[1] is None else lam * red[1]

    if located is not None:
        st = located.stratum
        for j, zval in located.z_ext.items():
            u = strata.embed_vector(st, N, st.torus.z_rows()[j])
            for w in basis:
                red = reduced(u, w)
                if red is None:
                    raise ArithmeticError("central monomial truncated")
                if not uf.union(red[0], w, zval / red[1]):
                    raise ArithmeticError(
                        "inconsistent extension relations in the fiber")
    labels = sorted({uf.find(w)[0] for w in basis})
    index = {a: i for i, a in enumerate(labels)}

    def mono_mult(i, j):
        red = reduced(labels[i], labels[j])
        if red is None:
            return None
        rep, w = uf.find(red[0])
        return index[rep], red[1] * w

    return labels, mono_mult


def _with_mono_mult(model, character, r, located=None):
    """A monomial fiber and the union-find's mono_mult, once the fiber's
    basis labels are checked to be the union-find's, which divides by the
    located stratum's extending z's."""
    A = fiber.fiber_algebra(model, character, r)
    labels, mono_mult = _union_find_quotient(model, character, r, located)
    assert A.basis_labels == labels
    return A, mono_mult


def _monomial_product(mono_mult):
    """b_i b_j as a sparse vector, from mono_mult."""
    def product(i, j):
        hit = mono_mult(i, j)
        return {} if hit is None else {hit[0]: hit[1]}
    return product


def _table_product(A, i, j):
    """b_i b_j = x_v1 (x_v2 (... b_j)) on a table fiber's left operators:
    the last generator acts first."""
    vec = {j: A.root.one()}
    for u, e in reversed(list(enumerate(A.basis_labels[i]))):
        for _ in range(e):
            vec = fiber.sp_row_mul(vec, A.left[u])
    return vec


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
    # x1 is central: with its witness the fiber is divided by it
    chic = make_character(r3, {"x1": 1}, {"x1": 1}).check(mc, r3)
    assert fiber.fiber_algebra(mc, chic, r3).dim == 1
    bare = make_character(r3, {"x1": 1}).check(mc, r3)
    assert fiber.fiber_algebra(mc, bare, r3).dim == 3


def test_fiber_too_large():
    # each census path has its own cap: 5^8 is over the monomial one, and
    # the dim-5^6 table fiber of the quantum Weyl algebra n = 3 over the
    # table one, although 5^6 is under the monomial cap
    r = cyclotomic_build(5)
    assert 5 ** 6 <= fiber.MONOMIAL_DIM_LIMIT < 5 ** 8
    for m in (models.build_twisted([[0] * 8 for _ in range(8)], 8),
              models.build_weyl([[0] * 3 for _ in range(3)], [1, 1, 1])):
        chi = make_character(r, {g: 0 for g in m.gens}).check(m, r)
        with pytest.raises(fiber.TooLarge):
            fiber.fiber_algebra(m, chi, r)


def test_fiber_associativity_spot(r3):
    rng = random.Random(12)
    m, ctx = plane_ctx(r3)
    chi = make_character(r3, {"x1": 0, "x2": 1}, {"x2": 1}).check(m, r3)
    loc = strata.locate(chi, ctx)
    A, mono_mult = _with_mono_mult(m, chi, r3, loc)
    product = _monomial_product(mono_mult)
    for _ in range(200):
        i, j, k = (rng.randrange(A.dim) for _ in range(3))
        left = {}
        for t, c in product(i, j).items():
            for s, d in product(t, k).items():
                left[s] = left.get(s, r3.zero()) + c * d
        right = {}
        for t, c in product(j, k).items():
            for s, d in product(i, t).items():
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
    X1 = pp_to_dense(reps[0].rows["x1"], r3)
    X2 = pp_to_dense(reps[0].rows["x2"], r3)
    lhs = fiber.mat_mul_c(X1, X2, r3)
    rhs = mat_scale_c(fiber.mat_mul_c(X2, X1, r3), r3.eps())
    assert mat_eq_c(lhs, rhs)


def test_clock_shift_killed_stratum(r3):
    m, ctx = plane_ctx(r3)
    chi = make_character(r3, {"x1": 0, "x2": 1}, {"x2": 1}).check(m, r3)
    loc = strata.locate(chi, ctx)
    reps = fiber.clock_shift_irreps(ctx, loc, chi)
    assert [p.dim for p in reps] == [1, 1, 1]
    # killed generator acts by zero; the other by the three cube roots
    seen = set()
    for p in reps:
        assert p.rows["x1"] == fiber.pp_zero(1)
        cols, (v,) = p.rows["x2"]
        assert cols == (0,)
        assert v ** 3 == r3.one()
        seen.add(tuple(v.vec))
    assert len(seen) == 3


def test_clock_shift_rejects_a_wrong_frame_product(r3, monkeypatch):
    # a frame product that misses its survivor raises, also under python -O
    m, ctx = plane_ctx(r3)
    chi = make_character(r3, {"x1": 1, "x2": 1},
                         {"x1": 1, "x2": 1}).check(m, r3)
    loc = strata.locate(chi, ctx)
    real = strata.ordered_product_data

    def off_by_one(skew, rows, coeffs):
        gamma, acc = real(skew, rows, coeffs)
        return gamma, [acc[0] + 1] + acc[1:]

    monkeypatch.setattr(strata, "ordered_product_data", off_by_one)
    with pytest.raises(ArithmeticError, match="ordered frame product"):
        fiber.clock_shift_irreps(ctx, loc, chi)


def test_clock_shift_commutative(r3):
    mc = models.build_twisted([[0]], 1)
    ctx = strata.enumerate_strata(mc, r3)
    chi = make_character(r3, {"x1": 1}, {"x1": 1}).check(mc, r3)
    loc = strata.locate(chi, ctx)
    reps = fiber.clock_shift_irreps(ctx, loc, chi)
    assert [p.dim for p in reps] == [1]


def test_clock_shift_names_missing_roots_in_frame_order(r3, monkeypatch):
    """A missing witness is named for the first row, in the frame before its
    rebase, that needs it.  Each frame row's root exponent is computed once
    when the rebase leaves the frame as it is, and the rebased rows once
    more otherwise."""
    twisted = models.build_twisted([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], 3)
    weyl = models.build_weyl([[0, 1], [-1, 0]], [1, 1])
    # (model, stratum, {missing witnesses: label named}); the Weyl frame
    # rows are y1, y2, y2 w1 and y1 y2^-1 w2^-1, and its rebase starts with
    # y2^3 w2, so a rebased order would name w2 where w1 is named
    cases = [(twisted, "T=000", {("x3",): "x3", ("x2", "x3"): "x2",
                                 ("x1", "x3"): "x1"}),
             (weyl, "T1=[];T2=[];T3=[]", {("w2",): "w2", ("w1", "w2"): "w1",
                                          ("y2", "w2"): "y2"})]
    real = strata.root_exponent
    for model, stratum_id, missing in cases:
        ctx = strata.enumerate_strata(model, r3)
        (st,) = [s for s in ctx.strata if s.stratum_id == stratum_id]
        ts = st.torus
        chi = _stratum_character(
            ctx, st, {s.label: r3.one() + r3.eps() for s in st.survivors},
            monkeypatch)
        loc = strata.locate(chi.check(model, r3), ctx)
        assert loc.stratum is st
        rows = []
        with monkeypatch.context() as patch:
            patch.setattr(strata, "root_exponent",
                          lambda st, r, u: rows.append(list(u)) or
                          real(st, r, u))
            assert fiber.clock_shift_irreps(ctx, loc, chi)
        frame = ts.normal_pairs + ts.z_rows()
        assert rows == (frame if frame == ts.basis else frame + ts.basis)
        assert (frame == ts.basis) == (model is twisted)
        for labels, named in missing.items():
            partial = strata.Character(
                chi.values, {k: v for k, v in chi.witnesses.items()
                             if k not in labels})
            with pytest.raises(strata.MissingWitness,
                               match="no l-th root supplied for %s$" % named):
                fiber.clock_shift_irreps(ctx, loc, partial)


def _stratum_character(ctx, st, witnesses, monkeypatch):
    """The character on stratum st whose survivors have the given l-th
    roots: killed generators take 0, survivors the l-th powers of their
    roots, and a derived generator the value its matrix's l-th power has
    in the representation built unverified."""
    r = ctx.root
    gens = ctx.model.presentation.gens
    values = {g: witnesses[g] ** r.l if g in witnesses else r.zero()
              for g in gens}
    chi = strata.Character(values, witnesses)
    with monkeypatch.context() as patch:
        patch.setattr(fiber, "_verify_representation", lambda *args: None)
        rep = fiber.clock_shift_irreps(
            ctx, strata.Located(stratum=st, z_ext={}), chi)[0]
    for label, _ in st.derived:
        cols, vals = fiber.pp_pow(rep.rows[label], r.l, r)
        values[label] = vals[0] if cols[0] == 0 else r.zero()
    return strata.Character(values, witnesses)


def _per_choice_irreps(ctx, loc, chi):
    """(dense matrices, z scalars) of each root choice, built one choice at
    a time with dense products: every frame row acts as its witness-based
    monomial value times its clock, shift or identity matrix, every
    survivor's frame coordinates come from an integer solve, extending z's
    take the located extension values, and a derived Weyl x is read off the
    dense matrices.  A clock or shift matrix is raised to its exponent mod
    l, its l-th power being 1."""
    r, st = ctx.root, loc.stratum
    ts, l = st.torus, r.l
    k, dim = ts.k, l ** ts.k
    labels = [s.label for s in st.survivors]
    scalars = [strata.monomial_value(st.skew, labels, chi, r, row)
               for row in ts.basis]
    frame = []
    for i in range(k):
        frame.append(pp_to_dense(fiber._clock(l, ts.ds[i], r, i, k), r))
        frame.append(pp_to_dense(fiber._shift(l, r, i, k), r))
    out = []
    for choice in iproduct(range(l), repeat=ts.t):
        z_vals = [scalars[2 * k + j] * r.eps_power(choice[j]) if j < ts.t
                  else loc.z_ext[j] for j in range(ts.p)]
        all_mats = (list(zip(frame, scalars))
                    + [(mat_eye(dim, r), z) for z in z_vals])
        mats = {label: [[r.zero()] * dim for _ in range(dim)]
                for label in st.killed_labels}
        for s, item in enumerate(st.survivors):
            e_s = [int(t == s) for t in range(ts.m)]
            coeffs = zlattice.solve_int(zlattice.transpose(ts.basis), e_s)
            gamma, acc = strata.ordered_product_data(st.skew, ts.basis,
                                                     coeffs)
            assert acc == e_s
            M = mat_eye(dim, r)
            for (F, scalar), c in zip(all_mats, coeffs):
                if c:
                    M = mat_scale_c(fiber.mat_mul_c(
                        M, mat_pow_c(F, c % l, r), r), scalar ** c)
            mats[item.label] = mat_scale_c(M, r.eps_power(-gamma))
        if has_derived(ctx.model, st):
            W = ctx.model
            w = [mat_eye(dim, r)] + [mats["w%d" % i]
                                     for i in range(1, W.n + 1)]
            for i in range(1, W.n + 1):
                if "x%d" % i not in mats:
                    coef = (r.eps_power(W.exps[i - 1]) - r.one()).inverse()
                    yinv = mat_inv_c(mats["y%d" % i], r)
                    diff = mat_add_c(w[i], mat_scale_c(w[i - 1], -r.one()))
                    mats["x%d" % i] = mat_scale_c(
                        fiber.mat_mul_c(yinv, diff, r), coef)
        out.append((mats, tuple(z_vals)))
    return out


def test_clock_shift_matches_the_per_choice_build(r3, r5, monkeypatch):
    cases = []
    for r in (r3, r5):
        for S, n_poly in [([[0, 1], [-1, 0]], 2), ([[0, 0], [0, 0]], 2),
                          ([[0, 2], [-2, 0]], 1), ([[0]], 1),
                          ([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], 1),
                          ([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], 2),
                          ([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], 3)]:
            m = models.build_twisted(S, n_poly)
            if not m.admissibility(r.l):
                continue
            ctx = strata.enumerate_strata(m, r)
            gens = m.presentation.gens
            for bits in iproduct((0, 1), repeat=n_poly):
                live = bits + (1,) * (len(gens) - n_poly)
                # distinct witnesses keep the frame scalars apart
                wits = {g: r.scalar(i + 2)
                        for i, (g, b) in enumerate(zip(gens, live)) if b}
                vals = {g: wits[g] ** r.l if g in wits else r.zero()
                        for g in gens}
                cases.append((m, ctx, strata.Character(vals, wits)))
    for W in (models.build_weyl([[0]], [1]),
              models.build_weyl([[0, 1], [-1, 0]], [1, 1])):
        ctx = strata.enumerate_strata(W, r3)
        cases.extend((W, ctx, chi) for chi in cli.default_characters(W, r3))
    # the killed-w Weyl n=2 stratum of test_wider.py
    W = models.build_weyl([[0, 1], [-1, 0]], [1, 1])
    e, one = r3.eps(), r3.one()
    u = (one - e).inverse()
    cases.append((W, strata.enumerate_strata(W, r3), strata.Character(
        {"x1": u ** 3, "x2": one, "y1": one, "y2": one},
        {"x1": u, "x2": one, "y1": one, "y2": one, "w2": e - one})))
    # the Weyl pair where y1 and w1 survive: x1 = c y1^-1 (w1 - 1), and the
    # frame is rebased so that w1 is diagonal like 1
    W = models.build_weyl([[0]], [1])
    ctx = strata.enumerate_strata(W, r3)
    generic = next(st for st in ctx.strata
                   if st.stratum_id == "T1=[];T2=[];T3=[]")
    cases.append((W, ctx, _stratum_character(
        ctx, generic, {"y1": r3.scalar(2), "w1": e}, monkeypatch)))
    shapes = set()
    for model, ctx, chi in cases:
        chi.check(model, ctx.root)
        loc = strata.locate(chi, ctx)
        if not isinstance(loc, strata.Located):
            continue
        st, ts = loc.stratum, loc.stratum.torus
        try:
            reps = fiber.clock_shift_irreps(ctx, loc, chi)
        except strata.MissingWitness:
            continue
        expect = _per_choice_irreps(ctx, loc, chi)
        assert len(reps) == len(expect) == ctx.root.l ** ts.t
        for rep, (mats, z_vals) in zip(reps, expect):
            assert rep.verified
            for g in model.presentation.gens:
                assert pp_to_dense(rep.rows[g], ctx.root) == mats[g], \
                    (st.stratum_id, g)
            assert rep.z_scalars == z_vals
            for j in range(ts.t, ts.p):
                assert rep.z_scalars[j] == loc.z_ext[j]
        shapes.add((has_derived(model, st), ts.t > 0, ts.p > ts.t))
    # (derived Weyl x, t >= 1, extending z's)
    assert shapes == {(False, False, False), (False, True, False),
                      (False, False, True), (False, True, True),
                      (True, True, False), (True, False, False)}


def test_weyl_strata_build_and_verify(monkeypatch):
    """Every stratum of every quantum Weyl model with n <= 2, S entries in
    {-1, 0, 1} and exponents 1..3, at l = 2..5 (and l = 7 for n = 1), takes
    a located character and builds verified irreducibles over it.  The
    frame makes w_1 and every w_(i-1)^-1 w_i diagonal, so every matrix is a
    scaled partial permutation; only a few strata at even l have a frame
    monomial with no canonical root."""
    rng = random.Random(20101095)
    kinds = Counter()
    for S, exps in ([([[0]], [a]) for a in (1, 2, 3)]
                    + [([[0, s], [-s, 0]], [a, b]) for s in (-1, 0, 1)
                       for a in (1, 2, 3) for b in (1, 2, 3)]):
        W = models.build_weyl(S, exps)
        for l in (2, 3, 4, 5) + ((7,) if len(S) == 1 else ()):
            if not W.admissibility(l):
                continue
            r = cyclotomic_build(l)
            ctx = strata.enumerate_strata(W, r)
            for st in ctx.strata:
                roots = [r.one(), r.scalar(2), r.scalar(-3)] + \
                    [r.eps(), r.one() + r.eps()] * (l > 2)
                wits = {s.label: rng.choice(roots) for s in st.survivors}
                try:
                    chi = _stratum_character(ctx, st, wits, monkeypatch)
                except strata.MissingWitness:
                    # a monomial at even l with no canonical root
                    assert l % 2 == 0
                    kinds["missing"] += 1
                    continue
                loc = strata.locate(chi.check(W, r), ctx)
                assert loc.stratum is st
                reps = fiber.clock_shift_irreps(ctx, loc, chi)
                assert reps and all(rep.verified for rep in reps)
                assert all(isinstance(M, tuple) and len(M) == 2
                           for rep in reps for M in rep.rows.values())
                kinds["built"] += 1
    assert kinds == {"built": 310, "missing": 8}


def test_census_examples(r3):
    m = models.build_twisted([[0, 1], [-1, 0]], 2)
    chi = make_character(r3, {"x1": 1, "x2": 1},
                         {"x1": 1, "x2": 1}).check(m, r3)
    res = fiber.census(fiber.fiber_algebra(m, chi, r3))
    assert (res.rad_dim, res.count) == (0, 1)
    chi2 = make_character(r3, {"x1": 0, "x2": 1}, {"x2": 1}).check(m, r3)
    res2 = fiber.census(fiber.fiber_algebra(m, chi2, r3))
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
    rhs = mat_add_c(mat_scale_c(fiber.mat_mul_c(Y, X, r3), e),
                          mat_eye(3, r3))
    assert mat_eq_c(lhs, rhs)
    assert mat_is_zero(mat_pow_c(X, 3, r3))
    assert mat_is_zero(mat_pow_c(Y, 3, r3))
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
            A = fiber.fiber_algebra(m, chi, r3)
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
        chi = make_character(r, {"x1": 0, "x2": 1}, {"x2": 1}).check(m, r)
        res = fiber.census(fiber.fiber_algebra(m, chi, r))
        assert (res.rad_dim, res.count) == (6, 3)


def test_extension_quotient_matches_representation_count(r3):
    # commutative direction: the quotient by the extending central monomial
    # reduces the fiber to the single character's share
    m = models.build_twisted([[0, 0], [0, 0]], 2)
    chi = make_character(r3, {"x1": 1, "x2": 1},
                         {"x1": 1, "x2": 1}).check(m, r3)
    A = fiber.fiber_algebra(m, chi, r3)
    assert A.dim == 1
    res = fiber.census(A)
    assert res.count == 1
    # without witnesses the central monomials have no values, and the
    # l-center fiber counts all extensions
    bare = make_character(r3, {"x1": 1, "x2": 1}).check(m, r3)
    res0 = fiber.census(fiber.fiber_algebra(m, bare, r3))
    assert (res0.dim, res0.count) == (9, 9)


def test_extension_values_must_satisfy_their_relations(r3, r5, monkeypatch):
    """Every extension value of a divided tridiagonal N = 3 fiber times 2,
    through the value helper the fiber reads, breaks a relation among the
    central monomials and the l-th powers; times eps it is another root,
    which builds a fiber of the same dimension and count."""
    S = [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]
    real = strata.monomial_value
    seen = set()
    for r in (r3, r5):
        for n_poly in range(4):
            m = models.build_twisted(S, n_poly)
            for chi in cli.default_characters(m, r):
                A = fiber.fiber_algebra(m, chi, r)
                if A.dim == r.l ** 3:
                    continue
                want = (A.dim, fiber.census(A).count)
                with monkeypatch.context() as patch:
                    patch.setattr(strata, "monomial_value",
                                  lambda *args: real(*args) * r.scalar(2))
                    with pytest.raises(
                            ArithmeticError,
                            match="inconsistent extension relations"):
                        fiber.fiber_algebra(m, chi, r)
                    patch.setattr(strata, "monomial_value",
                                  lambda *args: real(*args) * r.eps())
                    B = fiber.fiber_algebra(m, chi, r)
                assert (B.dim, fiber.census(B).count) == want
                seen.add((r.l, want))
    # the all-ones character and the one with x2 killed, at both orders
    assert seen == {(3, (9, 1)), (3, (9, 3)), (5, (25, 1)), (5, (25, 5))}


def _torus_steps(P, r, loc):
    """The Hermite steps of the lattice spanned by the embedded rows of the
    located stratum's extending z's that have values, and by l Z^N: the
    quotient the monomial fiber once took from the strata."""
    N, l = P.N, r.l
    st = loc.stratum
    rows = [strata.embed_vector(st, N, st.torus.z_rows()[j])
            for j in loc.z_ext]
    if not rows:
        return []
    powers = [[l * (t == i) for t in range(N)] for i in range(N)]
    return [(i, h) for i, h in enumerate(zlattice.hermite_rows(rows + powers))
            if h[i] < l]


def _skew(N, entries):
    pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
    S = [[0] * N for _ in range(N)]
    for (i, j), v in zip(pairs, entries):
        S[i][j], S[j][i] = v, -v
    return S


def test_extension_rank_mod_p_matches_the_integer_kernel(monkeypatch):
    """On the characters of test_fiber_center_matches_the_torus_rows, with
    witness 1 on their nonzero values and with none: S[:, J] has full
    column rank mod p exactly when its integer kernel is empty, and
    _extension_steps finds the same steps with the rank test as with the
    kernel alone."""
    cases = []
    full = Counter()
    for m, r in _differential_models():
        if not m.admissibility(r.l):
            continue
        P = m.presentation
        p = exactnum.residue_prime(r.l)[0]
        for chi in cli.default_characters(m, r):
            for chi in (chi, strata.Character(chi.values)):
                chi_list = [chi.value(g) for g in P.gens]
                live = [i for i, c in enumerate(chi_list) if c]
                s_live = [[row[i] for i in live] for row in P.S]
                empty = not zlattice.kernel_int(s_live)
                assert (fiber.rank_mod_p(s_live, p) == len(live)) == empty
                full[empty] += 1
                cases.append((P, r, chi, chi_list,
                              fiber._extension_steps(P, r, chi, chi_list)))
    assert full == {True: 2768, False: 1196}
    monkeypatch.setattr(fiber, "rank_mod_p", lambda *args: -1)
    for P, r, chi, chi_list, steps in cases:
        assert fiber._extension_steps(P, r, chi, chi_list) == steps


def _differential_models():
    """(model, root) pairs: the report corpus's small twisted models (N = 2
    and 3 with S entries in {-1, 0, 1} at n_poly N and N - 1, S = 0 2 / -2
    0, and borel-sl2) at l = 2 to 5, the tridiagonal N = 5 tower at l = 7,
    and random N = 4 and 5 models with S entries in -2..2 and n_poly 2 at
    l = 3, 5 and 7."""
    small = [models.build_twisted([[0, 2], [-2, 0]], 2),
             models.build_borel_sl2()]
    for N in (2, 3):
        for entries in iproduct((-1, 0, 1), repeat=N * (N - 1) // 2):
            S = _skew(N, entries)
            small += [models.build_twisted(S, n) for n in (N, N - 1)]
    for l in (2, 3, 4, 5):
        r = cyclotomic_build(l)
        yield from ((m, r) for m in small)
    yield (models.build_twisted(_skew(5, [1, 0, 0, 0, 1, 0, 0, 1, 0, 1]), 1),
           cyclotomic_build(7))
    rng = random.Random(30)
    for N in (4, 5):
        for _ in range(30):
            S = _skew(N, [rng.randint(-2, 2)
                          for _ in range(N * (N - 1) // 2)])
            for l in (3, 5, 7):
                yield models.build_twisted(S, 2), cyclotomic_build(l)


def test_fiber_center_matches_the_torus_rows():
    """On every located character of the differential models, with witness
    1 on its nonzero values and with no witnesses, the Hermite steps that
    the monomial fiber finds from S and the witnesses are those of the
    located stratum's extending z's with values."""
    kinds = Counter()
    for m, r in _differential_models():
        if not m.admissibility(r.l):
            continue
        ctx = strata.enumerate_strata(m, r)
        P = m.presentation
        for chi in cli.default_characters(m, r):
            for chi in (chi, strata.Character(chi.values)):
                loc = strata.locate(chi, ctx)
                chi_list = [chi.value(g) for g in P.gens]
                steps = fiber._extension_steps(P, r, chi, chi_list)
                assert steps == _torus_steps(P, r, loc), (P.S, r.l, chi)
                ts = loc.stratum.torus
                kinds[(ts.t < ts.p, len(loc.z_ext) == ts.p - ts.t,
                       bool(steps), bool(chi.witnesses))] += 1
    # (extending z's, all of them valued, divided, witnesses): the fibers
    # with witnesses whose z's go unvalued are at even l
    assert kinds == {(False, True, False, False): 1506,
                     (False, True, False, True): 1262,
                     (True, True, True, True): 566,
                     (True, False, False, True): 32,
                     (True, False, False, False): 598}


def _nonsplit_algebra(r):
    """A matrix-units block plus a lone idempotent, M_2 + C, with no
    degrees: semisimple of dimension 5 with a 2-dimensional center.  It is
    generated by X = e12, Y = e21 and F = f, with the ordered monomials 1,
    X, Y, XY = e11 and F as its basis (e22 = 1 - XY - F), and given by the
    left operators of its generators."""
    basis = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    one, XY, F = 0, 3, 4
    e = r.one()
    left = [
        # X: 1 -> X, Y -> XY, everything else -> 0
        [{1: e}, {}, {XY: e}, {}, {}],
        # Y: 1 -> Y, X -> e22, XY -> Y
        [{2: e}, {one: e, XY: -e, F: -e}, {}, {2: e}, {}],
        # F: 1 -> F, F -> F
        [{F: e}, {}, {}, {}, {F: e}],
    ]
    return fiber.FDAlgebra(dim=5, root=r, basis_labels=basis, monomial=False,
                           unit_index=0, gens=[1, 2, 4],
                           operators=_explicit_operators(left))


def _explicit_operators(left):
    """The operators hook of an algebra given by its exact left operators:
    over F_p it reduces them entry by entry, zeros left out."""
    def operators(image=None, norm=None):
        if image is None:
            return left
        return [[{k: v for k, v in zip(row, map(image, row.values())) if v}
                 for row in rows] for rows in left]
    return operators


def test_census_nonsplit_raised(r3):
    # no uniform block size exists, so the census refuses to certify blocks
    A = _nonsplit_algebra(r3)
    res_rad = fiber._census_table(A)
    assert res_rad[0] == 0 and res_rad[1] == 2
    with pytest.raises(fiber.NonSplit):
        fiber.census(A)


def _center_dim_of_quotient(A, product):
    """(dim J, dim Z(A/J)) straight from the definitions: J is the kernel of
    the trace form, and Z(A/J) is {x : [x, b_j] in J for all j} / J, found
    by one kernel of the stacked system over every basis element b_j."""
    n, r = A.dim, A.root
    prod = {(i, j): product(i, j) for i in range(n) for j in range(n)}

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


def _weyl_n1_characters(r):
    """The quantum Weyl pair with every {0, 1} character (witness 1)."""
    W = models.build_weyl([[0]], [1])
    for y, x in iproduct((0, 1), repeat=2):
        wits = {g: 1 for g, v in (("y1", y), ("x1", x)) if v}
        yield W, make_character(r, {"y1": y, "x1": x}, wits).check(W, r)


def _custom_weyl_character(r3):
    spec = cli.parse_jobspec(CUSTOM_WEYL)
    mc = cli.build_model(spec)
    return mc, cli.character_from_spec(spec, mc, r3)


def _small_fibers(r3, r5):
    """(fiber, product of two basis elements) pairs."""
    tables = [fiber.fiber_algebra(W, chi, r) for r in (r3, r5)
              for W, chi in _weyl_n1_characters(r)]
    tables.append(fiber.fiber_algebra(*_custom_weyl_character(r3), r3))
    for A in tables:
        yield A, partial(_table_product, A)
    m = models.build_twisted([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], 3)
    ctx = strata.enumerate_strata(m, r3)
    for bits in iproduct((0, 1), repeat=3):
        vals = dict(zip(m.presentation.gens, bits))
        chi = make_character(r3, vals, {g: 1 for g, v in vals.items() if v})
        loc = strata.locate(chi.check(m, r3), ctx)
        A, mono_mult = _with_mono_mult(m, chi, r3, loc)
        yield A, _monomial_product(mono_mult)


def test_census_count_is_center_dimension(r3, r5):
    # count = dim A/([A, A] + J) from generator commutators equals the
    # center dimension of A/J computed from every basis commutator, and the
    # trace form from the trace functional equals tr(L_i L_j) from the table
    seen = set()
    for A, product in _small_fibers(r3, r5):
        res = fiber.census(A)
        assert (res.rad_dim, res.count) == _center_dim_of_quotient(A, product)
        seen.add((A.monomial, A.dim))
    # table fibers at l = 3 and 5, full monomial fibers and extension
    # quotients all occur
    assert {(False, 9), (False, 25), (True, 27), (True, 9)} <= seen


def _pairwise_table(model, character, r):
    """The structure table from one engine product per pair of basis
    monomials, each reduced by the character."""
    P = model.presentation
    chi = [character.value(g) for g in P.gens]
    basis = [tuple(v) for v in iproduct(range(r.l), repeat=P.N)]
    index = {v: i for i, v in enumerate(basis)}
    mono = [engine.Element(P.N, {v: r.one()}) for v in basis]
    table = {}
    for i, j in iproduct(range(len(basis)), repeat=2):
        entry = {}
        for vec, c in engine.mul_at_root(P, r, mono[i], mono[j]).terms.items():
            red = fiber._reduce_exponent(vec, r.l, chi)
            if red is None:
                continue
            k = index[red[0]]
            val = c if red[1] is None else c * red[1]
            entry[k] = entry[k] + val if k in entry else val
        entry = {k: c for k, c in entry.items() if c}
        if entry:
            table[i, j] = entry
    return table


def test_table_from_left_operators_matches_pairwise_products(r3, r5):
    cases = [(W, chi, r) for r in (r3, r5)
             for W, chi in _weyl_n1_characters(r)]
    cases.append(_custom_weyl_character(r3) + (r3,))
    # values other than 0 and 1 put their scalars into the reduced products
    W = models.build_weyl([[0]], [1])
    cases.append((W, make_character(r3, {"y1": 2, "x1": -1}).check(W, r3),
                  r3))
    for model, chi, r in cases:
        A = fiber.fiber_algebra(model, chi, r)
        n = A.dim
        table = _pairwise_table(model, chi, r)
        products = {(i, j): _table_product(A, i, j)
                    for i, j in iproduct(range(n), repeat=2)}
        assert {k: v for k, v in products.items() if v} == table
        # the gram blocks and commutator spans of the census, built inline
        # from the pairwise table
        traces = []
        for k in range(n):
            t = r.zero()
            for j in range(n):
                t = t + table.get((k, j), {}).get(j, r.zero())
            traces.append(t)

        def tau(i, j):
            t = r.zero()
            for k, c in table.get((i, j), {}).items():
                t = t + c * traces[k]
            return t

        commutators = []
        for g, b in iproduct(A.gens, range(n)):
            vec = dict(table.get((g, b), {}))
            for k, c in table.get((b, g), {}).items():
                vec[k] = vec.get(k, r.zero()) - c
            vec = {k: c for k, c in vec.items() if c}
            if vec:
                commutators.append(vec)
        shape = fiber._TableShape(A)
        exact = fiber._exact_scalars(A, shape)
        every = range(len(shape.comps))
        blocks = fiber._gram_blocks(A, shape, exact, every)
        covered = 0
        for d, (comp, partners) in enumerate(zip(shape.comps,
                                                 shape.partners)):
            assert blocks[d] == [[tau(i, j) for j in comp] for i in partners]
            mine = [[vec.get(k, r.zero()) for k in comp]
                    for vec in commutators if set(vec) <= set(comp)]
            covered += len(mine)
            comms = list(fiber._commutators(shape, exact, d))
            assert fiber.rref_c(comms) == fiber.rref_c(mine)
        # every nonzero commutator is homogeneous
        assert covered == len(commutators)
        # the residue pass computes the images of the exact blocks and
        # commutators
        p, image = residue_map(r)
        images = fiber._residue_scalars(A, shape)
        assert fiber._gram_blocks(A, shape, images, every) == {
            d: [[image(x) for x in row] for row in block]
            for d, block in blocks.items()}
        for d in range(len(shape.comps)):
            assert [[x % p for x in vec]
                    for vec in fiber._commutators(shape, images, d)] == [
                [image(x) for x in vec]
                for vec in fiber._commutators(shape, exact, d)]


def test_representation_element_evaluation(r3):
    m, ctx = plane_ctx(r3)
    chi = make_character(r3, {"x1": 1, "x2": 1},
                         {"x1": 1, "x2": 1}).check(m, r3)
    loc = strata.locate(chi, ctx)
    rep = fiber.clock_shift_irreps(ctx, loc, chi)[0]
    elem = engine.Element(2, {(3, 0): 1})
    M = rep.sparse_of_element(m, elem, r3, "x1^3")
    assert M == fiber.pp_eye(3, r3)


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
                mat_inv_c(A, r)
            continue
        Ainv = mat_inv_c(A, r)
        eye = mat_eye(n, r)
        assert mat_eq_c(fiber.mat_mul_c(A, Ainv, r), eye)
        assert mat_eq_c(fiber.mat_mul_c(Ainv, A, r), eye)


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


def _rref_c_reference(vectors, limit=None):
    """rref_c as it was before it skipped the scaling of rows that already
    lead with 1: every leading entry is inverted and its row scaled."""
    rows = []
    pivots = []
    for vec in vectors:
        if len(rows) == limit:
            break
        cur = fiber.reduce_c(vec, rows, pivots)
        lead = next((j for j, x in enumerate(cur) if not x.is_zero()), None)
        if lead is None:
            continue
        inv = cur[lead].inverse()
        cur = [x * inv for x in cur]
        for t, row in enumerate(rows):
            f = row[lead]
            if not f.is_zero():
                rows[t] = fiber._sub_multiple(row, f, cur)
        rows.append(cur)
        pivots.append(lead)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [rows[t] for t in order], [pivots[t] for t in order]


def test_rref_matches_the_always_scaling_reference(monkeypatch):
    """Random matrices whose rows lead with 1, -1, eps, 2, 1/3 or a random
    scalar at a random column, with zero and repeated rows, at every limit:
    rref_c gives the reference's rows and pivots and inverts fewer leading
    entries."""
    calls = Counter()
    inverse = CycloNum.inverse

    def counted(x):
        calls[counting] += 1
        return inverse(x)

    monkeypatch.setattr(CycloNum, "inverse", counted)
    rng = random.Random(20101024)
    for l in (3, 5):
        r = cyclotomic_build(l)
        leads = [r.one(), r.one(), -r.one(), r.eps(), r.scalar(2),
                 r.scalar(Fraction(1, 3))]
        for _ in range(80):
            m, n = rng.randint(1, 6), rng.randint(1, 5)
            A = []
            for _ in range(m):
                if A and rng.random() < 0.15:
                    A.append(list(rng.choice(A)))
                    continue
                start = rng.randint(0, n)
                lead = rng.choice(leads + [_rand_scalar(rng, r)])
                A.append([r.zero()] * start + [lead][:n - start] +
                         [_rand_scalar(rng, r) for _ in range(n - start - 1)])
            counting = "prefixes"
            ranks = [len(_rref_c_reference(A[:t])[1]) for t in range(m + 1)]
            for limit in (None,) + tuple(range(n + 1)):
                counting = "reference"
                expected = _rref_c_reference(A, limit)
                counting = "rref_c"
                reads = []

                def stream():
                    for t, row in enumerate(A):
                        reads.append(t)
                        yield row

                assert fiber.rref_c(stream(), limit) == expected, (A, limit)
                # a lazy stream is not read past the row that reaches limit
                assert len(reads) == next(
                    (t for t, k in enumerate(ranks) if k == limit), m)
    assert 0 < calls["rref_c"] < calls["reference"]


def test_mat_mul_matches_triple_loop():
    rng = random.Random(20101096)
    for l in (3, 5):
        r = cyclotomic_build(l)
        for _ in range(30):
            n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
            A = [[_rand_scalar(rng, r) if rng.random() < 0.4 else r.zero()
                  for _ in range(k)] for _ in range(n)]
            B = [[_rand_scalar(rng, r) if rng.random() < 0.4 else r.zero()
                  for _ in range(m)] for _ in range(k)]
            A[rng.randrange(n)] = [r.zero()] * k
            B[rng.randrange(k)] = [r.zero()] * m
            col = rng.randrange(m)
            for row in B:
                row[col] = r.zero()
            plain = [[r.zero()] * m for _ in range(n)]
            for i in range(n):
                for j in range(m):
                    for t in range(k):
                        plain[i][j] = plain[i][j] + A[i][t] * B[t][j]
            assert fiber.mat_mul_c(A, B, r) == plain


# ---------------------------------------------------------------------------
# Scaled partial permutations and representations against the dense matrix
# helpers.

def _dense_relations_hold(model, rep, character, r):
    """Every defining relation and l-th power, checked with dense products
    on the representation's matrices."""
    P = model.presentation
    gm = [pp_to_dense(rep.rows[g], r) for g in P.gens]
    for u in range(P.N):
        for v in range(u + 1, P.N):
            lhs = fiber.mat_mul_c(gm[u], gm[v], r)
            rhs = mat_scale_c(fiber.mat_mul_c(gm[v], gm[u], r),
                                    r.eps_power(P.S[u][v]))
            rule = P.delta.get((u, v))
            if rule is not None:
                rhs = mat_add_c(rhs, pp_to_dense(
                    rep.sparse_of_element(model, rule, r, "rule"), r))
            if not mat_eq_c(lhs, rhs):
                return False
    eye = mat_eye(rep.dim, r)
    return all(mat_eq_c(mat_pow_c(M, r.l, r),
                              mat_scale_c(eye, character.value(g)))
               for g, M in zip(P.gens, gm))


def _built_representations(r3):
    """(model, character, whether the stratum derives generators,
    representation) for every representation the tests of this suite
    build."""
    out = []

    def add(model, ctx, chi):
        loc = strata.locate(chi, ctx)
        try:
            reps = fiber.clock_shift_irreps(ctx, loc, chi)
        except strata.MissingWitness:
            return  # `verify` reports this and builds nothing
        derived = has_derived(model, loc.stratum)
        out.extend((model, chi, derived, rep) for rep in reps)

    m, ctx = plane_ctx(r3)
    add(m, ctx, make_character(r3, {"x1": 1, "x2": 1},
                               {"x1": 1, "x2": 1}).check(m, r3))
    add(m, ctx, make_character(r3, {"x1": 0, "x2": 1},
                               {"x2": 1}).check(m, r3))
    mc = models.build_twisted([[0]], 1)
    add(mc, strata.enumerate_strata(mc, r3),
        make_character(r3, {"x1": 1}, {"x1": 1}).check(mc, r3))
    for S, n_poly in [([[0, 0], [0, 0]], 2), ([[0, 2], [-2, 0]], 1),
                      ([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], 3)]:
        m = models.build_twisted(S, n_poly)
        ctx = strata.enumerate_strata(m, r3)
        gens = m.presentation.gens
        for bits in iproduct((0, 1), repeat=n_poly):
            vals = dict(zip(gens, bits))
            vals.update({g: 1 for g in gens[n_poly:]})
            wits = {g: 1 for g, v in vals.items() if v}
            add(m, ctx, make_character(r3, vals, wits).check(m, r3))
    # the covered characters of `qorder verify` on the Weyl pair
    W = models.build_weyl([[0]], [1])
    ctx = strata.enumerate_strata(W, r3)
    for chi in cli.default_characters(W, r3):
        if isinstance(strata.locate(chi, ctx), strata.Located):
            add(W, ctx, chi)
    # the killed-w Weyl n=2 stratum of test_wider.py
    W = models.build_weyl([[0, 1], [-1, 0]], [1, 1])
    e, one = r3.eps(), r3.one()
    u = (one - e).inverse()
    add(W, strata.enumerate_strata(W, r3), strata.Character(
        {"x1": u ** 3, "x2": one, "y1": one, "y2": one},
        {"x1": u, "x2": one, "y1": one, "y2": one,
         "w2": e - one}).check(W, r3))
    return out


def _sparse_matches_dense(A, B, r):
    """The product, scale, sum and powers of the scaled partial permutations
    of A and B equal the dense ones, and the cycle walk of the power check
    agrees with binary powering and with the dense power.  A scaled
    permutation has the dense inverse; any other matrix has no sparse
    inverse.  Returns whether A is a scaled permutation, and the (value is
    nonzero, A^k is value * I) outcomes of the power check."""
    n = len(A)
    pA, pB = pp_from_dense(A), pp_from_dense(B)
    assert pp_to_dense(pA, r) == A
    assert fiber.pp_mul(pA, pB) == pp_from_dense(fiber.mat_mul_c(A, B, r))
    for c in (r.zero(), -r.one(), r.eps() * 3):
        assert fiber.pp_scale(pA, c) == pp_from_dense(mat_scale_c(A, c))
    assert fiber.pp_add(pA, fiber.pp_scale(pA, -r.one()), "A - A") == \
        fiber.pp_zero(n)
    if all(i is None or j is None or i == j for i, j in zip(pA[0], pB[0])):
        assert fiber.pp_add(pA, pB, "A + B") == pp_from_dense(
            mat_add_c(A, B))
    else:
        with pytest.raises(ArithmeticError,
                           match=r"A \+ B is not a scaled partial perm"):
            fiber.pp_add(pA, pB, "A + B")
    outcomes = set()
    for k in (1, 2, r.l):
        power = mat_pow_c(A, k, r)
        pk = fiber.pp_pow(pA, k, r)
        assert pk == pp_from_dense(power)
        for value in {power[i][i] for i in range(n)} | {r.zero(), r.one()}:
            scalar = pk == fiber.pp_scale(fiber.pp_eye(n, r), value)
            assert scalar == mat_eq_c(power,
                                      mat_scale_c(mat_eye(n, r), value))
            assert fiber.pp_power_is_scalar(pA, k, value) == scalar
            outcomes.add((bool(value), scalar))
    permutation = None not in pA[0] and len(set(pA[0])) == n
    if permutation:
        inverse = pp_from_dense(mat_inv_c(A, r))
        assert fiber.pp_inv(pA) == inverse
        assert fiber.pp_pow(pA, -1, r) == inverse
        assert fiber.pp_pow(pA, -2, r) == pp_from_dense(mat_pow_c(A, -2, r))
    else:
        with pytest.raises(ZeroDivisionError):
            mat_inv_c(A, r)
        with pytest.raises(ArithmeticError, match="A is not a scaled perm"):
            fiber.pp_inv(pA, "A")
        with pytest.raises(ArithmeticError, match="not a scaled permutation"):
            fiber.pp_pow(pA, -1, r)
    return permutation, outcomes


def test_sparse_representations_match_dense(r3):
    built = _built_representations(r3)
    kinds = set()
    permuted = 0
    permutations = set()
    for model, chi, derived, rep in built:
        assert rep.verified
        assert _dense_relations_hold(model, rep, chi, r3)
        mats = [pp_to_dense(rep.rows[g], r3)
                for g in model.presentation.gens]
        for g, M in zip(model.presentation.gens, mats):
            assert rep.rows[g] == pp_from_dense(M)
            permuted += any(j is not None and j != i
                            for i, j in enumerate(rep.rows[g][0]))
        for A in mats:
            for B in mats:
                permutations.add(_sparse_matches_dense(A, B, r3)[0])
        kinds.add((derived, rep.dim))
    # the Weyl stratum derives its x's from the survivors
    assert kinds == {(False, 1), (False, 3), (True, 3)}
    assert permuted > 0
    # killed generators act by zero, which has no inverse
    assert permutations == {True, False}


def _nonzero(rng, r):
    """+-eps^k, the unit factor of the cyclotomic fast path, or a general
    nonzero scalar."""
    if rng.random() < 0.5:
        return r.eps_power(rng.randrange(r.l)) * rng.choice((1, -1))
    while True:
        x = _rand_scalar(rng, r)
        if x:
            return x


def _partial_permutations(rng, r, n):
    """Dense n x n matrices with at most one nonzero entry per row: a
    scaled permutation, the same with killed (zero) rows, a partial map with
    repeated columns, a chain of rows that dies after n steps, and a scaled
    permutation whose cycles have lengths 1 or l and whose l-th power is one
    scalar."""
    l = r.l

    def dense(cols, vals):
        return pp_to_dense((tuple(cols), tuple(vals)), r)

    perm = rng.sample(range(n), n)
    vals = [_nonzero(rng, r) for _ in range(n)]
    killed = [None if rng.random() < 0.4 else j for j in perm]
    partial = [rng.choice([None] + list(range(n))) for _ in range(n)]
    chain = [i + 1 if i + 1 < n else None for i in range(n)]
    # cycles of lengths 1 and l; a fixed point holds w eps^j and an l-cycle
    # has entry product w^l, so the l-th power is w^l everywhere
    w = _nonzero(rng, r)
    order = rng.sample(range(n), n)
    central_cols, central_vals = [None] * n, [None] * n
    while order:
        c = l if len(order) >= l and rng.random() < 0.7 else 1
        cycle, order = order[:c], order[c:]
        product = r.one()
        for t, i in enumerate(cycle):
            central_cols[i] = cycle[(t + 1) % c]
            if c == 1:
                central_vals[i] = w * r.eps_power(rng.randrange(l))
            elif t < c - 1:
                central_vals[i] = _nonzero(rng, r)
                product = product * central_vals[i]
            else:
                central_vals[i] = w ** l / product
    return [dense(perm, vals),
            dense(killed, [None if j is None else a
                           for j, a in zip(killed, vals)]),
            dense(partial, [None if j is None else a
                            for j, a in zip(partial, vals)]),
            dense(chain, [None if j is None else a
                          for j, a in zip(chain, vals)]),
            dense(central_cols, central_vals)]


def test_sparse_core_matches_dense_on_random_matrices():
    permutations = set()
    outcomes = set()
    for rng, r, *_, n, _ in _systems():
        mats = _partial_permutations(rng, r, n)
        for X in mats:
            for Y in rng.sample(mats, 2):
                perm, seen = _sparse_matches_dense(X, Y, r)
                permutations.add(perm)
                outcomes |= seen
    assert permutations == {True, False}
    # every outcome of the l-th power check, at value 0 and at value != 0
    assert outcomes == {(False, False), (False, True), (True, False),
                        (True, True)}


def test_row_dicts_match_dense_on_random_matrices():
    # the row dict product of general square matrices with several entries
    # a row, against each other and against scaled partial permutations
    for rng, r, A, _, m, n, _ in _systems():
        if m != n:
            continue
        B = [[_rand_scalar(rng, r) for _ in range(n)] for _ in range(n)]
        C = rng.choice(_partial_permutations(rng, r, n))
        for X, Y in ((A, B), (B, A), (C, A), (A, C)):
            sX, sY = sp_from_dense(X), sp_from_dense(Y)
            assert sp_to_dense(sX, r) == X
            assert [fiber.sp_row_mul(row, sY) for row in sX] == \
                sp_from_dense(fiber.mat_mul_c(X, Y, r))


def test_power_check_reads_cycles(r3):
    zero, one, two, e = r3.zero(), r3.one(), r3.scalar(2), r3.eps()
    cases = [
        # a 3-cycle with entry product 2: A^3 = 2
        ((1, 2, 0), (one, one, two), two, True),
        ((1, 2, 0), (one, one, two), one, False),
        # a fixed point eps: A^3 = 1
        ((0,), (e,), one, True),
        # a 2-cycle with entry product 1: A^2 = 1, but A^3 = A
        ((1, 0), (one, one), one, False),
        ((0, 2, 1), (one, one, one), one, False),
        # a zero row: A^3 is never invertible
        ((0, None), (one, None), one, False),
        ((None, 0), (None, one), zero, True),
        # chains of 3 and 4 rows, dying at the end
        ((1, 2, None), (one, one, None), zero, True),
        ((1, 2, 3, None), (one, one, one, None), zero, False),
        # a row that runs into a cycle it is not on
        ((1, 2, 1), (one, one, one), zero, False),
        ((1, 2, 1), (one, one, one), one, False),
    ]
    for cols, vals, value, expect in cases:
        A = (cols, vals)
        powered = fiber.pp_pow(A, 3, r3) == fiber.pp_scale(
            fiber.pp_eye(len(cols), r3), value)
        assert fiber.pp_power_is_scalar(A, 3, value) == powered == expect, \
            (cols, value)


def test_verify_representation_rejects_broken_matrices(r3):
    m, ctx = plane_ctx(r3)
    chi = make_character(r3, {"x1": 1, "x2": 1},
                         {"x1": 1, "x2": 1}).check(m, r3)
    rep = fiber.clock_shift_irreps(ctx, strata.locate(chi, ctx), chi)[0]
    X1, X2 = rep.rows["x1"], rep.rows["x2"]

    def check(model, rows, character):
        broken = fiber.Representation(rows=rows, dim=len(X1[0]),
                                      z_scalars=rep.z_scalars)
        fiber._verify_representation(model, broken, character, r3)

    check(m, {"x1": X1, "x2": X2}, chi)
    # swapped, x1 x2 = eps^-1 x2 x1; every l-th power is still 1
    with pytest.raises(ArithmeticError, match="relation"):
        check(m, {"x1": X2, "x2": X1}, chi)
    # scaled by 2, every relation holds and x1^3 = 8
    with pytest.raises(ArithmeticError, match="central value of x1"):
        check(m, {"x1": fiber.pp_scale(X1, r3.scalar(2)), "x2": X2}, chi)
    # one generator and no relation: a 2-cycle with entry product 1 and a
    # fixed point 1 square to 1, but their cube is not 1
    mc = models.build_twisted([[0]], 1)
    one = r3.one()
    with pytest.raises(ArithmeticError, match="central value of x1"):
        check(mc, {"x1": ((1, 0, 2), (one, one, one))},
              make_character(r3, {"x1": 1}, {"x1": 1}).check(mc, r3))
    # y1 x1 = q x1 y1 - q^-1 on two shifts: x1 y1 moves every row, the
    # constant term does not, so the right-hand side has two entries a row
    W = models.build_weyl([[0]], [1])
    shift = ((2, 0, 1), (one, one, one))
    chiw = make_character(r3, {"y1": 1, "x1": 1}).check(W, r3)
    with pytest.raises(ArithmeticError, match=r"the relation \(y1, x1\) is "
                       "not a scaled partial permutation"):
        check(W, {"y1": shift, "x1": shift}, chiw)


def test_derived_sum_in_two_columns_is_a_failed_check(r3):
    # x2 derived as y1 + y2 on the killed-w Weyl n=2 stratum: y1 is
    # diagonal and y2 a shift, so the two terms meet each row in two columns
    W = models.build_weyl([[0, 1], [-1, 0]], [1, 1])
    e, one = r3.eps(), r3.one()
    u = (one - e).inverse()
    ctx = strata.enumerate_strata(W, r3)
    chi = strata.Character(
        {"x1": u ** 3, "x2": one, "y1": one, "y2": one},
        {"x1": u, "x2": one, "y1": one, "y2": one,
         "w2": e - one}).check(W, r3)
    loc = strata.locate(chi, ctx)
    reps = fiber.clock_shift_irreps(ctx, loc, chi)
    Y1, Y2 = reps[0].rows["y1"], reps[0].rows["y2"]
    with pytest.raises(ArithmeticError,
                       match="x2 is not a scaled partial permutation"):
        fiber._sum([(one, [(Y1, 1)]), (one, [(Y2, 1)])], reps[0].dim, r3,
                   "x2")
    # the build has no other matrix form to fall back to
    derived = [(label, terms) for label, terms in loc.stratum.derived
               if label != "x2"]
    derived.append(("x2", [(one, [("y1", 1)]), (one, [("y2", 1)])]))
    broken = dataclasses.replace(
        loc, stratum=dataclasses.replace(loc.stratum, derived=derived))
    with pytest.raises(ArithmeticError,
                       match="x2 is not a scaled partial permutation"):
        fiber.clock_shift_irreps(ctx, broken, chi)


# ---------------------------------------------------------------------------
# The integer monomial census against the cyclotomic comparison it replaced.

def _census_monomial_reference(A, mono_mult):
    """(rad_dim, count, dim A/J) with [g, b] != 0 decided by comparing the
    two CycloNum products of mono_mult."""
    live = []
    for b in range(A.dim):
        power = b
        for _ in range(A.root.l - 1):
            step = mono_mult(power, b)
            if step is None:
                break
            power = step[0]
        else:
            assert power == A.unit_index
            live.append(b)
    hit = set()
    for g in A.gens:
        if g not in live:
            continue
        for b in live:
            gb = mono_mult(g, b)
            if gb is not None:
                bg = mono_mult(b, g)
                assert bg[0] == gb[0]
                if gb[1] != bg[1]:
                    hit.add(gb[0])
    return A.dim - len(live), len(set(live) - hit), len(live)


def _located_fibers(m, r, characters):
    """(fiber, mono_mult) of each character on its located stratum."""
    ctx = strata.enumerate_strata(m, r)
    for chi in characters:
        yield _with_mono_mult(m, chi, r, strata.locate(chi, ctx))


def _default_fibers(S, n_poly, r):
    m = models.build_twisted(S, n_poly)
    if m.admissibility(r.l):
        yield from _located_fibers(m, r, cli.default_characters(m, r))


MONOMIAL_625_JOB0 = """
algebra.kind = twisted
algebra.S = 0 0 -1 -1 / 0 0 -2 -1 / 1 2 0 -2 / 1 1 2 0
algebra.n_poly = 2
root.l = 5
root.primitive_index = 4
"""


def _reference_fibers(r3, r5):
    fibers = []
    for S, n_poly in [([[0, 1], [-1, 0]], 2), ([[0, 0], [0, 0]], 2),
                      ([[0, 2], [-2, 0]], 1),
                      ([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], 3)]:
        fibers.extend(_default_fibers(S, n_poly, r3))
    fibers.extend(_default_fibers([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], 3,
                                  r5))
    spec = cli.parse_jobspec(MONOMIAL_625_JOB0)
    m = cli.build_model(spec)
    r = cyclotomic_build(spec.l, spec.primitive_index)
    fibers.extend(_located_fibers(m, r, cli.default_characters(m, r)))
    return fibers


def test_monomial_census_matches_cyclotomic_reference(r3, r5):
    seen = set()
    for A, mono_mult in _reference_fibers(r3, r5):
        assert A.monomial
        assert fiber._census_monomial(A) == _census_monomial_reference(
            A, mono_mult)
        seen.add((A.root.l, A.dim))
    # full fibers, extension quotients at l = 3 and 5, and dim 625
    assert {(3, 9), (3, 27), (3, 1), (5, 25), (5, 125), (5, 625)} <= seen


def test_monomial_rows_match_mono_mult(r3, r5):
    """The Hermite quotient against the union-find: the same basis labels,
    and the integer rows the census reads, entry by entry against the
    CycloNum products of the union-find's mono_mult, whose weights give
    each nonzero product's commutator exponent.  The tridiagonal N = 3
    fibers at l = 7 include an extension quotient with a vanishing
    coordinate, and the all-ones character of the tridiagonal N = 5 at
    l = 7 divides 16,807 monomials into 2,401 classes."""
    r7 = cyclotomic_build(7)
    fibers = _reference_fibers(r3, r5)
    fibers.extend(_default_fibers([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], 3,
                                  r7))
    S5 = [[int(j == i + 1) - int(j == i - 1) for j in range(5)]
          for i in range(5)]
    m5 = models.build_twisted(S5, 1)
    ones = {g: 1 for g in m5.gens}
    fibers.extend(_located_fibers(
        m5, r7, [make_character(r7, ones, ones).check(m5, r7)]))
    dims = {(A.root.l, A.dim) for A, _ in fibers}
    assert {(3, 9), (3, 1), (5, 25), (5, 125), (7, 49), (7, 2401)} <= dims

    for A, mono_mult in fibers:
        for b in range(A.dim):
            power = b
            for _ in range(A.root.l - 1):
                step = mono_mult(power, b)
                power = None if step is None else step[0]
                if power is None:
                    break
            assert A.mono_power[b] == power
        for k, g in enumerate(A.gens):
            product, comm = A.gen_rows(k)
            assert len(product) == len(comm) == A.dim
            for b in range(A.dim):
                gb, bg = mono_mult(g, b), mono_mult(b, g)
                assert (product[b] is None) == (gb is None)
                if gb is not None:
                    assert product[b] == gb[0] == bg[0]
                    assert gb[1] == bg[1] * A.root.eps_power(comm[b])


def test_monomial_census_does_no_cyclotomic_arithmetic(r3, r5, monkeypatch):
    fibers = [A for A, _ in _default_fibers([[0, 1], [-1, 0]], 2, r3)]
    fibers.extend(A for A, _ in _default_fibers(
        [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], 3, r5))
    expected = [fiber.census(A) for A in fibers]

    def refuse(*args):
        raise AssertionError("cyclotomic arithmetic in the census")

    for name in ("__mul__", "__rmul__", "__eq__", "__add__", "__sub__",
                 "__truediv__", "inverse"):
        monkeypatch.setattr(CycloNum, name, refuse)
    assert [fiber.census(A) for A in fibers] == expected


# ---------------------------------------------------------------------------
# The graded table census against the dense census it replaced.

def _census_table_reference(A):
    """(rad_dim, count, dim A/J) from the dense n x n trace form and one
    elimination over every generator commutator, ignoring any grading."""
    n, r = A.dim, A.root
    traces = []
    for k in range(n):
        t = r.zero()
        for j in range(n):
            c = _table_product(A, k, j).get(j)
            if c is not None:
                t = t + c
        traces.append(t)
    gram = [[r.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            tr = r.zero()
            for k, c in _table_product(A, i, j).items():
                if not traces[k].is_zero():
                    tr = tr + c * traces[k]
            gram[i][j] = tr
            gram[j][i] = tr
    rad = fiber.kernel_c(gram, n, r)

    def commutator(g, b):
        vec = [r.zero()] * n
        for k, c in _table_product(A, g, b).items():
            vec[k] = vec[k] + c
        for k, c in _table_product(A, b, g).items():
            vec[k] = vec[k] - c
        return vec

    span = fiber.rref_c(rad + [commutator(g, b) for g in A.gens
                               for b in range(n)])[1]
    return len(rad), n - len(span), n - len(rad)


WEYL_N2 = ([[0, 1], [-1, 0]], [1, 1])


def _weyl_n2_table_fibers(r3):
    """The dim-81 fibers of the two `weyl-table` benchmark characters (all
    ones; every y zero and every x one) and of the killed-w stratum of
    test_wider.py, which has a radical."""
    W = models.build_weyl(*WEYL_N2)
    for ys, xs in ((1, 1), (0, 1)):
        vals = {"y1": ys, "y2": ys, "x1": xs, "x2": xs}
        wits = {g: 1 for g, v in vals.items() if v}
        yield fiber.fiber_algebra(W, make_character(r3, vals, wits)
                                  .check(W, r3), r3)
    e, one = r3.eps(), r3.one()
    u = (one - e).inverse()
    chi = strata.Character({"x1": u ** 3, "x2": one, "y1": one, "y2": one},
                           {"x1": u, "x2": one, "y1": one, "y2": one,
                            "w2": e - one}).check(W, r3)
    yield fiber.fiber_algebra(W, chi, r3)


def _component_sizes(degrees):
    return sorted(Counter(degrees).values())


def _table_fibers(r3, r5):
    """Weyl n=1 at l = 3 and 5 and n=2 with and without a radical, graded
    into l^n components, and the hand-built algebra with no degrees."""
    for r in (r3, r5):
        for W, chi in _weyl_n1_characters(r):
            yield fiber.fiber_algebra(W, chi, r)
    W = models.build_weyl([[0]], [1])
    yield fiber.fiber_algebra(
        W, make_character(r3, {"y1": 2, "x1": -1}).check(W, r3), r3)
    yield fiber.fiber_algebra(*_custom_weyl_character(r3), r3)
    yield from _weyl_n2_table_fibers(r3)
    yield _nonsplit_algebra(r3)


def test_graded_census_matches_dense_reference(r3, r5):
    seen = set()
    for A in _table_fibers(r3, r5):
        res = fiber._census_table(A)
        assert res == _census_table_reference(A)
        graded = A.degrees is not None
        seen.add((A.dim, graded and len(set(A.degrees)), res[0] > 0))
    assert seen == {(9, 3, False), (25, 5, False), (81, 9, False),
                    (81, 9, True), (5, False, False)}


def test_table_census_reads_no_product(r3, r5, monkeypatch):
    fibers = list(_table_fibers(r3, r5))
    expected = [fiber._census_table(A) for A in fibers]

    def refuse(*args):
        raise AssertionError("the census read a product")

    # a fiber stores no product, and the census builds its operators by the
    # recurrence on the basis, with no engine product
    monkeypatch.setattr(engine._Rewriter, "mul_terms", refuse)
    for A, want in zip(fibers, expected):
        assert not A.monomial
        if A.degrees is None:  # the hand-built M_2 + C
            assert fiber._census_table(A) == want
            with pytest.raises(fiber.NonSplit):
                fiber.census(A)
            continue
        res = fiber.census(A)
        assert (res.rad_dim, res.count, A.dim - res.rad_dim) == want


def _traces_reference(A, shape, scalars):
    """The traces from the full left operators of half-monomials, the
    construction that the right-operator row vectors replaced: x^a = x^p x^q
    for a = (p | q) split at position N // 2, so
    tr(L_{x^a}) = sum_j sum_m (x^q b_j)_m (x^p b_m)_j, each full left
    operator one operator product from its predecessor along steps."""
    steps, index, norm = shape.steps, shape.index, scalars.norm
    full = {A.unit_index: [{i: scalars.one} for i in range(A.dim)]}

    def full_left(i):
        path = []
        k = i
        while k not in full:
            path.append(k)
            k = steps[k][1]
        for k in reversed(path):
            v, p = steps[k]
            rows = [fiber.sp_row_mul(row, scalars.left[v])
                    for row in full[p]]
            if norm is not None:
                rows = [{j: c for j, c in zip(row, map(norm, row.values()))
                         if c} for row in rows]
            full[k] = rows
        return full[i]

    traces = {}
    for k in shape.comps[shape.degree_zero]:
        a = A.basis_labels[k]
        half = len(a) // 2
        head = full_left(index[a[:half] + (0,) * (len(a) - half)])
        tail = full_left(index[(0,) * half + a[half:]])
        t = scalars.zero
        for j, row in enumerate(tail):
            for m, c in row.items():
                d = head[m].get(j)
                if d is not None:
                    t = t + c * d
        if norm is not None:
            t = norm(t)
        if t:
            traces[k] = t
    return traces


def _golden_character(name):
    spec = cli.parse_jobspec(
        (pathlib.Path(__file__).parent / "golden" / name).read_text())
    mc = cli.build_model(spec)
    r = cyclotomic_build(spec.l, spec.primitive_index)
    return mc, cli.character_from_spec(spec, mc, r), r


def _small_trace_fibers(r3, r5):
    """Every fiber of dimension at most 81 of _table_fibers and
    _certificate_cases, the cyclic group algebras, and the golden character
    whose x's are derived from w1 and w2."""
    yield from _table_fibers(r3, r5)
    for model, chi, r in _certificate_cases():
        if r.l ** model.presentation.N <= 81:
            yield fiber.fiber_algebra(model, chi, r)
    for r in (r3, r5):
        for graded in (True, False):
            yield _cyclic_group_algebra(r, graded)
    yield fiber.fiber_algebra(*_golden_character("weyl-n2-w-witness-l3.job"))


def test_traces_match_the_half_monomial_reference(r3, r5):
    # exact and mod p on the small fibers, mod p only at dim 625; the
    # traces walk one component per coset of the units, and the reference
    # walks every basis element
    dims = Counter()
    kinds = Counter()
    for A in _small_trace_fibers(r3, r5):
        shape = fiber._TableShape(A)
        images = fiber._residue_scalars(A, shape)
        for scalars in (fiber._exact_scalars(A, shape), images):
            got = fiber._traces(A, shape, scalars)
            assert got == _traces_reference(A, shape, scalars)
            assert set(got) <= set(shape.comps[shape.degree_zero])
        dims[A.dim] += 1
        kinds[(len(images.cosets) > 1, fiber._census_table(A)[0] > 0)] += 1
    # (several cosets, radical): every combination is seen
    assert set(kinds) == set(iproduct((False, True), repeat=2))
    assert dims[81] >= 16 and min(dims) == 3
    W = models.build_weyl(*WEYL_N2)
    ones = {g: 1 for g in W.presentation.gens}
    A = fiber.fiber_algebra(W, make_character(r5, ones, ones).check(W, r5),
                            r5)
    shape = fiber._TableShape(A)
    images = fiber._residue_scalars(A, shape)
    assert A.dim == 625
    assert fiber._traces(A, shape, images) == \
        _traces_reference(A, shape, images)


def test_gram_blocks_of_some_degrees_match_every_block(r3, r5):
    # the rows built for one degree's block, its partners and their
    # predecessors, give the block that the build of every row gives
    built = Counter()
    for A in _small_trace_fibers(r3, r5):
        shape = fiber._TableShape(A)
        images = fiber._residue_scalars(A, shape)
        every = range(len(shape.comps))
        full = fiber._gram_blocks(A, shape, images, every)
        for d in every:
            assert fiber._gram_blocks(A, shape, images, [d]) == {d: full[d]}
        built[len(shape.comps) > 1] += 1
    assert built[True] and built[False]


def _monomial_degrees(P, l):
    weights = fiber.presentation_weights(P, l)
    return [tuple(sum(w * e for w, e in zip(wt, a)) % l for wt in weights)
            for a in iproduct(range(l), repeat=P.N)]


def test_weyl_grading_components(r3):
    # deg y_i = e_i and deg x_i = -e_i: l^n components of size l^n
    for n, S, exps in ((1, [[0]], [1]), (2, *WEYL_N2)):
        P = models.build_weyl(S, exps).presentation
        for l in (3, 5):
            assert (_component_sizes(_monomial_degrees(P, l))
                    == [l ** n] * l ** n)
    # the built fibers carry the same labels
    W, chi = next(_weyl_n1_characters(r3))
    A = fiber.fiber_algebra(W, chi, r3)
    assert A.degrees == _monomial_degrees(W.presentation, 3)
    for A in _weyl_n2_table_fibers(r3):
        assert _component_sizes(A.degrees) == [9] * 9


def test_trivial_grading(r3):
    # delta rules that admit only the zero weight give no weight vector, so
    # every label is the empty tuple: one component.  (These three constant
    # rules fail engine.validate; a valid tower always has the nonzero
    # weight S_u + s_u e_u of its first generator u with a delta rule.)
    one = engine.Element.one(3)
    P = engine.AlgebraPresentation(
        ["a", "b", "c"], 3, [[0, 1, -1], [-1, 0, 1], [1, -1, 0]],
        exps=[1, 1, 0], delta={(0, 1): one, (0, 2): one, (1, 2): one})
    assert fiber.presentation_weights(P, 3) == []
    assert set(_monomial_degrees(P, 3)) == {()}
    # the same fibers with every element in degree 0 get the same census
    for A in (next(_weyl_n2_table_fibers(r3)),
              fiber.fiber_algebra(*_custom_weyl_character(r3), r3)):
        flat = dataclasses.replace(A, degrees=[()] * A.dim)
        assert fiber._census_table(flat) == fiber._census_table(A)
        assert fiber._census_table(dataclasses.replace(A, degrees=None)) \
            == fiber._census_table(A)


def test_census_rejects_a_wrong_degree_label(r3):
    W, chi = next(_weyl_n1_characters(r3))
    A = fiber.fiber_algebra(W, chi, r3)
    fiber.census(A)
    for g in A.gens:
        degrees = list(A.degrees)
        degrees[g] = tuple((x + 1) % 3 for x in degrees[g])
        broken = dataclasses.replace(A, degrees=degrees)
        with pytest.raises(engine.ValidationFailed, match="homogeneous"):
            fiber.census(broken)


# The table census certified mod p against the exact census.

QUANTUM_MATRICES = """
algebra.kind = custom
algebra.gens = a b c d
algebra.n_poly = 4
algebra.S = 0 1 1 0 / -1 0 0 1 / -1 0 0 1 / 0 -1 -1 0
algebra.exponents = 2 0 0 0
algebra.delta.a.d = q * b * c - q^-1 * b * c
root.l = 3
"""


def _killed_w_character(W, r):
    """x1 = u^l with root u = (1 - eps)^-1 and every other value 1, which
    kills w1: a fiber with a radical."""
    one = r.one()
    u = (one - r.eps()).inverse()
    vals = {g: one for g in W.presentation.gens}
    wits = dict(vals)
    vals["x1"], wits["x1"] = u ** r.l, u
    return strata.Character(vals, wits).check(W, r)


def _quantum_matrices(l):
    spec = cli.parse_jobspec(QUANTUM_MATRICES.replace("root.l = 3",
                                                      "root.l = %d" % l))
    return cli.build_model(spec), cyclotomic_build(l)


def _certificate_cases():
    """(model, character, root) for every {0, 1} character of the Weyl
    models with n <= 2 at l = 2..5 and their killed-w characters, the golden
    custom Weyl job, and the 16 {0, 1} characters of quantum 2x2 matrices at
    l = 3."""
    for S, exps in (([[0]], [1]), WEYL_N2):
        W = models.build_weyl(S, exps)
        for l in (2, 3, 4, 5):
            if not W.admissibility(l):
                continue
            r = cyclotomic_build(l)
            for chi in cli.default_characters(W, r):
                yield W, chi, r
            yield W, _killed_w_character(W, r), r
    yield _golden_character("custom-weyl-l3.job")
    mq, r3 = _quantum_matrices(3)
    for chi in cli.default_characters(mq, r3):
        yield mq, chi, r3


def _certificate_fibers():
    for model, chi, r in _certificate_cases():
        yield fiber.fiber_algebra(model, chi, r)


def _census_exact(A, shape):
    """The census over Q(eps), the whole-fiber reference of the census mod
    p: per component, the kernel of its gram block is its part of J, and
    the span of that kernel and its commutators is its part of
    [A, A] + J."""
    r = A.root
    exact = fiber._exact_scalars(A, shape)
    blocks = fiber._gram_blocks(A, shape, exact, range(len(shape.comps)))
    rad_dim = 0
    rank = 0
    for d, comp in enumerate(shape.comps):
        rad = fiber.kernel_c(blocks[d], len(comp), r)
        rad_dim += len(rad)
        span = chain(rad, fiber._commutators(shape, exact, d))
        rank += len(fiber.rref_c(span, limit=len(comp))[1])
    return rad_dim, A.dim - rank, A.dim - rad_dim


def _exact_calls(monkeypatch):
    """A Counter, by name, of the calls of fiber._gram_blocks and
    fiber._commutators over Q(eps) (scalars.p is None) made while it is
    installed."""
    calls = Counter()
    for name, at in (("_gram_blocks", 2), ("_commutators", 1)):
        def spy(*args, real=getattr(fiber, name), name=name, at=at):
            if args[at].p is None:
                calls[name] += 1
            return real(*args)
        monkeypatch.setattr(fiber, name, spy)
    return calls


def test_certified_census_matches_exact_census():
    kinds = Counter()
    for A in _certificate_fibers():
        shape = fiber._TableShape(A)
        exact = _census_exact(A, shape)
        assert fiber._census_table(A) == exact
        kinds[(len(shape.cosets(A.left)) > 1, exact[0] > 0)] += 1
    # (several cosets, radical): fibers with a radical and fibers without,
    # each with one coset of the units and with several
    assert kinds == {(False, False): 33, (True, False): 19,
                     (False, True): 9, (True, True): 10}


def test_quantum_matrix_cosets_follow_the_units():
    # each generator with value 1 is a unit; the grading of O_eps(M_2) has
    # 27 components at l = 3, and H is all of it once the units' degrees
    # span it
    mq, r3 = _quantum_matrices(3)
    got = Counter()
    for chi in cli.default_characters(mq, r3):
        A = fiber.fiber_algebra(mq, chi, r3)
        shape = fiber._TableShape(A)
        cosets = shape.cosets(A.left)
        units = sum(not chi.value(g).is_zero() for g in mq.presentation.gens)
        got[(units, len(cosets))] += 1
        assert len(shape.comps) == 27
        # each coset's components have one size
        assert all(len({len(shape.comps[d]) for d in coset}) == 1
                   for coset in cosets)
    assert got == {(0, 27): 1, (1, 9): 4, (2, 3): 6, (3, 1): 4, (4, 1): 1}


def test_census_mod_p_walks_and_ranks_one_component_per_coset(
        r3, monkeypatch):
    # the all-ones Weyl n=2, l=3 fiber is one coset of its 9 components:
    # the pass mod p walks the 9 basis elements of one component for its
    # traces, and ranks one of its 5 gram pairs {d, -d}
    A = next(_weyl_n2_table_fibers(r3))
    shape = fiber._TableShape(A)
    pairs = {frozenset((d, m)) for d, m in enumerate(shape.minus)}
    assert (A.dim, len(shape.comps), len(pairs)) == (81, 9, 5)
    walked = Counter()
    gram_ranks = []
    diagonal, rank_mod_p = fiber._diagonal_entries, fiber.rank_mod_p

    def walk(A, transposed, scalars, j):
        walked[scalars.p is not None, j] += 1
        return diagonal(A, transposed, scalars, j)

    def rank(vectors, p, limit=None):
        if limit is None:  # the commutator streams read up to a bound
            gram_ranks.append(len(vectors))
        return rank_mod_p(vectors, p, limit)

    monkeypatch.setattr(fiber, "_diagonal_entries", walk)
    monkeypatch.setattr(fiber, "rank_mod_p", rank)
    assert fiber._census_table(A) == (0, 1, 81)
    assert sorted(j for _, j in walked) == shape.comps[shape.degree_zero]
    assert set(walked.values()) == {1} and all(p for p, _ in walked)
    assert gram_ranks == [9]


def test_unlucky_prime_keeps_the_census_exact(monkeypatch):
    # small primes that split Phi_l, with w of order l: 2^3 = 1 mod 7 and
    # 3^5 = 1 mod 11.  The Weyl pair is a full matrix algebra at every
    # character below, but mod 7 its y = 2, x = 3 fiber (and mod 11 its
    # all-ones fiber) has a radical, so a gram pair falls short mod p and
    # takes the kernels of its exact blocks.
    small = {3: (7, 2), 5: (11, 3)}
    monkeypatch.setattr(exactnum, "residue_prime", small.__getitem__)
    calls = _exact_calls(monkeypatch)
    W = models.build_weyl([[0]], [1])
    for l, values in ((3, (0, 1, 2, 3)), (5, (0, 1, 2))):
        r = cyclotomic_build(l)
        fallbacks = 0
        for y, x in iproduct(values, repeat=2):
            chi = make_character(r, {"y1": y, "x1": x}).check(W, r)
            A = fiber.fiber_algebra(W, chi, r)
            exact = _census_exact(A, fiber._TableShape(A))
            assert exact == (0, 1, l * l)
            calls.clear()
            assert fiber._census_table(A) == exact
            fallbacks += calls["_gram_blocks"] > 0
        assert fallbacks


def test_denominator_divisible_by_p_takes_the_exact_path(monkeypatch):
    r = cyclotomic_build(3)
    p = exactnum.residue_prime(3)[0]
    W = models.build_weyl([[0]], [1])
    chi = make_character(r, {"y1": Fraction(1, p), "x1": 1}).check(W, r)
    A = fiber.fiber_algebra(W, chi, r)
    assert any(c.den % p == 0 for L in A.left for row in L
               for c in row.values())
    exact = _census_exact(A, fiber._TableShape(A))
    calls = _exact_calls(monkeypatch)
    # every step is exact: the gram blocks and the 3 components
    assert fiber._census_table(A) == exact == (0, 1, 9)
    assert calls == {"_gram_blocks": 1, "_commutators": 3}
    # the same values with p out of the way are counted mod p alone
    monkeypatch.setattr(exactnum, "residue_prime", lambda l: (7, 2))
    calls.clear()
    assert fiber._census_table(A) == exact
    assert not calls


def test_radical_fibers_eliminate_only_their_short_degrees(monkeypatch):
    # the killed-w Weyl n=2 and the all-ones O_eps(M_2) fibers at l = 5:
    # the ranks mod p close all but 4 of their 25 and 125 degrees, and only
    # those 4 are eliminated over Q(eps)
    r5 = cyclotomic_build(5)
    W = models.build_weyl(*WEYL_N2)
    mq, _ = _quantum_matrices(5)
    ones = {g: 1 for g in mq.presentation.gens}
    cases = [
        (fiber.fiber_algebra(W, _killed_w_character(W, r5), r5), 25),
        (fiber.fiber_algebra(mq, make_character(r5, ones, ones)
                             .check(mq, r5), r5), 125)]
    calls = _exact_calls(monkeypatch)
    counted = []
    for A, degrees in cases:
        calls.clear()
        counted.append(fiber._census_table(A))
        assert len(set(A.degrees)) == degrees
        assert calls == {"_gram_blocks": 1, "_commutators": 4}
    assert counted == [(500, 5, 125)] * 2


def test_radical_that_is_not_p_integral_is_eliminated_exactly(monkeypatch):
    # all-ones O_eps(M_2) at l = 3: every kernel vector of the exact gram
    # blocks divided by p spans the same J but has no image mod p, so each
    # degree with a radical is eliminated over Q(eps), and the count stays
    # the same
    mq, r3 = _quantum_matrices(3)
    ones = {g: 1 for g in mq.presentation.gens}
    A = fiber.fiber_algebra(mq, make_character(r3, ones, ones).check(mq, r3),
                            r3)
    calls = _exact_calls(monkeypatch)
    want = fiber._census_table(A)
    short = calls["_commutators"]
    p = exactnum.residue_prime(3)[0]
    scale = r3.scalar(Fraction(1, p))
    kernel_c = fiber.kernel_c
    radicals = []

    def divided(*args):
        rad = [[x * scale for x in vec] for vec in kernel_c(*args)]
        radicals.append(len(rad))
        return rad

    monkeypatch.setattr(fiber, "kernel_c", divided)
    calls.clear()
    assert fiber._census_table(A) == want == (54, 3, 27)
    # 2 of the 27 degrees are short mod p, and all 27 have a radical
    assert short == 2
    assert calls["_commutators"] == sum(map(bool, radicals)) == 27


# ---------------------------------------------------------------------------
# The left operators from the PBW-basis recurrence against the engine, and
# the census bounds that need no exact elimination.

def _engine_left(model, character, r):
    """left[u][j] = x_u b_j from one engine product per generator and basis
    element, reduced by the character: the construction the recurrence
    replaced."""
    P = model.presentation
    chi = [character.value(g) for g in P.gens]
    basis = [tuple(v) for v in iproduct(range(r.l), repeat=P.N)]
    index = {v: i for i, v in enumerate(basis)}
    one = r.one()
    left = []
    for u in range(P.N):
        g = engine.Element.monomial(P.N, [int(i == u) for i in range(P.N)],
                                    one)
        rows = []
        for b in basis:
            entry = {}
            prod = engine.mul_at_root(P, r, g, engine.Element(P.N, {b: one}))
            for vec, c in prod.terms.items():
                red = fiber._reduce_exponent(vec, r.l, chi)
                if red is not None:
                    engine.add_term(entry, index[red[0]],
                                    c if red[1] is None else c * red[1])
            rows.append(entry)
        left.append(rows)
    return left


# the quantum Weyl pair over a central invertible t, with negative powers
# of t in its delta rule
WEYL_OVER_T = """
algebra.kind = custom
algebra.gens = y x t
algebra.n_poly = 2
algebra.S = 0 -1 0 / 1 0 0 / 0 0 0
algebra.exponents = 1 0 0
algebra.delta.y.x = q * t^-2 - t^-1
root.l = 3
"""


def test_left_operators_match_the_engine(monkeypatch):
    # the certificate fibers, all ones on quantum 2x2 matrices at l = 5, a
    # Weyl pair whose values put chi scalars into the reductions, and a
    # delta rule whose t^-1 and t^-2 are reduced by chi(t)^-1
    mq, r5 = _quantum_matrices(5)
    ones = {g: 1 for g in mq.presentation.gens}
    W = models.build_weyl([[0]], [1])
    r3 = cyclotomic_build(3)
    mt = cli.build_model(cli.parse_jobspec(WEYL_OVER_T))
    cases = list(_certificate_cases()) + [
        (mq, make_character(r5, ones, ones).check(mq, r5), r5),
        (W, make_character(r3, {"y1": 2, "x1": -1}).check(W, r3), r3),
        (mt, make_character(r3, {"y": 1, "x": 2, "t": 3}).check(mt, r3), r3)]
    real = engine.mul_at_root
    products = Counter()

    def counted(*args):
        products["engine"] += 1
        return real(*args)

    monkeypatch.setattr(engine, "mul_at_root", counted)
    dims = Counter()
    for model, chi, r in cases:
        products.clear()
        A = fiber.fiber_algebra(model, chi, r)
        # the only engine products are those of _check_central_powers
        assert products["engine"] == 2 * model.presentation.N ** 2
        assert A.left == _engine_left(model, chi, r)
        dims[A.dim] += 1
    assert dims == {4: 5, 9: 7, 16: 5, 25: 5, 27: 1, 81: 33, 625: 18}


# the character of CI's "Weyl x's derived from w1 and w2" job at l = 5
WEYL_W_WITNESS_L5 = """
algebra.kind = weyl
algebra.S = 0 1 / -1 0
algebra.exponents = 1 1
root.l = 5
character.x1 = 124/25, 248/25, 217/25, 31/25
character.x2 = -11/8, -11/4, -77/32, -11/32
character.y1 = 1, 0, 0, 0
character.y2 = 32, 0, 0, 0
character.witness.w1 = 2, 0, 0, 0
character.witness.w2 = -3, 0, 0, 0
character.witness.y1 = 1, 0, 0, 0
character.witness.y2 = 2, 0, 0, 0
"""


def _residue_fibers(r3, r5):
    """Every fiber of _table_fibers and _certificate_cases, and the CI's
    l = 5 Weyl character."""
    yield from _table_fibers(r3, r5)
    yield from _certificate_fibers()
    spec = cli.parse_jobspec(WEYL_W_WITNESS_L5)
    model = cli.build_model(spec)
    yield fiber.fiber_algebra(model, cli.character_from_spec(spec, model, r5),
                              r5)


def test_residue_operators_are_the_images_of_the_exact_ones(r3, r5):
    # the recurrence over F_p against the entrywise reduction of its exact
    # rows; both refuse a character value with p in its denominator
    dims = Counter()
    for A in _residue_fibers(r3, r5):
        p, image = residue_map(A.root)
        got = A.operators(image, p.__rmod__)
        assert got == _explicit_operators(A.left)(image, p.__rmod__)
        assert all(0 < x < p for rows in got for row in rows
                   for x in row.values())
        dims[A.dim] += 1
    assert dims == {4: 5, 5: 1, 9: 12, 16: 5, 25: 9, 81: 36, 625: 18}
    r = cyclotomic_build(3)
    p, image = residue_map(r)
    W = models.build_weyl([[0]], [1])
    chi = make_character(r, {"y1": Fraction(1, p), "x1": 1}).check(W, r)
    A = fiber.fiber_algebra(W, chi, r)
    for hook in (A.operators, _explicit_operators(A.left)):
        with pytest.raises(exactnum.NotPIntegral):
            hook(image, p.__rmod__)


# The sparse rank kernel mod p against the dense one it replaced.

def _rank_mod_p_reference(vectors, p, limit=None):
    """Rank over F_p of integer vectors, dense: every kept row is rebuilt
    with % p on every entry, and reduces each later vector in the order it
    was kept."""
    rows = []
    for vec in vectors:
        if len(rows) == limit:
            break
        cur = [x % p for x in vec]
        for lead, row in rows:
            f = cur[lead]
            if f:
                cur = [(a - f * b) % p for a, b in zip(cur, row)]
        lead = next((j for j, x in enumerate(cur) if x), None)
        if lead is not None:
            inv = pow(cur[lead], -1, p)
            rows.append((lead, [x * inv % p for x in cur]))
    return len(rows)


def _random_int_rows(rng, p, m, n, density):
    """m integer rows of width n: entries negative, at least p or multiples
    of p, a share density of them nonzero, with zero rows and rows repeated
    up to a multiple."""
    pick = (lambda: rng.randrange(-3 * p, 3 * p), lambda: rng.randrange(-2, 3),
            lambda: p * rng.randrange(-2, 3))
    rows = []
    for _ in range(m):
        t = rng.random()
        if rows and t < 0.15:
            k = rng.randrange(-2, 3)
            rows.append([k * x for x in rng.choice(rows)])
        elif t < 0.25:
            rows.append([0] * n)
        else:
            rows.append([rng.choice(pick)() if rng.random() < density else 0
                         for _ in range(n)])
    return rows


def _reads_before_limit(rows, p, limit):
    """The number of rows a rank read with limit takes from a stream: up to
    the first prefix whose rank reaches limit, or all of them."""
    return next((t for t in range(len(rows) + 1)
                 if _rank_mod_p_reference(rows[:t], p) == limit), len(rows))


def test_rank_mod_p_matches_the_dense_reference():
    rng = random.Random(24)
    big = exactnum.residue_prime(5)[0]
    for _ in range(300):
        p = rng.choice((2, 3, 7, big))
        n = rng.randrange(1, 11)
        rows = _random_int_rows(rng, p, rng.randrange(0, 14), n,
                                rng.choice((0.2, 0.6, 1.0)))
        assert fiber.rank_mod_p(rows, p) == _rank_mod_p_reference(rows, p)
        for limit in range(n + 1):
            reads = []

            def stream():
                for t, row in enumerate(rows):
                    reads.append(t)
                    yield row

            got = fiber.rank_mod_p(stream(), p, limit)
            assert got == _rank_mod_p_reference(rows, p, limit)
            # a lazy stream is not read past the row that reaches limit
            assert len(reads) == _reads_before_limit(rows, p, limit)


def test_rank_mod_p_on_the_census_blocks(r3, r5):
    # every gram block and commutator stream of the fibers of
    # _residue_fibers, mod p; the block of -d is the transpose of the block
    # of d, so their ranks agree, mod p and (to dim 81) over Q(eps)
    pairs = 0
    for A in _residue_fibers(r3, r5):
        shape = fiber._TableShape(A)
        passes = [fiber._residue_scalars(A, shape)]
        if A.dim <= 81:
            passes.append(fiber._exact_scalars(A, shape))
        for scalars in passes:
            every = range(len(shape.comps))
            blocks = list(fiber._gram_blocks(A, shape, scalars,
                                             every).values())
            if scalars.p is None:
                ranks = [len(fiber.rref_c(block)[1]) for block in blocks]
            else:
                ranks = [fiber.rank_mod_p(block, scalars.p)
                         for block in blocks]
                assert ranks == [_rank_mod_p_reference(block, scalars.p)
                                 for block in blocks]
                for d, comp in enumerate(shape.comps):
                    comms = list(fiber._commutators(shape, scalars, d))
                    for limit in (None, len(comp) - 1, len(comp)):
                        assert fiber.rank_mod_p(comms, scalars.p, limit) == \
                            _rank_mod_p_reference(comms, scalars.p, limit)
            for d, m in enumerate(shape.minus):
                if m is not None:
                    assert blocks[m] == [list(col) for col in zip(*blocks[d])]
                    assert ranks[m] == ranks[d]
                    pairs += m != d
    assert pairs


def test_left_operator_recurrence_stops_on_a_loop(r3):
    # delta_(a, b) = a^2 b^2 does not live on the later generator, which a
    # presentation refuses; set past that check, it sends the recurrence
    # back to a row it is still building
    P = engine.AlgebraPresentation(["a", "b"], 2, [[0, 0], [0, 0]])
    P.delta = {(0, 1): engine.Element(2, {(2, 2): 1})}
    basis = [tuple(v) for v in iproduct(range(3), repeat=2)]
    index = {v: i for i, v in enumerate(basis)}
    with pytest.raises(engine.ValidationFailed, match="did not terminate"):
        fiber._table_left(P, r3, [r3.one()] * 2, basis, index)


def test_weyl_table_characters_count_without_exact_elimination(
        r3, monkeypatch):
    # the covered and uncovered characters of the `weyl-table` benchmark,
    # and every fiber of _certificate_cases with no radical: where every
    # gram pair and every non-unit component is full mod p and the unit's
    # has rank size - 1, nothing is eliminated over Q(eps) and no exact
    # operator, left or right, is built.  The fibers with no radical that
    # need an exact elimination have more than one block, and the fibers
    # with a radical eliminate over Q(eps) only in the degrees that fall
    # short mod p.
    fibers = list(_weyl_n2_table_fibers(r3))[:2]
    expected = [fiber.census(A) for A in fibers]
    refusing = [True]
    rref_c, exact_scalars = fiber.rref_c, fiber._exact_scalars
    table_left = fiber._table_left

    class Refused(AssertionError):
        pass

    def refuse(real):
        def call(*args, **kwargs):
            if refusing[0]:
                raise Refused("exact work in a certified census")
            return real(*args, **kwargs)
        return call

    def build(P, r, chi, basis, index, image=None, norm=None):
        if image is None and refusing[0]:
            raise Refused("exact operators built in a certified census")
        return table_left(P, r, chi, basis, index, image, norm)

    monkeypatch.setattr(fiber, "rref_c", refuse(rref_c))
    monkeypatch.setattr(fiber, "_exact_scalars", refuse(exact_scalars))
    monkeypatch.setattr(fiber, "_table_left", build)
    fibers = list(_weyl_n2_table_fibers(r3))[:2]
    assert [fiber.census(A) for A in fibers] == expected
    assert [(res.rad_dim, res.count) for res in expected] == [(0, 1), (0, 1)]
    calls = _exact_calls(monkeypatch)
    outcomes = Counter()
    for A in _certificate_fibers():
        try:
            counted = fiber._census_table(A)
        except Refused:
            refusing[0] = False
            calls.clear()
            counted = fiber._census_table(A)
            refusing[0] = True
            if counted[0]:
                assert calls["_commutators"] < len(set(A.degrees))
                outcomes["radical"] += 1
            else:
                assert counted[1] > 1
                outcomes["eliminated"] += 1
            continue
        assert counted == (0, 1, A.dim)
        outcomes["certified"] += 1
    assert outcomes == {"certified": 49, "eliminated": 3, "radical": 19}


def _cyclic_group_algebra(r, graded):
    """The group algebra of Z/l on the powers 1, x, ..., x^(l-1) of its
    generator x, whose left operator is the cyclic shift: commutative and
    semisimple, with l blocks of size 1."""
    l, one = r.l, r.one()
    return fiber.FDAlgebra(
        dim=l, root=r, basis_labels=[(k,) for k in range(l)],
        monomial=False, unit_index=0, gens=[1],
        operators=_explicit_operators([[{(k + 1) % l: one}
                                        for k in range(l)]]),
        degrees=[(k,) for k in range(l)] if graded else None)


def test_trace_bound_closes_the_unit_component(monkeypatch):
    # J = 0 and [A, A] = 0.  Graded by Z/l, every component has size 1; the
    # bound closes the unit's, and the l - 1 others are eliminated exactly
    # at rank 0.  Ungraded, the one component has size l and rank
    # 0 < l - 1, so it is still eliminated exactly.
    real = fiber.rref_c
    limits = []

    def spy(vectors, limit=None):
        limits.append(limit)
        return real(vectors, limit)

    monkeypatch.setattr(fiber, "rref_c", spy)
    for l in (3, 5):
        r = cyclotomic_build(l)
        for graded, calls in ((True, [1] * (l - 1)), (False, [l - 1])):
            limits.clear()
            res = fiber.census(_cyclic_group_algebra(r, graded))
            assert (res.rad_dim, res.count, res.blocks) == (0, l, [1] * l)
            assert limits == calls


def test_census_rejects_a_product_in_the_wrong_degree(r3):
    # one entry of one left-operator row moved to a basis element of another
    # degree, every label intact, in the operators that each pass builds
    W, chi = next(_weyl_n1_characters(r3))
    A = fiber.fiber_algebra(W, chi, r3)
    fiber.census(A)
    j, row = next((j, row) for j, row in enumerate(A.left[1]) if row)
    k = next(iter(row))
    m = next(m for m in range(A.dim) if A.degrees[m] != A.degrees[k])

    def tampered(image=None, norm=None):
        left = A.operators(image, norm)
        moved = dict(left[1][j])
        moved[m] = moved.pop(k)
        left[1][j] = moved
        return left

    broken = dataclasses.replace(A, operators=tampered)
    shape = fiber._TableShape(broken)
    for census_pass in (lambda B, _: fiber._census_table(B), _census_exact,
                        lambda B, _: fiber.census(B)):
        with pytest.raises(engine.ValidationFailed, match="homogeneous"):
            census_pass(broken, shape)
