"""Broader coverage: composite root orders and a deep quantum Weyl case."""

from itertools import product as iproduct

from qorder.exactnum import cyclotomic_build
from qorder import fiber, models, stabilizer, strata
from conftest import make_character


def test_composite_root_orders_quantum_plane():
    # composite orders exercise cyclotomic degrees below l - 1
    m = models.build_twisted([[0, 1], [-1, 0]], 2)
    for l in (4, 6):
        r = cyclotomic_build(l)
        assert m.admissibility(l)
        ctx = strata.enumerate_strata(m, r)
        for bits in iproduct((0, 1), repeat=2):
            vals = {g: b for g, b in zip(m.presentation.gens, bits)}
            wits = {g: 1 for g, v in vals.items() if v}
            chi = make_character(r, vals, wits).check(m, r)
            rep = stabilizer.main_theorem_check(m, chi, r, ctx)
            assert rep.verdict == "PASS"
            assert rep.predicted == rep.oracle == l ** rep.t


def test_borel_count_at_l5():
    r = cyclotomic_build(5)
    b = models.build_borel_sl2()
    assert b.admissibility(5)
    ctx = strata.enumerate_strata(b, r)
    chi = make_character(r, {"f": 0, "k": 1}, {"k": 1}).check(b, r)
    rep = stabilizer.main_theorem_check(b, chi, r, ctx)
    assert rep.verdict == "PASS"
    assert rep.predicted == rep.oracle == 5
    chi2 = make_character(r, {"f": 1, "k": 1}, {"f": 1, "k": 1}).check(b, r)
    rep2 = stabilizer.main_theorem_check(b, chi2, r, ctx)
    assert rep2.verdict == "PASS" and rep2.oracle == 1


def test_weyl_n2_strata_shapes(r3):
    W = models.build_weyl([[0, 1], [-1, 0]], [1, 1])
    ctx = strata.enumerate_strata(W, r3)
    shapes = {st.stratum_id: (st.torus.k, st.torus.p, st.torus.t)
              for st in ctx.strata}
    assert shapes == {
        "T1=[];T2=[];T3=[]": (2, 0, 0),
        "T1=[];T2=[];T3=[1]": (1, 1, 1),
        "T1=[];T2=[];T3=[2]": (1, 1, 1),
        "T1=[];T2=[];T3=[1,2]": (1, 0, 0),
        "T1=[];T2=[2];T3=[1,2]": (1, 0, 0),
        "T1=[2];T2=[2];T3=[1,2]": (0, 1, 1),
    }


def test_weyl_n2_killed_w_stratum_full_pipeline(r3):
    # kill w_1: the second pair survives through its w-element, and the
    # generator matrices of both x's come from the w-recursion
    r = r3
    W = models.build_weyl([[0, 1], [-1, 0]], [1, 1])
    ctx = strata.enumerate_strata(W, r)
    e, one = r.eps(), r.one()
    u = (one - e).inverse()
    chi = strata.Character(
        {"x1": u ** 3, "x2": one, "y1": one, "y2": one},
        {"x1": u, "x2": one, "y1": one, "y2": one,
         "w2": e - one}).check(W, r)
    loc = strata.locate(chi, ctx)
    assert loc.stratum.stratum_id == "T1=[];T2=[];T3=[1]"
    assert loc.stratum.torus.t == 1
    reps = fiber.clock_shift_irreps(ctx, loc, chi)
    assert [p.dim for p in reps] == [3, 3, 3]
    assert all(p.verified for p in reps)
    A = fiber.fiber_algebra(W, chi, r)
    res = fiber.census(A, [p.dim for p in reps])
    assert (res.rad_dim, res.count) == (54, 3)
    assert res.blocks_method == "construction"
    g_eps = stabilizer.stabilizer_from_stratum(ctx, loc, chi, "eps")
    g_l0 = stabilizer.stabilizer_from_stratum(ctx, loc, chi, "l0")
    res_eps = stabilizer.rank_and_checks(g_eps)
    res_l0 = stabilizer.rank_and_checks(g_l0)
    assert res_eps.rank == res_l0.rank == 1
    assert stabilizer.psi_check(g_l0, g_eps, r)
    assert res.count == r.l ** res_eps.rank == r.l ** loc.stratum.torus.t
    names, exprs = models.f_elements_and_z0_brackets(W, r)[:2]
    g_lin = stabilizer.linearized_stabilizer(names, exprs,
                                             ctx.frame_values(chi), r)
    assert stabilizer.rank_and_checks(g_lin).rank == 1
