import math
import random

import pytest

from qorder.exactnum import QLaurent, cyclotomic_build
from qorder import engine, models, strata
from qorder.engine import Element
from qorder.zlattice import NotSkew, is_skew
from conftest import frame_table, weyl_frame_table
from test_acceptance import all_skew, sample_skew, weyl_table_shapes


def test_build_twisted_presets():
    m = models.build_twisted([[0, 1], [-1, 0]], 2)
    assert m.gens == ["x1", "x2"]
    assert m.presentation.n_poly == 2
    m0 = models.build_twisted([[0, 0], [0, 0]], 0)
    assert all(m0.presentation.is_invertible(i) for i in range(2))


def test_borel_preset():
    b = models.build_borel_sl2()
    assert b.kind == "borel-sl2"
    assert b.gens == ["f", "k"]
    assert b.S == [[0, 2], [-2, 0]]
    assert b.presentation.n_poly == 1
    # k f = q^-2 f k
    w = engine.normal_form([1, 0], b.presentation)
    assert w == Element.monomial(2, (1, 1), QLaurent.q_power(-2))
    assert b.admissibility(3)
    assert not b.admissibility(2)


def test_weyl_matrices_n1():
    wm = models.build_weyl_matrices([[0]], [1])
    assert wm.texp == [[0]]
    assert wm.uexp == [[1]]
    assert wm.sstar == [[0, -1], [1, 0]]


def test_weyl_matrices_n2():
    wm = models.build_weyl_matrices([[0, 1], [-1, 0]], [1, 1])
    assert wm.texp[0][1] == 2 and wm.texp[1][0] == -2
    assert wm.uexp == [[1, -1], [2, 1]]
    assert is_skew(wm.sstar)


def test_weyl_matrices_reject_zero_exponent():
    with pytest.raises(ValueError):
        models.build_weyl_matrices([[0]], [0])
    with pytest.raises(NotSkew):
        models.build_weyl_matrices([[0, 1], [1, 0]], [1, 1])


def test_build_weyl_relation():
    W = models.build_weyl([[0]], [1])
    P = W.presentation
    x = Element.gen(P.N, W.xpos(1))
    y = Element.gen(P.N, W.ypos(1))
    # x y = q y x + 1
    assert engine.mul(P, x, y) == \
        engine.mul(P, y, x).scale(QLaurent.q_power(1)) + Element.one(P.N)
    # w_1 = 1 + (q - 1) y x and [x, y] = w_1
    assert W.w[1] == Element(P.N, {(0, 0): QLaurent.one(),
                                   (1, 1): QLaurent({1: 1, 0: -1})})
    assert engine.commutator(P, x, y) == W.w[1]


def test_build_weyl_n2_lower_terms():
    W = models.build_weyl([[0, 1], [-1, 0]], [1, 1])
    P = W.presentation
    x2 = Element.gen(P.N, W.xpos(2))
    y2 = Element.gen(P.N, W.ypos(2))
    prod = engine.mul(P, x2, y2)
    # relation for the second pair includes (q_1 - 1) y_1 x_1 + 1
    expect = engine.mul(P, y2, x2).scale(QLaurent.q_power(1)) + W.w[1]
    assert prod == expect


def test_weyl_exponent_roundtrip():
    # extracting the q-exponents from the built presentation reproduces
    # the assembled skew matrix
    for S, exps in (([[0]], [1]), ([[0, 1], [-1, 0]], [1, 2]),
                    ([[0, -2], [2, 0]], [3, 1])):
        W = models.build_weyl(S, exps)
        P = W.presentation
        n = W.n
        got = [[0] * (2 * n) for _ in range(2 * n)]
        order = [("y", i) for i in range(1, n + 1)] + \
                [("x", i) for i in range(1, n + 1)]
        pos = {("y", i): W.ypos(i) for i in range(1, n + 1)}
        pos.update({("x", i): W.xpos(i) for i in range(1, n + 1)})
        for a, ga in enumerate(order):
            for b, gb in enumerate(order):
                got[a][b] = P.S[pos[ga]][pos[gb]]
        assert got == W.matrices.sstar


def test_f_elements_n1(r3):
    W = models.build_weyl([[0]], [1])
    names, _, kappa, chain = models.f_elements_and_z0_brackets(W, r3)
    assert names == ["x1", "y1"] and list(chain) == ["w1"]
    notes, gammas, consts, _ = weyl_table_shapes(W, r3)
    assert notes == []
    # frozen: gamma_1 = -(1 - eps)^3 = 3 + 6 eps
    gamma = gammas[0]
    e = r3.eps()
    assert gamma == chain["w1"][(1, 1)]
    assert gamma == -((r3.one() - e) ** 3)
    assert gamma == r3.scalar(3) + e * 6
    assert kappa == r3.scalar(9) * e.inverse()
    # diagonal additive constant times gamma equals kappa * s_1
    assert consts[0] * gamma == kappa


def test_f_elements_n1_l2():
    r2 = cyclotomic_build(2)
    W = models.build_weyl([[0]], [1])
    notes, gammas, _, _ = weyl_table_shapes(W, r2)
    # at l = 2: f_1 = 1 - 4 x^2 y^2 (hand expansion of (1 + (eps-1) y x)^2)
    assert gammas[0] == r2.scalar(-4)
    assert notes == []


@pytest.mark.parametrize("build, stray", [
    # a lone x_n^l term, n = 1 and n = 2
    ((([[0]], [1])), (1, 0)),
    ((([[0, 1], [-1, 0]], [1, 1])), (0, 1, 0, 0)),
    # the x_2^l y_2^l term, past the bound k <= 1
    ((([[0, 1], [-1, 0]], [1, 1])), (0, 1, 0, 1)),
])
def test_table_shapes_flag_a_stray_f1_term(r3, build, stray):
    W = models.build_weyl(*build)

    def with_stray(model, r):
        names, exprs, kappa, chain = weyl_frame_table(model, r)
        chain = dict(chain, w1=dict(chain["w1"]))
        chain["w1"][stray] = r.one()
        return names, exprs, kappa, chain

    assert weyl_table_shapes(W, r3)[0] == []
    notes = weyl_table_shapes(W, r3, with_stray)[0]
    assert "f_1 has terms outside 1 + sum gamma_k x_k y_k" in notes


def test_f_elements_n2(r3):
    W = models.build_weyl([[0, 1], [-1, 0]], [1, 1])
    notes, gammas, _, _ = weyl_table_shapes(W, r3)
    assert notes == []
    assert all(not g.is_zero() for g in gammas)
    # f_2 - f_1 lies in the ideal of x2^l y2^l
    chain = models.f_elements_and_z0_brackets(W, r3)[3]
    f2 = dict(chain["w2"])
    for key, c in chain["w1"].items():
        cur = f2.get(key, r3.zero()) - c
        if cur:
            f2[key] = cur
        else:
            f2.pop(key, None)
    for key in f2:
        assert key[1] >= 1 and key[3] >= 1  # x2, y2 exponents


def test_bracket_table_shapes_n2(r3):
    W = models.build_weyl([[0, 1], [-1, 0]], [1, 1])
    names, exprs, kappa, _ = models.f_elements_and_z0_brackets(W, r3)
    n = 2
    assert names == ["x1", "x2", "y1", "y2"]
    mats = W.matrices
    # off-diagonal brackets are kappa * exponent * product
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i < j:
                expr = exprs[("x%d" % i, "x%d" % j)]
                key = tuple(1 if t in (i - 1, j - 1) else 0
                            for t in range(2 * n))
                assert set(expr) <= {key}
                got = expr.get(key, r3.zero())
                assert got == kappa * r3.scalar(mats.texp[i - 1][j - 1])
            if i != j:
                expr = exprs[("x%d" % i, "y%d" % j)]
                key = tuple(1 if t in (i - 1, n + j - 1) else 0
                            for t in range(2 * n))
                assert set(expr) <= {key}
                got = expr.get(key, r3.zero())
                assert got == kappa * r3.scalar(mats.uexp[i - 1][j - 1])


def _engine_table(model, r):
    """The twisted table derived with engine Poisson brackets."""
    return frame_table(model.presentation, r, range(model.N), {})


def test_twisted_z0_table(r3, r5):
    # the paper's constant l^2 / eps, from the engine table
    m = models.build_twisted([[0, 1], [-1, 0]], 2)
    for r in (r3, r5):
        names, exprs, kappa, chain = _engine_table(m, r)
        assert names == ["x1", "x2"] and chain == {}
        e = r.eps()
        assert kappa == r.scalar(r.l * r.l) * e.inverse()
        assert exprs[("x1", "x2")] == {(1, 1): kappa}
    m0 = models.build_twisted([[0, 0], [0, 0]], 2)
    names, exprs, kappa, _ = _engine_table(m0, r3)
    assert kappa is None
    assert all(not e for e in exprs.values())


def _assert_same_table(got, want, case):
    """Names, pair and chain order, every coefficient in order, kappa."""
    assert got[0] == want[0], case
    assert got[2] == want[2], case
    for g, w in ((got[1], want[1]), (got[3], want[3])):
        assert list(g) == list(w), case
        for label, expr in w.items():
            assert list(g[label].items()) == list(expr.items()), (case, label)


def _assert_same_twisted_table(model, r):
    got = models.twisted_z0_table(model, r)
    _assert_same_table(got, _engine_table(model, r),
                       (model.S, model.n_poly, r))
    assert got[3] == {}


def test_twisted_table_matches_engine():
    """The closed-form twisted table against the engine table: names, pair
    order, every coefficient and kappa.  Every sweep shape (N=2 at l = 3
    and 5, N=3 at l = 3, S entries in -2..2, every n_poly, every primitive
    index), N=4 at l = 5 and 7, the Borel preset, and l = 2, 4, 6, 9 with S
    entries in -4..4."""
    rng = random.Random(2026)
    cases = []
    for N, ls in ((2, (3, 5)), (3, (3,))):
        for S in all_skew(N):
            cases += [(S, n_poly, l, j) for l in ls
                      for j in range(1, l) if math.gcd(j, l) == 1
                      for n_poly in range(N + 1)]
    for l in (5, 7):
        cases += [(S, rng.randint(0, 4), l, rng.randrange(1, l))
                  for S in sample_skew(rng, 4, 6)]
    for l in (2, 4, 6, 9):
        units = [j for j in range(1, l) if math.gcd(j, l) == 1]
        cases += [(S, rng.randint(0, N), l, rng.choice(units))
                  for N in (2, 3, 4) for S in sample_skew(rng, N, 4, span=4)]
    for S, n_poly, l, j in cases:
        _assert_same_twisted_table(models.build_twisted(S, n_poly),
                           cyclotomic_build(l, j))
    for l in (2, 3, 4, 5, 7):
        for j in range(1, l):
            if math.gcd(j, l) == 1:
                _assert_same_twisted_table(models.build_borel_sl2(),
                                   cyclotomic_build(l, j))
    assert len(cases) > 1000


def _table_or_error(build, model, r):
    try:
        return build(model, r)
    except ValueError as exc:
        return str(exc)


def test_weyl_table_matches_engine():
    """The closed-form Weyl table against the engine table: names, pair
    order, every coefficient, kappa and the chain w_k^l, k = 1..n; and the
    same ValueError from both at an inadmissible root.  n = 1 at l = 2..5
    and 7 with every primitive index, n = 2 at l = 2..5 with two, n = 3 at
    l = 2, 3 and 5."""
    cases = [([[0]], [s], l, j) for s in (1, -1, 2, 3)
             for l in (2, 3, 4, 5, 7) for j in range(1, l)
             if math.gcd(j, l) == 1]
    for a in (-1, 0, 2):
        for exps in ([1, 1], [1, -2], [2, 3], [-1, 2]):
            cases += [([[0, a], [-a, 0]], exps, l, j) for l in (2, 3, 4, 5)
                      for j in (1, l - 1)]
    for S in ([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]],
              [[0, -2, 0], [2, 0, 1], [0, -1, 0]]):
        for exps in ([1, 1, 1], [1, -1, 2]):
            cases += [(S, exps, l, j) for l, j in ((2, 1), (3, 1), (3, 2),
                                                    (5, 3))]
    outcomes = {True: 0, False: 0}
    for S, exps, l, j in cases:
        W, r = models.build_weyl(S, exps), cyclotomic_build(l, j)
        got = _table_or_error(models.f_elements_and_z0_brackets, W, r)
        want = _table_or_error(weyl_frame_table, W, r)
        case = (S, exps, l, j)
        if isinstance(want, str):
            assert got == want == "root order %d is not admissible here" % l
        else:
            _assert_same_table(got, want, case)
        outcomes[isinstance(want, str)] += 1
    assert outcomes[True] > 50 and outcomes[False] > 100


def test_pair_exponent_table(r5, full_rows):
    # read on the stratum where every y and w survives, so both x's
    # are derived: x_i w_j = q^(s_i) w_j x_i for i <= j, commute for i > j
    W = models.build_weyl([[0, 1], [-1, 0]], [1, 2])
    st = strata.enumerate_strata(W, r5).strata[0]
    assert st.stratum_id == "T1=[];T2=[];T3=[]"
    pos = {s.label: a for a, s in enumerate(st.survivors)}
    assert set(pos) == {"y1", "y2", "w1", "w2"}
    full = dict(zip(W.gens, full_rows[0]))
    assert full["x1"][pos["w2"]] == 1
    assert full["x2"][pos["w2"]] == 2
    assert full["x2"][pos["w1"]] == 0
    assert st.skew[pos["y1"]][pos["w1"]] == full["y1"][pos["w1"]] == -1
    assert st.skew[pos["w1"]][pos["y1"]] == 1
    assert st.skew[pos["w1"]][pos["w2"]] == 0


def test_tampered_chain_table_fails_the_build(monkeypatch):
    # the build checks every exponent of the chain table with the engine:
    # any one entry off by one fails it, w-w pairs included
    real = models.weyl_chain_skew
    keys = list(real([1, 2]))
    assert ("w1", "w2") in keys and len(keys) == 9
    for key in keys:
        def tampered(exps):
            table = real(exps)
            table[key] += 1
            return table

        monkeypatch.setattr(models, "weyl_chain_skew", tampered)
        with pytest.raises(engine.ValidationFailed,
                           match="%s %s commutation fails" % key):
            models.build_weyl([[0, 1], [-1, 0]], [1, 2])
