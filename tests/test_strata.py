import random
from itertools import combinations, product as iproduct

import pytest

from qorder.exactnum import cyclotomic_build
from qorder import cli, engine, models, strata
from qorder.engine import Element
from qorder.exactnum import QLaurent
from qorder.zlattice import identity, mat_mul, solve_int, transpose
from conftest import has_derived, make_character, monomial_l_value
from test_acceptance import _sweep_plan


def test_a1_enumeration_counts(r3):
    m = models.build_twisted([[0, 1], [-1, 0]], 2)
    ctx = strata.enumerate_strata(m, r3)
    assert [st.stratum_id for st in ctx.strata] == \
        ["T=00", "T=10", "T=01", "T=11"]
    m0 = models.build_twisted([[0, 1], [-1, 0]], 0)
    ctx0 = strata.enumerate_strata(m0, r3)
    assert len(ctx0.strata) == 1
    assert ctx0.strata[0].stratum_id == "T=-"


def test_a1_stratum_data(r3):
    m = models.build_twisted([[0, 1], [-1, 0]], 2)
    ctx = strata.enumerate_strata(m, r3)
    by_id = {st.stratum_id: st for st in ctx.strata}
    assert (by_id["T=00"].torus.k, by_id["T=00"].torus.t) == (1, 0)
    assert (by_id["T=10"].torus.p, by_id["T=10"].torus.t) == (1, 1)
    assert by_id["T=11"].torus.m == 0


def test_weyl_triples():
    assert strata.weyl_admissible_triples(1) == [
        (frozenset(), frozenset(), frozenset()),
        (frozenset(), frozenset(), frozenset({1})),
    ]
    triples = strata.weyl_admissible_triples(2)
    assert len(triples) == 6
    # oracle: brute filter over all nested triples
    idx = [1, 2]
    expect = []
    subsets = [frozenset(c) for size in range(3)
               for c in combinations(idx, size)]
    for T3 in subsets:
        for T2 in subsets:
            for T1 in subsets:
                if not (T1 <= T2 <= T3):
                    continue
                if any(i == 1 or i - 1 not in T3 or i not in T3 for i in T2):
                    continue
                expect.append((T1, T2, T3))
    assert sorted(map(tuple, triples)) == sorted(map(tuple, expect))


def test_weyl_strata_n1(r3):
    W = models.build_weyl([[0]], [1])
    ctx = strata.enumerate_strata(W, r3)
    assert len(ctx.strata) == 2
    a, b = ctx.strata
    assert [s.label for s in a.survivors] == ["y1", "w1"]
    assert (a.torus.k, a.torus.p, a.torus.t) == (1, 0, 0)
    assert b.killed_labels == ["w1"]
    assert [s.label for s in b.survivors] == ["y1"]
    assert (b.torus.k, b.torus.p, b.torus.t) == (0, 1, 1)


def test_locate_a1(r3):
    m = models.build_twisted([[0, 1], [-1, 0]], 2)
    ctx = strata.enumerate_strata(m, r3)
    chi = make_character(r3, {"x1": 0, "x2": 1}, {"x2": 1}).check(m, r3)
    loc = strata.locate(chi, ctx)
    assert isinstance(loc, strata.Located)
    assert loc.stratum.stratum_id == "T=10"


def test_locate_weyl(r3):
    W = models.build_weyl([[0]], [1])
    ctx = strata.enumerate_strata(W, r3)
    chi = make_character(r3, {"x1": 1, "y1": 1},
                         {"x1": 1, "y1": 1}).check(W, r3)
    loc = strata.locate(chi, ctx)
    assert loc.stratum.stratum_id == "T1=[];T2=[];T3=[]"
    # the edge character misses both strata, with named reasons
    chi0 = make_character(r3, {"x1": 0, "y1": 0}).check(W, r3)
    un = strata.locate(chi0, ctx)
    assert isinstance(un, strata.Uncovered)
    assert dict(un.diagnostics) == {
        "T1=[];T2=[];T3=[]": "needs y1^l != 0",
        "T1=[];T2=[];T3=[1]": "needs w1^l = 0",
    }


def test_locate_weyl_f_zero(r3):
    W = models.build_weyl([[0]], [1])
    ctx = strata.enumerate_strata(W, r3)
    gamma = models.f_elements_and_z0_brackets(W, r3)[3]["w1"][(1, 1)]
    aval = -(gamma.inverse())
    chi = strata.Character({"x1": aval, "y1": r3.one()},
                           {"y1": r3.one()}).check(W, r3)
    loc = strata.locate(chi, ctx)
    assert isinstance(loc, strata.Located)
    assert loc.stratum.stratum_id == "T1=[];T2=[];T3=[1]"


def test_a1_locate_never_uncovered_exhaustive():
    rng = random.Random(6)
    values = [0, 1, "eps"]
    for _ in range(40):
        N = rng.randint(1, 4)
        S = [[0] * N for _ in range(N)]
        for i in range(N):
            for j in range(i + 1, N):
                S[i][j] = rng.randint(-2, 2)
                S[j][i] = -S[i][j]
        n_poly = rng.randint(0, N)
        r = cyclotomic_build(3)
        m = models.build_twisted(S, n_poly)
        if not m.admissibility(3):
            continue
        ctx = strata.enumerate_strata(m, r)
        gens = m.presentation.gens
        for pattern in iproduct(values, repeat=n_poly):
            vals = {}
            for g, v in zip(gens, pattern):
                vals[g] = r.eps() if v == "eps" else r.scalar(v)
            for g in gens[n_poly:]:
                vals[g] = r.one()
            chi = strata.Character(vals).check(m, r)
            loc = strata.locate(chi, ctx)
            assert isinstance(loc, strata.Located)
            expect = frozenset(i for i in range(n_poly)
                               if vals[gens[i]].is_zero())
            assert loc.stratum.pattern == expect


def test_multiple_strata_is_reported(r3):
    # a corrupted stratum family with a duplicated stratum must surface the
    # ambiguity instead of picking one silently
    m = models.build_twisted([[0, 1], [-1, 0]], 2)
    ctx = strata.enumerate_strata(m, r3)
    ctx.strata.append(ctx.strata[1])
    chi = make_character(r3, {"x1": 0, "x2": 1}, {"x2": 1}).check(m, r3)
    with pytest.raises(strata.MultipleStrata):
        strata.locate(chi, ctx)


def test_character_invariants(r3):
    m = models.build_twisted([[0, 1], [-1, 0]], 1)
    # invertible generator with zero value is rejected
    with pytest.raises(ValueError, match="invertible"):
        make_character(r3, {"x1": 1, "x2": 0}).check(m, r3)
    # bad witness rejected
    with pytest.raises(ValueError, match="witness"):
        make_character(r3, {"x1": 1, "x2": 1}, {"x1": 2}).check(m, r3)
    # missing generator rejected
    with pytest.raises(ValueError, match="misses"):
        make_character(r3, {"x1": 1}).check(m, r3)


def test_monomial_value_consistency(r3):
    m = models.build_twisted([[0, 1], [-1, 0]], 2)
    ctx = strata.enumerate_strata(m, r3)
    st = ctx.strata[0]
    chi = make_character(r3, {"x1": 1, "x2": 1},
                         {"x1": 1, "x2": 1}).check(m, r3)
    for u in ([1, 0], [0, 1], [1, 1], [2, 1]):
        val = strata.monomial_value(
            st.skew, [s.label for s in st.survivors], chi, r3, u)
        assert val ** 3 == monomial_l_value(st, ctx, chi, u)


def test_table_built_once_per_enumeration(r3, tmp_path, capsys,
                                          monkeypatch):
    # every family builds its l-center table with its strata, once
    calls = []
    real = models._z0_table

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(models, "_z0_table", counted)
    for model in (models.build_twisted([[0, 1], [-1, 0]], 2),
                  models.build_borel_sl2(),
                  models.build_weyl([[0, 1], [-1, 0]], [1, 1])):
        calls.clear()
        ctx = strata.enumerate_strata(model, r3)
        assert len(calls) == 1
        assert ctx.table[0] == [model.gens[i] for i in calls[0]]
    # the table's admissibility check still fails an inadmissible Weyl root
    job = tmp_path / "job.txt"
    job.write_text("algebra.kind = weyl\nalgebra.S = 0\n"
                   "algebra.exponents = 3\nroot.l = 3\n")
    calls.clear()
    assert cli.main(["strata", "--spec", str(job)]) == 2
    assert "root order 3 is not admissible here" in capsys.readouterr().err
    assert calls == []


def test_frame_inverse_matches_the_integer_solve():
    # every stratum of the acceptance sweep's twisted family and of the
    # quantum Weyl algebras n = 1 and 2: row s of the stored inverse is the
    # integer solution of basis^T c = e_s
    jobs = [(models.build_weyl([[0]], [1]), l) for l in (3, 5)]
    jobs += [(models.build_weyl(S, exps), l) for l in (3, 5)
             for S, exps in (([[0, 1], [-1, 0]], [1, 1]),
                             ([[0, 0], [0, 0]], [1, 2]))]
    for S, ls, np_cap in _sweep_plan():
        for l in ls:
            for n_poly in range((len(S) if np_cap is None else np_cap) + 1):
                jobs.append((models.build_twisted(S, n_poly), l))
    kinds = set()
    for model, l in jobs:
        if not model.admissibility(l):
            continue
        for st in strata.enumerate_strata(model, cyclotomic_build(l)).strata:
            ts = st.torus
            m = ts.m
            assert mat_mul(ts.basis, ts.inverse) == identity(m)
            for s in range(m):
                e_s = [int(t == s) for t in range(m)]
                assert ts.inverse[s] == solve_int(transpose(ts.basis), e_s)
            kinds.add((has_derived(model, st), m > 0, ts.k > 0, ts.p > ts.t))
    # (derived generators, m > 0, pairs, extending z's): every shape the
    # families have; only the Weyl strata derive generators
    assert kinds == {(False, False, False, False), (False, True, False, False),
                     (False, True, False, True), (False, True, True, False),
                     (False, True, True, True), (True, True, False, False),
                     (True, True, True, False)}


def _engine_exponent(P, a, b):
    """c with a b = q^c b a, found by search, or None when a and b do not
    q-commute."""
    ab, ba = engine.mul(P, a, b), engine.mul(P, b, a)
    for c in range(-12, 13):
        if ab == ba.scale(QLaurent.q_power(c)):
            return c
    return None


def test_survivors_q_commute_exactly(full_rows):
    # every survivor pair and every generator-survivor pair of Weyl and
    # twisted strata: the exponent the stratum reads from P.S or from the
    # model's chain table is the one the engine finds by search, and the
    # Weyl strata meet every entry of that table, w-w pairs included; a pair
    # that does not q-commute is a generator outside the survivors with a
    # delta rule, which reads P.S
    jobs = [(models.build_weyl([[0]], [1]), (3, 5)),
            (models.build_weyl([[0, 1], [-1, 0]], [1, 1]), (3, 5)),
            (models.build_weyl([[0, 0], [0, 0]], [1, 2]), (3, 5)),
            (models.build_weyl([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]],
                               [1, 1, 1]), (3, 5)),
            (models.build_weyl([[0, -1], [1, 0]], [2, -1]), (3, 5, 7)),
            (models.build_weyl([[0, 1], [-1, 0]], [3, 1]), (3, 5, 7)),
            (models.build_twisted([[0, 1, 2], [-1, 0, 1], [-2, -1, 0]], 2),
             (3, 5))]
    delta_pairs = 0
    for model, ls in jobs:
        P = model.presentation
        met = set()
        for l in ls:
            if not model.admissibility(l):
                continue
            del full_rows[:]
            ctx = strata.enumerate_strata(model, cyclotomic_build(l))
            assert len(full_rows) == len(ctx.strata)
            for st, full in zip(ctx.strata, full_rows):
                for a, sa in enumerate(st.survivors):
                    for b, sb in enumerate(st.survivors):
                        assert st.skew[a][b] == \
                            _engine_exponent(P, sa.lift, sb.lift)
                        met.add((sa.label, sb.label))
                for g, row in enumerate(full):
                    gen = Element.gen(P.N, g)
                    for s, c in zip(st.survivors, row):
                        found = _engine_exponent(P, gen, s.lift)
                        met.add((P.gens[g], s.label))
                        if found is None:
                            assert (g, s.gen_index) in P.delta or \
                                (s.gen_index, g) in P.delta
                            assert c == P.S[g][s.gen_index]
                            delta_pairs += 1
                        else:
                            assert c == found
        assert met and set(getattr(model, "chain_skew", ())) <= met
    assert delta_pairs


def test_survivors_with_a_delta_rule_raise(r3):
    # x1 and y1 of the Weyl pair do not q-commute: a stratum keeping both
    # is refused, since neither P.S nor the chain table covers the pair
    W = models.build_weyl([[0]], [1])
    P = W.presentation
    survivors = [strata.SurvivorItem(g, Element.gen(P.N, i), i)
                 for i, g in enumerate(P.gens)]
    with pytest.raises(engine.ValidationFailed, match="do not q-commute"):
        strata._stratum(P, r3, None, "x1,y1", [], survivors,
                        chain_skew=W.chain_skew)


def test_chain_table_reads_either_order(r5):
    # the table keys a generator before a w and w_j before w_k, j < k; a
    # stratum whose survivors come in the other order reads -c
    W = models.build_weyl([[0, 1], [-1, 0]], [1, 2])
    st = strata.enumerate_strata(W, r5).strata[0]
    assert [s.label for s in st.survivors] == ["y1", "y2", "w1", "w2"]
    flipped = strata._stratum(W.presentation, r5, None, "flipped", [],
                              st.survivors[::-1], chain_skew=W.chain_skew)
    assert flipped.skew == [row[::-1] for row in st.skew[::-1]]


def test_weyl_strata_make_no_engine_product(r3, monkeypatch):
    # the Weyl strata read every exponent that the model build checked with
    # the engine: enumerating them multiplies nothing
    W = models.build_weyl([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], [1, 1, 1])
    calls = []
    real_mul, real_terms = engine.mul, engine._Rewriter.mul_terms

    def mul(*args):
        calls.append("mul")
        return real_mul(*args)

    def mul_terms(self, *args):
        calls.append("mul_terms")
        return real_terms(self, *args)

    monkeypatch.setattr(engine, "mul", mul)
    monkeypatch.setattr(engine._Rewriter, "mul_terms", mul_terms)
    ctx = strata.enumerate_strata(W, r3)
    assert len(ctx.strata) == len(strata.weyl_admissible_triples(3)) == 20
    assert calls == []


def test_weyl_strata_have_no_extending_z():
    """No stratum of a quantum Weyl model has an extending z (t = p), so a
    table fiber is never divided by one.  Checked on every model with
    n <= 2, S entries in -2..2 and exponents in {-1, 1, 2, 3}, and on a
    seeded sample of 150 such models with n = 3, at every admissible
    l in {2, 3, 4, 5, 7}."""
    rng = random.Random(30)
    shapes = []
    for n in (1, 2, 3):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        grid = list(iproduct(iproduct(range(-2, 3), repeat=len(pairs)),
                             iproduct((-1, 1, 2, 3), repeat=n)))
        shapes += grid if n < 3 else rng.sample(grid, 150)
    seen = 0
    for entries, exps in shapes:
        n = len(exps)
        S = [[0] * n for _ in range(n)]
        for (i, j), v in zip(combinations(range(n), 2), entries):
            S[i][j], S[j][i] = v, -v
        W = models.build_weyl(S, list(exps))
        for l in (2, 3, 4, 5, 7):
            if not W.admissibility(l):
                continue
            for st in strata.enumerate_strata(W, cyclotomic_build(l)).strata:
                assert st.torus.t == st.torus.p, (S, exps, l, st.stratum_id)
                seen += 1
    assert seen == 6126
