import dataclasses
import json
import random
from pathlib import Path

import pytest

from qorder.exactnum import cyclotomic_build, poly_divmod, poly_trim
from qorder import cli, fiber, models, stabilizer, strata
from qorder.stabilizer import (
    DecompositionInvalid,
    _diagonalizable,
    _diagonalizable_charpoly,
    FDLie,
    HypothesisFailed,
    linearized_stabilizer,
    main_theorem_check,
    psi_check,
    rank_and_checks,
    stabilizer_from_stratum,
)
from conftest import make_character, mat_eye, mat_inv_c, monomial_l_value
from test_acceptance import _sweep_plan


def plane(r):
    m = models.build_twisted([[0, 1], [-1, 0]], 2)
    return m, strata.enumerate_strata(m, r)


def test_stratum_stabilizer_killed_direction(r3):
    m, ctx = plane(r3)
    chi = make_character(r3, {"x1": 0, "x2": 1}, {"x2": 1}).check(m, r3)
    loc = strata.locate(chi, ctx)
    g = stabilizer_from_stratum(ctx, loc, chi, "eps")
    assert g.labels == ["z1^l", "a:x1"]
    assert (g.t_idx, g.n_idx) == ([0], [1])
    vec = g.bracket_of(0, 1)
    # [toral class, killed class] = nonzero multiple of the killed class
    assert vec[0].is_zero() and not vec[1].is_zero()
    res = rank_and_checks(g)
    assert res.rank == 1
    assert res.checks["weight_kernel_dim"] == 0


def test_stratum_stabilizer_torus(r3):
    m, ctx = plane(r3)
    chi = make_character(r3, {"x1": 1, "x2": 1},
                         {"x1": 1, "x2": 1}).check(m, r3)
    loc = strata.locate(chi, ctx)
    g = stabilizer_from_stratum(ctx, loc, chi, "eps")
    assert g.dim == 0
    assert rank_and_checks(g).rank == 0


def test_stratum_stabilizer_commutative(r3):
    m = models.build_twisted([[0, 0], [0, 0]], 2)
    ctx = strata.enumerate_strata(m, r3)
    chi = make_character(r3, {"x1": 0, "x2": 0}).check(m, r3)
    loc = strata.locate(chi, ctx)
    g = stabilizer_from_stratum(ctx, loc, chi, "eps")
    assert all(all(c.is_zero() for c in vec) for vec in g.bracket.values())
    assert rank_and_checks(g).rank == 0


def test_levels_agree_and_psi(r3):
    m, ctx = plane(r3)
    chi = make_character(r3, {"x1": 0, "x2": 1}, {"x2": 1}).check(m, r3)
    loc = strata.locate(chi, ctx)
    g_eps = stabilizer_from_stratum(ctx, loc, chi, "eps")
    g_l0 = stabilizer_from_stratum(ctx, loc, chi, "l0")
    assert rank_and_checks(g_eps).rank == rank_and_checks(g_l0).rank == 1
    assert psi_check(g_l0, g_eps, r3)


def test_hypothesis_failed_on_bad_location(r3):
    m, ctx = plane(r3)
    chi = make_character(r3, {"x1": 0, "x2": 1}, {"x2": 1}).check(m, r3)
    loc = strata.locate(chi, ctx)
    bad = make_character(r3, {"x1": 0, "x2": 0}).check(m, r3)
    with pytest.raises(HypothesisFailed):
        stabilizer_from_stratum(ctx, loc, bad, "eps")


def test_rank_and_checks_textbook(r3):
    r = r3
    # abelian with an all-toral candidate: everything falls in the kernel
    g = FDLie(labels=["a", "b", "c"], root=r, bracket={},
              t_idx=[0, 1, 2], n_idx=[])
    res = rank_and_checks(g)
    assert res.rank == 0 and res.checks["weight_kernel_dim"] == 3
    # [e, x] = x: the standard solvable pair
    g2 = FDLie(labels=["e", "x"], root=r,
               bracket={(0, 1): [r.zero(), r.one()]}, t_idx=[0], n_idx=[1])
    assert rank_and_checks(g2).rank == 1


def test_rank_and_checks_rejects_bad_split(r3):
    r = r3
    # t candidate that does not commute
    g = FDLie(labels=["a", "b", "c"], root=r,
              bracket={(0, 1): [r.zero(), r.zero(), r.one()]},
              t_idx=[0, 1], n_idx=[2])
    with pytest.raises(DecompositionInvalid):
        rank_and_checks(g)
    # non-diagonalizable toral action: [e, x] = x + y, [e, y] = y
    g2 = FDLie(labels=["e", "x", "y"], root=r,
               bracket={(0, 1): [r.zero(), r.one(), r.one()],
                        (0, 2): [r.zero(), r.zero(), r.one()]},
               t_idx=[0], n_idx=[1, 2])
    with pytest.raises(DecompositionInvalid):
        rank_and_checks(g2)
    # sl2 with n = span(x, y): [x, y] = h leaves n
    z, o = r.zero(), r.one()
    sl2 = FDLie(labels=["h", "x", "y"], root=r,
                bracket={(0, 1): [z, o * 2, z], (0, 2): [z, z, -o * 2],
                         (1, 2): [o, z, z]},
                t_idx=[0], n_idx=[1, 2])
    with pytest.raises(DecompositionInvalid, match="'n_ideal': False"):
        rank_and_checks(sl2)
    # [e, x] = x with t empty: n is the whole algebra, not nilpotent
    ex = FDLie(labels=["e", "x"], root=r, bracket={(0, 1): [z, o]},
               t_idx=[], n_idx=[0, 1])
    with pytest.raises(DecompositionInvalid,
                       match="'n_ideal': True, 'n_nilpotent': False"):
        rank_and_checks(ex)


def test_jacobi_detection(r3):
    r = r3
    z, o = r.zero(), r.one()
    # [a, b] = c, [b, c] = a, [c, a] = b is so(3), a Lie algebra
    so3 = FDLie(labels=["a", "b", "c"], root=r,
                bracket={(0, 1): [z, z, o], (1, 2): [o, z, z],
                         (0, 2): [z, -o, z]}, t_idx=[0], n_idx=[1, 2])
    assert so3.verify_jacobi()
    # [a, b] = c, [a, c] = a: the cyclic sum on (a, b, c) is c
    g = FDLie(labels=["a", "b", "c"], root=r,
              bracket={(0, 1): [z, z, o], (0, 2): [o, z, z]},
              t_idx=[0], n_idx=[1, 2])
    assert not g.verify_jacobi()
    with pytest.raises(DecompositionInvalid, match="Jacobi identity fails"):
        rank_and_checks(g)


def test_linearized_weyl_edge(r3):
    W = models.build_weyl([[0]], [1])
    names, exprs = models.f_elements_and_z0_brackets(W, r3)[:2]
    values = [r3.zero(), r3.zero()]
    g = linearized_stabilizer(names, exprs, values, r3)
    assert g.dim == 0
    assert rank_and_checks(g).rank == 0


def test_linearized_plane_fallback(r3):
    m, _ = plane(r3)
    names, exprs = models.twisted_z0_table(m, r3)[:2]
    g = linearized_stabilizer(names, exprs, [r3.zero(), r3.one()], r3)
    assert g.dim == 2
    res = rank_and_checks(g)
    assert res.rank == 1
    # commutative table: abelian, rank 0
    m0 = models.build_twisted([[0, 0], [0, 0]], 2)
    names0, exprs0 = models.twisted_z0_table(m0, r3)[:2]
    g0 = linearized_stabilizer(names0, exprs0, [r3.one(), r3.one()], r3)
    assert g0.dim == 2 and rank_and_checks(g0).rank == 0


def test_weyl_stratum_stabilizer(r3):
    W = models.build_weyl([[0]], [1])
    ctx = strata.enumerate_strata(W, r3)
    gamma = models.f_elements_and_z0_brackets(W, r3)[3]["w1"][(1, 1)]
    # the killed-w stratum: t = 1, toral bracket acts nontrivially
    aval = -(gamma.inverse())
    u = (r3.one() - r3.eps()).inverse()
    wit = u if u ** 3 == aval else -u
    assert wit ** 3 == aval
    chi = strata.Character({"x1": aval, "y1": r3.one()},
                           {"x1": wit, "y1": r3.one()}).check(W, r3)
    loc = strata.locate(chi, ctx)
    assert loc.stratum.stratum_id == "T1=[];T2=[];T3=[1]"
    g = stabilizer_from_stratum(ctx, loc, chi, "eps")
    res = rank_and_checks(g)
    assert res.rank == 1
    g0 = stabilizer_from_stratum(ctx, loc, chi, "l0")
    assert rank_and_checks(g0).rank == 1
    assert psi_check(g0, g, r3)


def test_main_theorem_check_examples(r3):
    m, ctx = plane(r3)
    chi = make_character(r3, {"x1": 0, "x2": 1}, {"x2": 1}).check(m, r3)
    rep = main_theorem_check(m, chi, r3, ctx)
    assert rep.verdict == "PASS"
    assert (rep.rank_chi, rep.rank_chi0) == (1, 1)
    assert (rep.predicted, rep.oracle, rep.t) == (3, 3, 1)
    chi2 = make_character(r3, {"x1": 1, "x2": 1},
                          {"x1": 1, "x2": 1}).check(m, r3)
    rep2 = main_theorem_check(m, chi2, r3, ctx)
    assert rep2.verdict == "PASS" and rep2.predicted == rep2.oracle == 1


def test_main_theorem_weyl_edge(r3):
    W = models.build_weyl([[0]], [1])
    chi = make_character(r3, {"x1": 0, "y1": 0}).check(W, r3)
    rep = main_theorem_check(W, chi, r3)
    assert rep.verdict == "PASS-with-flag"
    assert not rep.covered
    assert rep.predicted == rep.oracle == 1
    assert len(rep.notes) >= 2


def test_main_theorem_inadmissible():
    r2 = cyclotomic_build(2)
    b = models.build_borel_sl2()
    chi = make_character(r2, {"f": 0, "k": 1}, {"k": 1}).check(b, r2)
    rep = main_theorem_check(b, chi, r2)
    assert rep.verdict == "INADMISSIBLE" and not rep.admissible


def test_main_theorem_witnessless_extension(r3):
    # a character value without an l-th root in the cyclotomic field: the
    # check degrades to the l-center level and compares the census against
    # the prediction summed over the unresolved extension values
    m = models.build_twisted([[0]], 1)
    ctx = strata.enumerate_strata(m, r3)
    chi = strata.Character({"x1": r3.eps()}).check(m, r3)
    rep = main_theorem_check(m, chi, r3, ctx)
    assert rep.verdict == "PASS-with-flag"
    assert rep.covered
    assert rep.predicted == 1 and rep.oracle == 3
    assert any("unresolved extension" in n for n in rep.notes)
    assert rep.rank_chi is None and rep.rank_chi0 == 0


def test_monomial_bracket_antisymmetry(r3):
    m = models.build_twisted([[0, 1], [-1, 0]], 2)
    names, exprs = models.twisted_z0_table(m, r3)[:2]
    chart = stabilizer._Chart(names, exprs, [r3.one(), r3.one()], r3)
    for a, b in (((1, 0), (0, 1)), ((2, 1), (-1, 3))):
        f, g = {a: r3.one()}, {b: r3.eps()}
        ab, ba = chart.bracket(f, g), chart.bracket(g, f)
        assert ab and ab == {k: -c for k, c in ba.items()}


def _engine_stabilizer_twisted(model, ctx, loc, chi, r, level):
    """Independent duplicate of the twisted stratum stabilizer.

    Rebuilds the stratum inside a localized presentation (killed generators
    polynomial, survivors invertible) and lifts each generator there: a
    powered z_j as the engine's l-th power of its survivor monomial, whose
    q-power coefficient carries the reordering sign.  Every bracket comes
    from the rewriting engine, expressed in the generators and linearized."""
    from qorder.engine import (
        AlgebraPresentation,
        Element,
        expression_linear_part,
    )
    from conftest import FrameFactor, express_in_frame, poisson_bracket, power
    st = loc.stratum
    killed = [i for i, g in enumerate(model.gens)
              if g in set(st.killed_labels)]
    surv = [s.gen_index for s in st.survivors]
    perm = killed + surv
    N = model.N
    S2 = [[model.S[perm[a]][perm[b]] for b in range(N)] for a in range(N)]
    P2 = AlgebraPresentation([model.gens[i] for i in perm], len(killed), S2)
    ts = st.torus
    gens = []  # (label, lift in P2, value at the character, invertible)
    for j, row in enumerate(ts.z_rows()):
        emb = strata.embed_vector(st, N, row)
        x = Element.monomial(N, tuple(emb[i] for i in perm))
        if level == "l0" or j < ts.t:
            lift = power(P2, x, r.l)
            (coeff,) = lift.terms.values()
            value = r.eval(coeff) * monomial_l_value(st, ctx, chi, row)
            gens.append(("z%d^l" % (j + 1), lift, value, True))
        else:
            gens.append(("z%d" % (j + 1), x, loc.z_ext[j], True))
    for name in st.killed_labels:
        pos = perm.index(model.gens.index(name))
        gens.append(("a:%s" % name, Element.gen(N, pos, r.l), r.zero(), False))
    frame = [FrameFactor(label, lift, invertible=inv)
             for label, lift, _, inv in gens]
    values = [g[2] for g in gens]
    bracket = {}
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            br = poisson_bracket(P2, r, gens[i][1], gens[j][1])
            if br.is_zero():
                continue
            expr = express_in_frame(P2, r, br, frame)
            const, grad = expression_linear_part(expr, values, r)
            assert const.is_zero()
            if any(not c.is_zero() for c in grad):
                bracket[(i, j)] = grad
    return [g[0] for g in gens], bracket


def test_twisted_stabilizer_matches_engine_duplicate():
    # the stratum stabilizer and a fully engine-driven localized
    # computation must produce identical structure constants; at even l the
    # l-th power of a row with odd self-cocycle carries the sign -1
    cases = [
        ([[0, 1], [-1, 0]], 2, {"x1": 0, "x2": 1}, {"x2": 1}),
        ([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], 3,
         {"x1": 0, "x2": 1, "x3": 1}, {"x2": 1, "x3": 1}),
        ([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], 3,
         {"x1": 1, "x2": 1, "x3": 0}, {"x1": 1, "x2": 1}),
        ([[0, 2, 0], [-2, 0, 0], [0, 0, 0]], 2,
         {"x1": 0, "x2": 0, "x3": 1}, {"x3": 1}),
        ([[0, -1, -1, -1], [1, 0, -1, -1], [1, 1, 0, -1], [1, 1, 1, 0]], 4,
         {"x1": 0, "x2": 1, "x3": 1, "x4": 1},
         {"x2": 1, "x3": 1, "x4": 1}),
    ]
    for l in (2, 3, 4, 5):
        r = cyclotomic_build(l)
        for S, n_poly, vals, wits in cases:
            m = models.build_twisted(S, n_poly)
            if not m.admissibility(l):
                continue
            ctx = strata.enumerate_strata(m, r)
            chi = make_character(r, vals, wits).check(m, r)
            loc = strata.locate(chi, ctx)
            for level in ("eps", "l0"):
                g = stabilizer_from_stratum(ctx, loc, chi, level)
                labels, bracket = _engine_stabilizer_twisted(
                    m, ctx, loc, chi, r, level)
                assert labels == g.labels
                assert set(bracket) == set(g.bracket)
                for key, vec in bracket.items():
                    assert vec == g.bracket[key], (S, l, level, key)


def _companion(p, r):
    """Companion matrix of a monic p (low degree first): its minimal
    polynomial is p itself."""
    n = len(p) - 1
    return [[(r.one() if j == i - 1 else r.zero()) if j < n - 1 else -p[i]
             for j in range(n)] for i in range(n)]


def test_poly_squarefree_over_cyclotomic_field():
    for l in (3, 5):
        r = cyclotomic_build(l)
        e = r.eps()

        def times_linear(p, root):
            # p * (x - root), coefficients low degree first
            return ([-root * p[0]] +
                    [p[i - 1] - root * p[i] for i in range(1, len(p))] +
                    [p[-1]])

        simple = times_linear(times_linear([r.one()], r.one()), e)
        double = times_linear(simple, r.one())
        assert _diagonalizable(_companion(simple, r), r)
        assert not _diagonalizable(_companion(double, r), r)


# ---------------------------------------------------------------------------
# Diagonalizability: the characteristic polynomial against the minimal
# polynomial search it replaced.

def _squarefree_minpoly_reference(M, r):
    """True when the minimal polynomial of M is squarefree: the first linear
    dependency among the powers of M, flattened into one solve_c, and the
    gcd of that polynomial with its derivative."""
    n = len(M)
    powers = [mat_eye(n, r)]
    while True:
        powers.append(fiber.mat_mul_c(powers[-1], M, r))
        k = len(powers) - 1
        flat = [[P[a][b] for a in range(n) for b in range(n)] for P in powers]
        mat = [[flat[t][c] for t in range(k)] for c in range(n * n)]
        rhs = [-flat[k][c] for c in range(n * n)]
        sol = fiber.solve_c(mat, rhs, k, r)
        if sol is not None:
            a = poly_trim(sol + [r.one()])
            b = poly_trim([a[i] * i for i in range(1, len(a))])
            while b:
                a, b = b, poly_divmod(a, b)[1]
            return len(a) <= 1
        if k > n:
            raise ArithmeticError("minimal polynomial search overran")


def _jordan_cases(r):
    """(name, matrix, diagonalizable) for Jordan-block shapes."""
    z, o, e = r.zero(), r.one(), r.eps()
    t = r.scalar(2)

    def diag(*d):
        return [[d[i] if i == j else z for j in range(len(d))]
                for i in range(len(d))]

    return [
        ("2x2 Jordan block", [[t, o], [z, t]], False),
        ("3x3 with one 2-block", [[t, o, z], [z, t, z], [z, z, o]], False),
        ("repeated eigenvalue", diag(t, t, o), True),
        ("nilpotent 2x2", [[z, o], [z, z]], False),
        ("nilpotent 3x3", [[z, o, z], [z, z, o], [z, z, z]], False),
        ("zero 1x1", [[z]], True),
        ("zero 3x3", diag(z, z, z), True),
        ("eps Jordan block", [[e, e * e], [z, e]], False),
        ("eps diagonal", diag(e, e * e, e, o), True),
        ("eps 3x3 with one 2-block", [[e, z, z], [z, e, o + e], [z, z, e]],
         False),
        ("distinct eigenvalues, upper", [[e, o, t], [z, o, e], [z, z, t]],
         True),
    ]


def _conjugate(M, rng, r):
    """Q M Q^-1 for a random unipotent upper-triangular Q."""
    n = len(M)
    Q = [[r.one() if i == j else
          (r.eps_power(rng.randrange(r.l)) * rng.randint(-2, 2) if j > i
           else r.zero()) for j in range(n)] for i in range(n)]
    return fiber.mat_mul_c(fiber.mat_mul_c(Q, M, r), mat_inv_c(Q, r), r)


def test_diagonalizable_matches_reference_on_jordan_blocks():
    rng = random.Random(20101097)
    for l in (3, 5):
        r = cyclotomic_build(l)
        for name, M, expected in _jordan_cases(r):
            for A in (M, _conjugate(M, rng, r)):
                assert _diagonalizable(A, r) == expected, (l, name)
                assert _diagonalizable_charpoly(A, r) == expected, (l, name)
                assert _squarefree_minpoly_reference(A, r) == expected


def _theorem_runs(step):
    """(model, root, strata context, characters) of the quantum Weyl
    algebras n=1 and n=2 at l = 3, of every step-th admissible model of the
    acceptance sweep, and of the `verify` characters of every golden job
    whose tower has strata."""
    r3 = cyclotomic_build(3)
    jobs = [(models.build_weyl([[0]], [1]), r3),
            (models.build_weyl([[0, 1], [-1, 0]], [1, 1]), r3)]
    for S, ls, np_cap in _sweep_plan():
        for l in ls:
            for n_poly in range((len(S) if np_cap is None else np_cap) + 1):
                model = models.build_twisted(S, n_poly)
                if model.admissibility(l):
                    jobs.append((model, cyclotomic_build(l)))
    runs = [(model, r, strata.enumerate_strata(model, r),
             cli.default_characters(model, r))
            for model, r in jobs[:2] + jobs[2::step]]
    goldens = 0
    for job in sorted((Path(__file__).parent / "golden").glob("*.job")):
        spec = cli.parse_jobspec(job.read_text())
        r = cyclotomic_build(spec.l, spec.primitive_index)
        model = cli.build_model(spec)
        if not model.admissibility(r.l):
            continue
        try:
            ctx = strata.enumerate_strata(model, r)
        except ValueError:  # a tower with lower-order terms has no strata
            continue
        runs.append((model, r, ctx, cli._verify_characters(model, r, spec)))
        goldens += 1
    assert goldens >= 10
    return runs


def test_diagonalizable_matches_reference_on_built_ad_matrices(monkeypatch):
    """Every toral ad matrix that main_theorem_check builds on every fifth
    admissible model of the acceptance sweep, on the quantum Weyl algebras
    n=1 and n=2 at l = 3, and on the `verify` characters of every golden job
    whose tower has strata.  The census is skipped: fiber_algebra raises
    TooLarge, which makes a character UNCHECKED once its stabilizers are
    built.  The diagonal shortcut, the Faddeev-LeVerrier path and the
    minimal polynomial reference agree on each."""
    seen = []
    original = stabilizer._diagonalizable

    def record(M, r):
        seen.append((M, r))
        return original(M, r)

    def too_large(*args):
        raise fiber.TooLarge("census skipped")

    monkeypatch.setattr(stabilizer, "_diagonalizable", record)
    monkeypatch.setattr(fiber, "fiber_algebra", too_large)
    runs = _theorem_runs(5)
    for model, r, ctx, characters in runs:
        for chi in characters:
            main_theorem_check(model, chi, r, ctx)
    assert {len(M) for M, _ in seen} == {2, 3, 4}
    distinct = {(r.l, tuple(tuple(row) for row in M)): (M, r) for M, r in seen}
    assert len(distinct) > 40
    for M, r in distinct.values():
        assert original(M, r) == _diagonalizable_charpoly(M, r) == \
            _squarefree_minpoly_reference(M, r)


def test_diagonal_shortcut_matches_charpoly():
    """Diagonal matrices with repeated and zero entries take the shortcut;
    their unipotent conjugates are diagonalizable but mostly not diagonal,
    and go through the Faddeev-LeVerrier path.  Both paths say True."""
    rng = random.Random(20101098)
    conjugated = 0
    for l in (3, 5):
        r = cyclotomic_build(l)
        entries = [r.zero(), r.one(), -r.one(), r.eps(), r.scalar(2)]
        for _ in range(30):
            n = rng.randint(1, 5)
            D = [[rng.choice(entries) if i == j else r.zero()
                  for j in range(n)] for i in range(n)]
            C = _conjugate(D, rng, r)
            conjugated += any(not C[i][j].is_zero() for i in range(n)
                              for j in range(n) if i != j)
            for A in (D, C):
                assert _diagonalizable(A, r) and _diagonalizable_charpoly(A, r)
    assert conjugated > 20



# ---------------------------------------------------------------------------
# One stabilizer per level only where the levels differ.

def _count_builds(monkeypatch):
    levels = []
    original = stabilizer.stabilizer_from_stratum

    def counted(ctx, located, character, level="eps", chart=None):
        levels.append(level)
        return original(ctx, located, character, level, chart)

    monkeypatch.setattr(stabilizer, "stabilizer_from_stratum", counted)
    return levels


def test_extending_z_builds_both_levels(r3, monkeypatch):
    # x1 is killed and the torus of x2, x3 has p = 2, t = 1: z2 extends, so
    # the eps level takes z2 itself where the l0 level takes z2^l
    m = models.build_twisted([[0, -2, -2], [2, 0, 0], [2, 0, 0]], 1)
    ctx = strata.enumerate_strata(m, r3)
    chi = make_character(r3, {"x1": 0, "x2": 1, "x3": 1},
                         {"x2": 1, "x3": 1}).check(m, r3)
    loc = strata.locate(chi, ctx)
    assert (loc.stratum.torus.t, loc.stratum.torus.p) == (1, 2)
    g_l0 = stabilizer_from_stratum(ctx, loc, chi, "l0")
    g_eps = stabilizer_from_stratum(ctx, loc, chi, "eps")
    assert g_l0.labels == ["z1^l", "z2^l", "a:x1"]
    assert g_eps.labels == ["z1^l", "z2", "a:x1"]
    assert g_l0 != g_eps and g_l0.bracket and g_eps.bracket
    assert psi_check(g_l0, g_eps, r3)
    assert rank_and_checks(g_l0).rank == rank_and_checks(g_eps).rank == 1
    levels = _count_builds(monkeypatch)
    rep = main_theorem_check(m, chi, r3, ctx)
    assert levels == ["l0", "eps"]
    assert rep.verdict == "PASS" and (rep.rank_chi, rep.rank_chi0) == (1, 1)
    assert rep.checks["psi_toral"] and rep.checks["rank_equal"]


def test_levels_without_extending_z_share_one_build(r3, monkeypatch):
    m, ctx = plane(r3)
    chi = make_character(r3, {"x1": 0, "x2": 1}, {"x2": 1}).check(m, r3)
    loc = strata.locate(chi, ctx)
    assert loc.stratum.torus.t == loc.stratum.torus.p == 1
    # both builds, made apart: the same algebra at either level
    g_l0 = stabilizer_from_stratum(ctx, loc, chi, "l0")
    g_eps = stabilizer_from_stratum(ctx, loc, chi, "eps")
    assert g_l0 == g_eps and g_l0.bracket
    res_l0, res_eps = rank_and_checks(g_l0), rank_and_checks(g_eps)
    levels = _count_builds(monkeypatch)
    rep = main_theorem_check(m, chi, r3, ctx)
    assert levels == ["l0"]
    forced = dataclasses.replace(rep, rank_chi=res_eps.rank, checks={
        **rep.checks, "eps": res_eps.checks, "l0": res_l0.checks,
        "psi_toral": psi_check(g_l0, g_eps, r3),
        "rank_equal": res_eps.rank == res_l0.rank})
    assert rep == forced
    assert rep.verdict == "PASS" and rep.checks["psi_toral"]


def _verify_counting_charts(tmp_path, monkeypatch, job_text):
    """The data report of `verify` on the job, the charts it built and its
    linearized stabilizer builds, and the levels _count_builds records."""
    charts = []
    real_init = stabilizer._Chart.__init__

    def counted_init(self, *args, **kwargs):
        charts.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(stabilizer._Chart, "__init__", counted_init)
    levels = _count_builds(monkeypatch)
    linearized = []
    real_lin = stabilizer.linearized_stabilizer

    def counted_lin(*args, **kwargs):
        linearized.append(args)
        return real_lin(*args, **kwargs)

    monkeypatch.setattr(stabilizer, "linearized_stabilizer", counted_lin)
    job = tmp_path / "job.txt"
    job.write_text(job_text)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--spec", str(job), "--format", "data",
                     "--out", str(out)]) == 0
    return json.loads(out.read_text())["results"], charts, linearized, levels


def test_twisted_verify_builds_one_chart_per_character(tmp_path, monkeypatch):
    # both stabilizer levels and the linearized cross-check of a character
    # read one chart; x1 is the killed generator of
    # test_extending_z_builds_both_levels, so some characters build both
    # levels
    results, charts, linearized, levels = _verify_counting_charts(
        tmp_path, monkeypatch,
        "algebra.kind = twisted\nalgebra.S = 0 -2 -2 / 2 0 0 / 2 0 0\n"
        "algebra.n_poly = 3\nroot.l = 3\n")
    assert len(results) == 8
    assert all(res["result.verdict"] == "PASS" for res in results)
    assert "eps" in levels and len(linearized) == len(results)
    assert len(charts) == len(results)


def test_weyl_verify_builds_one_chart_per_character(tmp_path, monkeypatch):
    # a covered Weyl character's chart carries the chain columns w_k^l, and
    # its linearized cross-check reads the same chart; an uncovered one
    # builds only the linearized chart
    results, charts, linearized, _ = _verify_counting_charts(
        tmp_path, monkeypatch,
        "algebra.kind = weyl\nalgebra.S = 0 1 / -1 0\n"
        "algebra.exponents = 1 1\nroot.l = 3\n")
    assert len(results) == 16
    assert sum(res["result.covered"] for res in results) == 4
    assert all(res["result.verdict"].startswith("PASS") for res in results)
    assert len(linearized) == len(charts) == len(results)
    assert sum(len(args) == 5 for args in charts) == 4


# ---------------------------------------------------------------------------
# The sparse checks against the dense ones they replaced.

def _unit(r, n, i):
    return [r.one() if t == i else r.zero() for t in range(n)]


def _dense_bracket_vectors(g, u, v):
    r = g.root
    out = [r.zero()] * g.dim
    for i, ci in enumerate(u):
        if ci.is_zero():
            continue
        for j, cj in enumerate(v):
            if cj.is_zero():
                continue
            vec = g.bracket_of(i, j)
            for k in range(g.dim):
                if not vec[k].is_zero():
                    out[k] = out[k] + ci * cj * vec[k]
    return out


def _dense_ad_matrix(g, i):
    cols = [g.bracket_of(i, j) for j in range(g.dim)]
    return [[col[k] for col in cols] for k in range(g.dim)]


def _dense_verify_jacobi(g):
    r = g.root
    n = g.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                ei, ej, ek = _unit(r, n, i), _unit(r, n, j), _unit(r, n, k)
                total = [r.zero()] * n
                for (a, b, c) in ((ei, ej, ek), (ej, ek, ei), (ek, ei, ej)):
                    part = _dense_bracket_vectors(
                        g, a, _dense_bracket_vectors(g, b, c))
                    total = [x + y for x, y in zip(total, part)]
                if any(not x.is_zero() for x in total):
                    return False
    return True


def _rank_and_checks_dense(g):
    """rank_and_checks as it was before it read only the nonzero brackets:
    every pair, every coordinate and every ad entry."""
    r = g.root
    n_dim = g.dim
    checks = {}
    if set(g.t_idx) & set(g.n_idx) or len(g.t_idx) + len(g.n_idx) != n_dim:
        raise DecompositionInvalid("t/n candidates do not partition the basis")
    checks["jacobi"] = _dense_verify_jacobi(g)
    if not checks["jacobi"]:
        raise DecompositionInvalid("Jacobi identity fails")
    checks["t_abelian"] = all(
        all(c.is_zero() for c in g.bracket_of(i, j))
        for i in g.t_idx for j in g.t_idx if i < j)
    checks["n_ideal"] = all(g.bracket_of(i, j)[t].is_zero()
                            for i in range(n_dim) for j in g.n_idx
                            for t in g.t_idx)
    series = [_unit(r, n_dim, i) for i in g.n_idx]
    nilpotent = False
    for _ in range(n_dim + 1):
        if not series:
            nilpotent = True
            break
        nxt = []
        for i in g.n_idx:
            for v in series:
                w = _dense_bracket_vectors(g, _unit(r, n_dim, i), v)
                if any(not c.is_zero() for c in w):
                    nxt.append(w)
        series, _ = fiber.rref_c(nxt)
    checks["n_nilpotent"] = nilpotent
    ads = [_dense_ad_matrix(g, i) for i in g.t_idx]
    checks["ad_t_diagonalizable"] = all(_diagonalizable(M, r) for M in ads)
    if not (checks["t_abelian"] and checks["n_ideal"] and
            checks["n_nilpotent"] and checks["ad_t_diagonalizable"]):
        raise DecompositionInvalid("t/n split checks failed: %r" % checks)
    rows = [[M[a][b] for M in ads] for a in range(n_dim) for b in range(n_dim)]
    ker = fiber.kernel_c(rows, len(g.t_idx), r)
    checks["weight_kernel_dim"] = len(ker)
    return stabilizer.StabilizerResult(rank=len(g.t_idx) - len(ker),
                                       checks=checks)


def _outcome(check, g):
    try:
        res = check(g)
    except DecompositionInvalid as exc:
        return "raised", str(exc)
    return res.rank, res.checks


def _assert_matches_dense(g):
    """rank_and_checks and the FDLie methods agree with the dense
    reference on g; returns the outcome."""
    r = g.root
    got = _outcome(rank_and_checks, g)
    assert got == _outcome(_rank_and_checks_dense, g), (g.labels, g.bracket)
    assert g.verify_jacobi() == _dense_verify_jacobi(g)
    units = [_unit(r, g.dim, i) for i in range(g.dim)]
    for i in range(g.dim):
        assert g.ad_matrix(i) == _dense_ad_matrix(g, i)
        for j in range(g.dim):
            assert g.bracket_vectors(units[i], units[j]) == g.bracket_of(i, j)
    return got


def test_sparse_checks_match_dense_on_built_stabilizers(monkeypatch):
    """Every l0, eps and linearized stabilizer of every admissible model of
    the acceptance sweep, of the Weyl algebras n=1, n=2 at l = 3 and of the
    `verify` characters of the golden jobs."""
    built = {"l0": 0, "eps": 0, "linearized": 0}
    brackets = 0
    for model, r, ctx, characters in _theorem_runs(1):
        names, exprs = ctx.table[:2]
        for chi in characters:
            algebras = []
            loc = strata.locate(chi, ctx)
            if isinstance(loc, strata.Located):
                for level in ("l0", "eps"):
                    try:
                        algebras.append(
                            (level, stabilizer_from_stratum(ctx, loc, chi,
                                                            level)))
                    except (strata.MissingWitness, HypothesisFailed):
                        pass
            try:
                algebras.append(("linearized", linearized_stabilizer(
                    names, exprs, ctx.frame_values(chi), r)))
            except DecompositionInvalid:
                pass
            for kind, g in algebras:
                _assert_matches_dense(g)
                built[kind] += 1
                brackets += bool(g.nonzero_brackets)
    assert min(built.values()) > 1000
    assert brackets > 500


def test_sparse_checks_match_dense_on_hand_built_algebras(r3):
    r = r3
    z, o = r.zero(), r.one()
    cases = [
        # sl2 with n = span(x, y): [x, y] = h leaves n
        FDLie(labels=["h", "x", "y"], root=r,
              bracket={(0, 1): [z, o * 2, z], (0, 2): [z, z, -o * 2],
                       (1, 2): [o, z, z]}, t_idx=[0], n_idx=[1, 2]),
        # sl2 with h toral alone: not nilpotent, not an ideal
        FDLie(labels=["h", "x", "y"], root=r,
              bracket={(0, 1): [z, o * 2, z], (0, 2): [z, z, -o * 2],
                       (1, 2): [o, z, z]}, t_idx=[0, 1], n_idx=[2]),
        # [e, x] = x + y, [e, y] = y: ad e is not diagonalizable
        FDLie(labels=["e", "x", "y"], root=r,
              bracket={(0, 1): [z, o, o], (0, 2): [z, z, o]},
              t_idx=[0], n_idx=[1, 2]),
        # structure constants violating Jacobi, and so(3), which does not
        FDLie(labels=["a", "b", "c"], root=r,
              bracket={(0, 1): [z, z, o], (0, 2): [o, z, z]},
              t_idx=[0], n_idx=[1, 2]),
        FDLie(labels=["a", "b", "c"], root=r,
              bracket={(0, 1): [z, z, o], (1, 2): [o, z, z],
                       (0, 2): [z, -o, z]}, t_idx=[0], n_idx=[1, 2]),
        # [e, x] = x, with and without a toral candidate
        FDLie(labels=["e", "x"], root=r, bracket={(0, 1): [z, o]},
              t_idx=[0], n_idx=[1]),
        FDLie(labels=["e", "x"], root=r, bracket={(0, 1): [z, o]},
              t_idx=[], n_idx=[0, 1]),
        # abelian, with stored zero vectors and with none
        FDLie(labels=["a", "b", "c"], root=r,
              bracket={(0, 1): [z, z, z], (1, 2): [z, z, z]},
              t_idx=[0, 1, 2], n_idx=[]),
        FDLie(labels=["a", "b", "c"], root=r, bracket={}, t_idx=[0],
              n_idx=[1, 2]),
        # t and n overlap
        FDLie(labels=["a", "b"], root=r, bracket={}, t_idx=[0, 1],
              n_idx=[1]),
    ]
    outcomes = [_assert_matches_dense(g) for g in cases]
    assert outcomes[0] == ("raised", "t/n split checks failed: %r" % {
        "jacobi": True, "t_abelian": True, "n_ideal": False,
        "n_nilpotent": False, "ad_t_diagonalizable": True})
    assert outcomes[3] == ("raised", "Jacobi identity fails")
    assert outcomes[5][0] == 1 and outcomes[7][0] == 0


def _random_lie(rng, r):
    """Structure constants of a template Lie algebra in a random basis, or
    random constants that mostly break Jacobi.  The basis change keeps the
    template's t and n spans apart when keep_split is drawn, and zero
    brackets are stored as zero vectors now and then."""
    z, o = r.zero(), r.one()

    def scalar():
        if rng.random() < 0.4:
            return z
        return r.eps_power(rng.randrange(r.l)) * rng.randint(-2, 2)

    kind = rng.randrange(6)
    if kind == 0:  # t of dim 1-2 acting diagonally on an abelian n
        nt, nn = rng.randint(1, 2), rng.randint(1, 3)
        dim = nt + nn
        weights = [[scalar() for _ in range(nn)] for _ in range(nt)]
        base = {}
        for a in range(nt):
            for b in range(nn):
                vec = [z] * dim
                vec[nt + b] = weights[a][b]
                base[(a, nt + b)] = vec
        t_idx = list(range(nt))
    elif kind == 1:  # Heisenberg [x, y] = c
        dim, base, t_idx = 3, {(0, 1): [z, z, o]}, []
    elif kind == 2:  # sl2
        dim, t_idx = 3, [0]
        base = {(0, 1): [z, o * 2, z], (0, 2): [z, z, -o * 2],
                (1, 2): [o, z, z]}
    elif kind == 3:  # [e, x] = x + y, [e, y] = y
        dim, t_idx = 3, [0]
        base = {(0, 1): [z, o, o], (0, 2): [z, z, o]}
    elif kind == 4:  # abelian
        dim = rng.randint(0, 4)
        base, t_idx = {}, rng.sample(range(dim), rng.randint(0, dim))
    else:  # random constants
        dim = rng.randint(2, 4)
        base = {(i, j): [scalar() for _ in range(dim)]
                for i in range(dim) for j in range(i + 1, dim)
                if rng.random() < 0.6}
        t_idx = rng.sample(range(dim), rng.randint(0, dim))
    n_idx = [i for i in range(dim) if i not in t_idx]
    template = FDLie(labels=["b%d" % i for i in range(dim)], root=r,
                     bracket=base, t_idx=t_idx, n_idx=n_idx)
    # new basis P: unit diagonal, random entries inside each block (or
    # everywhere), so P is invertible
    keep_split = rng.random() < 0.7
    P = [[o if i == j else
          (scalar() if i < j and (not keep_split or
                                  (i in t_idx) == (j in t_idx)) else z)
          for j in range(dim)] for i in range(dim)]
    cols = [[P[k][i] for k in range(dim)] for i in range(dim)]
    bracket = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            w = _dense_bracket_vectors(template, cols[i], cols[j])
            vec = fiber.solve_c(P, w, dim, r)
            if any(not c.is_zero() for c in vec) or rng.random() < 0.3:
                bracket[(i, j)] = vec
    if rng.random() < 0.15 and dim:
        t_idx = rng.sample(range(dim), rng.randint(0, dim))
        n_idx = [i for i in range(dim) if i not in t_idx]
    return FDLie(labels=["v%d" % i for i in range(dim)], root=r,
                 bracket=bracket, t_idx=t_idx, n_idx=n_idx)


def test_sparse_checks_match_dense_on_random_structure_constants():
    rng = random.Random(20101023)
    outcomes = []
    for l in (3, 5):
        r = cyclotomic_build(l)
        for _ in range(150):
            outcomes.append(_assert_matches_dense(_random_lie(rng, r)))
    messages = {o[1].split(":")[0] for o in outcomes if o[0] == "raised"}
    assert messages == {"Jacobi identity fails", "t/n split checks failed"}
    assert {o[0] for o in outcomes if o[0] != "raised"} == {0, 1, 2}
