"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.  The
count criterion sweeps the twisted family exhaustively where the fiber sizes
stay small (N <= 3 at l = 3, N <= 2 at l = 5) and by fixed-seed samples for
the larger shapes, keeping the whole suite inside the time budget.
"""

import random
import time
from itertools import product as iproduct

from qorder.exactnum import cyclotomic_build
from qorder import cli, engine, fiber, models, stabilizer, strata
from qorder.engine import AlgebraPresentation, Element
from qorder.torus import center_generators_eps
from qorder.zlattice import (
    det_int,
    mat_mul,
    skew_normal_form,
    smith_normal_form,
    zeros,
)
from conftest import (frame_table, is_central_at_root, make_character,
                      mat_add_c, mat_eq_c, mat_eye, mat_scale_c, power,
                      weyl_frame_table)


def all_skew(n, span=2):
    """Every skew matrix of the given size with entries in [-span, span]."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for entries in iproduct(range(-span, span + 1), repeat=len(pairs)):
        S = zeros(n, n)
        for (i, j), v in zip(pairs, entries):
            S[i][j] = v
            S[j][i] = -v
        yield S


def sample_skew(rng, n, count, span=2):
    out = []
    for _ in range(count):
        S = zeros(n, n)
        for i in range(n):
            for j in range(i + 1, n):
                S[i][j] = rng.randint(-span, span)
                S[j][i] = -S[i][j]
        out.append(S)
    return out


SWEEP_PLAN = None


def _sweep_plan():
    global SWEEP_PLAN
    if SWEEP_PLAN is not None:
        return SWEEP_PLAN
    rng = random.Random(20260808)
    plan = []
    for S in all_skew(1):
        plan.append((S, (3, 5), None))
    for S in all_skew(2):
        plan.append((S, (3, 5), None))
    for S in all_skew(3):
        plan.append((S, (3,), None))
    for S in sample_skew(rng, 3, 20):
        plan.append((S, (5,), None))
    for S in sample_skew(rng, 4, 20):
        plan.append((S, (3,), None))
    for S in sample_skew(rng, 4, 3):
        plan.append((S, (5,), 2))  # cap n_poly to bound the fiber count
    SWEEP_PLAN = plan
    return plan


class SweepStats:
    def __init__(self):
        self.cases = 0
        self.characters = 0
        self.skipped_inadmissible = 0
        self.strata = 0
        self.kappa = {}
        self.center_checks = 0
        self.subpower_checks = 0
        self.seconds = 0.0


_SWEEP_CACHE = {}


def run_sweep():
    if "stats" in _SWEEP_CACHE:
        return _SWEEP_CACHE["stats"]
    stats = SweepStats()
    t0 = time.time()
    for S, ls, np_cap in _sweep_plan():
        N = len(S)
        for l in ls:
            r = cyclotomic_build(l)
            for n_poly in range(0, (np_cap if np_cap is not None else N) + 1):
                model = models.build_twisted(S, n_poly)
                if not model.admissibility(l):
                    stats.skipped_inadmissible += 1
                    continue
                stats.cases += 1
                ctx = strata.enumerate_strata(model, r)
                _check_kappa(model, r, stats)
                for st in ctx.strata:
                    stats.strata += 1
                    _check_center_lemma(model, st, r, stats)
                gens = model.presentation.gens
                for bits in iproduct((0, 1), repeat=n_poly):
                    vals = {g: b for g, b in zip(gens, bits)}
                    vals.update({g: 1 for g in gens[n_poly:]})
                    wits = {g: 1 for g, v in vals.items() if v}
                    chi = make_character(r, vals, wits).check(model, r)
                    rep = stabilizer.main_theorem_check(model, chi, r, ctx)
                    stats.characters += 1
                    assert rep.verdict == "PASS", (S, n_poly, l, bits, rep)
                    assert rep.oracle == l ** rep.t == rep.predicted == \
                        l ** rep.rank_chi, (S, n_poly, l, bits, rep)
                    assert rep.checks["rank_equal"], (S, n_poly, l, bits)
                    assert rep.checks["psi_toral"], (S, n_poly, l, bits)
                    assert rep.rank_chi == rep.rank_chi0
                    assert "linearized_rank" not in rep.checks or \
                        rep.checks["linearized_rank"] == rep.rank_chi, \
                        (S, n_poly, l, bits, rep.checks)
    stats.seconds = time.time() - t0
    _SWEEP_CACHE["stats"] = stats
    return stats


def _check_kappa(model, r, stats):
    # the engine table, so the constant is derived, not read from the
    # closed form of models.twisted_z0_table
    names, exprs, kappa, chain = frame_table(
        model.presentation, r, range(model.N), {})
    assert chain == {}
    N = model.N
    for i in range(N):
        for j in range(i + 1, N):
            expr = exprs[(names[i], names[j])]
            key = tuple(1 if t in (i, j) else 0 for t in range(N))
            assert set(expr) <= {key}, (model.S, i, j, expr)
            s = model.S[i][j]
            if s == 0:
                assert not expr
            else:
                assert expr[key] == kappa * r.scalar(s)
    if kappa is not None:
        assert not kappa.is_zero()
        prev = stats.kappa.get(r.l)
        if prev is None:
            stats.kappa[r.l] = kappa
        else:
            assert prev == kappa, "constant depends on more than (l, eps)"


def _localized_presentation(model, st):
    killed = [i for i, g in enumerate(model.gens)
              if g in set(st.killed_labels)]
    surv = [s.gen_index for s in st.survivors]
    perm = killed + surv
    N = model.N
    Sp = [[model.S[perm[a]][perm[b]] for b in range(N)] for a in range(N)]
    P = AlgebraPresentation([model.gens[i] for i in perm], len(killed), Sp)
    return P, len(killed)


def _check_center_lemma(model, st, r, stats):
    """Every listed center generator is central at eps in the localized
    stratum algebra; proper subpowers of the non-extending z's are not."""
    P, n_killed = _localized_presentation(model, st)
    N = model.N
    eps_c, l_c = center_generators_eps(st.torus, r.l)
    for vec in eps_c:
        emb = [0] * N
        for s, e in enumerate(vec):
            emb[n_killed + s] = e
        assert is_central_at_root(
            Element.monomial(N, tuple(emb)), P, r), (model.S, st.stratum_id, vec)
        stats.center_checks += 1
    for vec in l_c:
        emb = [0] * N
        for s, e in enumerate(vec):
            emb[n_killed + s] = e
        assert is_central_at_root(
            Element.monomial(N, tuple(emb)), P, r)
        stats.center_checks += 1
    for i in range(st.torus.t):
        row = st.torus.z_rows()[i]
        for j in range(1, r.l):
            emb = [0] * N
            for s, e in enumerate(row):
                emb[n_killed + s] = j * e
            assert not is_central_at_root(
                Element.monomial(N, tuple(emb)), P, r), \
                (model.S, st.stratum_id, i, j)
            stats.subpower_checks += 1


def test_criterion_1_count_formula():
    stats = run_sweep()
    assert stats.characters > 0
    print("CRITERION 1: PASS - census = l^t = l^rank on %d characters over "
          "%d model cases (%d strata, %.1fs; %d inadmissible combinations "
          "skipped)" % (stats.characters, stats.cases, stats.strata,
                        stats.seconds, stats.skipped_inadmissible))


def test_criterion_2_rank_equality():
    stats = run_sweep()
    # rank equality and the toral map are asserted per character inside the
    # sweep; reaching this point means no case violated them
    print("CRITERION 2: PASS - rank equality and toral injectivity on all "
          "%d characters" % stats.characters)


def test_criterion_3_center_lemma():
    stats = run_sweep()
    assert stats.center_checks > 0 and stats.subpower_checks > 0
    print("CRITERION 3: PASS - %d center generators central at eps, %d "
          "subpowers rejected" % (stats.center_checks, stats.subpower_checks))


def test_criterion_4_poisson_constant():
    stats = run_sweep()
    lines = []
    for l, kappa in sorted(stats.kappa.items()):
        r = cyclotomic_build(l)
        e = r.eps()
        printed_a = r.scalar(l) * e ** (l - 1)
        printed_b = r.scalar(l * l) * e.inverse()
        lines.append("l=%d: derived kappa=%r vs printed l*eps^(l-1)=%r and "
                     "l^2*eps^-1=%r" % (l, kappa, printed_a, printed_b))
        assert not kappa.is_zero()
    print("CRITERION 4: PASS - single global constant per root order; "
          + "; ".join(lines))


def weyl_table_shapes(model, r, build=weyl_frame_table):
    """The l-center shapes of a quantum Weyl model, read from the table that
    build gives: by default the engine table, so the shapes are derived, not
    read from the closed form of models.f_elements_and_z0_brackets.

    Returns (notes, gammas, consts, kappa).  With f_0 = 1 and f_k the chain
    expression of w_k^l, every f_i must be 1 + sum_(k <= i) gamma_k x_k y_k
    (in the frame of l-th powers), every bracket must be kappa * S * product,
    and the bracket of x_i, y_i must leave past that a nonzero multiple
    consts[i-1] of f_(i-1); notes names each shape that fails.
    """
    names, exprs, kappa, chain = build(model, r)
    P, n, N = model.presentation, model.n, len(names)

    def key(*pos):
        return tuple(int(t in pos) for t in range(N))

    f = [{key(): r.one()}] + [chain["w%d" % k] for k in range(1, n + 1)]
    gammas = [f[k].get(key(k - 1, n + k - 1), r.zero())
              for k in range(1, n + 1)]
    notes = ["f_%d has terms outside 1 + sum gamma_k x_k y_k" % i
             for i in range(1, n + 1)
             if not set(f[i]) <= {key(k - 1, n + k - 1)
                                  for k in range(1, i + 1)} | {key()}]
    consts = []
    for p in range(N):
        for q in range(p + 1, N):
            pair = (names[p], names[q])
            rest = dict(exprs[pair])
            s = P.S[P.gens.index(pair[0])][P.gens.index(pair[1])]
            if rest.pop(key(p, q), r.zero()) != kappa * r.scalar(s):
                notes.append("bracket %s is not kappa * %d * product"
                             % (pair, s))
            if q != p + n:
                if rest:
                    notes.append("bracket %s has other terms" % (pair,))
                continue
            c = rest.get(key(), r.zero())
            consts.append(c)
            if c.is_zero() or rest != {m: v * c for m, v in f[p].items()}:
                notes.append("bracket %s - kappa s x y is not a nonzero "
                             "multiple of f_%d" % (pair, p))
    return notes, gammas, consts, kappa


def test_criterion_5_weyl_structure(r3):
    checked = []
    for S, exps in (([[0]], [1]), ([[0]], [2]), ([[0, 1], [-1, 0]], [1, 1]),
                    ([[0, -1], [1, 0]], [1, 2])):
        model = models.build_weyl(S, exps)
        if not model.admissibility(3):
            continue
        P = model.presentation
        for i in range(1, model.n + 1):
            for gen in (Element.gen(P.N, model.xpos(i), 3),
                        Element.gen(P.N, model.ypos(i), 3),
                        power(P, model.w[i], 3)):
                assert is_central_at_root(gen, P, r3)
        notes, gammas, consts, kappa = weyl_table_shapes(model, r3)
        assert notes == []
        assert len(consts) == model.n
        # every gamma_k is nonzero: the sum bound is k <= i
        assert all(not g.is_zero() for g in gammas)
        assert not kappa.is_zero()
        checked.append((S, exps))
    assert checked
    print("CRITERION 5: PASS - centrality, f-expressibility, and bracket "
          "shapes on %d quantum Weyl models (derived sum bound k<=i)"
          % len(checked))


def test_criterion_6_weyl_edge(r3):
    # ground truth first: the dimension-3 matrices satisfy the relation
    e = r3.eps()
    z, one = r3.zero(), r3.one()
    Y = [[z, z, z], [one, z, z], [z, one, z]]
    X = [[z, one, z], [z, z, -(e * e)], [z, z, z]]
    lhs = fiber.mat_mul_c(X, Y, r3)
    rhs = mat_add_c(mat_scale_c(fiber.mat_mul_c(Y, X, r3), e),
                          mat_eye(3, r3))
    assert mat_eq_c(lhs, rhs)
    W = models.build_weyl([[0]], [1])
    ctx = strata.enumerate_strata(W, r3)
    chi = make_character(r3, {"x1": 0, "y1": 0}).check(W, r3)
    loc = strata.locate(chi, ctx)
    assert isinstance(loc, strata.Uncovered) and len(loc.diagnostics) == 2
    rep = stabilizer.main_theorem_check(W, chi, r3, ctx)
    assert rep.verdict == "PASS-with-flag"
    assert rep.rank_chi == 0 and rep.predicted == 1
    res = fiber.census(fiber.fiber_algebra(W, chi, r3))
    assert (res.rad_dim, res.count, res.blocks) == (0, 1, [3])
    print("CRITERION 6: PASS - uncovered locus diagnosed on both strata, "
          "fallback rank 0, census one block of dimension 3")


def test_criterion_7_lattice_normal_forms():
    rng = random.Random(500)
    smith_cases = 0
    for _ in range(500):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        U, D, V = smith_normal_form(M)
        assert mat_mul(mat_mul(U, M), V) == D
        diag = [D[i][i] for i in range(min(n, m))]
        for a, b in zip(diag, diag[1:]):
            assert (b % a == 0) if a else (b == 0)
        assert abs(det_int(U)) == 1 and abs(det_int(V)) == 1
        smith_cases += 1
    skew_cases = 0
    for _ in range(500):
        n = rng.randint(1, 7)
        S = zeros(n, n)
        for i in range(n):
            for j in range(i + 1, n):
                S[i][j] = rng.randint(-9, 9)
                S[j][i] = -S[i][j]
        form = skew_normal_form(S)  # postconditions verified internally
        _, D, _ = smith_normal_form(S)
        diag = sorted(D[i][i] for i in range(n) if D[i][i])
        assert diag == sorted(d for d in form.ds for _ in range(2))
        skew_cases += 1
    print("CRITERION 7: PASS - %d Smith and %d skew normal forms verified"
          % (smith_cases, skew_cases))


def test_criterion_8_determinism_and_galois(tmp_path):
    job = tmp_path / "job.txt"
    job.write_text("algebra.kind = twisted\nalgebra.S = 0 1 / -1 0\n"
                   "algebra.n_poly = 2\nroot.l = 3\n")
    blobs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert cli.main(["verify", "--spec", str(job), "--format", "data",
                         "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    # census counts are stable under a different choice of primitive root
    cases = [([[0, 1], [-1, 0]], 2), ([[0, 2], [-2, 0]], 2),
             ([[0, 0], [0, 0]], 2)]
    for l in (3, 5):
        joptions = [1, 2] if l == 3 else [1, 2, 3]
        for S, n_poly in cases:
            counts = []
            for j in joptions:
                r = cyclotomic_build(l, j)
                model = models.build_twisted(S, n_poly)
                if not model.admissibility(l):
                    counts = None
                    break
                per = []
                for bits in iproduct((0, 1), repeat=n_poly):
                    vals = {g: b for g, b in
                            zip(model.presentation.gens, bits)}
                    wits = {g: 1 for g, v in vals.items() if v}
                    chi = make_character(r, vals, wits).check(model, r)
                    res = fiber.census(fiber.fiber_algebra(model, chi, r))
                    per.append(res.count)
                counts.append(per)
            if counts is not None:
                assert all(c == counts[0] for c in counts)
    print("CRITERION 8: PASS - byte-identical reports and census counts "
          "stable across primitive roots")
