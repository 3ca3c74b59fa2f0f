"""Builders for the shipped algebra families.

Twisted polynomial/Laurent algebras from a skew exponent matrix, the rank-one
Borel enveloping algebra as a named twisted preset, and the quantum Weyl
algebra with its exponent-matrix calculus, w-chain, and the derived structure
of its l-center.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactnum import QLaurent
from . import engine
from .engine import (
    AlgebraPresentation,
    Element,
    ExpressionFailed,
    FrameFactor,
)
from . import zlattice


@dataclass
class TwistedModel:
    """Twisted polynomial algebra data: presentation plus its input matrix."""

    kind: str
    presentation: AlgebraPresentation
    S: list
    n_poly: int
    exps: list = field(default_factory=list)

    @property
    def N(self):
        return self.presentation.N

    @property
    def gens(self):
        return self.presentation.gens

    def admissibility(self, l):
        return zlattice.is_admissible(self.S, [s for s in self.exps if s], l)


def build_twisted(S, n_poly, names=None):
    """Twisted polynomial algebra: x_i x_j = q^(S_ij) x_j x_i, no deltas."""
    N = len(S)
    if names is None:
        names = ["x%d" % (i + 1) for i in range(N)]
    pres = AlgebraPresentation(names, n_poly, S)
    engine.validate(pres)
    return TwistedModel(kind="twisted", presentation=pres, S=[list(r) for r in S],
                        n_poly=n_poly)


def build_borel_sl2():
    """Rank-one Borel enveloping algebra as twisted data: K F = q^-2 F K."""
    model = build_twisted([[0, 2], [-2, 0]], 1, names=["f", "k"])
    model.kind = "borel-sl2"
    return model


@dataclass
class WeylMatrices:
    """Exponent matrices of the quantum Weyl relations.

    texp: skew exponents of the x-block commutations (x_i x_j = q^t_ij x_j x_i)
    uexp: exponents of the cross relations (x_i y_j = q^u_ij y_j x_i)
    sstar: the assembled 2n x 2n skew matrix on the (y..., x...) generators
    """

    texp: list
    uexp: list
    sstar: list


def build_weyl_matrices(S, exps):
    """Derive the t/u exponent matrices and the assembled skew block matrix."""
    n = len(S)
    if len(exps) != n:
        raise ValueError("need one exponent per pair of generators")
    if any(s == 0 for s in exps):
        raise ValueError("pair exponents must be nonzero")
    if not zlattice.is_skew(S):
        raise zlattice.NotSkew("S must be skew-symmetric")
    texp = [[0] * n for _ in range(n)]
    uexp = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i < j:
                texp[i][j] = exps[i] + S[i][j]
            elif i > j:
                texp[i][j] = -(exps[j] + S[j][i])
            if i < j:
                uexp[i][j] = S[j][i]
            elif i == j:
                uexp[i][j] = exps[i]
            else:
                uexp[i][j] = exps[j] + S[j][i]
    # Skew assembly: the (y, x) block carries -u^T so the whole matrix is the
    # honest q-exponent table of the 2n generators.
    sstar = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            sstar[i][j] = S[i][j]
            sstar[i][n + j] = -uexp[j][i]
            sstar[n + i][j] = uexp[i][j]
            sstar[n + i][n + j] = texp[i][j]
    return WeylMatrices(texp=texp, uexp=uexp, sstar=sstar)


@dataclass
class WeylModel:
    """Quantum Weyl algebra on pairs (y_i, x_i) with the w-chain computed.

    Generator tower order is y_n, ..., y_1, x_1, ..., x_n; that ordering puts
    every delta value in the later subalgebra, as the Ore axioms require.
    """

    kind: str
    presentation: AlgebraPresentation
    S: list
    exps: list
    n: int
    matrices: WeylMatrices
    w: list  # w_0 = 1, w_1, ..., w_n as Elements

    @property
    def N(self):
        return self.presentation.N

    @property
    def gens(self):
        return self.presentation.gens

    def ypos(self, i):
        """Tower position of y_i, 1-based pair index."""
        return self.n - i

    def xpos(self, i):
        return self.n + i - 1

    def admissibility(self, l):
        return zlattice.is_admissible(self.matrices.sstar, self.exps, l)


def build_weyl(S, exps):
    """Quantum Weyl algebra: x_i y_i = q^s_i y_i x_i + w_{i-1}."""
    n = len(S)
    mats = build_weyl_matrices(S, exps)
    N = 2 * n
    names = ["y%d" % i for i in range(n, 0, -1)] + \
            ["x%d" % i for i in range(1, n + 1)]
    ypos = lambda i: n - i
    xpos = lambda i: n + i - 1
    Smat = [[0] * N for _ in range(N)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            Smat[ypos(i)][ypos(j)] = S[i - 1][j - 1]
            Smat[xpos(i)][xpos(j)] = mats.texp[i - 1][j - 1]
            Smat[ypos(i)][xpos(j)] = -mats.uexp[j - 1][i - 1]
            Smat[xpos(i)][ypos(j)] = mats.uexp[i - 1][j - 1]
    expsys = [0] * N
    for i in range(1, n + 1):
        expsys[ypos(i)] = exps[i - 1]

    def w_vec(k):
        # w_k = 1 + sum_{m <= k} (q^s_m - 1) y_m x_m, already PBW-normal.
        terms = {(0,) * N: QLaurent.one()}
        for m in range(1, k + 1):
            vec = [0] * N
            vec[ypos(m)] = 1
            vec[xpos(m)] = 1
            terms[tuple(vec)] = QLaurent({exps[m - 1]: 1, 0: -1})
        return Element(N, terms)

    delta = {}
    for i in range(1, n + 1):
        # y_i x_i = q^-s_i x_i y_i - q^-s_i w_{i-1}
        rule = w_vec(i - 1).scale(QLaurent.q_power(-exps[i - 1], -1))
        delta[(ypos(i), xpos(i))] = rule
    pres = AlgebraPresentation(names, N, Smat, exps=expsys, delta=delta)
    engine.validate(pres)
    model = WeylModel(kind="weyl", presentation=pres, S=[list(r) for r in S],
                      exps=list(exps), n=n, matrices=mats,
                      w=[w_vec(k) for k in range(n + 1)])
    _verify_weyl_relations(model)
    return model


def _verify_weyl_relations(model):
    """Check the defining relation and the commutation table of the w-chain."""
    P = model.presentation
    n = model.n
    for i in range(1, n + 1):
        x = Element.gen(P.N, model.xpos(i))
        y = Element.gen(P.N, model.ypos(i))
        lhs = engine.mul(P, x, y)
        rhs = engine.mul(P, y, x).scale(QLaurent.q_power(model.exps[i - 1]))
        rhs = rhs + model.w[i - 1]
        if lhs != rhs:
            raise engine.ValidationFailed(
                "defining relation fails for pair %d" % i)
        wi = model.w[i]
        comm = engine.commutator(P, x, y)
        if comm != wi:
            raise engine.ValidationFailed("[x_%d, y_%d] != w_%d" % (i, i, i))
    for i in range(1, n + 1):
        for j in range(n + 1):
            wj = model.w[j]
            y = Element.gen(P.N, model.ypos(i))
            x = Element.gen(P.N, model.xpos(i))
            sy = -model.exps[i - 1] if i <= j else 0
            sx = model.exps[i - 1] if i <= j else 0
            if engine.mul(P, y, wj) != \
                    engine.mul(P, wj, y).scale(QLaurent.q_power(sy)):
                raise engine.ValidationFailed(
                    "y_%d w_%d commutation fails" % (i, j))
            if engine.mul(P, x, wj) != \
                    engine.mul(P, wj, x).scale(QLaurent.q_power(sx)):
                raise engine.ValidationFailed(
                    "x_%d w_%d commutation fails" % (i, j))


def weyl_pair_exponent(model, gen_label, surv):
    """Leading q-exponent when moving a generator past a survivor element.

    surv is ('x', i), ('y', i) or ('w', i); gen_label likewise restricted to
    generators ('x'/'y').  Returns c with  g * s = q^c * s * g  up to lower
    terms.
    """
    kind_g, i = gen_label
    kind_s, j = surv
    mats = model.matrices
    s_i = model.exps[i - 1]
    if kind_s == "w":
        if kind_g == "x":
            return s_i if i <= j else 0
        if kind_g == "y":
            return -s_i if i <= j else 0
        return 0
    if kind_g == "w":
        # inverse of the generator-past-w rule
        return -weyl_pair_exponent(model, surv, gen_label) if kind_s != "w" else 0
    gi = model.xpos(i) if kind_g == "x" else model.ypos(i)
    sj = model.xpos(j) if kind_s == "x" else model.ypos(j)
    return model.presentation.S[gi][sj]


@dataclass
class WeylCenterReport:
    """Derived l-center structure of a quantum Weyl model.

    f_exprs[i] is the expression of w_i^l at eps as a polynomial in the
    l-th powers a_k = x_k^l, b_k = y_k^l (exponent vectors over the frame
    a_1..a_n, b_1..b_n); gammas[k] is the coefficient of a_k b_k in f_k.
    brackets maps ordered generator-name pairs to frame expressions.  Every
    bracket of l-th powers equals kappa times the matching skew exponent
    times the product; diagonal pairs carry an extra f_consts[i-1] * f_{i-1}.
    """

    frame_names: list
    f_exprs: list
    gammas: list
    gamma_bound: str  # "k<=i" or "k<i", whichever the expansion shows
    brackets: dict
    kappa: object  # derived global constant
    f_consts: list  # derived normalizations of the diagonal additive term
    shapes_ok: bool
    shape_notes: list


def _weyl_ab_frame(model, r):
    P = model.presentation
    pairs = range(1, model.n + 1)
    frame = ([FrameFactor("a%d" % i, Element.gen(P.N, model.xpos(i), r.l))
              for i in pairs] +
             [FrameFactor("b%d" % i, Element.gen(P.N, model.ypos(i), r.l))
              for i in pairs])
    return [f.name for f in frame], frame


def frame_brackets(P, r, frame):
    """Poisson brackets of the frame factors written in the frame: maps
    (f_p.name, f_q.name), for p < q in frame order, to a frame polynomial."""
    out = {}
    for p, fp in enumerate(frame):
        for fq in frame[p + 1:]:
            br = engine.poisson_bracket(P, r, fp.lift, fq.lift)
            out[(fp.name, fq.name)] = (
                engine.express_in_frame(P, r, br, frame) if br else {})
    return out


def f_elements_and_z0_brackets(model, r):
    """Expand f_i = w_i^l at eps over the a/b frame and tabulate brackets.

    Verifies the expected l-center shapes: every bracket of l-th powers is a
    single global constant gamma times the matching exponent times the
    product, with the extra additive term f_{i-1} on diagonal pairs.
    """
    P = model.presentation
    n = model.n
    adm = model.admissibility(r.l)
    if not adm:
        raise ValueError("root order %d is not admissible here" % r.l)
    names, frame = _weyl_ab_frame(model, r)
    f_exprs = [{(0,) * (2 * n): r.one()}]  # f_0 = 1
    for i in range(1, n + 1):
        wl = engine.specialize(engine.power(P, model.w[i], r.l), r)
        try:
            expr = engine.express_in_frame(P, r, wl, frame)
        except ExpressionFailed as exc:
            raise ExpressionFailed(
                "w_%d^l does not lie in the l-center frame" % i,
                exc.residual)
        f_exprs.append(expr)
    gammas = []
    bound = "k<=i"
    for k in range(1, n + 1):
        vec = [0] * (2 * n)
        vec[k - 1] = 1
        vec[n + k - 1] = 1
        g = f_exprs[k].get(tuple(vec), r.zero())
        gammas.append(g)
        if g.is_zero():
            bound = "k<i"
    shape_notes = []
    shapes_ok = True
    for i in range(1, n + 1):
        expect_keys = {(0,) * (2 * n)}
        for k in range(1, i + 1):
            vec = [0] * (2 * n)
            vec[k - 1] = 1
            vec[n + k - 1] = 1
            expect_keys.add(tuple(vec))
        if not set(f_exprs[i]) <= expect_keys:
            shapes_ok = False
            shape_notes.append("f_%d has terms outside 1 + sum gamma_k a_k b_k" % i)

    brackets = frame_brackets(P, r, frame)
    mats = model.matrices

    def pair_vec(p, q):
        vec = [0] * (2 * n)
        vec[p] += 1
        vec[q] += 1
        return tuple(vec)

    # The global constant comes out of the diagonal leading terms; the pair
    # exponents s_i are nonzero, so kappa is always determined.
    kappa = None
    for i in range(1, n + 1):
        expr = brackets[("a%d" % i, "b%d" % i)]
        lead = expr.get(pair_vec(i - 1, n + i - 1), r.zero())
        derived = lead / r.scalar(model.exps[i - 1])
        if kappa is None:
            kappa = derived
        elif kappa != derived:
            shapes_ok = False
            shape_notes.append("diagonal brackets disagree on the constant")

    def check_pair(key, exponent, prod_key):
        nonlocal shapes_ok
        expr = brackets.get(key)
        if expr is None:
            return
        coeff = expr.get(prod_key, r.zero())
        rest = {k: v for k, v in expr.items() if k != prod_key}
        if rest:
            shapes_ok = False
            shape_notes.append("bracket %s has unexpected terms" % (key,))
            return
        if coeff != kappa * r.scalar(exponent):
            shapes_ok = False
            shape_notes.append(
                "bracket %s is not kappa * %d * product" % (key, exponent))

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i < j:
                check_pair(("a%d" % i, "a%d" % j), mats.texp[i - 1][j - 1],
                           pair_vec(i - 1, j - 1))
                check_pair(("b%d" % i, "b%d" % j), model.S[i - 1][j - 1],
                           pair_vec(n + i - 1, n + j - 1))
            if i != j:
                check_pair(("a%d" % i, "b%d" % j), mats.uexp[i - 1][j - 1],
                           pair_vec(i - 1, n + j - 1))
    # Diagonal pairs: the remainder past kappa s_i a_i b_i must be a scalar
    # multiple of f_{i-1}; the scalar is derived and reported.
    f_consts = []
    for i in range(1, n + 1):
        expr = dict(brackets[("a%d" % i, "b%d" % i)])
        _sub_expr(expr, {pair_vec(i - 1, n + i - 1):
                         kappa * r.scalar(model.exps[i - 1])}, r)
        fprev = f_exprs[i - 1]
        const = expr.get((0,) * (2 * n), r.zero())
        f_consts.append(const)
        scaled = {k: v * const for k, v in fprev.items()}
        _sub_expr(expr, scaled, r)
        if any(expr.values()):
            shapes_ok = False
            shape_notes.append(
                "bracket (a%d, b%d) - kappa s a b is not proportional to f_%d"
                % (i, i, i - 1))
        elif const.is_zero():
            shapes_ok = False
            shape_notes.append("diagonal additive term vanished at pair %d" % i)
    return WeylCenterReport(frame_names=names, f_exprs=f_exprs,
                            gammas=gammas, gamma_bound=bound,
                            brackets=brackets, kappa=kappa,
                            f_consts=f_consts, shapes_ok=shapes_ok,
                            shape_notes=shape_notes)


def _sub_expr(target, other, r):
    for k, v in other.items():
        cur = target.get(k, r.zero()) - v
        if cur:
            target[k] = cur
        else:
            target.pop(k, None)


def twisted_z0_table(model, r):
    """Bracket table of the l-center of a twisted model, with the constant.

    Returns (names, exprs, kappa): names a_1..a_N, exprs over the a-frame,
    and the single derived constant kappa with every bracket equal to
    kappa * S_ij * a_i a_j (kappa is None when S = 0).
    """
    P = model.presentation
    N = model.N
    names = ["a%d" % (i + 1) for i in range(N)]
    frame = [FrameFactor(names[i], Element.gen(N, i, r.l),
                         invertible=model.presentation.is_invertible(i))
             for i in range(N)]
    exprs = frame_brackets(P, r, frame)
    kappa = None
    for i in range(N):
        for j in range(i + 1, N):
            expr = exprs[(names[i], names[j])]
            s = model.S[i][j]
            key = tuple(1 if t in (i, j) else 0 for t in range(N))
            if s and expr:
                c = expr.get(key)
                derived = c / r.scalar(s)
                if kappa is None:
                    kappa = derived
                elif kappa != derived:
                    raise ArithmeticError(
                        "twisted bracket constant is not global")
    return names, exprs, kappa
