"""Builders for the shipped algebra families.

Twisted polynomial/Laurent algebras from a skew exponent matrix, the rank-one
Borel enveloping algebra as a named twisted preset, and the quantum Weyl
algebra with its exponent-matrix calculus and w-chain; and the one l-center
bracket table of either family, over the l-th powers of its generators: in
closed form for twisted models, derived with the engine for Weyl models.
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


def _frame_table(P, r, order, chain):
    """The l-center bracket table over the l-th powers of the generators at
    positions order, each frame coordinate named by its generator.

    Returns (names, exprs, kappa, chain_exprs): exprs maps name pairs to
    frame polynomials, kappa is the product coefficient of the first pair
    with S != 0 divided by S (None when there is none), and chain_exprs maps
    each label of chain to the frame expression of its element's l-th power
    at eps.  A pair whose product coefficient is not kappa * S raises.
    """
    names = [P.gens[i] for i in order]
    frame = [FrameFactor(P.gens[i], Element.gen(P.N, i, r.l),
                         invertible=P.is_invertible(i)) for i in order]
    exprs = {}
    for p, fp in enumerate(frame):
        for fq in frame[p + 1:]:
            br = engine.poisson_bracket(P, r, fp.lift, fq.lift)
            exprs[(fp.name, fq.name)] = (
                engine.express_in_frame(P, r, br, frame) if br else {})
    kappa = None
    for p, i in enumerate(order):
        for q in range(p + 1, len(order)):
            expr = exprs[(names[p], names[q])]
            s = P.S[i][order[q]]
            if s and expr:
                key = tuple(int(t in (p, q)) for t in range(len(order)))
                derived = expr.get(key, r.zero()) / r.scalar(s)
                if kappa is None:
                    kappa = derived
                elif kappa != derived:
                    raise ArithmeticError("bracket constant is not global")
    chain_exprs = {}
    for label, elem in chain.items():
        power = engine.specialize(engine.power(P, elem, r.l), r)
        try:
            chain_exprs[label] = engine.express_in_frame(P, r, power, frame)
        except ExpressionFailed as exc:
            raise ExpressionFailed(
                "%s^l does not lie in the l-center frame" % label,
                exc.residual)
    return names, exprs, kappa, chain_exprs


def f_elements_and_z0_brackets(model, r):
    """l-center table of a quantum Weyl model over x_1..x_n, y_1..y_n, with
    the chain f_k = w_k^l, k = 1..n, as frame expressions."""
    if not model.admissibility(r.l):
        raise ValueError("root order %d is not admissible here" % r.l)
    pairs = range(1, model.n + 1)
    return _frame_table(model.presentation, r,
                        [model.xpos(i) for i in pairs] +
                        [model.ypos(i) for i in pairs],
                        {"w%d" % k: model.w[k] for k in pairs})


def twisted_z0_table(model, r):
    """l-center table of a twisted model over its generators, in their
    order, with an empty chain, in closed form: the bracket of x_i^l and
    x_j^l is kappa * S_ij times their product, kappa = l^2 / eps (None when
    S is zero).  _frame_table derives the same table with the engine."""
    N = model.N
    names = list(model.gens)
    kappa = r.scalar(r.l * r.l) * r.eps_power(-1)
    exprs = {}
    for i in range(N):
        for j in range(i + 1, N):
            s = model.S[i][j]
            key = tuple(int(t in (i, j)) for t in range(N))
            exprs[(names[i], names[j])] = {key: kappa * s} if s else {}
    if not any(exprs.values()):
        kappa = None
    return names, exprs, kappa, {}
