"""Builders for the shipped algebra families.

Twisted polynomial/Laurent algebras from a skew exponent matrix, the rank-one
Borel enveloping algebra as a named twisted preset, and the quantum Weyl
algebra with its exponent-matrix calculus and w-chain; and the one l-center
bracket table of every family, over the l-th powers of its generators, in
closed form from the presentation's skew matrix and the Weyl pair exponents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactnum import QLaurent
from . import engine
from .engine import AlgebraPresentation, Element
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
    chain_skew: dict  # weyl_chain_skew(exps), checked with the engine

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
    """Quantum Weyl algebra: x_i y_i = q^s_i y_i x_i + w_{i-1}.

    The tower's skew matrix is build_weyl_matrices' sstar in tower order."""
    n = len(S)
    mats = build_weyl_matrices(S, exps)
    N = 2 * n
    names = ["y%d" % i for i in range(n, 0, -1)] + \
            ["x%d" % i for i in range(1, n + 1)]
    ypos = lambda i: n - i
    xpos = lambda i: n + i - 1
    # sstar is on y_1..y_n, x_1..x_n; the tower reverses the y's.
    order = list(range(n - 1, -1, -1)) + list(range(n, N))
    Smat = [[mats.sstar[i][j] for j in order] for i in order]
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
                      w=[w_vec(k) for k in range(n + 1)],
                      chain_skew=weyl_chain_skew(exps))
    _verify_weyl_relations(model)
    return model


def weyl_chain_skew(exps):
    """The q-exponents of the w-chain, w_j = 1 + sum_(m <= j) (q^s_m - 1)
    y_m x_m: x_i w_j = q^s_i w_j x_i and y_i w_j = q^-s_i w_j y_i when
    i <= j, and both commute otherwise; the w_j commute with each other.
    Keyed (a, b) by labels for a = x_i, y_i against b = w_j, and for
    a = w_j against b = w_k, j < k; the reversed pair has exponent -c."""
    n = len(exps)
    out = {}
    for j in range(1, n + 1):
        for i, s in enumerate(exps, 1):
            c = s if i <= j else 0
            out[("x%d" % i, "w%d" % j)] = c
            out[("y%d" % i, "w%d" % j)] = -c
        for k in range(j + 1, n + 1):
            out[("w%d" % j, "w%d" % k)] = 0
    return out


def _verify_weyl_relations(model):
    """Check the defining relation, and each exponent of the chain table
    with the engine."""
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
    elems = {g: Element.gen(P.N, pos) for pos, g in enumerate(P.gens)}
    elems.update(("w%d" % j, model.w[j]) for j in range(1, n + 1))
    for (a, b), c in model.chain_skew.items():
        if engine.mul(P, elems[a], elems[b]) != \
                engine.mul(P, elems[b], elems[a]).scale(QLaurent.q_power(c)):
            raise engine.ValidationFailed("%s %s commutation fails" % (a, b))


def _z0_table(P, r, order, pair_exps=()):
    """The l-center bracket table over the l-th powers X of the generators
    at positions order, each frame coordinate named by its generator, in
    closed form (Brown and Goodearl, Lectures on Algebraic Quantum Groups,
    Part III).

    Returns (names, exprs, kappa, chain).  With kappa = l^2 / eps, exprs
    maps the name pair of frame positions p < q to the frame polynomial
    kappa * P.S[order[p]][order[q]] * X_p X_q ({} when that entry is 0);
    kappa is None when every pair is {}.  pair_exps lists the exponents s_i
    of quantum Weyl pairs, whose x_i is frame position i - 1 and y_i
    position n + i - 1.  chain then maps w_k, k = 1..n, to
    w_k^l = 1 + sum_(m <= k) gamma_m X_m Y_m, gamma_m =
    eps^(s_m l(l-1)/2) (eps^s_m - 1)^l, and the pair (x_i, y_i) adds
    kappa * s_i / gamma_i * w_(i-1)^l, w_0^l = 1.
    """
    N = len(order)
    n = len(pair_exps)
    names = [P.gens[i] for i in order]
    kappa = r.scalar(r.l * r.l) * r.eps_power(-1)

    def key(*pos):
        return tuple(int(t in pos) for t in range(N))

    gammas = [r.eps_power(s * (r.l * (r.l - 1) // 2))
              * (r.eps_power(s) - r.one()) ** r.l for s in pair_exps]
    # w_0^l, ..., w_n^l, each with its highest pair first
    powers = [{key(): r.one()}]
    for m, gamma in enumerate(gammas):
        powers.append({key(m, n + m): gamma, **powers[-1]})
    exprs = {}
    for p in range(N):
        for q in range(p + 1, N):
            s = P.S[order[p]][order[q]]
            expr = {key(p, q): kappa * s} if s else {}
            if q == p + n:
                c = kappa * s / gammas[p]
                expr.update((m, c * v) for m, v in powers[p].items())
            exprs[(names[p], names[q])] = expr
    if not any(exprs.values()):
        kappa = None
    return names, exprs, kappa, {"w%d" % k: powers[k]
                                 for k in range(1, n + 1)}


def f_elements_and_z0_brackets(model, r):
    """l-center table of a quantum Weyl model over x_1..x_n, y_1..y_n, with
    the chain f_k = w_k^l, k = 1..n, as frame expressions (_z0_table)."""
    if not model.admissibility(r.l):
        raise ValueError("root order %d is not admissible here" % r.l)
    pairs = range(1, model.n + 1)
    return _z0_table(model.presentation, r,
                     [model.xpos(i) for i in pairs] +
                     [model.ypos(i) for i in pairs], model.exps)


def twisted_z0_table(model, r):
    """l-center table of a twisted model over its generators, in their
    order, with an empty chain (_z0_table)."""
    return _z0_table(model.presentation, r, range(model.N))
