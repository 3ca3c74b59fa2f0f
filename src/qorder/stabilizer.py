"""Stabilizer Lie algebras of central characters and the count verdicts.

The stabilizer of a character is the quotient, by the square of its maximal
ideal, of the functions whose brackets land in the ideal.  Over a located
stratum its generators are explicit: the l-th powers of the non-extending
central torus monomials (the toral part), the extending central monomials,
and the killed-generator l-th powers (the nilpotent part).  Structure
constants come from the exact Poisson brackets, linearized at the character.
The predicted number of irreducibles is l^rank, checked against the census.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactnum import (QLaurent, NotDivisible, divide_by_cyclotomic,
                       poly_divmod, poly_trim)
from . import engine
from . import fiber as fiber_mod
from . import strata as strata_mod
from . import zlattice


class HypothesisFailed(ValueError):
    """The character vanishes somewhere the stratum construction forbids."""


class DecompositionInvalid(ArithmeticError):
    """The toral/nilpotent split could not be verified."""


# ---------------------------------------------------------------------------
# Finite-dimensional Lie algebras by structure constants.

@dataclass
class FDLie:
    """Lie algebra over the cyclotomic field with a candidate t/n split.

    bracket[(i, j)] for i < j is the coefficient vector of [b_i, b_j]; the
    antisymmetric completion is implicit.
    """

    labels: list
    root: object
    bracket: dict
    t_idx: list
    n_idx: list

    @property
    def dim(self):
        return len(self.labels)

    def bracket_of(self, i, j):
        r = self.root
        if i == j:
            return [r.zero()] * self.dim
        if i < j:
            vec = self.bracket.get((i, j))
            return list(vec) if vec else [r.zero()] * self.dim
        vec = self.bracket.get((j, i))
        return [-c for c in vec] if vec else [r.zero()] * self.dim

    def bracket_vectors(self, u, v):
        """Bracket of two coefficient vectors."""
        r = self.root
        out = [r.zero()] * self.dim
        for i, ci in enumerate(u):
            if ci.is_zero():
                continue
            for j, cj in enumerate(v):
                if cj.is_zero():
                    continue
                vec = self.bracket_of(i, j)
                for k in range(self.dim):
                    if not vec[k].is_zero():
                        out[k] = out[k] + ci * cj * vec[k]
        return out

    def ad_matrix(self, i):
        """Matrix of ad(b_i) acting on the algebra, columns = basis images."""
        cols = [self.bracket_of(i, j) for j in range(self.dim)]
        return [[col[k] for col in cols] for k in range(self.dim)]

    def verify_jacobi(self):
        r = self.root
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    ei = [r.one() if t == i else r.zero() for t in range(n)]
                    ej = [r.one() if t == j else r.zero() for t in range(n)]
                    ek = [r.one() if t == k else r.zero() for t in range(n)]
                    total = [r.zero()] * n
                    for (a, b, c) in ((ei, ej, ek), (ej, ek, ei), (ek, ei, ej)):
                        part = self.bracket_vectors(a, self.bracket_vectors(b, c))
                        total = [x + y for x, y in zip(total, part)]
                    if any(not x.is_zero() for x in total):
                        return False
        return True


@dataclass
class StabilizerResult:
    lie: FDLie
    rank: int
    checks: dict


def rank_and_checks(g):
    """Verify the t/n split and compute the rank.

    Checks: the toral candidate is abelian, the nilpotent candidate is a
    nilpotent ideal, every toral basis element acts diagonalizably, and the
    rank is dim t minus the dimension of the toral elements acting by zero.
    """
    r = g.root
    n_dim = g.dim
    checks = {}
    if set(g.t_idx) & set(g.n_idx) or len(g.t_idx) + len(g.n_idx) != n_dim:
        raise DecompositionInvalid("t/n candidates do not partition the basis")
    checks["jacobi"] = g.verify_jacobi()
    if not checks["jacobi"]:
        raise DecompositionInvalid("Jacobi identity fails")
    # (a) toral part abelian
    checks["t_abelian"] = all(
        all(c.is_zero() for c in g.bracket_of(i, j))
        for i in g.t_idx for j in g.t_idx if i < j)
    # (b) n is an ideal with vanishing lower central series; t and n
    # partition the basis, so a bracket lies in n exactly when its t
    # coordinates vanish
    def unit(i):
        return [r.one() if t == i else r.zero() for t in range(n_dim)]
    checks["n_ideal"] = all(g.bracket_of(i, j)[t].is_zero()
                            for i in range(n_dim) for j in g.n_idx
                            for t in g.t_idx)
    series = [unit(i) for i in g.n_idx]
    nilpotent = False
    for _ in range(n_dim + 1):
        if not series:
            nilpotent = True
            break
        nxt = []
        for i in g.n_idx:
            for v in series:
                w = g.bracket_vectors(unit(i), v)
                if any(not c.is_zero() for c in w):
                    nxt.append(w)
        series, _ = fiber_mod.rref_c(nxt)
    checks["n_nilpotent"] = nilpotent
    # (c) diagonalizability of each toral generator
    ads = [g.ad_matrix(i) for i in g.t_idx]
    checks["ad_t_diagonalizable"] = all(_diagonalizable(M, r) for M in ads)
    if not (checks["t_abelian"] and checks["n_ideal"] and
            checks["n_nilpotent"] and checks["ad_t_diagonalizable"]):
        raise DecompositionInvalid("t/n split checks failed: %r" % checks)
    # joint weight kernel: toral combinations acting by zero
    rows = [[M[a][b] for M in ads] for a in range(n_dim) for b in range(n_dim)]
    ker = fiber_mod.kernel_c(rows, len(g.t_idx), r)
    checks["weight_kernel_dim"] = len(ker)
    rank = len(g.t_idx) - len(ker)
    return StabilizerResult(lie=g, rank=rank, checks=checks)


def _diagonalizable(M, r):
    """True when M is diagonalizable over the algebraic closure, that is when
    the squarefree part p/gcd(p, p') of its characteristic polynomial p
    vanishes at M.  p comes from the Faddeev-LeVerrier recursion, exact in
    characteristic 0; the squarefree part is evaluated at M by Horner."""
    n = len(M)
    # M_k = M M_(k-1) + c_(n-k+1) I and c_(n-k) = -tr(M M_k) / k, with
    # M_0 = 0 and c_n = 1; p is stored low degree first.
    p = [r.zero()] * n + [r.one()]
    MMk = [[r.zero()] * n for _ in range(n)]
    for k in range(1, n + 1):
        MMk = fiber_mod.mat_mul_c(M, _plus_scalar(MMk, p[n - k + 1]), r)
        p[n - k] = -sum((MMk[i][i] for i in range(n)), r.zero()) / k
    g = p
    b = poly_trim([p[i] * i for i in range(1, n + 1)])
    while b:
        g, b = b, poly_divmod(g, b)[1]
    squarefree = poly_trim(poly_divmod(p, g)[0])
    value = [[r.zero()] * n for _ in range(n)]
    for c in reversed(squarefree):
        value = _plus_scalar(fiber_mod.mat_mul_c(value, M, r), c)
    return all(x.is_zero() for row in value for x in row)


def _plus_scalar(A, c):
    """A + c I."""
    return [[a + c if i == j else a for j, a in enumerate(row)]
            for i, row in enumerate(A)]


# ---------------------------------------------------------------------------
# Twisted-model stabilizers: everything is a lattice monomial.

def monomial_bracket_scalar(S, r, alpha, beta):
    """Poisson bracket scalar of two central monomials in a twisted algebra:
    {mono(alpha), mono(beta)} = scalar * mono(alpha + beta) at eps."""
    c1 = strata_mod.survivor_cocycle(S, alpha, beta)
    c2 = strata_mod.survivor_cocycle(S, beta, alpha)
    f = QLaurent({c1: 1}) + QLaurent({c2: -1})
    if f.is_zero():
        return r.zero()
    try:
        lift = divide_by_cyclotomic(f, r)
    except NotDivisible:
        raise engine.NotCentral("monomials do not commute at eps")
    return r.eval(lift) * r.phi_prime_eps()


@dataclass
class _LatticeGen:
    label: str
    alpha: tuple  # ambient exponent vector
    value: object  # character value (CycloNum)
    part: str  # 't', 'z', or 'i'


def _twisted_stratum_gens(ctx, located, character, level):
    model = ctx.model
    r = ctx.root
    st = located.stratum
    ts = st.torus
    N = model.N
    l = r.l
    gens = []
    for j in range(ts.p):
        row = ts.z_rows()[j]
        emb = strata_mod.embed_vector(st, N, row)
        powered = (level == "l0") or (j < ts.t)
        if powered:
            alpha = tuple(l * x for x in emb)
            val = strata_mod.monomial_l_value(st, ctx, character, row)
            gens.append(_LatticeGen("z%d^l" % (j + 1), alpha, val,
                                    "t" if j < ts.t else "z"))
        else:
            val = located.z_ext.get(j)
            if val is None:
                raise strata_mod.MissingWitness(
                    "extension value for z_%d required at this level" % (j + 1))
            gens.append(_LatticeGen("z%d" % (j + 1), tuple(emb), val, "z"))
    P = model.presentation
    for name in st.killed_labels:
        gidx = P.gen_index(name)
        alpha = tuple(l if t == gidx else 0 for t in range(N))
        gens.append(_LatticeGen("a:%s" % name, alpha, r.zero(), "i"))
    return gens


def stabilizer_from_stratum(ctx, located, character, level="eps"):
    """Stabilizer Lie algebra over a located stratum.

    level 'eps' uses the ambient-center generator list (extending monomials
    unpowered); level 'l0' uses l-th powers of everything.  Requires the
    character not to vanish on the torus part.
    """
    st = located.stratum
    for item in st.survivors:
        if item.gen_index is not None:
            val = ctx.lcenter_value(item.label, character)
            if val.is_zero():
                raise HypothesisFailed(
                    "character vanishes on survivor %s" % item.label)
    if st.kind == "A1":
        return _twisted_stabilizer(ctx, located, character, level)
    return _weyl_stabilizer(ctx, located, character, level)


def _twisted_stabilizer(ctx, located, character, level):
    model = ctx.model
    r = ctx.root
    gens = _twisted_stratum_gens(ctx, located, character, level)
    dim = len(gens)
    frame_cols = [list(g.alpha) for g in gens]
    N = model.N
    A = [[frame_cols[j][i] for j in range(dim)] for i in range(N)]
    values = [g.value for g in gens]
    bracket = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            lam = monomial_bracket_scalar(model.S, r, gens[i].alpha,
                                          gens[j].alpha)
            if lam.is_zero():
                continue
            target = [x + y for x, y in zip(gens[i].alpha, gens[j].alpha)]
            m = zlattice.solve_int(A, target)
            if m is None:
                raise engine.ExpressionFailed(
                    "bracket monomial escapes the stratum frame")
            gamma, _ = strata_mod.ordered_product_data(model.S, frame_cols, m)
            coeff = lam * r.eps_power(-gamma)
            expr = {tuple(m): coeff}
            const, grad = engine.expression_linear_part(expr, values, r)
            if not const.is_zero():
                raise HypothesisFailed(
                    "bracket of %s, %s does not vanish at the character"
                    % (gens[i].label, gens[j].label))
            if any(not c.is_zero() for c in grad):
                bracket[(i, j)] = grad
    lie = FDLie(labels=[g.label for g in gens], root=r, bracket=bracket,
                t_idx=[i for i, g in enumerate(gens) if g.part == "t"],
                n_idx=[i for i, g in enumerate(gens) if g.part != "t"])
    return lie


# ---------------------------------------------------------------------------
# Weyl-model stabilizers: chart over the l-center coordinates a, b, f.

class _WeylChart:
    """Poisson chart of a Weyl stratum: Laurent monomials in the l-th powers
    a_i, b_i and the central chain values f_k, plus opaque extending
    monomials.  Brackets come from the engine-derived table, extended by the
    Leibniz rule; gradients live over the a/b (and opaque) directions.
    """

    def __init__(self, ctx, character):
        self.model = ctx.model
        self.r = ctx.root
        self.n = self.model.n
        n = self.n
        center = ctx.weyl_center
        self.names = (["a%d" % i for i in range(1, n + 1)] +
                      ["b%d" % i for i in range(1, n + 1)] +
                      ["f%d" % i for i in range(1, n + 1)])
        self.base = 2 * n  # gradient directions: a's and b's
        self.width = 3 * n
        r = self.r
        self.values = ctx.frame_values(character) + [
            ctx.lcenter_value("w%d" % k, character) for k in range(1, n + 1)]
        # f expressions and gradients over the a/b directions
        self.f_expr = []
        self.f_grad = []
        for k in range(n + 1):
            expr = {self._pad(vec): c for vec, c in center.f_exprs[k].items()}
            self.f_expr.append(expr)
            const, grad = engine.expression_linear_part(
                center.f_exprs[k], self.values[:self.base], r)
            self.f_grad.append(grad)
        # pairwise bracket table over (a..., b..., f...): chart polynomials;
        # the f columns by the Leibniz rule through the a/b expansion of f
        self.table = {}
        for (na, nb), expr in center.brackets.items():
            self.table[(self._pos(na), self._pos(nb))] = {
                self._pad(vec): c for vec, c in expr.items()}
        coords = [{tuple(int(t == s) for t in range(self.width)): r.one()}
                  for s in range(self.base)] + self.f_expr[1:]
        for col in range(self.base, self.width):
            for s in range(col):
                self.table[(s, col)] = self.bracket_functions(coords[s],
                                                              coords[col])

    def _pos(self, name):
        if name[0] == "a":
            return int(name[1:]) - 1
        if name[0] == "b":
            return self.n + int(name[1:]) - 1
        return 2 * self.n + int(name[1:]) - 1

    def _pad(self, vec):
        return tuple(vec) + (0,) * (self.width - len(vec))

    def base_table(self, i, j):
        """Bracket of chart coordinates i, j as a chart polynomial."""
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        return {k: -c for k, c in self.table.get((j, i), {}).items()}

    def mul(self, e1, e2):
        out = {}
        for v1, c1 in e1.items():
            for v2, c2 in e2.items():
                k = tuple(a + b for a, b in zip(v1, v2))
                cur = out.get(k)
                cur = c1 * c2 if cur is None else cur + c1 * c2
                if cur:
                    out[k] = cur
                else:
                    out.pop(k, None)
        return out

    def add(self, e1, e2):
        out = dict(e1)
        for v, c in e2.items():
            cur = out.get(v)
            cur = c if cur is None else cur + c
            if cur:
                out[v] = cur
            else:
                out.pop(v, None)
        return out

    def scale(self, e, c):
        if c.is_zero():
            return {}
        return {v: c * w for v, w in e.items()}

    def bracket_monomials(self, m1, m2):
        """{chart monomial, chart monomial} by bilinear Leibniz expansion."""
        out = {}
        for s1 in range(self.width):
            if not m1[s1]:
                continue
            for s2 in range(self.width):
                if not m2[s2]:
                    continue
                base = self.base_table(s1, s2)
                if not base:
                    continue
                r1 = list(m1)
                r1[s1] -= 1
                r2 = list(m2)
                r2[s2] -= 1
                mono = tuple(a + b for a, b in zip(r1, r2))
                factor = self.r.scalar(m1[s1] * m2[s2])
                term = self.scale(self.mul({mono: self.r.one()}, base), factor)
                out = self.add(out, term)
        return out

    def bracket_functions(self, f1, f2):
        out = {}
        for m1, c1 in f1.items():
            for m2, c2 in f2.items():
                part = self.bracket_monomials(m1, m2)
                out = self.add(out, self.scale(part, c1 * c2))
        return out

    def gradient(self, expr, extra_dirs=0):
        """Linear part at the character over (a..., b...) plus opaque
        directions: the chain rule through the f coordinates."""
        r = self.r
        _, lin = engine.expression_linear_part(expr, self.values, r)
        grad = lin[:self.base] + [r.zero()] * extra_dirs
        for k, c in enumerate(lin[self.base:], start=1):
            if not c.is_zero():
                for t, g in enumerate(self.f_grad[k]):
                    if not g.is_zero():
                        grad[t] = grad[t] + c * g
        return grad


def _weyl_stabilizer(ctx, located, character, level):
    model = ctx.model
    r = ctx.root
    st = located.stratum
    ts = st.torus
    l = r.l
    chart = _WeylChart(ctx, character)
    n = model.n
    # chart monomial of each survivor's l-th power
    surv_coord = []
    for item in st.survivors:
        vec = [0] * chart.width
        if item.label[0] == "x":
            vec[int(item.label[1:]) - 1] = 1
        elif item.label[0] == "y":
            vec[n + int(item.label[1:]) - 1] = 1
        else:
            vec[2 * n + int(item.label[1:]) - 1] = 1
        surv_coord.append(tuple(vec))
    gens = []  # (label, chart function or opaque index, value, part)
    opaque = []
    for j in range(ts.p):
        row = ts.z_rows()[j]
        powered = (level == "l0") or (j < ts.t)
        if powered:
            corr = strata_mod.survivor_cocycle(st.skew, row, row) \
                * (l * (l - 1) // 2)
            vec = [0] * chart.width
            for s, e in enumerate(row):
                for t in range(chart.width):
                    vec[t] += e * surv_coord[s][t]
            mono = {tuple(vec): r.eps_power(corr)}
            gens.append(("z%d^l" % (j + 1), mono,
                         "t" if j < ts.t else "z"))
        else:
            val = located.z_ext.get(j)
            if val is None:
                raise strata_mod.MissingWitness(
                    "extension value for z_%d required" % (j + 1))
            opaque.append(val)
            gens.append(("z%d" % (j + 1), ("opaque", len(opaque) - 1), "z"))
    for name in st.killed_labels:
        vec = [0] * chart.width
        vec[chart._pos({"x": "a", "y": "b", "w": "f"}[name[0]]
                       + name[1:])] = 1
        gens.append(("a:%s" % name, {tuple(vec): r.one()}, "i"))
    dim = len(gens)
    extra = len(opaque)
    width_out = chart.base + extra
    # gradient of each generator
    grads = []
    for label, fn, part in gens:
        if isinstance(fn, tuple):
            vec = [r.zero()] * width_out
            vec[chart.base + fn[1]] = r.one()
            grads.append(vec)
        else:
            grads.append(chart.gradient(fn, extra))
    bracket = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            fi, fj = gens[i][1], gens[j][1]
            if isinstance(fi, tuple) or isinstance(fj, tuple):
                continue  # extending monomials are ambient-central
            br = chart.bracket_functions(fi, fj)
            if not br:
                continue
            const = engine.evaluate_expression(br, chart.values, r)
            if not const.is_zero():
                raise HypothesisFailed(
                    "bracket of %s, %s does not vanish at the character"
                    % (gens[i][0], gens[j][0]))
            grad = chart.gradient(br, extra)
            if all(c.is_zero() for c in grad):
                continue
            vec = fiber_mod.solve_c(
                [[grads[t][d] for t in range(dim)] for d in range(width_out)],
                grad, dim, r)
            if vec is None:
                raise engine.ExpressionFailed(
                    "bracket class escapes the stabilizer basis")
            if any(not c.is_zero() for c in vec):
                bracket[(i, j)] = vec
    lie = FDLie(labels=[g[0] for g in gens], root=r, bracket=bracket,
                t_idx=[i for i, g in enumerate(gens) if g[2] == "t"],
                n_idx=[i for i, g in enumerate(gens) if g[2] != "t"])
    return lie


# ---------------------------------------------------------------------------
# Linearized stabilizer directly from an l-center bracket table.

def linearized_stabilizer(names, exprs, values, r):
    """Stabilizer of a character of the l-center from its bracket table.

    The degree-one part of the stabilizer is the kernel of the evaluated
    Poisson tensor; the induced bracket is the linearization of the table.
    Returns an FDLie on a kernel basis with a t/n candidate split.
    """
    m = len(names)
    tensor = [[r.zero()] * m for _ in range(m)]
    lin = {}
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            if (names[i], names[j]) in exprs:
                expr = exprs[(names[i], names[j])]
            elif (names[j], names[i]) in exprs:
                expr = {k: -c for k, c in exprs[(names[j], names[i])].items()}
            else:
                expr = {}
            const, grad = engine.expression_linear_part(expr, values, r)
            tensor[i][j] = const
            lin[(i, j)] = grad
    kernel = fiber_mod.kernel_c(tensor, m, r)
    dim = len(kernel)
    bracket = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            grad = [r.zero()] * m
            for i in range(m):
                ci = kernel[a][i]
                if ci.is_zero():
                    continue
                for j in range(m):
                    if i == j:
                        continue
                    cj = kernel[b][j]
                    if cj.is_zero():
                        continue
                    g = lin[(i, j)]
                    for t in range(m):
                        if not g[t].is_zero():
                            grad[t] = grad[t] + ci * cj * g[t]
            if all(c.is_zero() for c in grad):
                continue
            vec = fiber_mod.solve_c(
                [[kernel[t][d] for t in range(dim)] for d in range(m)],
                grad, dim, r)
            if vec is None:
                raise engine.ExpressionFailed(
                    "linearized bracket leaves the tensor kernel")
            bracket[(a, b)] = vec
    labels = ["k%d" % (a + 1) for a in range(dim)]
    lie = FDLie(labels=labels, root=r, bracket=bracket, t_idx=[], n_idx=[])
    return _attach_split(lie)


def _attach_split(g):
    """Rebase onto a heuristic split: derived algebra plus center as the
    nilpotent candidate, a coordinate complement as the toral candidate.
    The split is verified later by rank_and_checks, never assumed."""
    r = g.root
    dim = g.dim
    vectors = []
    for i in range(dim):
        for j in range(i + 1, dim):
            vec = g.bracket_of(i, j)
            if any(not c.is_zero() for c in vec):
                vectors.append(vec)
    units = [[r.one() if t == i else r.zero() for t in range(dim)]
             for i in range(dim)]
    for i in range(dim):
        if all(all(c.is_zero() for c in g.bracket_of(i, j))
               for j in range(dim)):
            vectors.append(units[i])
    rows, piv = fiber_mod.rref_c(vectors)
    t_cols = [i for i in range(dim) if i not in set(piv)]
    basis = [units[c] for c in t_cols] + rows
    if len(basis) != dim:
        raise DecompositionInvalid("split candidates do not span")
    mat = [[basis[t][d] for t in range(dim)] for d in range(dim)]
    bracket = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            w = g.bracket_vectors(basis[i], basis[j])
            if all(c.is_zero() for c in w):
                continue
            vec = fiber_mod.solve_c(mat, w, dim, r)
            if vec is None:
                raise DecompositionInvalid("rebase failed to express a bracket")
            bracket[(i, j)] = vec
    out = FDLie(labels=["v%d" % (i + 1) for i in range(dim)], root=r,
                bracket=bracket, t_idx=list(range(len(t_cols))),
                n_idx=list(range(len(t_cols), dim)))
    return out


# ---------------------------------------------------------------------------
# The full verdict pipeline.

@dataclass
class TheoremReport:
    admissible: bool
    covered: bool
    stratum_id: str | None
    t: int | None
    rank_chi: int | None
    rank_chi0: int | None
    predicted: int | None
    oracle: int | None
    verdict: str
    kappa: object = None
    checks: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def psi_check(g_l0, g_eps, r):
    """The toral map between the two stabilizer levels.

    Toral labels agree between levels; the map must be injective there and
    must intertwine the structure constants on the toral part acting on the
    shared nilpotent labels.
    """
    labels0 = [g_l0.labels[i] for i in g_l0.t_idx]
    labels1 = [g_eps.labels[i] for i in g_eps.t_idx]
    if labels0 != labels1:
        return False
    common = [lab for lab in g_l0.labels if lab in set(g_eps.labels)]
    pos0 = {lab: g_l0.labels.index(lab) for lab in common}
    pos1 = {lab: g_eps.labels.index(lab) for lab in common}
    for lt in labels0:
        for ln in common:
            v0 = g_l0.bracket_of(pos0[lt], pos0[ln])
            v1 = g_eps.bracket_of(pos1[lt], pos1[ln])
            for lab in common:
                c0 = v0[g_l0.labels.index(lab)]
                c1 = v1[g_eps.labels.index(lab)]
                if c0 != c1:
                    return False
    return True


def _census_count(model, character, r, located, dims, notes):
    """The census count of the character's fiber, or None with a note when
    the fiber is over the size cap, needs an extension quotient the table
    build lacks, or its blocks are not split."""
    try:
        A = fiber_mod.fiber_algebra(model, character, r, located)
        return fiber_mod.census(A, dims).count
    except (fiber_mod.TooLarge, fiber_mod.Unsupported,
            fiber_mod.NonSplit) as exc:
        notes.append("census: %s" % exc)
        return None


def main_theorem_check(model, character, r, ctx=None):
    """Predicted irreducible count versus the census, with all checks.

    Locates the character, builds the stabilizers at both levels (or the
    linearized fallback off the strata), predicts l^rank, runs the fiber
    census, and reports the comparison.  A fiber over the size cap or with
    blocks not split over Q(eps) leaves the prediction UNCHECKED.
    """
    adm = model.admissibility(r.l)
    if not adm:
        return TheoremReport(admissible=False, covered=False, stratum_id=None,
                             t=None, rank_chi=None, rank_chi0=None,
                             predicted=None, oracle=None,
                             verdict="INADMISSIBLE")
    if ctx is None:
        ctx = strata_mod.enumerate_strata(model, r)
    character.check(model, r)
    try:
        kappa = ctx.bracket_table()[2]
    except ArithmeticError:
        kappa = None
    loc = strata_mod.locate(character, ctx)
    notes = []
    if isinstance(loc, strata_mod.Uncovered):
        names, exprs, _ = ctx.bracket_table()
        g = linearized_stabilizer(names, exprs, ctx.frame_values(character), r)
        res = rank_and_checks(g)
        predicted = r.l ** res.rank
        oracle = _census_count(model, character, r, None, None, notes)
        if oracle is None:
            verdict = "UNCHECKED"
        else:
            verdict = "PASS-with-flag" if predicted == oracle else "FAIL"
        notes.extend("%s: %s" % d for d in loc.diagnostics)
        return TheoremReport(admissible=True, covered=False, stratum_id=None,
                             t=None, rank_chi=res.rank, rank_chi0=res.rank,
                             predicted=predicted, oracle=oracle,
                             verdict=verdict, kappa=kappa,
                             checks=res.checks, notes=notes)
    g_l0 = stabilizer_from_stratum(ctx, loc, character, level="l0")
    res_l0 = rank_and_checks(g_l0)
    try:
        g_eps = stabilizer_from_stratum(ctx, loc, character, level="eps")
        res_eps = rank_and_checks(g_eps)
    except strata_mod.MissingWitness as exc:
        # extension values outside the cyclotomic field: fall back to the
        # l-center level and compare against the count summed over the
        # unresolved extensions
        g_eps, res_eps = None, None
        notes.append(str(exc))
    if res_eps is not None:
        checks = {"eps": res_eps.checks, "l0": res_l0.checks,
                  "psi_toral": psi_check(g_l0, g_eps, r),
                  "rank_equal": res_eps.rank == res_l0.rank}
        rank = res_eps.rank
    else:
        checks = {"l0": res_l0.checks}
        rank = res_l0.rank
    predicted = r.l ** rank
    try:
        reps = fiber_mod.clock_shift_irreps(ctx, loc, character)
        dims = [p.dim for p in reps]
    except strata_mod.MissingWitness as exc:
        reps, dims = None, None
        notes.append(str(exc))
    ts = loc.stratum.torus
    missing_ext = [j for j in range(ts.t, ts.p) if j not in loc.z_ext]
    multiplier = r.l ** len(missing_ext)
    oracle = _census_count(model, character, r, loc, dims, notes)
    if dims is not None and oracle is not None and len(dims) != oracle:
        notes.append("constructed %d representations, census %d"
                     % (len(dims), oracle))
    ok = (oracle in (None, multiplier * predicted)
          and predicted == r.l ** ts.t
          and checks.get("rank_equal", True)
          and checks.get("psi_toral", True))
    flagged = bool(missing_ext) or res_eps is None
    if missing_ext:
        notes.append("census taken over %d unresolved extension values"
                     % len(missing_ext))
    # linearized comparison when the character level allows it
    try:
        names, exprs, _ = ctx.bracket_table()
        g_lin = linearized_stabilizer(names, exprs,
                                      ctx.frame_values(character), r)
        res_lin = rank_and_checks(g_lin)
        checks["linearized_rank"] = res_lin.rank
        if res_lin.rank != rank:
            notes.append("linearized rank %d disagrees with stratum rank %d"
                         % (res_lin.rank, rank))
    except (engine.ExpressionFailed, DecompositionInvalid) as exc:
        notes.append("linearized path unavailable: %s" % exc)
    if not ok:
        verdict = "FAIL"
    elif oracle is None:
        verdict = "UNCHECKED"
    else:
        verdict = "PASS-with-flag" if flagged else "PASS"
    return TheoremReport(admissible=True, covered=True,
                         stratum_id=loc.stratum.stratum_id,
                         t=loc.stratum.torus.t,
                         rank_chi=res_eps.rank if res_eps else None,
                         rank_chi0=res_l0.rank,
                         predicted=predicted, oracle=oracle,
                         verdict=verdict,
                         kappa=kappa, checks=checks, notes=notes)

