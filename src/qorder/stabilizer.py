"""Stabilizer Lie algebras of central characters and the count verdicts.

The stabilizer of a character is the quotient, by the square of its maximal
ideal, of the functions whose brackets land in the ideal.  Over a located
stratum its generators are explicit: the l-th powers of the non-extending
central torus monomials (the toral part), the extending central monomials,
and the killed-generator l-th powers (the nilpotent part).  One chart of the
l-center serves every model and the linearized path: structure constants
are the gradients at the character of Poisson brackets taken from the
l-center bracket table by the Leibniz rule.  When the stratum has no
extending central monomial, the eps and l0 levels take the same generators,
so one algebra and its checks serve both.  The split checks and the rank
read only the nonzero brackets and their nonzero coordinates.  The
predicted number of irreducibles is l^rank, checked against the census.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .exactnum import poly_divmod, poly_trim
from . import engine
from . import fiber as fiber_mod
from . import strata as strata_mod


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
    antisymmetric completion is implicit, and a missing or all-zero vector
    is a zero bracket.  The checks read only the nonzero brackets, which are
    collected on first use: bracket is not to change after that.
    """

    labels: list
    root: object
    bracket: dict
    t_idx: list
    n_idx: list

    @property
    def dim(self):
        return len(self.labels)

    @cached_property
    def nonzero_brackets(self):
        """{(i, j): [(k, c), ...]} over both orders of each stored pair with
        a nonzero vector: c runs over the nonzero coordinates of
        [b_i, b_j]."""
        out = {}
        for (i, j), vec in self.bracket.items():
            terms = [(k, c) for k, c in enumerate(vec) if not c.is_zero()]
            if terms:
                out[(i, j)] = terms
                out[(j, i)] = [(k, -c) for k, c in terms]
        return out

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
        out = [self.root.zero()] * self.dim
        for (i, j), terms in self.nonzero_brackets.items():
            a, b = u[i], v[j]
            if a.is_zero() or b.is_zero():
                continue
            c = a * b
            for k, x in terms:
                out[k] = out[k] + c * x
        return out

    def ad_matrix(self, i):
        """Matrix of ad(b_i) acting on the algebra, columns = basis images."""
        zero = self.root.zero()
        M = [[zero] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            for k, c in self.nonzero_brackets.get((i, j), ()):
                M[k][j] = c
        return M

    def verify_jacobi(self):
        """True when the cyclic sum of [b_a, [b_b, b_c]] vanishes for every
        triple.  The sum is alternating, so a nonzero pair b < c and a third
        index a add s [b_a, [b_b, b_c]] to the sum of the sorted triple, with
        s = -1 when a lies between b and c; triples with no nonzero pair sum
        to zero."""
        nz = self.nonzero_brackets
        sums = {}
        for (b, c), inner in nz.items():
            if b > c:
                continue
            for a in range(self.dim):
                if a == b or a == c:
                    continue
                acc = sums.setdefault(tuple(sorted((a, b, c))), {})
                for m, x in inner:
                    for k, y in nz.get((a, m), ()):
                        term = x * y
                        engine.add_term(acc, k,
                                        -term if b < a < c else term)
        return not any(sums.values())


@dataclass
class StabilizerResult:
    rank: int
    checks: dict


def rank_and_checks(g):
    """Verify the t/n split and compute the rank.

    Checks: the toral candidate is abelian, the nilpotent candidate is a
    nilpotent ideal, every toral basis element acts diagonalizably, and the
    rank is dim t minus the dimension of the toral elements acting by zero.
    Every check reads the nonzero brackets only, so an abelian algebra does
    no elimination.
    """
    r = g.root
    n_dim = g.dim
    checks = {}
    t_set, n_set = set(g.t_idx), set(g.n_idx)
    if t_set & n_set or len(g.t_idx) + len(g.n_idx) != n_dim:
        raise DecompositionInvalid("t/n candidates do not partition the basis")
    checks["jacobi"] = g.verify_jacobi()
    if not checks["jacobi"]:
        raise DecompositionInvalid("Jacobi identity fails")
    nz = g.nonzero_brackets
    # (a) toral part abelian
    checks["t_abelian"] = not any(i in t_set and j in t_set for i, j in nz)
    # (b) n is an ideal with vanishing lower central series; t and n
    # partition the basis, so a bracket lies in n exactly when its t
    # coordinates vanish
    checks["n_ideal"] = all(k not in t_set for (i, j), terms in nz.items()
                            if j in n_set for k, _ in terms)

    def unit(i):
        return [r.one() if t == i else r.zero() for t in range(n_dim)]
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
    # joint weight kernel: toral combinations acting by zero, one row per
    # entry where some toral ad is nonzero
    entries = sorted({(k, j) for i in g.t_idx for j in range(n_dim)
                      for k, _ in nz.get((i, j), ())})
    rows = [[M[k][j] for M in ads] for k, j in entries]
    ker = fiber_mod.kernel_c(rows, len(g.t_idx), r)
    checks["weight_kernel_dim"] = len(ker)
    rank = len(g.t_idx) - len(ker)
    return StabilizerResult(rank=rank, checks=checks)


def _diagonalizable(M, r):
    """True when M is diagonalizable over the algebraic closure.  A diagonal
    M is, with no arithmetic; any other goes through _diagonalizable_charpoly."""
    if all(not x for i, row in enumerate(M) for j, x in enumerate(row)
           if i != j):
        return True
    return _diagonalizable_charpoly(M, r)


def _diagonalizable_charpoly(M, r):
    """True when the squarefree part p/gcd(p, p') of the characteristic
    polynomial p of M vanishes at M.  p comes from the Faddeev-LeVerrier
    recursion, exact in characteristic 0; the squarefree part is evaluated at
    M by Horner."""
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
# One chart of the l-center and one stabilizer builder.

class _Chart:
    """Poisson chart of the l-center at a point.

    Chart functions are Laurent polynomials {exponent vector: coefficient}
    in the frame coordinates of an l-center bracket table, followed by the
    table's chain coordinates f, given by their frame expansions.  Brackets
    come from the table, extended by the Leibniz rule; gradients live over
    the frame coordinates, with the chain rule through the f's.
    """

    def __init__(self, names, exprs, values, r, f_exprs=()):
        self.r = r
        self.base = len(names)
        self.width = self.base + len(f_exprs)
        pad = (0,) * len(f_exprs)
        self.values = list(values) + [
            engine.evaluate_expression(f, values, r) for f in f_exprs]
        self.f_grad = [engine.expression_linear_part(f, values, r)[1]
                       for f in f_exprs]
        pos = {name: s for s, name in enumerate(names)}
        self.table = {(pos[a], pos[b]): {m + pad: c for m, c in expr.items()}
                      for (a, b), expr in exprs.items()}
        coords = [self.unit(s) for s in range(self.base)] + [
            {m + pad: c for m, c in f.items()} for f in f_exprs]
        for col in range(self.base, self.width):
            for s in range(col):
                self.table[(s, col)] = self.bracket(coords[s], coords[col])

    def unit(self, s, c=None):
        """The chart function c times coordinate s."""
        return {tuple(int(t == s) for t in range(self.width)):
                self.r.one() if c is None else c}

    def coordinate_bracket(self, s1, s2):
        if (s1, s2) in self.table:
            return self.table[(s1, s2)]
        return {m: -c for m, c in self.table.get((s2, s1), {}).items()}

    def bracket(self, f1, f2):
        """{f1, f2} by the Leibniz rule over the coordinate brackets."""
        out = {}
        for m1, c1 in f1.items():
            for m2, c2 in f2.items():
                for s1, e1 in enumerate(m1):
                    for s2, e2 in enumerate(m2):
                        base = self.coordinate_bracket(s1, s2) \
                            if e1 and e2 else None
                        if not base:
                            continue
                        c = c1 * c2 * self.r.scalar(e1 * e2)
                        rest = [a + b for a, b in zip(m1, m2)]
                        rest[s1] -= 1
                        rest[s2] -= 1
                        for m, cb in base.items():
                            engine.add_term(
                                out, tuple(a + b for a, b in zip(rest, m)),
                                c * cb)
        return out

    def linear_part(self, f):
        """(value, gradient over the frame coordinates) of f at the point."""
        const, lin = engine.expression_linear_part(f, self.values, self.r)
        grad = lin[:self.base]
        for c, fg in zip(lin[self.base:], self.f_grad):
            if not c.is_zero():
                grad = [g + c * d for g, d in zip(grad, fg)]
        return const, grad


def _stabilizer_lie(chart, gens):
    """Stabilizer Lie algebra on generators (label, chart function, part).

    A function None is an opaque direction, central in the ambient algebra.
    The bracket of two generators is the gradient of their chart bracket,
    which must vanish at the point, written in the generators' gradients.
    Part 't' marks the toral candidates; the rest form the nilpotent one.
    """
    r = chart.r
    dim = len(gens)
    opaque = [i for i, g in enumerate(gens) if g[1] is None]
    pad = [r.zero()] * len(opaque)
    grads = []
    for i, (_, fn, _) in enumerate(gens):
        if fn is None:
            vec = [r.zero()] * (chart.base + len(opaque))
            vec[chart.base + opaque.index(i)] = r.one()
        else:
            vec = chart.linear_part(fn)[1] + pad
        grads.append(vec)
    mat = [[g[d] for g in grads] for d in range(chart.base + len(opaque))]
    bracket = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            fi, fj = gens[i][1], gens[j][1]
            br = {} if fi is None or fj is None else chart.bracket(fi, fj)
            if not br:
                continue
            const, grad = chart.linear_part(br)
            if not const.is_zero():
                raise HypothesisFailed(
                    "bracket of %s, %s does not vanish at the character"
                    % (gens[i][0], gens[j][0]))
            if all(c.is_zero() for c in grad):
                continue
            vec = fiber_mod.solve_c(mat, grad + pad, dim, r)
            if vec is None:
                raise engine.ExpressionFailed(
                    "bracket class escapes the stabilizer basis")
            if any(not c.is_zero() for c in vec):
                bracket[(i, j)] = vec
    return FDLie(labels=[g[0] for g in gens], root=r, bracket=bracket,
                 t_idx=[i for i, g in enumerate(gens) if g[2] == "t"],
                 n_idx=[i for i, g in enumerate(gens) if g[2] != "t"])


def _table_chart(ctx, character):
    """The chart of the context's l-center bracket table at the character,
    with the table's chain columns."""
    names, exprs, _, chain = ctx.table
    return _Chart(names, exprs, ctx.frame_values(character), ctx.root,
                  list(chain.values()))


def stabilizer_from_stratum(ctx, located, character, level="eps",
                            chart=None):
    """Stabilizer Lie algebra over a located stratum.

    The toral generators are the l-th powers z_j^l of the non-extending
    central torus monomials, each the chart monomial of its survivor row
    times eps^(c l(l-1)/2), c the row's self-cocycle.  Level 'eps' adds the
    extending z_j unpowered, as opaque ambient-central directions; level
    'l0' takes their l-th powers too.  The killed generators' l-th powers
    are chart coordinates.  Requires the character not to vanish on the
    survivors.  chart, when given, is _table_chart(ctx, character).
    """
    st = located.stratum
    r = ctx.root
    for item in st.survivors:
        if item.gen_index is not None:
            val = ctx.lcenter_value(item.label, character)
            if val.is_zero():
                raise HypothesisFailed(
                    "character vanishes on survivor %s" % item.label)
    names, _, _, chain = ctx.table
    if chart is None:
        chart = _table_chart(ctx, character)
    coords = names + list(chain)
    surv = [coords.index(item.label) for item in st.survivors]
    ts = st.torus
    gens = []
    for j, row in enumerate(ts.z_rows()):
        if level == "l0" or j < ts.t:
            corr = strata_mod.survivor_cocycle(st.skew, row, row) \
                * (r.l * (r.l - 1) // 2)
            vec = [0] * chart.width
            for s, e in zip(surv, row):
                vec[s] = e
            gens.append(("z%d^l" % (j + 1), {tuple(vec): r.eps_power(corr)},
                         "t" if j < ts.t else "z"))
        elif j in located.z_ext:
            gens.append(("z%d" % (j + 1), None, "z"))
        else:
            raise strata_mod.MissingWitness(
                "extension value for z_%d required at this level" % (j + 1))
    for name in st.killed_labels:
        gens.append(("a:%s" % name, chart.unit(coords.index(name)), "i"))
    return _stabilizer_lie(chart, gens)


def linearized_stabilizer(names, exprs, values, r, chart=None):
    """Stabilizer of a character of the l-center from its bracket table.

    The degree-one part of the stabilizer is the kernel of the evaluated
    Poisson tensor, whose vectors are linear chart functions; the induced
    bracket is the linearization of the table.  Returns an FDLie on a kernel
    basis with a t/n candidate split.  chart, when given, is the chart of
    the same table at values; the tensor reads only its frame pairs, so a
    chart with chain columns serves too.
    """
    if chart is None:
        chart = _Chart(names, exprs, values, r)
    m = len(names)
    tensor = [[r.zero()] * m for _ in range(m)]
    for (i, j), expr in chart.table.items():
        if j < m:
            c = engine.evaluate_expression(expr, values, r)
            tensor[i][j], tensor[j][i] = c, -c
    gens = []
    for a, vec in enumerate(fiber_mod.kernel_c(tensor, m, r)):
        fn = {}
        for s, c in enumerate(vec):
            if not c.is_zero():
                fn.update(chart.unit(s, c))
        gens.append(("k%d" % (a + 1), fn, "n"))
    return _attach_split(_stabilizer_lie(chart, gens))


def _attach_split(g):
    """Rebase onto a heuristic split: derived algebra plus center as the
    nilpotent candidate, a coordinate complement as the toral candidate.
    The split is verified later by rank_and_checks, never assumed."""
    r = g.root
    dim = g.dim
    nz = g.nonzero_brackets
    vectors = [g.bracket[key] for key in sorted(g.bracket) if key in nz]
    units = [[r.one() if t == i else r.zero() for t in range(dim)]
             for i in range(dim)]
    central = set(range(dim)) - {i for i, _ in nz}
    vectors += [units[i] for i in sorted(central)]
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


def _census_count(model, character, r, dims, notes):
    """The census count of the character's fiber, or None with a note when
    the fiber is over the size cap or its blocks are not split.  The fiber
    is built from the model and the character alone."""
    try:
        A = fiber_mod.fiber_algebra(model, character, r)
        return fiber_mod.census(A, dims).count
    except (fiber_mod.TooLarge, fiber_mod.NonSplit) as exc:
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
    names, exprs, kappa, _ = ctx.table
    loc = strata_mod.locate(character, ctx)
    notes = []
    if isinstance(loc, strata_mod.Uncovered):
        g = linearized_stabilizer(names, exprs, ctx.frame_values(character), r)
        res = rank_and_checks(g)
        predicted = r.l ** res.rank
        oracle = _census_count(model, character, r, None, notes)
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
    ts = loc.stratum.torus
    chart = _table_chart(ctx, character)
    g_l0 = stabilizer_from_stratum(ctx, loc, character, "l0", chart)
    res_l0 = rank_and_checks(g_l0)
    try:
        if ts.t == ts.p:
            # no extending z: both levels take the same generators
            g_eps, res_eps = g_l0, res_l0
        else:
            g_eps = stabilizer_from_stratum(ctx, loc, character, "eps", chart)
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
    # the fiber is divided by every extending z or, when one has no value,
    # by none: the census is then taken over all p - t extension values
    missing_ext = ts.p - ts.t if len(loc.z_ext) < ts.p - ts.t else 0
    oracle = _census_count(model, character, r, dims, notes)
    if dims is not None and oracle is not None and len(dims) != oracle:
        notes.append("constructed %d representations, census %d"
                     % (len(dims), oracle))
    ok = (oracle in (None, r.l ** missing_ext * predicted)
          and predicted == r.l ** ts.t
          and checks.get("rank_equal", True)
          and checks.get("psi_toral", True))
    flagged = bool(missing_ext) or res_eps is None
    if missing_ext:
        notes.append("census taken over %d unresolved extension values"
                     % missing_ext)
    # linearized comparison when the character level allows it, on the
    # same chart
    try:
        g_lin = linearized_stabilizer(names, exprs,
                                      ctx.frame_values(character), r, chart)
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

