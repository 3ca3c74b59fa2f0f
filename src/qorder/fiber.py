"""Finite-dimensional fibers, explicit irreducible representations, and the
brute-force census.

The fiber of a character is the quotient of the specialized algebra by the
central ideal the character cuts out.  Twisted models give monomial fibers
(products of basis monomials are scalar multiples of basis monomials), which
keeps the census combinatorial; models with lower-order terms get a full
structure-constant table.  The census computes the radical J of the trace
form and counts dim A/([A, A] + J), with [A, A] spanned by the commutators
of the algebra's generators with its basis; it never assumes the count it is
asked to confirm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, product as iproduct

from .exactnum import CycloNum
from . import engine
from .engine import EpsElement
from . import strata as strata_mod
from . import zlattice

FIBER_DIM_LIMIT = 6561


class TooLarge(ValueError):
    """Fiber dimension exceeds the enumeration cap."""


class NonSplit(ArithmeticError):
    """Block structure could not be certified over the cyclotomic field."""


# ---------------------------------------------------------------------------
# Dense linear algebra over the cyclotomic field (small dimensions only).

def mat_eye(n, r):
    return [[r.one() if i == j else r.zero() for j in range(n)]
            for i in range(n)]


def mat_zero(n, r):
    return [[r.zero() for _ in range(n)] for _ in range(n)]


def mat_mul_c(A, B, r):
    n = len(A)
    m = len(B[0])
    k = len(B)
    out = [[r.zero() for _ in range(m)] for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a.is_zero():
                continue
            Bt = B[t]
            for j in range(m):
                if not Bt[j].is_zero():
                    Oi[j] = Oi[j] + a * Bt[j]
    return out


def mat_add_c(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub_c(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale_c(A, c):
    return [[a * c for a in row] for row in A]


def mat_eq_c(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def mat_is_zero(A):
    return all(a.is_zero() for row in A for a in row)


def mat_pow_c(A, k, r):
    if k < 0:
        return mat_pow_c(mat_inv_c(A, r), -k, r)
    out = mat_eye(len(A), r)
    for _ in range(k):
        out = mat_mul_c(out, A, r)
    return out


# The one row reduction.  A matrix is a list of dense rows; its reduced row
# echelon form is unique, so every result below is independent of the order
# in which rows are inserted.

def _sub_multiple(x, f, y):
    """Row x - f * y, skipping the zero entries of y."""
    return [a if b.is_zero() else a - f * b for a, b in zip(x, y)]


def reduce_c(vec, rows, pivots):
    """vec minus the combination of echelon rows that clears their pivot
    columns; zero exactly when vec lies in their span."""
    cur = list(vec)
    for col, row in zip(pivots, rows):
        f = cur[col]
        if not f.is_zero():
            cur = _sub_multiple(cur, f, row)
    return cur


def rref_c(vectors):
    """Reduced row echelon form of the span of vectors: (rows, pivots),
    sorted by pivot column."""
    rows = []
    pivots = []
    for vec in vectors:
        cur = reduce_c(vec, rows, pivots)
        lead = next((j for j, x in enumerate(cur) if not x.is_zero()), None)
        if lead is None:
            continue
        inv = cur[lead].inverse()
        cur = [x * inv for x in cur]
        for t, row in enumerate(rows):
            f = row[lead]
            if not f.is_zero():
                rows[t] = _sub_multiple(row, f, cur)
        rows.append(cur)
        pivots.append(lead)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [rows[t] for t in order], [pivots[t] for t in order]


def kernel_c(rows, ncols, r):
    """Kernel basis of a matrix, one vector per free column."""
    ech, pivots = rref_c(rows)
    basis = []
    for fcol in sorted(set(range(ncols)) - set(pivots)):
        vec = [r.zero()] * ncols
        vec[fcol] = r.one()
        for col, row in zip(pivots, ech):
            vec[col] = -row[fcol]
        basis.append(vec)
    return basis


def solve_c(rows, rhs, ncols, r):
    """A solution x of rows * x = rhs with its free variables zero, or None
    when the system is inconsistent."""
    ech, pivots = rref_c([row + [b] for row, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [r.zero()] * ncols
    for col, row in zip(pivots, ech):
        x[col] = row[ncols]
    return x


def mat_inv_c(A, r):
    n = len(A)
    ech, pivots = rref_c([row + eye for row, eye in zip(A, mat_eye(n, r))])
    if pivots and pivots[-1] >= n:
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in ech]


# ---------------------------------------------------------------------------
# Fiber algebras.

@dataclass
class FDAlgebra:
    """Finite-dimensional algebra over the cyclotomic field.

    gens lists the basis indices of the generators' images; they generate
    the algebra, so the commutators [g, b] of generators g with basis
    elements b span [A, A].
    monomial=True: products of basis elements are scalar multiples of basis
    elements, provided by mono_mult (index pair -> (index, scalar) or None);
    mono_index is the same map without the scalar, for the census's cheap
    power walk.
    monomial=False: table[(i, j)] is a sparse dict index -> scalar.
    """

    dim: int
    root: object
    basis_labels: list
    monomial: bool
    unit_index: int
    gens: list
    mono_mult: object = None
    mono_index: object = None
    table: dict = None
    notes: list = field(default_factory=list)

    def product(self, i, j):
        if self.monomial:
            hit = self.mono_mult(i, j)
            return {} if hit is None else {hit[0]: hit[1]}
        return self.table.get((i, j), {})


class _WeightedUF:
    """Union-find with multiplicative weights: element = weight * rep."""

    def __init__(self, r):
        self.parent = {}
        self.weight = {}
        self.root_field = r

    def find(self, v):
        if v not in self.parent:
            return v, self.root_field.one()
        path = []
        cur = v
        w = self.root_field.one()
        while cur in self.parent:
            path.append((cur, self.weight[cur]))
            w = w * self.weight[cur]
            cur = self.parent[cur]
        # path compression with weight accumulation
        acc = self.root_field.one()
        for node, _ in reversed(path):
            acc = self.weight[node] * acc
            self.parent[node] = cur
            self.weight[node] = acc
        return cur, w

    def union(self, a, b, c):
        """Impose element_a = c * element_b; returns False on conflict."""
        ra, wa = self.find(a)
        rb, wb = self.find(b)
        if ra == rb:
            return wa == c * wb
        # keep the lexicographically smaller representative
        if rb < ra:
            self.parent[ra] = rb
            self.weight[ra] = c * wb / wa
        else:
            self.parent[rb] = ra
            self.weight[rb] = wa / (c * wb)
        return True


def _reduce_exponent(vec, l, chi_list):
    """Reduce exponents into [0, l) pulling out central l-th powers.

    Returns (tuple, scalar) or None when a vanishing l-th power truncates
    the monomial."""
    out = list(vec)
    scal = None
    for i, e in enumerate(out):
        if 0 <= e < l:
            continue
        shift = e // l if e >= 0 else -((-e + l - 1) // l)
        val = chi_list[i]
        if val.is_zero():
            if shift > 0:
                return None
            raise ZeroDivisionError("negative power of a vanishing direction")
        factor = val ** shift
        scal = factor if scal is None else scal * factor
        out[i] = e - shift * l
    return tuple(out), scal


def fiber_algebra(model, character, r, located=None):
    """Quotient of the specialized algebra by the character's central ideal.

    The basis is the reduced monomials with exponents in [0, l); generator
    l-th powers act as the character values.  When the located stratum has
    ambient-central monomials beyond the l-center (extending z's), the fiber
    is further divided by their character values, which requires witnesses.
    """
    P = model.presentation
    N = P.N
    l = r.l
    if l ** N > FIBER_DIM_LIMIT:
        raise TooLarge("fiber dimension %d exceeds the cap" % l ** N)
    character.check(model, r)
    chi_list = [character.value(P.gens[i]) for i in range(N)]
    monomial = not P.delta
    basis = [tuple(v) for v in iproduct(range(l), repeat=N)]
    index = {v: i for i, v in enumerate(basis)}
    unit_vectors = [tuple(int(i == g) for i in range(N)) for g in range(N)]
    notes = []

    if monomial:
        S = P.S
        one = r.one()
        uf = _WeightedUF(r)
        if located is not None:
            st = located.stratum
            for j in range(st.torus.t, st.torus.p):
                if j not in located.z_ext:
                    notes.append("extension value missing for z_%d" % (j + 1))
                    continue
                zval = located.z_ext[j]
                u = strata_mod.embed_vector(st, N, st.torus.z_rows()[j])
                for w in basis:
                    raw = tuple(u[i] + w[i] for i in range(N))
                    red = _reduce_exponent(raw, l, chi_list)
                    if red is None:
                        raise ArithmeticError("central monomial truncated")
                    vec2, scal = red
                    lam = r.eps_power(strata_mod.survivor_cocycle(S, u, w))
                    if scal is not None:
                        lam = lam * scal
                    if not uf.union(vec2, w, zval / lam):
                        raise ArithmeticError(
                            "inconsistent extension relations in the fiber")
        reps = sorted({uf.find(v)[0] for v in basis})
        rep_index = {v: i for i, v in enumerate(reps)}
        zero_coords = [i for i in range(N) if chi_list[i].is_zero()]

        def mono_mult(i, j, _reps=reps, _ri=rep_index):
            a, b = _reps[i], _reps[j]
            raw = tuple(x + y for x, y in zip(a, b))
            red = _reduce_exponent(raw, l, chi_list)
            if red is None:
                return None
            vec2, scal = red
            lam = r.eps_power(strata_mod.survivor_cocycle(S, a, b))
            if scal is not None:
                lam = lam * scal
            rep, w = uf.find(vec2)
            return _ri[rep], lam * w

        def mono_index(i, j, _reps=reps, _ri=rep_index):
            a, b = _reps[i], _reps[j]
            for c in zero_coords:
                if a[c] + b[c] >= l:
                    return None
            vec2 = tuple((x + y) % l for x, y in zip(a, b))
            return _ri[uf.find(vec2)[0]]

        unit_rep, unit_w = uf.find((0,) * N)
        if unit_w != one:
            notes.append("unit representative carries a scalar")
        gens = [rep_index[uf.find(e)[0]] for e in unit_vectors]
        return FDAlgebra(dim=len(reps), root=r, basis_labels=reps,
                         monomial=True, unit_index=rep_index[unit_rep],
                         gens=gens, mono_mult=mono_mult, mono_index=mono_index,
                         notes=notes)

    # Structure-constant table through the rewriting engine.
    table = {}
    spec_mono = {v: EpsElement(N, r, {v: r.one()}) for v in basis}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            prod = engine.mul_at_root(P, r, spec_mono[a], spec_mono[b])
            entry = {}
            for vec, c in prod.terms.items():
                red = _reduce_exponent(vec, l, chi_list)
                if red is None:
                    continue
                vec2, scal = red
                val = c if scal is None else c * scal
                k = index[vec2]
                cur = entry.get(k)
                cur = val if cur is None else cur + val
                if cur:
                    entry[k] = cur
                else:
                    entry.pop(k, None)
            if entry:
                table[(i, j)] = entry
    if located is not None and located.stratum.torus.t < located.stratum.torus.p:
        notes.append("extension quotient on a table fiber is not supported")
    return FDAlgebra(dim=len(basis), root=r, basis_labels=basis,
                     monomial=False, unit_index=index[(0,) * N],
                     gens=[index[e] for e in unit_vectors],
                     table=table, notes=notes)


# ---------------------------------------------------------------------------
# Clock and shift representations over a located stratum.

@dataclass
class Representation:
    mats: dict  # generator label -> matrix over the cyclotomic field
    dim: int
    z_scalars: tuple
    verified: bool = False

    def matrix_of_element(self, model, elem, r):
        """Evaluate a PBW element under the representation."""
        n = self.dim
        out = mat_zero(n, r)
        P = model.presentation
        for vec, c in elem.terms.items():
            coeff = c if isinstance(c, CycloNum) else r.eval(c)
            term = mat_eye(n, r)
            for i, e in enumerate(vec):
                if e:
                    term = mat_mul_c(term, mat_pow_c(self.mats[P.gens[i]], e, r), r)
            out = mat_add_c(out, mat_scale_c(term, coeff))
        return out


def _clock(l, omega_pow, r, k_index, k_total):
    """Diagonal matrix eps^(omega_pow * digit) acting on tensor slot
    k_index of k_total clock registers."""
    dim = l ** k_total
    M = mat_zero(dim, r)
    for idx in range(dim):
        digit = (idx // l ** k_index) % l
        M[idx][idx] = r.eps_power(omega_pow * digit)
    return M


def _shift(l, r, k_index, k_total):
    dim = l ** k_total
    M = mat_zero(dim, r)
    base = l ** k_index
    for idx in range(dim):
        digit = (idx // base) % l
        jdx = idx + base if digit < l - 1 else idx - (l - 1) * base
        M[jdx][idx] = r.one()
    return M


def clock_shift_irreps(ctx, located, character):
    """Explicit irreducibles over a located character, one per root choice.

    Paired torus generators act by scaled clock and shift matrices, central
    monomials by scalars, killed elements by zero; every defining relation
    is then verified exactly.
    """
    model = ctx.model
    r = ctx.root
    st = located.stratum
    ts = st.torus
    P = model.presentation
    l = r.l
    k = ts.k
    dim = l ** k
    basis_rows = ts.basis
    frame_scalars = []
    for row in basis_rows:
        frame_scalars.append(strata_mod.monomial_value(st, character, r, row))
    frame_mats = []
    for i in range(k):
        frame_mats.append(mat_scale_c(_clock(l, ts.ds[i], r, i, k),
                                      frame_scalars[2 * i]))
        frame_mats.append(mat_scale_c(_shift(l, r, i, k),
                                      frame_scalars[2 * i + 1]))
    out = []
    m = ts.m
    inv_rows = {}
    for s_idx in range(m):
        target = [1 if t == s_idx else 0 for t in range(m)]
        coeffs = _frame_coordinates(basis_rows, target)
        inv_rows[s_idx] = coeffs
    for choice in iproduct(range(l), repeat=ts.t):
        mats = {}
        z_mats = []
        z_scalars = []
        for j in range(ts.p):
            base = frame_scalars[2 * k + j]
            if j < ts.t:
                val = base * r.eps_power(choice[j])
            else:
                val = located.z_ext.get(j)
                if val is None:
                    raise strata_mod.MissingWitness(
                        "extension value for z_%d unavailable" % (j + 1))
            z_scalars.append(val)
            z_mats.append(mat_scale_c(mat_eye(dim, r), val))
        all_mats = frame_mats + z_mats
        surv_mats = {}
        for s_idx, item in enumerate(st.survivors):
            coeffs = inv_rows[s_idx]
            gamma, acc = strata_mod.ordered_product_data(st.skew, basis_rows,
                                                        coeffs)
            assert acc == [1 if t == s_idx else 0 for t in range(m)]
            M = mat_eye(dim, r)
            for Mr, c in zip(all_mats, coeffs):
                if c:
                    M = mat_mul_c(M, mat_pow_c(Mr, c, r), r)
            M = mat_scale_c(M, r.eps_power(-gamma))
            surv_mats[item.label] = M
        mats.update(surv_mats)
        for label in st.killed_labels:
            if not label.startswith("w"):
                mats[label] = mat_zero(dim, r)
        if st.kind == "A2":
            _fill_weyl_generators(model, st, mats, r, dim)
        rep = Representation(mats={g: mats[g] for g in P.gens}, dim=dim,
                             z_scalars=tuple(z_scalars))
        _verify_representation(model, rep, character, r)
        rep.verified = True
        out.append(rep)
    return out


def _frame_coordinates(basis_rows, target):
    """Integer coordinates of target over the unimodular row basis."""
    m = len(basis_rows)
    A = [[basis_rows[j][i] for j in range(m)] for i in range(m)]
    sol = zlattice.solve_int(A, target)
    if sol is None:
        raise ArithmeticError("unimodular frame failed to span")
    return sol


def _fill_weyl_generators(model, st, mats, r, dim):
    """Derive the remaining generator matrices of a Weyl stratum.

    Pairs with a dead y but killed w give x through the w-recursion; fully
    killed pairs already have zero matrices."""
    T1, T2, T3 = st.pattern
    n = model.n
    wmats = {0: mat_eye(dim, r)}
    for i in range(1, n + 1):
        if "w%d" % i in mats:
            wmats[i] = mats["w%d" % i]
        elif i in T3:
            wmats[i] = mat_zero(dim, r)
    for i in range(1, n + 1):
        if "x%d" % i in mats and "y%d" % i in mats:
            continue
        if i in T1:
            mats.setdefault("y%d" % i, mat_zero(dim, r))
            continue
        if i in T2:
            # x survives (or is killed with T1), y dies
            mats.setdefault("y%d" % i, mat_zero(dim, r))
            continue
        # y survives, x is determined: x_i = (q_i - 1)^-1 y_i^-1 (w_i - w_{i-1})
        qi = r.eps_power(model.exps[i - 1])
        coef = (qi - r.one()).inverse()
        yinv = mat_inv_c(mats["y%d" % i], r)
        diff = mat_sub_c(wmats[i], wmats[i - 1])
        mats["x%d" % i] = mat_scale_c(mat_mul_c(yinv, diff, r), coef)


def _verify_representation(model, rep, character, r):
    """Every defining relation and every central value must hold exactly."""
    P = model.presentation
    N = P.N
    dim = rep.dim
    gm = [rep.mats[P.gens[i]] for i in range(N)]
    for u in range(N):
        for v in range(u + 1, N):
            lhs = mat_mul_c(gm[u], gm[v], r)
            rhs = mat_scale_c(mat_mul_c(gm[v], gm[u], r),
                              r.eps_power(P.S[u][v]))
            rule = P.delta.get((u, v))
            if rule is not None:
                rhs = mat_add_c(rhs, rep.matrix_of_element(model, rule, r))
            if not mat_eq_c(lhs, rhs):
                raise ArithmeticError(
                    "relation (%s, %s) fails in the representation"
                    % (P.gens[u], P.gens[v]))
    for i in range(N):
        Ml = mat_pow_c(gm[i], r.l, r)
        expect = mat_scale_c(mat_eye(dim, r), character.value(P.gens[i]))
        if not mat_eq_c(Ml, expect):
            raise ArithmeticError(
                "central value of %s^l fails in the representation"
                % P.gens[i])


# ---------------------------------------------------------------------------
# Census.

@dataclass
class CensusResult:
    rad_dim: int
    count: int
    blocks: list | None
    blocks_method: str
    dim: int
    notes: list = field(default_factory=list)


def census(A, constructed_dims=None):
    """Radical and block count of a finite-dimensional algebra.

    The radical J is the kernel of the trace form (exact, characteristic 0).
    The count is dim A/([A, A] + J), which equals the dimension of the
    center of the semisimple quotient A/J; [A, A] is spanned by the
    commutators [g, b] of the generators g with the basis elements b, since
    [xy, c] = [x, yc] + [y, cx].  Block dimensions are certified against
    constructed representations when given, or inferred in the
    commutative/uniform cases; anything else raises NonSplit rather than
    guessing.
    """
    if A.dim > FIBER_DIM_LIMIT:
        raise TooLarge("census refused beyond dimension %d" % FIBER_DIM_LIMIT)
    if A.monomial:
        rad_dim, count, dimq = _census_monomial(A)
    else:
        rad_dim, count, dimq = _census_table(A)
    blocks, method, notes = _infer_blocks(A, rad_dim, count, dimq,
                                          constructed_dims)
    return CensusResult(rad_dim=rad_dim, count=count, blocks=blocks,
                        blocks_method=method, dim=A.dim, notes=notes)


def _census_monomial(A):
    """J is spanned by the basis monomials b with b^l = 0, and every
    commutator of two monomials is a multiple of one monomial, so the count
    is the number of live monomials that no nonzero [g, b] hits."""
    l = A.root.l
    unit = A.unit_index
    live = []
    for b in range(A.dim):
        power = b
        for _ in range(l - 1):
            power = A.mono_index(power, b)
            if power is None:
                break
        else:
            if power != unit:
                raise ArithmeticError("l-th power of a monomial is not a unit")
            live.append(b)
    live_set = set(live)
    hit = set()
    for g in A.gens:
        if g not in live_set:
            continue
        for b in live:
            gb = A.mono_mult(g, b)
            if gb is None:
                continue
            bg = A.mono_mult(b, g)
            if bg[0] != gb[0]:
                raise ArithmeticError("monomial product order mismatch")
            if gb[1] != bg[1]:
                hit.add(gb[0])
    count = len(live_set - hit)
    return A.dim - len(live), count, len(live)


def _census_table(A):
    n = A.dim
    r = A.root
    # Left multiplication operators, sparse: L[i][(row, col)] = coeff.
    L = []
    for i in range(n):
        M = {}
        for j in range(n):
            for k, c in A.product(i, j).items():
                M[(k, j)] = M.get((k, j), r.zero()) + c
        L.append({k: v for k, v in M.items() if not v.is_zero()})
    gram = mat_zero(n, r)
    for i in range(n):
        Li = L[i]
        for j in range(i, n):
            Lj = L[j]
            tr = r.zero()
            for (a, b), c in Li.items():
                d = Lj.get((b, a))
                if d is not None:
                    tr = tr + c * d
            gram[i][j] = tr
            gram[j][i] = tr
    rad = kernel_c(gram, n, r)

    def commutator(g, b):
        vec = [r.zero()] * n
        for k, c in A.product(g, b).items():
            vec[k] = vec[k] + c
        for k, c in A.product(b, g).items():
            vec[k] = vec[k] - c
        return vec

    span = rref_c(chain(rad, (commutator(g, b) for g in A.gens
                              for b in range(n))))[1]
    return len(rad), n - len(span), n - len(rad)


def _infer_blocks(A, rad_dim, count, dimq, constructed_dims):
    notes = []
    if constructed_dims is not None:
        dims = sorted(constructed_dims)
        if len(dims) == count and sum(d * d for d in dims) == dimq:
            return dims, "construction", notes
        notes.append("constructed representations disagree with the census")
        return None, "mismatch", notes
    if count == dimq:
        return [1] * count, "inferred-commutative", notes
    if count and dimq % count == 0:
        d2 = dimq // count
        d = math.isqrt(d2)
        if d * d == d2:
            return [d] * count, "inferred-uniform", notes
    raise NonSplit("block dimensions not certified over the cyclotomic "
                   "field (mixed sizes or a nonsplit center): semisimple "
                   "dimension %d over %d central classes" % (dimq, count))
