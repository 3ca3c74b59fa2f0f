"""Finite-dimensional fibers, explicit irreducible representations, and the
brute-force census.

The fiber of a character is the quotient of the specialized algebra by the
central ideal the character cuts out.  Twisted models give monomial fibers
(products of basis monomials are scalar multiples of basis monomials), which
keeps the census combinatorial: it reads integer rows of products and
cocycle differences, built by exponent arithmetic on basis positions, and
does no cyclotomic arithmetic.  A monomial fiber is divided by the exactly
central monomials on its live coordinates, read from S and valued from the
witnesses, so the census reads none of the strata it checks.  Models with
lower-order terms give table fibers: no product table is stored, only the
left operators of the generators on the PBW basis, built by a recurrence on
that basis from the defining relations and graded by the presentation's own
(Z/l)-weights.  The census computes the radical J of the trace form and
counts dim A/([A, A] + J), with [A, A] spanned by the commutators of the
algebra's generators with its basis.  A table fiber is counted one degree of
its grading at a time from those operators alone: homogeneity is checked on
them (every left and right operator is a composition of them), the right
operators follow from them, the degree-0 traces come from one sparse row
vector per basis element through the right operators, and the gram blocks
are filled row by row from the traces.  The generators with chi(x_u) != 0
are units, and right multiplication by a unit commutes with every L_b, so
the trace on a component and the dimension of its part of J are constant on
each coset of the subgroup H of the grading that the units' degrees
generate: the traces walk one component per coset, weighted by its size,
and one gram pair is ranked per pair of cosets {C, -C}.  Each step (a pair
of cosets, then a degree's commutators) runs first on the fiber's image in
F_p, for a prime p that splits Phi_l, with the recurrence itself run on the
images of its inputs; a rank mod p that reaches its bound certifies the
exact one (the unit's component needs one less, by the trace), and only the
steps that fall short are done over Q(eps).  The census never assumes the
count it is asked to confirm.

Clock/shift representations are built and verified as scaled partial
permutations (per row, one column and one nonzero value, or nothing), so a
product, scale or inverse costs one pass over the rows, and an l-th power is
checked on the cycles of the permutation, with no power taken.  The torus
frame makes the terms of every derived sum (a Weyl x over w_(i-1) and w_i)
diagonal alike, so every sum stays a scaled partial permutation; a sum whose
terms meet one row in two columns is a failed internal check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import chain, product as iproduct

from .exactnum import CycloNum, NotPIntegral, residue_map, residue_prime
from . import engine
from . import strata as strata_mod
from . import zlattice

FIBER_DIM_LIMIT = 6561
MONOMIAL_DIM_LIMIT = 7 ** 6


class TooLarge(ValueError):
    """Fiber dimension exceeds the enumeration cap."""


class NonSplit(ArithmeticError):
    """Block structure could not be certified over the cyclotomic field."""


# ---------------------------------------------------------------------------
# Dense linear algebra over the cyclotomic field (small dimensions only).

def mat_mul_c(A, B, r):
    # The nonzero entries of each row of B, found once per product.
    rows_b = [[(j, b) for j, b in enumerate(Bt) if not b.is_zero()]
              for Bt in B]
    zero = r.zero()
    out = [[zero] * len(B[0]) for _ in A]
    for Ai, Oi in zip(A, out):
        for a, Bt in zip(Ai, rows_b):
            if Bt and not a.is_zero():
                for j, b in Bt:
                    Oi[j] = Oi[j] + a * b
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


def rref_c(vectors, limit=None):
    """Reduced row echelon form of the span of vectors: (rows, pivots),
    sorted by pivot column.  With limit, stops reading vectors once the span
    has that many rows (the full space, when limit is the width)."""
    rows = []
    pivots = []
    vectors = iter(vectors)
    while len(rows) != limit:
        vec = next(vectors, None)
        if vec is None:
            break
        cur = reduce_c(vec, rows, pivots)
        lead = next((j for j, x in enumerate(cur) if not x.is_zero()), None)
        if lead is None:
            continue
        # a row that already leads with 1 needs no scaling
        if not cur[lead].is_one():
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


def rank_mod_p(vectors, p, limit=None):
    """Rank over F_p of integer vectors.  With limit, no vector is read
    once the span has that many rows.  Each kept row is keyed by its
    leading column and holds a leading 1 there, not stored: it is the
    sparse {column: value} dict of its entries right of that.  A vector is
    reduced by the row of its leading column until no kept row leads there,
    so every column left of that stays cleared, with one % p per entry
    touched."""
    rows = {}
    vectors = iter(vectors)
    while len(rows) != limit:
        vec = next(vectors, None)
        if vec is None:
            break
        cur = {j: y for j, x in enumerate(vec) if x and (y := x % p)}
        while cur:
            lead = min(cur)
            row = rows.get(lead)
            if row is None:
                inv = pow(cur.pop(lead), -1, p)
                rows[lead] = {j: x * inv % p for j, x in cur.items()}
                break
            f = cur.pop(lead)
            for j, b in row.items():
                # f * b is nonzero mod p, so a missing entry never clears
                x = (cur.get(j, 0) - f * b) % p
                if x:
                    cur[j] = x
                else:
                    del cur[j]
    return len(rows)


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


# ---------------------------------------------------------------------------
# Fiber algebras.

@dataclass
class FDAlgebra:
    """Finite-dimensional algebra over the cyclotomic field.

    gens lists the basis indices of the generators' images; they generate
    the algebra, so the commutators [g, b] of generators g with basis
    elements b span [A, A].
    monomial=True: the product b_i b_j is eps^c(i, j) s b_k or 0, with
    c(i, j) the survivor_cocycle exponent of the two labels and s != 0 a
    scalar that depends only on the sum of the labels (the l-th powers and
    extension values it passes), so [b_i, b_j] != 0 exactly when c(i, j)
    and c(j, i) differ mod l.  No scalar is stored; the census reads
    integer rows: mono_power[b] is the index of b^l (the unit) or None when
    b^l = 0, and gen_rows(k), for g = gens[k], is the row of indices of g b
    (None when it vanishes) and the row of (c(g, b) - c(b, g)) mod l, over
    every basis element b.
    monomial=False: no product is stored.  basis_labels are exponent
    vectors a with b_a = x^a in PBW order, gens[u] is the index of e_u and
    the unit is the zero vector.  Every other a has a' = a - e_v in the
    basis before it, v its first nonzero position, and b_a = x_v b_a'.
    operators(image=None, norm=None) is the one source of the generators'
    left operators, as sparse rows: operators(...)[u][j] is x_u b_j, a dict
    index -> scalar.  With no arguments it gives them over Q(eps).  With
    image, the reduction of exactnum.residue_map, and norm, x -> x mod p,
    it gives their images in F_p as ints, zeros left out, and raises
    NotPIntegral when it cannot.  fiber_algebra's hook runs the recurrence
    of _table_left on the images of its inputs, so the census mod p builds
    no exact operator.  left is the exact operators, built on first read.
    Every product is a composition of these operators.
    degrees labels the basis elements of a table fiber by their degree in a
    (Z/l)^K grading: degrees[i] is a tuple of K residues mod l, and every
    product b_i b_j must lie in degree degrees[i] + degrees[j] (the census
    checks this on the left operators of each of its passes, of which every
    product is a composition, and raises engine.ValidationFailed
    otherwise).  None means the trivial grading, with every element in
    degree 0.
    """

    dim: int
    root: object
    basis_labels: list
    monomial: bool
    unit_index: int
    gens: list
    mono_power: list = None
    gen_rows: object = None
    operators: object = None
    degrees: list = None

    @cached_property
    def left(self):
        return self.operators()


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


def fiber_algebra(model, character, r):
    """Quotient of the specialized algebra by the character's central ideal.

    The basis is the reduced monomials with exponents in [0, l); generator
    l-th powers act as the character values.  A monomial fiber is further
    divided by the central monomials on its live coordinates, read from S
    and valued from the witnesses, when all of them have values
    (_extension_steps); no strata are read.

    Models with lower-order terms keep no product table, only a hook that
    builds the generators' left operators on the basis, graded by
    presentation_weights.  The hook runs the recurrence of _table_left on
    the defining relations, with no engine product: over Q(eps) for the
    exact operators, read lazily as FDAlgebra.left, or over F_p on the
    images of its inputs for the census mod p.  The operators need every
    generator's l-th power central at eps (engine.ValidationFailed
    otherwise; 2 N^2 engine products, checked here), which makes the
    reduction by chi a homomorphism.  A table fiber is never divided
    further.
    """
    P = model.presentation
    N = P.N
    l = r.l
    monomial = not P.delta
    cap = MONOMIAL_DIM_LIMIT if monomial else FIBER_DIM_LIMIT
    if l ** N > cap:
        raise TooLarge("fiber dimension %d exceeds the cap" % l ** N)
    character.check(model, r)
    chi_list = [character.value(P.gens[i]) for i in range(N)]
    basis = [tuple(v) for v in iproduct(range(l), repeat=N)]
    unit_vectors = [tuple(int(i == g) for i in range(N)) for g in range(N)]

    if monomial:
        return _monomial_fiber(P, r, character, chi_list, basis,
                               unit_vectors)

    index = {v: i for i, v in enumerate(basis)}
    # Reducing exponents is a homomorphism exactly when the l-th powers are
    # central.
    _check_central_powers(P, r, unit_vectors)
    weights = presentation_weights(P, l)
    degrees = [tuple(sum(w * e for w, e in zip(wt, a)) % l for wt in weights)
               for a in basis]
    return FDAlgebra(dim=len(basis), root=r, basis_labels=basis,
                     monomial=False, unit_index=index[(0,) * N],
                     gens=[index[e] for e in unit_vectors],
                     operators=partial(_table_left, P, r, chi_list, basis,
                                       index),
                     degrees=degrees)


def _table_left(P, r, chi_list, basis, index, image=None, norm=None):
    """The generators' left operators on the PBW basis of a table fiber,
    left[u][j] = x_u b_j, by a memoized recurrence.  Write b_a = x_v b_a',
    v the first nonzero position of a (the unit has none):

    - for u <= v, x_u b_a = b_(a + e_u), reduced by chi(x_u) when the
      exponent reaches l, and 0 when chi vanishes there;
    - otherwise x_u b_a = q^S[u][v] (x_v (x_u b_a') - delta_(v, u) b_a'),
      from the relation x_v x_u = q^S[v][u] x_u x_v + delta_(v, u).

    The recurrence only adds and multiplies its inputs: the character
    values, the coefficients of each delta at eps (its monomials reduced by
    chi) and the powers eps^S[u][v].  With image and norm (FDAlgebra's
    operators hook) it runs on their images in F_p, and its rows are the
    entrywise images of the exact ones; image raises NotPIntegral on an
    input that is not p-integral.

    A row reached again while it is being built means the rewriting does
    not terminate, as the engine's depth guard does."""
    N, l = P.N, r.l
    image = image or (lambda c: c)
    one = image(r.one())
    chi = [image(c) for c in chi_list]
    # -delta_(v, u) at eps, each monomial reduced into the basis range with
    # its chi factor folded into the coefficient
    lower = {}
    for key, terms in engine._rewriter(P, r).delta.items():
        lower[key] = []
        for m, c in terms.items():
            red = _reduce_exponent(m, l, chi_list)
            if red is not None:
                m, scal = red
                lower[key].append(
                    (m, image(-c if scal is None else -(c * scal))))
    qs = [[image(r.eps_power(s)) for s in row] for row in P.S]
    first = [next((t for t, e in enumerate(a) if e), N) for a in basis]
    rows = [[None] * len(basis) for _ in range(N)]
    building = object()

    def apply(u, vec):
        """x_u times a sparse vector, its entries unreduced and its zeros
        kept: row reduces and drops them once per row."""
        out = {}
        built = rows[u]
        for k, c in vec.items():
            got = built[k]
            if got is None or got is building:
                got = row(u, k)
            for m, d in got.items():
                t = out.get(m)
                out[m] = c * d if t is None else t + c * d
        return out

    def row(u, j):
        got = rows[u][j]
        if got is building:
            raise engine.ValidationFailed(
                "rewriting did not terminate; presentation is not a valid "
                "Ore tower")
        if got is not None:
            return got
        a, v = basis[j], first[j]
        if u <= v:
            if a[u] + 1 < l:
                got = {index[a[:u] + (a[u] + 1,) + a[u + 1:]]: one}
            elif not chi[u]:
                got = {}
            else:
                got = {index[a[:u] + (0,) + a[u + 1:]]: chi[u]}
        else:
            rows[u][j] = building
            p = index[a[:v] + (a[v] - 1,) + a[v + 1:]]
            got = apply(v, row(u, p))
            for m, c in lower.get((v, u), ()):
                vec = {p: c}
                for w in range(N - 1, -1, -1):
                    for _ in range(m[w]):
                        vec = apply(w, vec)
                for k, d in vec.items():
                    t = got.get(k)
                    got[k] = d if t is None else t + d
            s = qs[u][v]
            got = _normed({k: c * s for k, c in got.items()}, norm)
        rows[u][j] = got
        return got

    for u in range(N):
        for j in range(len(basis)):
            row(u, j)
    return rows


def _monomial_fiber(P, r, character, chi_list, basis, unit_vectors):
    """The monomial branch of fiber_algebra.  A basis vector a sits at
    position sum a_i l^(N-1-i) of basis; its rows are built by exponent
    arithmetic on those positions, one coordinate at a time.

    Each central monomial x^u it divides by identifies b_a with a multiple
    of b_(a + u), so two vectors stand for one basis element exactly when
    they differ by an element of the lattice of those u and l Z^N.  Each
    class is represented by its least vector, which the Hermite form of
    that lattice reduces every vector to."""
    N = P.N
    l = r.l
    S = P.S
    steps = _extension_steps(P, r, character, chi_list)

    def position(v):
        p = 0
        for x in v:
            p = p * l + x
        return p

    def least(a):
        """The position of the least vector of the class of a: column by
        column, a Hermite row subtracts all it can, and l Z^N brings the
        entries after it back into [0, l)."""
        for i, h in steps:
            q = a[i] // h[i]
            if q:
                a = [(x - q * y) % l for x, y in zip(a, h)]
        return position(a)

    # The representatives' positions and, per position, the index of its
    # representative; with no extension the basis represents itself.
    reps = rep_of = None
    labels = basis
    if steps:
        rep_pos = [least(v) for v in basis]
        reps = sorted(set(rep_pos))
        rank = {p: i for i, p in enumerate(reps)}
        rep_of = [rank[p] for p in rep_pos]
        labels = [basis[p] for p in reps]

    def index_at(p):
        return p if rep_of is None else rep_of[p]

    zeros = {i for i in range(N) if chi_list[i].is_zero()}
    dead = -l ** N

    def indices(m, u):
        """Per basis element a, the index of the reduced monomial m*a + u,
        or None where a vanishing l-th power truncates it.  dead keeps a
        truncated position negative through every later coordinate."""
        out = _digit_fold([[dead if i in zeros and m * d + e >= l
                            else (m * d + e) % l for d in range(l)]
                           for i, e in enumerate(u)], l)
        if reps is not None:
            return [None if out[p] < 0 else rep_of[out[p]] for p in reps]
        return [None if p < 0 else p for p in out]

    def gen_rows(k):
        u = labels[gens[k]]
        # c(u, a) - c(a, u) is linear in a: its coefficient on a_i
        form = [strata_mod.survivor_cocycle(S, u, e)
                - strata_mod.survivor_cocycle(S, e, u) for e in unit_vectors]
        comm = _digit_fold([[w * d for d in range(l)] for w in form], 1)
        if reps is not None:
            comm = [comm[p] for p in reps]
        return indices(1, u), [c % l for c in comm]

    gens = [index_at(position(e)) for e in unit_vectors]
    return FDAlgebra(dim=len(labels), root=r, basis_labels=labels,
                     monomial=True, unit_index=index_at(0), gens=gens,
                     mono_power=indices(l, (0,) * N), gen_rows=gen_rows)


def _extension_steps(P, r, character, chi_list):
    """The Hermite rows (i, h), pivot h[i] < l, of the lattice of the
    central monomials on the live coordinates J = {i : chi_i != 0} and
    l Z^N; a row with pivot l moves no vector with entries in [0, l).  The
    central monomials are the integer kernel of S[:, J]: the x^u on J that
    commute with every generator for every q.  A full column rank of
    S[:, J] mod p proves that kernel empty, so the Smith form is taken
    only where the rank mod p falls short.  Each row takes its value
    from the witnesses (strata.monomial_value); when one has none in
    Q(eps), a missing witness or an odd self-cocycle at even l, the fiber
    is divided by nothing.  The values are checked first: for every
    integer relation n among the rows and the l e_i with i in J, the
    ordered product of their monomials to the powers n, which is
    eps^gamma mono(0), must take the value prod val^n = eps^gamma.  The
    monomials are central, so a basis of the relations suffices; a failed
    relation would give some basis element two different multiples."""
    N, l = P.N, r.l
    live = [i for i, c in enumerate(chi_list) if not c.is_zero()]
    s_live = [[row[i] for i in live] for row in P.S]
    if rank_mod_p(s_live, residue_prime(l)[0]) == len(live):
        return []
    kernel = zlattice.kernel_int(s_live)
    if not kernel:
        return []
    powers = [[l * (t == i) for t in range(N)] for i in range(N)]
    lattice = powers[:]
    for v in kernel:
        u = dict(zip(live, v))
        lattice.append([u.get(i, 0) for i in range(N)])
    steps = [(i, h) for i, h in enumerate(zlattice.hermite_rows(lattice))
             if h[i] < l]
    rows = [h for _, h in steps] + [powers[i] for i in live]
    try:
        values = [strata_mod.monomial_value(P.S, P.gens, character, r, h)
                  for _, h in steps] + [chi_list[i] for i in live]
    except strata_mod.MissingWitness:
        return []
    for n in zlattice.kernel_int(zlattice.transpose(rows)):
        gamma, acc = strata_mod.ordered_product_data(P.S, rows, n)
        if any(acc):
            raise ArithmeticError("extension relation %s does not close" % n)
        val = math.prod((v ** e for v, e in zip(values, n) if e),
                        start=r.one())
        if val != r.eps_power(gamma):
            raise ArithmeticError(
                "inconsistent extension relations in the fiber")
    return steps


def _digit_fold(cols, radix):
    """[sum_i cols[i][a_i] * radix^(N-1-i)] over the vectors a in basis
    order, extended one coordinate at a time."""
    cur = [0]
    for col in cols:
        cur = [x * radix + c for x in cur for c in col]
    return cur


def presentation_weights(P, l):
    """Generator weights of the presentation's own grading, reduced mod l.

    The weights w are the integer solutions of <w, a> = w_u + w_v for every
    term x^a of every delta_(u, v), so each defining relation is homogeneous
    with deg x^a = <w, a>; the l-th powers are homogeneous mod l.  Returns
    one weight vector per basis vector of that lattice; none means the
    trivial grading.  A tower that passes engine.validate always has a
    nonzero weight: row u of S with s_u in place u, for the first generator
    u with a delta rule (its q-skew identity and the automorphism sigma_u of
    the later generators make every relation homogeneous)."""
    rows = []
    for (u, v), rule in P.delta.items():
        for vec in rule.terms:
            row = list(vec)
            row[u] -= 1
            row[v] -= 1
            rows.append(row)
    return [[w % l for w in wt] for wt in zlattice.kernel_int(rows)]


def _check_central_powers(P, r, unit_vectors):
    """The table fiber treats x_u^l as the scalar chi(x_u); that is the
    quotient by a central ideal only when each x_u^l commutes with every
    generator at eps."""
    one = r.one()
    gens = [engine.Element(P.N, {e: one}) for e in unit_vectors]
    for u, e in enumerate(unit_vectors):
        power = engine.Element(P.N, {tuple(r.l * x for x in e): one})
        for g in gens:
            if (engine.mul_at_root(P, r, power, g)
                    != engine.mul_at_root(P, r, g, power)):
                raise engine.ValidationFailed(
                    "%s^l is not central at eps" % P.gens[u])


# ---------------------------------------------------------------------------
# Sparse matrices over the cyclotomic field: one {column: nonzero} dict per
# row, for the left operators of table fibers.  Zeros are never stored, so
# two sparse matrices are equal exactly when their rows are.  The table
# census multiplies row vectors only.

def sp_row_mul(row, B, norm=None):
    """The row vector row times B; norm, when given, maps each entry to its
    canonical form first (x mod p, for the int images of a table census)."""
    acc = {}
    for k, a in row.items():
        for j, b in B[k].items():
            c = acc.get(j)
            acc[j] = a * b if c is None else c + a * b
    return _normed(acc, norm)


def _normed(vec, norm):
    """A sparse vector with norm applied to its entries, when given, and
    its zeros left out."""
    if norm is None:
        return {j: c for j, c in vec.items() if c}
    return {j: x for j, c in vec.items() if (x := norm(c))}



# ---------------------------------------------------------------------------
# Scaled partial permutations: a pair (cols, vals) of tuples, row i holding
# vals[i] in column cols[i], or nothing when cols[i] is None (and vals[i] is
# None).  Clock and shift matrices and their scaled products have at most one
# entry per row, so a product, scale or inverse costs one pass over the
# rows.  Zeros are never stored, so two such matrices are equal exactly when
# their pairs are.


def pp_eye(n, r):
    return tuple(range(n)), (r.one(),) * n


def pp_zero(n):
    return (None,) * n, (None,) * n


def pp_mul(A, B):
    cols_a, vals_a = A
    cols_b, vals_b = B
    cols = tuple([None if j is None else cols_b[j] for j in cols_a])
    return cols, tuple([None if k is None else a * vals_b[j]
                        for j, k, a in zip(cols_a, cols, vals_a)])


def pp_scale(A, c):
    cols, vals = A
    if not c:
        return pp_zero(len(cols))
    return cols, tuple([None if a is None else a * c for a in vals])


def pp_add(A, B, name):
    """A + B.  Terms that meet in one row must share its column; otherwise
    the sum is not a scaled partial permutation, and ArithmeticError names
    what it was computing."""
    cols, vals = list(A[0]), list(A[1])
    for i, (j, b) in enumerate(zip(*B)):
        if j is None:
            continue
        if cols[i] is None:
            cols[i], vals[i] = j, b
        elif cols[i] != j:
            raise ArithmeticError(
                "%s is not a scaled partial permutation: two terms meet row "
                "%d in columns %d and %d" % (name, i, cols[i], j))
        else:
            vals[i] = vals[i] + b
            if not vals[i]:
                cols[i] = vals[i] = None
    return tuple(cols), tuple(vals)


def pp_inv(A, name="matrix"):
    """Inverse of a scaled permutation (an entry in every row, in distinct
    columns), inverted entrywise; any other matrix raises ArithmeticError,
    naming it."""
    cols, vals = A
    n = len(cols)
    if None in cols or len(set(cols)) != n:
        raise ArithmeticError("%s is not a scaled permutation matrix, so it "
                              "has no sparse inverse" % name)
    out_cols = [0] * n
    out_vals = [None] * n
    for i, (j, a) in enumerate(zip(cols, vals)):
        out_cols[j] = i
        out_vals[j] = a.inverse()
    return tuple(out_cols), tuple(out_vals)


def pp_pow(A, k, r):
    """A^k by binary powering; negative k powers the inverse."""
    if k < 0:
        A, k = pp_inv(A), -k
    out = None
    while k:
        if k & 1:
            out = A if out is None else pp_mul(out, A)
        k >>= 1
        if k:
            A = pp_mul(A, A)
    return pp_eye(len(A[0]), r) if out is None else out


def pp_power_is_scalar(A, k, value):
    """Whether A^k == value * I for k >= 1, with no matrix product taken.
    Row i of A^k follows i -> cols[i] -> ... for k steps.  At value 0 every
    row must reach an empty row within k steps.  Otherwise every row must
    lie on a cycle whose length c divides k and whose entry product P has
    P^(k/c) == value."""
    cols, vals = A
    n = len(cols)
    if not value:
        # the columns of A^k, k steps of integer indices
        reach = range(n)
        for _ in range(k):
            reach = [None if j is None else cols[j] for j in reach]
        return all(j is None for j in reach)
    if None in cols:
        return False
    seen = [False] * n
    for i in range(n):
        if seen[i]:
            continue
        seen[i] = True
        product, j, c = vals[i], cols[i], 1
        while j != i:
            if c == k:
                return False
            seen[j] = True
            product = product * vals[j]
            j = cols[j]
            c += 1
        if k % c or product ** (k // c) != value:
            return False
    return True


def _sum(terms, dim, r, name):
    """sum c * M_1^e_1 M_2^e_2 ... over terms (c, [(M, e), ...])."""
    out = None
    for c, factors in terms:
        T = None
        for M, e in factors:
            if e:
                F = pp_pow(M, e, r)
                T = F if T is None else pp_mul(T, F)
        T = pp_scale(pp_eye(dim, r) if T is None else T, c)
        out = T if out is None else pp_add(out, T, name)
    return pp_zero(dim) if out is None else out


# ---------------------------------------------------------------------------
# Clock and shift representations over a located stratum.

@dataclass
class Representation:
    """rows maps each generator label to its scaled partial permutation."""

    rows: dict
    dim: int
    z_scalars: tuple
    verified: bool = False

    def sparse_of_element(self, model, elem, r, name):
        """Evaluate a PBW element under the representation; ArithmeticError
        names it when its terms meet one row in two columns."""
        gens = model.presentation.gens
        return _sum(((c if isinstance(c, CycloNum) else r.eval(c),
                      [(self.rows[g], e) for g, e in zip(gens, vec)])
                     for vec, c in elem.terms.items()), self.dim, r, name)


def _clock(l, omega_pow, r, k_index, k_total):
    """Diagonal matrix eps^(omega_pow * digit) acting on tensor slot k_index
    of k_total clock registers."""
    base = l ** k_index
    dim = l ** k_total
    by_digit = [r.eps_power(omega_pow * d) for d in range(l)]
    return tuple(range(dim)), tuple([by_digit[(idx // base) % l]
                                     for idx in range(dim)])


def _shift(l, r, k_index, k_total):
    """Cyclic shift of tensor slot k_index of k_total registers: row
    idx + base holds 1 in column idx."""
    dim = l ** k_total
    base = l ** k_index
    cols = [None] * dim
    for idx in range(dim):
        digit = (idx // base) % l
        cols[idx + base if digit < l - 1 else idx - (l - 1) * base] = idx
    return tuple(cols), (r.one(),) * dim


def clock_shift_irreps(ctx, located, character):
    """Explicit irreducibles over a located character, one per root choice.

    Paired torus generators act by clock and shift matrices, central
    monomials by scalars, killed elements by zero, and derived generators by
    their sums of survivor monomials, which the frame keeps scaled partial
    permutations.  Survivor s acts by its ordered frame product, built once:
    the unit clock and shift matrices (l-th power 1) to its frame
    coordinates c_i mod l, scaled by eps^(sum_i c_i t_i - gamma_s)
    W(e_s - sum_j c_j z_j) prod_j z_j^c_j, with eps^t_i the canonical roots
    of the pair rows, gamma_s the cocycle of the product and W the witness
    product.  A choice of roots for the t non-extending z's rescales it by
    eps^(choice . c).  Every defining relation is then verified exactly.
    """
    model = ctx.model
    r = ctx.root
    st = located.stratum
    ts = st.torus
    l = r.l
    k = ts.k
    dim = l ** k
    # missing roots are reported in the order of the frame before its rebase
    z_rows = ts.z_rows()
    frame = ts.normal_pairs + z_rows
    labels = [item.label for item in st.survivors]
    roots = []
    for row in frame:
        roots.append(strata_mod.root_exponent(st.skew, r, row))
        for label, e in zip(labels, row):
            if e:
                character.witness(label)
    if frame != ts.basis:
        roots = [strata_mod.root_exponent(st.skew, r, row)
                 for row in ts.basis]
    z_scalars = [r.eps_power(t)
                 * strata_mod.witness_product(labels, character, r, row)
                 for t, row in zip(roots[2 * k:], z_rows)]
    frame_mats = []
    for i in range(k):
        frame_mats.append(_clock(l, ts.ds[i], r, i, k))
        frame_mats.append(_shift(l, r, i, k))
    survivors = []
    for s_idx, (item, coeffs) in enumerate(zip(st.survivors, ts.inverse)):
        gamma, acc = strata_mod.ordered_product_data(st.skew, ts.basis,
                                                    coeffs)
        if acc != [int(t == s_idx) for t in range(ts.m)]:
            raise ArithmeticError("the ordered frame product of %s has "
                                  "exponent %s" % (item.label, acc))
        zc = coeffs[2 * k:]
        rest = [int(t == s_idx) - sum(c * row[t] for c, row in zip(zc, z_rows))
                for t in range(ts.m)]
        c = (r.eps_power(sum(a * b for a, b in zip(coeffs, roots[:2 * k]))
                         - gamma)
             * strata_mod.witness_product(labels, character, r, rest))
        for z, e in zip(z_scalars, zc):
            c = c * z ** e
        M = _sum([(c, [(F, e % l) for F, e in zip(frame_mats, coeffs)])],
                 dim, r, item.label)
        survivors.append((item.label, M, zc))
    out = []
    for choice in iproduct(range(l), repeat=ts.t):
        rep = _representation(model, st, survivors, z_scalars, choice, dim,
                              r)
        _verify_representation(model, rep, character, r)
        rep.verified = True
        out.append(rep)
    return out


def _representation(model, st, survivors, z_scalars, choice, dim, r):
    """The representation at one choice of roots for the non-extending
    z's."""
    mats = {label: pp_zero(dim) for label in st.killed_labels}
    for label, M, zc in survivors:
        e = sum(a * b for a, b in zip(choice, zc)) % r.l
        mats[label] = pp_scale(M, r.eps_power(e)) if e else M
    for label, terms in st.derived:
        mats[label] = _sum(((c, [(mats[name], e) for name, e in factors])
                            for c, factors in terms), dim, r, label)
    zs = [z * r.eps_power(a) for z, a in zip(z_scalars, choice)]
    return Representation(
        rows={g: mats[g] for g in model.presentation.gens}, dim=dim,
        z_scalars=tuple(zs + z_scalars[len(choice):]))


def _verify_representation(model, rep, character, r):
    """Every defining relation and every central value must hold exactly;
    the l-th powers are read off the cycles of each generator's matrix."""
    P = model.presentation
    N = P.N
    gm = [rep.rows[P.gens[i]] for i in range(N)]
    for u in range(N):
        for v in range(u + 1, N):
            lhs = pp_mul(gm[u], gm[v])
            rhs = pp_scale(pp_mul(gm[v], gm[u]), r.eps_power(P.S[u][v]))
            rule = P.delta.get((u, v))
            if rule is not None:
                name = "the relation (%s, %s)" % (P.gens[u], P.gens[v])
                rhs = pp_add(rhs, rep.sparse_of_element(model, rule, r, name),
                             name)
            if lhs != rhs:
                raise ArithmeticError(
                    "relation (%s, %s) fails in the representation"
                    % (P.gens[u], P.gens[v]))
    for i in range(N):
        if not pp_power_is_scalar(gm[i], r.l, character.value(P.gens[i])):
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


def census(A, constructed_dims=None):
    """Radical and block count of a finite-dimensional algebra.

    The radical J is the kernel of the trace form (exact, characteristic 0).
    The count is dim A/([A, A] + J), which equals the dimension of the
    center of the semisimple quotient A/J; [A, A] is spanned by the
    commutators [g, b] of the generators g with the basis elements b, since
    [xy, c] = [x, yc] + [y, cx].  A table fiber is counted one step at a
    time, each first on its image mod a prime p that splits Phi_l (q -> w,
    a ring homomorphism on the p-integral elements of Q(eps)): a reduced
    matrix never has a larger rank than the exact one, so a rank mod p that
    reaches its bound is exact, and only the gram pairs and degrees that
    fall short, or whose entries are not p-integral, are done over Q(eps)
    (_census_table).  The traces and gram ranks are taken once per coset of
    the subgroup of the grading that the degrees of the unit generators
    generate, since right multiplication by a unit commutes with every left
    operator (_TableShape.cosets).  Block dimensions are certified against
    constructed representations when given, or inferred in the
    commutative/uniform cases; anything else raises NonSplit rather than
    guessing.
    """
    cap = MONOMIAL_DIM_LIMIT if A.monomial else FIBER_DIM_LIMIT
    if A.dim > cap:
        raise TooLarge("census refused beyond dimension %d" % cap)
    if A.monomial:
        rad_dim, count, dimq = _census_monomial(A)
    else:
        rad_dim, count, dimq = _census_table(A)
    blocks, method = _infer_blocks(count, dimq, constructed_dims)
    return CensusResult(rad_dim=rad_dim, count=count, blocks=blocks,
                        blocks_method=method, dim=A.dim)


def _census_monomial(A):
    """J is spanned by the basis monomials b with b^l = 0, and every
    commutator of two monomials is a multiple of one monomial, so the count
    is the number of live monomials that no nonzero [g, b] hits.  Only the
    integer rows are read: mono_power, and per generator the product and
    commutator rows of gen_rows, where [g, b] != 0 exactly when the
    commutator entry (the difference of the two cocycle exponents mod l) is
    nonzero.  The product of two live monomials is live (a vanishing
    coordinate stays 0), so every hit is live."""
    alive = [p is not None for p in A.mono_power]
    if any(p != A.unit_index for p in A.mono_power if p is not None):
        raise ArithmeticError("l-th power of a monomial is not a unit")
    hit = set()
    for k, g in enumerate(A.gens):
        if alive[g]:
            product, comm = A.gen_rows(k)
            hit.update([gb for gb, c, ok in zip(product, comm, alive)
                        if c and ok])
    live = alive.count(True)
    return A.dim - live, live - len(hit), live


def _census_table(A):
    """The census of a table fiber, one degree of its grading at a time:
    (rad_dim, count, dim A/J).

    Every step runs first on the fiber's image in F_p under q -> w, with
    (p, w) = exactnum.residue_prime(l), and over Q(eps) only where its rank
    mod p falls short.  q -> w is a ring homomorphism on the p-integral
    elements of Q(eps), so the pass mod p computes the images of the exact
    operators, traces, gram blocks and commutators, and a reduced matrix
    never has a larger rank than the exact one.

    - Gram pairs: the block of -d is the transpose of the block of d, by
      tau(xy) = tau(yx), and J_(d + deg x_u) = J_d x_u for a unit x_u.  So
      one block is ranked per pair of cosets {C, -C} of the pass's units
      (_TableShape.cosets), the block of C's first component.  A square
      block of full rank mod p gives J = 0 on C and on -C; any other pair
      of cosets takes the kernels of the exact blocks of all its
      components.
    - Commutators: tau vanishes on J and on [A, A], and tau(1) = dim A
      != 0, so [A, A] + J spans at most size - [d is the unit's degree] of
      degree d.  A degree whose J_d mod p and commutators mod p reach that
      bound is closed; any other is eliminated over Q(eps), on J_d and its
      exact commutators.

    The exact operators are built when a step first needs them, and the
    gram blocks of each pass only for the degrees that it reads.  An input
    with p in its denominator makes every step exact, and a J_d that is not
    p-integral makes its degree's step exact.  Each pass checks homogeneity
    on the left operators it builds (see _TableShape)."""
    shape = _TableShape(A)
    r = A.root
    p, image = residue_map(r)
    try:
        images = _residue_scalars(A, shape)
    except NotPIntegral:
        images = None

    @cache
    def exact():
        return _exact_scalars(A, shape)

    # pairs[d] lists the degrees of the pair of cosets {C, -C} whose first
    # component is d
    pairs = {}
    paired = set()
    for coset in (exact() if images is None else images).cosets:
        if coset[0] not in paired:
            pair = set(coset)
            pair.update(m for m in map(shape.minus.__getitem__, coset)
                        if m is not None)
            paired |= pair
            pairs[coset[0]] = sorted(pair)
    short = list(pairs)
    if images is not None:
        blocks = _gram_blocks(A, shape, images, short)
        short = [d for d in short if rank_mod_p(blocks[d], p)
                 < max(len(shape.comps[d]), len(blocks[d]))]
    degrees = [e for d in short for e in pairs[d]]
    rad = [[] for _ in shape.comps]
    if degrees:
        blocks = _gram_blocks(A, shape, exact(), degrees)
        for e in degrees:
            rad[e] = kernel_c(blocks[e], len(shape.comps[e]), r)
    rank = 0
    for d, (comp, known) in enumerate(zip(shape.comps, rad)):
        bound = len(comp) - (d == shape.degree_zero)
        got = 0
        if images is not None:
            try:
                reduced = [[image(x) for x in vec] for vec in known]
            except NotPIntegral:
                pass
            else:
                got = rank_mod_p(
                    chain(reduced, _commutators(shape, images, d)), p,
                    limit=bound)
        if got < bound:
            got = len(rref_c(chain(known, _commutators(shape, exact(), d)),
                             limit=bound)[1])
        rank += got
    rad_dim = sum(map(len, rad))
    return rad_dim, A.dim - rank, A.dim - rad_dim


class _TableShape:
    """The frame of a table census, read from the degree labels and the
    basis only and built once per fiber.

    comps[d] lists the basis elements of degree d (pos[i] is the place of i
    in its component), minus[d] is the code of degree -d (None when no
    basis element has it), partners[d] lists the basis elements of degree
    -d, and sources[d] the pairs (u, b) whose commutator [x_u, b] lies in
    degree d.  steps[i] is (v, p) with b_i = x_v b_p and p earlier in the
    basis (None for the unit).  L_b shifts degree by deg b, so only
    degree-0 elements have a nonzero trace, the trace form pairs degree d
    only with -d, and J is the direct sum over d of the kernels of the gram
    blocks.  All of this rests on every product being homogeneous, which
    check() verifies on the generators' left operators: every left
    operator L_b is a composition of them along steps, and so is every
    right operator, by b_a x_u = x_v (b_a' x_u).  Each pass checks the
    operators it builds, and that suffices.  The certificate reasons only
    about the fiber's image in F_p, whose operators it checks; its full
    ranks mod p stay full ranks over Q(eps), and they bound J and [A, A]
    by tau alone, with no grading.  Exact elimination only ever reads exact
    operators, and those are checked when they are built.
    With the trivial grading there is one component, the whole algebra.
    A unit x_u shifts every component by deg x_u, so the components fall
    into the cosets of the subgroup H that the units' degrees generate
    (cosets); the traces and the gram ranks are taken once per coset, and
    each pass finds its units in the operators it builds.
    """

    def __init__(self, A):
        n = A.dim
        l = A.root.l
        basis = A.basis_labels
        labels = A.degrees or [()] * n
        names = sorted(set(labels))
        code = {d: t for t, d in enumerate(names)}
        deg = [code[d] for d in labels]
        # plus[d][e] codes degree d + e, for the degrees d of generators
        plus = {deg[g]: [code.get(tuple((x + y) % l
                                        for x, y in zip(names[deg[g]], e)))
                         for e in names] for g in A.gens}
        minus = [code.get(tuple(-x % l for x in d)) for d in names]
        comps = [[] for _ in names]
        for i, d in enumerate(deg):
            comps[d].append(i)
        pos = [0] * n
        for comp in comps:
            for t, i in enumerate(comp):
                pos[i] = t
        self.deg, self.comps, self.pos, self.minus = deg, comps, pos, minus
        self.plus, self.gens = plus, A.gens
        self.partners = [comps[m] if m is not None else [] for m in minus]
        self.degree_zero = code[tuple(0 for _ in names[0])]
        self.sources = sources = [[] for _ in names]
        for u, g in enumerate(A.gens):
            for d, other in zip(plus[deg[g]], comps):
                if d is not None:
                    sources[d].extend((u, b) for b in other)

        self.index = index = {a: i for i, a in enumerate(basis)}
        self.steps = steps = [None] * n
        for i, a in enumerate(basis):
            if i != A.unit_index:
                v = next(t for t, e in enumerate(a) if e)
                steps[i] = (v, index[a[:v] + (a[v] - 1,) + a[v + 1:]])
        self.unit = A.unit_index
        # tops[u] is the index of x_u^(l-1), when the basis has it
        self.tops = [index.get(tuple((l - 1) * e for e in basis[g]))
                     for g in A.gens]

    def cosets(self, left):
        """The cosets of H in the grading, as lists of degree codes, each
        led by its least code.  H is generated by the degrees of the
        generators x_u that the operators left make units: x_u x_u^(l-1)
        is a nonzero multiple of 1, so x_u^(l-1) is a scalar times the
        inverse of x_u.  Right multiplication by a unit maps A_d onto
        A_(d + deg x_u) and commutes with every L_b, so each coset has
        components of one size, tr(L_b | A_d) is constant on it, and
        J_(d + deg x_u) = J_d x_u.  A multiple that is nonzero mod p is
        nonzero over Q(eps), so the units of the pass mod p are units of
        the exact fiber too, and its cosets serve the exact identities."""
        shifts = [self.plus[self.deg[g]]
                  for rows, g, top in zip(left, self.gens, self.tops)
                  if top is not None and rows[top].keys() == {self.unit}]
        seen = [False] * len(self.comps)
        out = []
        for d in range(len(seen)):
            if seen[d]:
                continue
            seen[d] = True
            coset = [d]
            for e in coset:
                for shift in shifts:
                    f = shift[e]
                    if not seen[f]:
                        seen[f] = True
                        coset.append(f)
            out.append(coset)
        return out

    def check(self, left):
        """engine.ValidationFailed unless every x_u b_j of the operators
        left lies in degree deg x_u + deg b_j."""
        deg, plus = self.deg, self.plus
        for rows, g in zip(left, self.gens):
            row_plus = plus[deg[g]]
            for j, row in enumerate(rows):
                d = row_plus[deg[j]]
                for m in row:
                    if deg[m] != d:
                        raise engine.ValidationFailed(
                            "the product of basis elements %d and %d is not "
                            "homogeneous" % (g, j))


@dataclass
class _TableScalars:
    """The scalars of one pass of the table census and the generators' left
    and right operators over them: the exact CycloNums (p and norm None),
    or their images in F_p as ints, which norm maps to x mod p.  The
    traces, gram rows and commutators use only +, -, * and norm, so one
    code serves both."""

    zero: object
    one: object
    norm: object
    left: list
    right: list
    cosets: list
    p: int = None


def _scalars(A, shape, zero, one, norm, left, p=None):
    """One pass's scalars, with its left operators checked homogeneous and
    the right operators b -> b x_u built from them by
    b_a x_u = x_v (b_a' x_u), one row at a time."""
    shape.check(left)
    right = []
    for g in A.gens:
        rows = [None] * A.dim
        rows[A.unit_index] = {g: one}
        for i, step in enumerate(shape.steps):
            if step is not None:
                rows[i] = sp_row_mul(rows[step[1]], left[step[0]], norm)
        right.append(rows)
    return _TableScalars(zero, one, norm, left, right, shape.cosets(left), p)


def _exact_scalars(A, shape):
    r = A.root
    return _scalars(A, shape, r.zero(), r.one(), None, A.left)


def _residue_scalars(A, shape):
    """The pass in F_p, on the operators that A's hook builds there;
    NotPIntegral when one of their inputs is not p-integral."""
    p, image = residue_map(A.root)
    # p.__rmod__(x) is x % p, without a Python frame per entry
    norm = p.__rmod__
    return _scalars(A, shape, 0, 1, norm, A.operators(image, norm), p)


def _gram_blocks(A, shape, scalars, degrees):
    """{d: the gram block [tau(b_s b_t)] with s in partners[d] and t in
    comps[d]} for the degree codes d in degrees, tau(b) = tr(L_b).  The
    degree-0 traces come from _traces, and the gram rows follow from them
    by tau(xy) = tau(yx): tau(b_a b_j) = tau(b_a' b_j x_v).  A row is built
    only for the partners of those degrees and their predecessors along
    steps, which come earlier in the basis."""
    zero, norm = scalars.zero, scalars.norm
    deg, pos = shape.deg, shape.pos
    needed = [False] * A.dim
    for d in degrees:
        for i in shape.partners[d]:
            needed[i] = True
    for i in range(A.dim - 1, -1, -1):
        if needed[i] and shape.steps[i] is not None:
            needed[shape.steps[i][1]] = True
    traces = _traces(A, shape, scalars)
    # gram[i] lists tau(b_i b_j) for j of degree -deg i, in the order of
    # that component
    gram = [None] * A.dim
    gram[A.unit_index] = [traces.get(j, zero)
                          for j in shape.comps[shape.degree_zero]]
    for i, step in enumerate(shape.steps):
        if step is None or not needed[i]:
            continue
        v, p = step
        prev = gram[p]
        rv = scalars.right[v]
        row = []
        for j in shape.partners[deg[i]]:
            t = zero
            for m, c in rv[j].items():
                t = t + c * prev[pos[m]]
            row.append(t if norm is None else norm(t))
        gram[i] = row
    return {d: [gram[i] for i in shape.partners[d]] for d in degrees}


def _commutators(shape, scalars, d):
    """The commutators [x_u, b] = x_u b - b x_u of degree d, in the
    coordinates of comps[d], lazily, so the caller can stop once they fill
    it."""
    zero, pos = scalars.zero, shape.pos
    size = len(shape.comps[d])
    for u, b in shape.sources[d]:
        vec = [zero] * size
        for k, c in scalars.left[u][b].items():
            vec[pos[k]] = vec[pos[k]] + c
        for k, c in scalars.right[u][b].items():
            vec[pos[k]] = vec[pos[k]] - c
        yield vec


def _traces(A, shape, scalars):
    """{k: tr(L_{b_k})} for the degree-0 basis elements k of a table fiber,
    zeros left out.  tr(L_b) = sum_j (b b_j)_j, and every product is
    homogeneous, so b b_j has a b_j term only for b of degree 0.  Such an
    L_b keeps each component A_d, and its trace there is constant on the
    coset d + H of the pass's units (_TableShape.cosets), so only the
    basis elements of the first component of each coset C are walked:
    tau(b) = sum_C |C| sum_(j in A_rep(C)) (b b_j)_j."""
    norm = scalars.norm
    # transposed[u][m] = {i: (b_i x_u)_m}, so that a row vector w goes to
    # w R_u by sp_row_mul(w, transposed[u])
    transposed = []
    for rows in scalars.right:
        cols = [{} for _ in range(A.dim)]
        for i, row in enumerate(rows):
            for m, c in row.items():
                cols[m][i] = c
        transposed.append(cols)
    traces = {}
    for coset in scalars.cosets:
        part = {}
        for j in shape.comps[coset[0]]:
            for k, c in _diagonal_entries(A, transposed, scalars, j).items():
                engine.add_term(part, k, c)
        for k, c in part.items():
            engine.add_term(traces, k, c * len(coset))
    if norm is not None:
        traces = dict(zip(traces, map(norm, traces.values())))
    return {k: t for k, t in traces.items() if t}


def _diagonal_entries(A, transposed, scalars, j):
    """{k: (b_k b_j)_j}, zeros left out.  For b_j = x^c the map
    b -> (b b_j)_j is the row vector e_j^T R_N^c_N ... R_1^c_1 of the
    generators' right operators R_u: b -> b x_u, so it costs |c| sparse
    row-vector steps on the transposed right operators, and no operator
    product is formed."""
    a = A.basis_labels[j]
    vec = {j: scalars.one}
    for u in range(len(a) - 1, -1, -1):
        for _ in range(a[u]):
            vec = sp_row_mul(vec, transposed[u], scalars.norm)
    return vec


def _infer_blocks(count, dimq, constructed_dims):
    if constructed_dims is not None:
        dims = sorted(constructed_dims)
        if len(dims) == count and sum(d * d for d in dims) == dimq:
            return dims, "construction"
        return None, "mismatch"
    if count == dimq:
        return [1] * count, "inferred-commutative"
    if count and dimq % count == 0:
        d2 = dimq // count
        d = math.isqrt(d2)
        if d * d == d2:
            return [d] * count, "inferred-uniform"
    raise NonSplit("block dimensions not certified over the cyclotomic "
                   "field (mixed sizes or a nonsplit center): semisimple "
                   "dimension %d over %d central classes" % (dimq, count))
