from fractions import Fraction
from math import lcm

import pytest

from qorder.exactnum import (NotDivisible, QLaurent, _poly_divmod_int,
                             cyclotomic_build)
from qorder import engine, fiber, strata, torus, zlattice
from qorder.engine import Element, ExpressionFailed, commutator


@pytest.fixture
def r3():
    return cyclotomic_build(3)


@pytest.fixture
def r5():
    return cyclotomic_build(5)


@pytest.fixture
def full_rows(monkeypatch):
    """The ambient rows of each stratum enumerated while the fixture is
    active, in order: every generator's q-exponents against the survivors,
    recorded as the stratum tail hands them to torus_structure."""
    rows = []
    real = torus.torus_structure

    def recorded(skew, full, l, targets=()):
        rows.append(full)
        return real(skew, full, l, targets)

    monkeypatch.setattr(torus, "torus_structure", recorded)
    return rows


def make_character(r, values, witnesses=None):
    """Character from rational literals, wrapping them as cyclotomic scalars."""
    vv = {k: (v if hasattr(v, "vec") else r.scalar(v))
          for k, v in values.items()}
    ww = {k: (v if hasattr(v, "vec") else r.scalar(v))
          for k, v in (witnesses or {}).items()}
    return strata.Character(vv, ww)


def monomial_l_value(stratum, ctx, character, u):
    """Value of mono(u)^l, computable without witnesses."""
    val = ctx.root.one()
    for s_item, e in zip(stratum.survivors, u):
        if e:
            val = val * ctx.lcenter_value(s_item.label, character) ** e
    return val


def has_derived(model, stratum):
    """Whether some generator of the model is neither killed nor a survivor
    of the stratum, and so acts through the survivors."""
    named = set(stratum.killed_labels) | {s.label for s in stratum.survivors}
    return any(g not in named for g in model.presentation.gens)


# The l-center bracket table derived with generic-q engine Poisson brackets,
# the reference that the closed form of models._z0_table is compared with.

class NotCentral(ArithmeticError):
    """Poisson bracket input was not central at the chosen root."""


def divide_by_cyclotomic(f, r):
    """Exact quotient f / Phi_l in Q[q, q^-1].

    Raises NotDivisible when Phi_l does not divide f; callers use that as the
    signal that an element was not central at eps.
    """
    if f.is_zero():
        return QLaurent.zero()
    # Phi_l is monic with integer coefficients: divide the integer
    # numerators of f over their common denominator.
    shift = f.min_degree()
    den = lcm(*[c.denominator for c in f.coeffs.values()])
    num = [0] * (f.max_degree() - shift + 1)
    for d, c in f.coeffs.items():
        num[d - shift] = c.numerator * (den // c.denominator)
    quo, rem = _poly_divmod_int(num, r.phi)
    if any(rem):
        raise NotDivisible("Phi_%d does not divide the given polynomial" % r.l)
    out = QLaurent()
    out.coeffs = {i + shift: c // den if c % den == 0 else Fraction(c, den)
                  for i, c in enumerate(quo) if c}
    return out


def phi_prime_eps(r):
    """Phi_l'(eps), the correction factor for division by (q - eps)."""
    return r.eval(QLaurent({k - 1: k * c for k, c in enumerate(r.phi) if k}))


def is_central_at_root(u, P, r):
    """True when u commutes with every generator modulo Phi_l."""
    for g in range(P.N):
        c = commutator(P, u, Element.gen(P.N, g))
        for coeff in c.terms.values():
            try:
                divide_by_cyclotomic(coeff, r)
            except NotDivisible:
                return False
    return True


def lead(elem):
    """Lexicographically largest exponent vector in the support."""
    if not elem.terms:
        raise ValueError("zero element has no leading monomial")
    return max(elem.terms)


def monomial_inverse(elem):
    """Inverse of a single-monomial element with monomial coefficient."""
    if len(elem.terms) != 1:
        raise ValueError("only monomials are invertible")
    ((vec, c),) = elem.terms.items()
    return Element.monomial(elem.N, tuple(-e for e in vec), c ** (-1))


def power(P, a, k):
    out = Element.one(P.N)
    for _ in range(k):
        out = engine.mul(P, out, a)
    return out


def power_at_root(P, r, a, k):
    out = Element.one(P.N, r.one())
    for _ in range(k):
        out = engine.mul_at_root(P, r, out, a)
    return out


def poisson_lift(P, r, u, v):
    """Exact quotient (u v - v u) / Phi_l in the unspecialized algebra."""
    c = engine.commutator(P, u, v)
    out = Element(P.N)
    for vec, coeff in c.terms.items():
        try:
            out.terms[vec] = divide_by_cyclotomic(coeff, r)
        except NotDivisible:
            raise NotCentral(
                "commutator coefficient at %s is not divisible by Phi_%d"
                % (list(vec), r.l))
    out.terms = {k: c for k, c in out.terms.items() if c}
    return out


def poisson_bracket(P, r, u, v):
    """Poisson bracket on the center induced by the quantum adjoint action.

    Computed as the exact quotient of the commutator by Phi_l, evaluated at
    eps and corrected by Phi_l'(eps), which equals division by (q - eps)
    followed by specialization.
    """
    lift = poisson_lift(P, r, u, v)
    return engine.specialize(lift, r).scale(phi_prime_eps(r))


class FrameFactor:
    """A named central element used as a coordinate in expressions."""

    __slots__ = ("name", "lift", "invertible", "_lead")

    def __init__(self, name, lift, invertible=False):
        if lift.is_zero():
            raise ValueError("frame factor %s is zero" % name)
        if invertible and len(lift.terms) != 1:
            raise ValueError("invertible frame factor %s must be a monomial"
                             % name)
        self.name = name
        self.lift = lift
        self.invertible = invertible
        self._lead = lead(lift)

    def __repr__(self):
        return "FrameFactor(%s)" % self.name


def express_in_frame(P, r, target, frame, max_steps=4096):
    """Write a specialized central element as a polynomial in frame factors.

    Returns a mapping from integer exponent vectors over the frame to
    cyclotomic coefficients.  Exponents may be negative only on invertible
    factors.  Leading exponents of the frame must be linearly independent;
    matching proceeds from the lexicographically largest monomial down.
    """
    cols = [list(f._lead) for f in frame]
    A = [[cols[j][i] for j in range(len(frame))] for i in range(P.N)]
    _, D, _ = zlattice.smith_normal_form(A)
    rank = sum(1 for i in range(min(P.N, len(frame))) if D[i][i])
    if rank != len(frame):
        raise ValueError("frame leading exponents are not independent")
    residual = target
    out = {}
    cache = {}
    for _ in range(max_steps):
        if residual.is_zero():
            return {m: c for m, c in out.items() if c}
        alpha = lead(residual)
        m = zlattice.solve_int(A, list(alpha))
        if m is None:
            raise ExpressionFailed(
                "monomial %s is not a frame product" % (list(alpha),), residual)
        m = tuple(m)
        for mi, f in zip(m, frame):
            if mi < 0 and not f.invertible:
                raise ExpressionFailed(
                    "monomial %s needs a negative power of %s"
                    % (list(alpha), f.name), residual)
        prod = cache.get(m)
        if prod is None:
            prod = Element.one(P.N, r.one())
            for mi, f in zip(m, frame):
                if mi == 0:
                    continue
                base = f.lift if mi > 0 else monomial_inverse(f.lift)
                spec = engine.specialize(base, r)
                prod = engine.mul_at_root(P, r, prod,
                                          power_at_root(P, r, spec, abs(mi)))
            cache[m] = prod
        lead_c = prod.terms.get(alpha)
        if not lead_c:
            raise ExpressionFailed(
                "frame product misses its own leading monomial", residual)
        c = residual.terms[alpha] / lead_c
        out[m] = out.get(m, r.zero()) + c
        residual = residual - prod.scale(c)
    raise ExpressionFailed("expression did not terminate", residual)


def frame_table(P, r, order, chain):
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
            br = poisson_bracket(P, r, fp.lift, fq.lift)
            exprs[(fp.name, fq.name)] = (
                express_in_frame(P, r, br, frame) if br else {})
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
        lth = engine.specialize(power(P, elem, r.l), r)
        try:
            chain_exprs[label] = express_in_frame(P, r, lth, frame)
        except ExpressionFailed as exc:
            raise ExpressionFailed(
                "%s^l does not lie in the l-center frame" % label,
                exc.residual)
    return names, exprs, kappa, chain_exprs


def weyl_frame_table(model, r):
    """frame_table of a quantum Weyl model in the order of
    models.f_elements_and_z0_brackets, with its admissibility check."""
    if not model.admissibility(r.l):
        raise ValueError("root order %d is not admissible here" % r.l)
    pairs = range(1, model.n + 1)
    return frame_table(model.presentation, r,
                       [model.xpos(i) for i in pairs] +
                       [model.ypos(i) for i in pairs],
                       {"w%d" % k: model.w[k] for k in pairs})


# Dense matrices over the cyclotomic field, the references that the row
# dict product, scaled partial permutation and representation tests compare
# against.
# A matrix is a list of rows.

def mat_eye(n, r):
    return [[r.one() if i == j else r.zero() for j in range(n)]
            for i in range(n)]


def mat_add_c(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale_c(A, c):
    return [[a if a.is_zero() else a * c for a in row] for row in A]


def mat_eq_c(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def mat_is_zero(A):
    return all(a.is_zero() for row in A for a in row)


def mat_inv_c(A, r):
    n = len(A)
    ech, pivots = fiber.rref_c(
        [row + eye for row, eye in zip(A, mat_eye(n, r))])
    if pivots and pivots[-1] >= n:
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in ech]


def mat_pow_c(A, k, r):
    if k < 0:
        return mat_pow_c(mat_inv_c(A, r), -k, r)
    out = mat_eye(len(A), r)
    for _ in range(k):
        out = fiber.mat_mul_c(out, A, r)
    return out


def pp_from_dense(A):
    """The scaled partial permutation (cols, vals) of a dense matrix with at
    most one nonzero entry per row."""
    cols, vals = [], []
    for row in A:
        hits = [(j, a) for j, a in enumerate(row) if a]
        assert len(hits) <= 1, "two entries in one row"
        j, a = hits[0] if hits else (None, None)
        cols.append(j)
        vals.append(a)
    return tuple(cols), tuple(vals)


def pp_to_dense(A, r):
    zero = r.zero()
    out = []
    for j, a in zip(*A):
        dense = [zero] * len(A[0])
        if j is not None:
            dense[j] = a
        out.append(dense)
    return out


def sp_from_dense(A):
    return [{j: a for j, a in enumerate(row) if a} for row in A]


def sp_to_dense(A, r):
    zero = r.zero()
    out = []
    for row in A:
        dense = [zero] * len(A)
        for j, a in row.items():
            dense[j] = a
        out.append(dense)
    return out
