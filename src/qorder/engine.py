"""Ore-tower presentations and PBW normal-form rewriting.

A presentation lists generators in tower order: the generator at position u
is adjoined over the subalgebra on positions > u, with the commutation rule

    x_u x_v = q^(S[u][v]) x_v x_u + delta_u(x_v)      for u < v,

delta values living in the subalgebra on positions > u.  Normal form means
exponent-vector monomials x_0^a0 ... x_{N-1}^a{N-1} with coefficients that
are exact Laurent polynomials in q (or cyclotomic numbers after
specialization at a root of unity).
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import QLaurent
from . import zlattice

_MAX_REWRITE_DEPTH = 10000


class ValidationFailed(ValueError):
    """A presentation violated one of the quantum solvable axioms."""


class ExpressionFailed(ArithmeticError):
    """A central element could not be written in the given frame."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class Element:
    """Finite sum of PBW monomials: {exponent vector: coefficient}.

    Coefficients are QLaurents (Q[q, q^-1]) or, once specialized at a root
    of unity, CycloNums; int and Fraction coefficients become QLaurents."""

    __slots__ = ("N", "terms")

    def __init__(self, N, terms=None):
        self.N = N
        self.terms = {}
        if terms:
            for vec, c in terms.items():
                if isinstance(c, (int, Fraction)):
                    c = QLaurent.const(c)
                if c:
                    self.terms[tuple(vec)] = c

    @classmethod
    def zero(cls, N):
        return cls(N)

    @classmethod
    def one(cls, N, coeff=1):
        return cls.monomial(N, (0,) * N, coeff)

    @classmethod
    def monomial(cls, N, vec, coeff=1):
        return cls(N, {tuple(vec): coeff})

    @classmethod
    def gen(cls, N, i, power=1):
        vec = [0] * N
        vec[i] = power
        return cls.monomial(N, vec)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def support(self):
        return sorted(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.N == other.N and self.terms == other.terms

    def __neg__(self):
        out = Element(self.N)
        out.terms = {v: -c for v, c in self.terms.items()}
        return out

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        out = dict(self.terms)
        for v, c in other.terms.items():
            s = out.get(v)
            s = c if s is None else s + c
            if s:
                out[v] = s
            else:
                out.pop(v, None)
        r = Element(self.N)
        r.terms = out
        return r

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if isinstance(c, (int, Fraction)):
            c = QLaurent.const(c)
        out = Element(self.N)
        if c:
            out.terms = {v: w * c for v, w in self.terms.items()}
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for vec in self.support():
            bits.append("(%s)*x^%s" % (self.terms[vec], list(vec)))
        return " + ".join(bits)


class AlgebraPresentation:
    """Ordered Ore tower data: generators, q-exponents, and delta rules.

    gens: generator names, tower order; the first n_poly are polynomial, the
    rest are Laurent-invertible and q-commute with everything.
    S: skew-symmetric integer matrix of q-exponents.
    exps: per-position skew exponents s_u (0 exactly when delta_u = 0).
    delta: (u, v) -> Element for u < v, the lower-order part of x_u x_v.
    """

    def __init__(self, gens, n_poly, S, exps=None, delta=None):
        self.gens = list(gens)
        N = len(self.gens)
        self.N = N
        if not 0 <= n_poly <= N:
            raise ValueError("n_poly out of range")
        self.n_poly = n_poly
        if len(S) != N or not zlattice.is_skew(S):
            raise ValueError("q-exponent matrix must be skew-symmetric NxN")
        self.S = [list(row) for row in S]
        self.exps = list(exps) if exps is not None else [0] * N
        if len(self.exps) != N:
            raise ValueError("exponent system must have one entry per generator")
        self.delta = {}
        delta = delta or {}
        for (u, v), elem in delta.items():
            if elem.is_zero():
                continue
            if not 0 <= u < v < N:
                raise ValueError("delta index pair out of order")
            if v >= n_poly or u >= n_poly:
                raise ValueError("invertible generators must q-commute exactly")
            for vec in elem.terms:
                if any(vec[w] for w in range(u + 1)):
                    raise ValueError(
                        "delta_%d(x_%d) must live on later generators" % (u, v))
                if any(vec[w] < 0 for w in range(n_poly)):
                    raise ValueError("delta value has negative polynomial exponent")
            self.delta[(u, v)] = elem
        self._rewriters = {}

    def is_invertible(self, i):
        return i >= self.n_poly

    def gen_index(self, name):
        return self.gens.index(name)

    def __repr__(self):
        return "AlgebraPresentation(%s)" % ", ".join(self.gens)


class _Rewriter:
    """Normal-form multiplication over a fixed presentation and scalar ring.

    qpow(k) is the scalar q^k of the ring and delta maps (u, v) to the terms
    of the lower-order part of x_u x_v, with coefficients in that ring.
    Each completed x_u x^b is kept for the life of the rewriter, which lives
    on its presentation; the kept terms dicts are shared, so every caller
    only reads them and mul_terms builds a fresh dict."""

    def __init__(self, pres, qpow, delta):
        self.N = pres.N
        self.S = pres.S
        self.qpow = qpow
        self.delta = delta
        # Positions w that can block a later generator on its way left.
        self.blockers_for = {
            u: sorted(w for (w, v) in self.delta if v == u)
            for u in range(pres.N)
        }
        self._depth = 0
        self._products = {}

    def _add(self, out, vec, coeff):
        s = out.get(vec)
        s = coeff if s is None else s + coeff
        if s:
            out[vec] = s
        else:
            out.pop(vec, None)

    def mul_terms(self, terms1, terms2):
        out = {}
        for vec, c in terms1.items():
            part = self.mono_times(vec, terms2)
            for v2, c2 in part.items():
                self._add(out, v2, c * c2)
        return out

    def mono_times(self, a, terms):
        """x^a times an element given as a terms dict."""
        cur = terms
        for u in range(self.N - 1, -1, -1):
            k = a[u]
            if k == 0:
                continue
            cur = self.gen_pow_times(u, k, cur)
            if not cur:
                break
        return cur

    def gen_pow_times(self, u, k, terms):
        if k < 0 or not self.blockers_for[u]:
            # Invertible generators, and generators nothing blocks, q-commute
            # exactly past every monomial: one scalar shift.
            out = {}
            Su = self.S[u]
            for vec, c in terms.items():
                scal = k * sum(Su[w] * vec[w] for w in range(u) if vec[w])
                nv = list(vec)
                nv[u] += k
                self._add(out, tuple(nv), c * self.qpow(scal))
            return out
        cur = terms
        for _ in range(k):
            out = {}
            for vec, c in cur.items():
                for v2, c2 in self.gen_times_mono(u, vec).items():
                    self._add(out, v2, c * c2)
            cur = out
            if not cur:
                break
        return cur

    def gen_times_mono(self, u, b):
        """Terms of x_u * x^b, shared: the caller must not mutate them."""
        out = self._products.get((u, b))
        if out is None:
            out = self._products[(u, b)] = self._gen_times_mono(u, b)
        return out

    def _gen_times_mono(self, u, b):
        self._depth += 1
        if self._depth > _MAX_REWRITE_DEPTH:
            raise ValidationFailed("rewriting did not terminate; "
                                   "presentation is not a valid Ore tower")
        try:
            blocking = None
            for w in self.blockers_for[u]:
                if b[w]:
                    blocking = w
                    break
            Su = self.S[u]
            if blocking is None:
                scal = sum(Su[w] * b[w] for w in range(u) if b[w])
                nv = list(b)
                nv[u] += 1
                return {tuple(nv): self.qpow(scal)}
            w = blocking
            scal = sum(Su[t] * b[t] for t in range(w) if b[t])
            prefix = [(t, b[t]) for t in range(w) if b[t]]
            submono = list(b)
            for t, _ in prefix:
                submono[t] = 0
            inner = self._gen_tail(u, w, submono[w], submono)
            out = {}
            factor = self.qpow(scal)
            for vec, c in inner.items():
                nv = list(vec)
                for t, e in prefix:
                    nv[t] += e
                self._add(out, tuple(nv), c * factor)
            return out
        finally:
            self._depth -= 1

    def _gen_tail(self, u, w, k, mono):
        """Terms of x_u * x_w^k * x^rest, rest = mono above position w."""
        if k == 0:
            rest = list(mono)
            rest[w] = 0
            return self.gen_times_mono(u, tuple(rest))
        step = self.qpow(self.S[u][w])
        lower = list(mono)
        lower[w] = k - 1
        t1 = self._gen_tail(u, w, k - 1, lower)
        out = {}
        for vec, c in t1.items():
            nv = list(vec)
            nv[w] += 1
            self._add(out, tuple(nv), c * step)
        dterms = self.delta.get((w, u))
        if dterms:
            tail = {tuple(lower): self.qpow(0)}
            prod = self.mul_terms(dterms, tail)
            for vec, c in prod.items():
                self._add(out, vec, -(c * step))
        return out


def _rewriter(P, r=None):
    """The presentation's rewriter over Q[q, q^-1] (r None) or at the root
    r, built once per root."""
    key = None if r is None else (r.l, r.primitive_index)
    rw = P._rewriters.get(key)
    if rw is None:
        if r is None:
            rw = _Rewriter(P, QLaurent.q_power,
                           {k: e.terms for k, e in P.delta.items()})
        else:
            delta = {k: specialize(e, r).terms for k, e in P.delta.items()}
            rw = _Rewriter(P, r.eps_power,
                           {k: t for k, t in delta.items() if t})
        P._rewriters[key] = rw
    return rw


def mul(P, a, b):
    """Product of two normal-form elements, renormalized."""
    out = Element(P.N)
    out.terms = _rewriter(P).mul_terms(a.terms, b.terms)
    return out


def mul_at_root(P, r, a, b):
    """Product of two specialized elements at eps."""
    out = Element(P.N)
    out.terms = _rewriter(P, r).mul_terms(a.terms, b.terms)
    return out


def specialize(a, r):
    """Map an Element to coefficients in Q[q]/(Phi_l)."""
    out = Element(a.N)
    for vec, c in a.terms.items():
        e = r.eval(c)
        if e:
            out.terms[vec] = e
    return out


def normal_form(word, P):
    """Normal form of a formal word.

    Word items are generator indices, (index, power) pairs, or scalars
    (int, Fraction, QLaurent).  Rewriting moves earlier generators left.
    """
    out = Element.one(P.N)
    for item in word:
        if isinstance(item, int) and not isinstance(item, bool):
            factor = Element.gen(P.N, item)
        elif isinstance(item, tuple):
            i, k = item
            if k < 0 and not P.is_invertible(i):
                raise ValueError("negative power of a polynomial generator")
            factor = Element.gen(P.N, i, k)
        elif isinstance(item, (Fraction, QLaurent)):
            factor = Element.one(P.N, item)
        else:
            raise TypeError("unsupported word item %r" % (item,))
        out = mul(P, out, factor)
    return out


def commutator(P, a, b):
    return mul(P, a, b) - mul(P, b, a)


def tau_apply(P, u, a):
    """The automorphism of the tower step at position u on later monomials."""
    out = Element(P.N)
    Su = P.S[u]
    for vec, c in a.terms.items():
        scal = sum(Su[w] * vec[w] for w in range(P.N) if vec[w])
        out.terms[vec] = c * QLaurent.q_power(scal)
    return out


def delta_apply(P, u, a):
    """Extend delta_u to elements of the later subalgebra (twisted Leibniz)."""
    out = Element.zero(P.N)
    for vec, c in a.terms.items():
        if any(vec[w] for w in range(u + 1)):
            raise ValueError("delta_%d applies to generators above %d only" % (u, u))
        part = _delta_mono(P, u, vec)
        out = out + part.scale(c)
    return out


def _delta_mono(P, u, vec):
    v = next((i for i, e in enumerate(vec) if e), None)
    if v is None:
        return Element.zero(P.N)
    rest = list(vec)
    k = rest[v]
    rest[v] = 0
    rest = tuple(rest)
    drule = P.delta.get((u, v))
    if drule is None:
        # delta_u kills x_v (and its inverse); twist past the whole power.
        inner = _delta_mono(P, u, rest)
        if inner.is_zero():
            return inner
        lead = Element.monomial(P.N, _evec(P.N, v, k),
                                QLaurent.q_power(k * P.S[u][v]))
        return mul(P, lead, inner)
    # Positive power of a generator with a genuine delta rule.
    out = Element.zero(P.N)
    # delta(x_v^k rest) = sum_j tau(x_v)^j delta(x_v) x_v^(k-1-j) rest
    #                   + tau(x_v^k) delta(rest)
    for j in range(k):
        lead = Element.monomial(P.N, _evec(P.N, v, j),
                                QLaurent.q_power(j * P.S[u][v]))
        tail = Element.monomial(P.N, _addvec(_evec(P.N, v, k - 1 - j), rest))
        out = out + mul(P, mul(P, lead, drule), tail)
    inner = _delta_mono(P, u, rest)
    if inner:
        lead = Element.monomial(P.N, _evec(P.N, v, k),
                                QLaurent.q_power(k * P.S[u][v]))
        out = out + mul(P, lead, inner)
    return out


def _evec(N, i, k=1):
    v = [0] * N
    v[i] = k
    return tuple(v)


def _addvec(a, b):
    return tuple(x + y for x, y in zip(a, b))


class ValidationReport:
    """Successful validation summary."""

    def __init__(self, nilpotency_steps, triples_checked):
        self.nilpotency_steps = nilpotency_steps
        self.triples_checked = triples_checked

    def __repr__(self):
        return ("ValidationReport(nilpotency_steps=%r, triples=%d)"
                % (self.nilpotency_steps, self.triples_checked))


def validate(P, bound=16):
    """Audit the quantum solvable axioms by direct rewriting.

    Checks, in order: local nilpotency of every delta, the q-skew identity,
    associativity probes on all generator triples, and the agreement of the
    exponent system with the delta flags.  Raises ValidationFailed with the
    first violation found.
    """
    steps = {}
    for u in range(P.N):
        has_delta = any(k[0] == u for k in P.delta)
        if not has_delta:
            continue
        for v in range(u + 1, P.N):
            cur = Element.gen(P.N, v)
            count = 0
            while not cur.is_zero():
                cur = delta_apply(P, u, cur)
                count += 1
                if count > bound:
                    raise ValidationFailed(
                        "delta_%d is not locally nilpotent on %s"
                        % (u, P.gens[v]))
            steps[(u, v)] = count
    for (u, v), rule in P.delta.items():
        lhs = tau_apply(P, u, rule)
        rhs = rule.scale(QLaurent.q_power(P.exps[u] + P.S[u][v]))
        if lhs != rhs:
            raise ValidationFailed(
                "q-skew identity fails at pair (%s, %s)" % (P.gens[u], P.gens[v]))
    triples = 0
    for u in range(P.N):
        for v in range(u + 1, P.N):
            for w in range(v + 1, P.N):
                a, b, c = (Element.gen(P.N, i) for i in (u, v, w))
                left = mul(P, mul(P, c, b), a)
                right = mul(P, c, mul(P, b, a))
                if left != right:
                    raise ValidationFailed(
                        "associativity probe fails on (%s, %s, %s)"
                        % (P.gens[u], P.gens[v], P.gens[w]))
                triples += 1
    for u in range(P.N):
        has_delta = any(k[0] == u for k in P.delta)
        if has_delta and P.exps[u] == 0:
            raise ValidationFailed(
                "generator %s has a delta rule but zero skew exponent"
                % P.gens[u])
        if not has_delta and P.exps[u] != 0:
            raise ValidationFailed(
                "generator %s has no delta rule but nonzero skew exponent"
                % P.gens[u])
    return ValidationReport(steps, triples)


def evaluate_expression(expr, values, root):
    """Evaluate {exponent-vector: coeff} at given frame values."""
    total = root.zero()
    for m, c in expr.items():
        term = c
        for mi, val in zip(m, values):
            if mi:
                term = term * (val ** mi)
        total = total + term
    return total


def expression_linear_part(expr, values, root):
    """Gradient of a frame polynomial at a point, one entry per factor.

    Returns (constant term at the point, list of partial derivatives).
    Handles zero values: a monomial with two or more vanishing factors has
    zero gradient; with exactly one vanishing factor only that partial
    survives.  A negative power of a vanishing factor is a pole and raises
    ZeroDivisionError.
    """
    n = len(values)
    grad = [root.zero() for _ in range(n)]
    const = root.zero()
    for m, c in expr.items():
        zero_pos = [i for i, (mi, val) in enumerate(zip(m, values))
                    if mi != 0 and val.is_zero()]
        if any(m[i] < 0 for i in zero_pos):
            raise ZeroDivisionError("frame polynomial has a pole at the point")
        if not zero_pos:
            base = c
            for mi, val in zip(m, values):
                if mi:
                    base = base * (val ** mi)
            const = const + base
            for i, (mi, val) in enumerate(zip(m, values)):
                if mi:
                    grad[i] = grad[i] + base * mi * val.inverse()
        elif len(zero_pos) == 1:
            i = zero_pos[0]
            if m[i] == 1:
                base = c
                for j, (mj, val) in enumerate(zip(m, values)):
                    if j != i and mj:
                        base = base * (val ** mj)
                grad[i] = grad[i] + base
            # m[i] >= 2 lies in the square of the maximal ideal: no linear part.
        # two or more vanishing factors: no constant, no linear part
    return const, grad
