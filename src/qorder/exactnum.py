"""Exact scalars: rationals, Laurent polynomials in q, and cyclotomic numbers.

Everything here is exact rational arithmetic; no floating point anywhere.
Specialization at a primitive l-th root of unity is done inside the quotient
ring Q[q]/(Phi_l), so different primitive roots are selected by an exponent
rather than by numerics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class NotDivisible(ArithmeticError):
    """Exact division by the cyclotomic polynomial left a remainder."""


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %s" % type(x).__name__)


class QLaurent:
    """Laurent polynomial in q over the rationals.

    Coefficients are stored as a degree -> Fraction map with no zeros kept.
    Instances are treated as immutable; all operators return new values.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for d, c in coeffs.items():
                c = _frac(c)
                if c:
                    self.coeffs[int(d)] = c

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def const(cls, c):
        return cls({0: _frac(c)})

    @classmethod
    def q_power(cls, k, coeff=1):
        return cls({k: _frac(coeff)})

    def is_zero(self):
        return not self.coeffs

    def items(self):
        return sorted(self.coeffs.items())

    def min_degree(self):
        return min(self.coeffs) if self.coeffs else 0

    def max_degree(self):
        return max(self.coeffs) if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QLaurent.const(other)
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.items()))

    def __neg__(self):
        out = QLaurent()
        out.coeffs = {d: -c for d, c in self.coeffs.items()}
        return out

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QLaurent.const(other)
        if not isinstance(other, QLaurent):
            return NotImplemented
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            s = out.get(d, Fraction(0)) + c
            if s:
                out[d] = s
            else:
                out.pop(d, None)
        r = QLaurent()
        r.coeffs = out
        return r

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QLaurent.const(other)
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            out = QLaurent()
            if c:
                out.coeffs = {d: v * c for d, v in self.coeffs.items()}
            return out
        if not isinstance(other, QLaurent):
            return NotImplemented
        out = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                s = out.get(d, Fraction(0)) + c1 * c2
                if s:
                    out[d] = s
                else:
                    out.pop(d, None)
        r = QLaurent()
        r.coeffs = out
        return r

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            if len(self.coeffs) == 1:
                ((d, c),) = self.coeffs.items()
                return QLaurent({d * n: c ** n})
            raise ValueError("negative powers only for monomials")
        out = QLaurent.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for d, c in self.items():
            if d == 0:
                parts.append(str(c))
            elif d == 1:
                parts.append("%s*q" % c if c != 1 else "q")
            else:
                parts.append("%s*q^%d" % (c, d) if c != 1 else "q^%d" % d)
        return " + ".join(parts)


def _poly_divmod_int(num, den):
    """Divide integer-coefficient polynomials given as low-to-high lists."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        lead = num[k + len(den) - 1]
        if lead % den[-1] != 0:
            raise NotDivisible("nonintegral quotient in cyclotomic build")
        q = lead // den[-1]
        out[k] = q
        for i, d in enumerate(den):
            num[k + i] -= q * d
    return out, num


def _cyclotomic_coeffs(l, _cache={1: [-1, 1]}):
    """Integer coefficients of Phi_l, low degree first."""
    if l in _cache:
        return list(_cache[l])
    num = [0] * (l + 1)
    num[0] = -1
    num[l] = 1
    den = [1]
    for d in range(1, l):
        if l % d == 0:
            phi_d = _cyclotomic_coeffs(d)
            new = [0] * (len(den) + len(phi_d) - 1)
            for i, a in enumerate(den):
                for j, b in enumerate(phi_d):
                    new[i + j] += a * b
            den = new
    quo, rem = _poly_divmod_int(num, den)
    if any(rem):
        raise ArithmeticError("cyclotomic recursion produced a remainder")
    _cache[l] = quo
    return list(quo)


class CycloNum:
    """Element of Q[q]/(Phi_l): a polynomial of degree < deg Phi_l in eps.

    The canonical primitive root eps is the residue class of q; alternative
    primitive roots are reached through RootData.primitive_index, which acts
    at evaluation time, or through the galois() map.
    """

    __slots__ = ("root", "vec")

    def __init__(self, root, vec):
        self.root = root
        self.vec = tuple(vec)

    def is_zero(self):
        return all(c == 0 for c in self.vec)

    def __bool__(self):
        return not self.is_zero()

    def _check(self, other):
        if self.root.l != other.root.l:
            raise ValueError("mixed cyclotomic orders %d and %d"
                             % (self.root.l, other.root.l))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.root.scalar(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        self._check(other)
        return self.vec == other.vec

    def __hash__(self):
        return hash((self.root.l, self.vec))

    def __neg__(self):
        return CycloNum(self.root, tuple(-c for c in self.vec))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.root.scalar(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        self._check(other)
        return CycloNum(self.root,
                        tuple(a + b for a, b in zip(self.vec, other.vec)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.root.scalar(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            return CycloNum(self.root, tuple(v * c for v in self.vec))
        if not isinstance(other, CycloNum):
            return NotImplemented
        self._check(other)
        deg = self.root.deg
        prod = [Fraction(0)] * (2 * deg - 1 if deg > 1 else 1)
        for i, a in enumerate(self.vec):
            if not a:
                continue
            for j, b in enumerate(other.vec):
                if b:
                    prod[i + j] += a * b
        return CycloNum(self.root, self.root.reduce_poly(prod))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse through the extended Euclid algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi = [Fraction(c) for c in self.root.phi]
        a = list(self.vec)
        # Extended gcd of a and phi in Q[q]; phi is irreducible so the gcd
        # is a nonzero constant and the Bezout cofactor of a is the inverse.
        r0, r1 = phi, _trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _trim(r1):
            q, r = _poly_divmod_frac(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        const = r0
        if len(_trim(const)) != 1:
            raise ArithmeticError("cyclotomic modulus is not irreducible here")
        c = const[0]
        inv = [x / c for x in s0]
        return CycloNum(self.root, self.root.reduce_poly(inv))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.root.scalar(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.root.scalar(other) * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.root.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def galois(self, m):
        """Image under the field automorphism raising the canonical root to m."""
        if gcd(m, self.root.l) != 1:
            raise ValueError("galois exponent must be coprime to l")
        out = self.root.zero()
        for k, c in enumerate(self.vec):
            if c:
                out = out + self.root.canonical_power((k * m) % self.root.l) * c
        return out

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.vec):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("%s*e" % c if c != 1 else "e")
            else:
                parts.append("%s*e^%d" % (c, k) if c != 1 else "e^%d" % k)
        return " + ".join(parts)


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    for i, y in enumerate(b):
        a[i] -= y
    return a


def _poly_divmod_frac(num, den):
    num = list(num)
    den = _trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    dn = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dn:
        return [Fraction(0)], num
    out = [Fraction(0)] * (len(num) - dn)
    for k in range(len(num) - dn - 1, -1, -1):
        c = num[k + dn] / lead
        out[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    return out, _trim(num)


class RootData:
    """Order l, the cyclotomic polynomial Phi_l, and a choice of primitive root.

    primitive_index j (coprime to l) selects eps = (canonical root)^j; all
    evaluations of Laurent polynomials go through that choice.
    """

    __slots__ = ("l", "phi", "primitive_index", "deg", "_pow", "_phi_prime")

    def __init__(self, l, primitive_index=1):
        if l < 2:
            raise ValueError("root order must be at least 2")
        if gcd(primitive_index, l) != 1:
            raise ValueError("primitive_index must be coprime to l")
        self.l = l
        self.primitive_index = primitive_index % l
        self.phi = tuple(_cyclotomic_coeffs(l))
        self.deg = len(self.phi) - 1
        # q^k mod Phi_l for 0 <= k < l, as Fraction vectors of length deg.
        self._pow = []
        for k in range(l):
            vec = [Fraction(0)] * max(k + 1, 1)
            vec[k] = Fraction(1)
            self._pow.append(tuple(self.reduce_poly(vec)))
        self._phi_prime = None

    def reduce_poly(self, vec):
        """Reduce a Fraction coefficient vector mod Phi_l to length deg."""
        vec = [Fraction(c) for c in vec]
        phi = self.phi
        for k in range(len(vec) - 1, self.deg - 1, -1):
            c = vec[k]
            if c:
                vec[k] = Fraction(0)
                for i in range(self.deg):
                    vec[k - self.deg + i] -= c * phi[i]
        vec = vec[:self.deg]
        vec += [Fraction(0)] * (self.deg - len(vec))
        return tuple(vec)

    def zero(self):
        return CycloNum(self, (Fraction(0),) * self.deg)

    def one(self):
        return self.scalar(1)

    def scalar(self, c):
        vec = [Fraction(0)] * self.deg
        vec[0] = _frac(c)
        return CycloNum(self, tuple(vec))

    def canonical_power(self, k):
        """k-th power of the canonical root, ignoring primitive_index."""
        return CycloNum(self, self._pow[k % self.l])

    def eps_power(self, k):
        """eps^k for the selected primitive root."""
        k = (k * self.primitive_index) % self.l
        return CycloNum(self, self._pow[k])

    def eps(self):
        return self.eps_power(1)

    def eval(self, f):
        """Evaluate a QLaurent at eps; a ring homomorphism."""
        out = [Fraction(0)] * self.deg
        for d, c in f.coeffs.items():
            vec = self._pow[(d * self.primitive_index) % self.l]
            for i, v in enumerate(vec):
                out[i] += v * c
        return CycloNum(self, tuple(out))

    def phi_prime_eps(self):
        """Phi_l'(eps), the correction factor for division by (q - eps)."""
        if self._phi_prime is None:
            df = QLaurent({k - 1: k * c for k, c in enumerate(self.phi) if k})
            self._phi_prime = self.eval(df)
        return self._phi_prime

    def __repr__(self):
        return "RootData(l=%d, j=%d)" % (self.l, self.primitive_index)


def cyclotomic_build(l, primitive_index=1):
    """Build Phi_l by exact division of q^l - 1 by the lower cyclotomics."""
    return RootData(l, primitive_index)


def eval_at_root(f, r):
    """Specialize a Laurent polynomial at the chosen primitive root."""
    return r.eval(f)


def divide_by_cyclotomic(f, r):
    """Exact quotient f / Phi_l in Q[q, q^-1].

    Raises NotDivisible when Phi_l does not divide f; callers use that as the
    signal that an element was not central at eps.
    """
    if f.is_zero():
        return QLaurent.zero()
    shift = f.min_degree()
    top = f.max_degree()
    num = [Fraction(0)] * (top - shift + 1)
    for d, c in f.coeffs.items():
        num[d - shift] = c
    den = [Fraction(c) for c in r.phi]
    quo, rem = _poly_divmod_frac(num, den)
    if rem:
        raise NotDivisible("Phi_%d does not divide the given polynomial" % r.l)
    out = QLaurent()
    out.coeffs = {i + shift: c for i, c in enumerate(quo) if c}
    return out


def divides_cyclotomic(f, r):
    """True when Phi_l divides f exactly."""
    try:
        divide_by_cyclotomic(f, r)
        return True
    except NotDivisible:
        return False
