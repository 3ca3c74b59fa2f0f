"""Exact scalars: rationals, Laurent polynomials in q, and cyclotomic numbers.

Everything here is exact; no floating point anywhere.  A Laurent polynomial
coefficient is an int when it is integral and a Fraction otherwise, so the
integer presentations of the models multiply in ints and never call into
fractions.py; nothing reads the type, since Fraction(k) == k with equal hash
and str.  Specialization at a primitive l-th root of unity is done inside
the quotient ring Q[q]/(Phi_l), so different primitive roots are selected by
an exponent rather than by numerics.  Its elements are stored as integer
numerators over one positive denominator, the representation of
FLINT's fmpq_poly: Phi_l is monic with integer coefficients, so reduction
never leaves the integers, and an inverse is the product of the other Galois
conjugates over the rational norm.  A cyclotomic number meets Fractions only
where values come in (constructor, scalars, Laurent coefficients) and go out
(CycloNum.vec).  residue_map reduces p-integral cyclotomic numbers into F_p,
for a prime p that splits Phi_l, so that ranks mod p can certify exact ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class NotDivisible(ArithmeticError):
    """An exact polynomial division left a remainder or a nonintegral
    quotient."""


def _frac(x):
    """x as an int when it is integral, else as a Fraction."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError("expected int or Fraction, got %s" % type(x).__name__)


class QLaurent:
    """Laurent polynomial in q over the rationals.

    Coefficients are stored as a degree -> int or Fraction map with no zeros
    kept.  Values entering through the constructor or the divisions are ints
    when integral; sums and products of ints stay ints, while Fraction
    arithmetic may leave an integral Fraction, which is equal to that int.
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
            s = out.get(d, 0) + c
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
                s = out.get(d, 0) + c1 * c2
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
                return QLaurent({d * n: Fraction(c) ** n})
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


_new = object.__new__


def _make(root, num, den):
    """CycloNum with integer tuple num over den, already in canonical form."""
    x = _new(CycloNum)
    x.root = root
    x.num = num
    x.den = den
    return x


def _canonical(root, num, den):
    """CycloNum num/den for den > 0, with the common content removed."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple([c // g for c in num])
            den //= g
    return _make(root, num, den)


def _convolve(root, a, b):
    """Numerators of a * b: convolve, then fold q^deg, ..., q^(2 deg - 2)
    back through the integer rows of q^k mod Phi_l."""
    deg = root.deg
    prod = [0] * (2 * deg - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                prod[j] += x * y
    out = prod[:deg]
    for c, high in zip(prod[deg:], root._high):
        if c:
            for i, v in high:
                out[i] += c * v
    return tuple(out)


def _times_power(root, a, k, sign):
    """Numerators of a * sign * q^k: rotate a by k in Z[q]/(q^l - 1), which
    Phi_l divides, then fold q^deg, ..., q^(l - 1) back through the integer
    rows of q^k mod Phi_l."""
    l = root.l
    deg = root.deg
    padded = list(a) + [0] * (l - deg) if sign > 0 else \
        [-c for c in a] + [0] * (l - deg)
    rotated = padded[l - k:] + padded[:l - k]
    out = rotated[:deg]
    for c, tail in zip(rotated[deg:], root._tail):
        if c:
            for i, v in tail:
                out[i] += c * v
    return tuple(out)


class CycloNum:
    """Element of Q[q]/(Phi_l): a polynomial of degree < deg Phi_l in eps.

    The value is stored as integer numerators num (coefficients of 1, eps,
    ..., eps^(deg-1)) over one positive denominator den, in canonical form:
    gcd(den, *num) == 1, and zero is all-zero numerators over 1.  Equal values
    therefore have equal (num, den), so == and hash compare integer tuples.
    Phi_l is monic with integer coefficients, so products reduce without
    leaving the integers; the inverse is the product of the other Galois
    conjugates of num divided by its norm, a nonzero integer.  vec gives the
    coefficients as Fractions, and the constructor accepts them (or ints).

    The canonical primitive root eps is the residue class of q; alternative
    primitive roots are reached through RootData.primitive_index, which acts
    at evaluation time, or through the galois() map.
    """

    __slots__ = ("root", "num", "den")

    def __init__(self, root, vec):
        vec = [_frac(c) for c in vec]
        den = lcm(*[c.denominator for c in vec])
        self.root = root
        self.num = tuple([c.numerator * (den // c.denominator) for c in vec])
        self.den = den

    @property
    def vec(self):
        """Coefficients of 1, eps, ..., eps^(deg-1) as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def is_zero(self):
        return not any(self.num)

    def is_one(self):
        return self.den == 1 and self.num == self.root._one_num

    def __bool__(self):
        return any(self.num)

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
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.root.l, self.num, self.den))

    def __neg__(self):
        return _make(self.root, tuple([-c for c in self.num]), self.den)

    def __add__(self, other):
        if not isinstance(other, CycloNum):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.root.scalar(other)
        if other.root is not self.root:
            self._check(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            num = tuple([a + b for a, b in zip(self.num, other.num)])
        else:
            num = tuple([a * d2 + b * d1 for a, b in zip(self.num, other.num)])
            d1 *= d2
        return _canonical(self.root, num, d1)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, CycloNum):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.root.scalar(other)
        if other.root is not self.root:
            self._check(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            num = tuple([a - b for a, b in zip(self.num, other.num)])
        else:
            num = tuple([a * d2 - b * d1 for a, b in zip(self.num, other.num)])
            d1 *= d2
        return _canonical(self.root, num, d1)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, p, q):
        """self * p / q for integers p and q != 0."""
        if q < 0:
            p, q = -p, -q
        return _canonical(self.root, tuple([c * p for c in self.num]),
                          self.den * q)

    def __mul__(self, other):
        if not isinstance(other, CycloNum):
            if isinstance(other, (int, Fraction)):
                return self._scale(other.numerator, other.denominator)
            return NotImplemented
        root = self.root
        if other.root is not root:
            self._check(other)
        a, b = self.num, other.num
        # Factors 0, 1 and -1 have den 1 and the numerators cached on root.
        # The product lives on self.root, and a negated canonical form is
        # canonical.
        if other.den == 1:
            if b == root._zero_num:
                return root._zero
            if b == root._one_num:
                return self
            if b == root._minus_one_num:
                return _make(root, tuple([-c for c in a]), self.den)
        if self.den == 1:
            if a == root._zero_num:
                return root._zero
            if a == root._one_num:
                return other if other.root is root else \
                    _make(root, b, other.den)
            if a == root._minus_one_num:
                return _make(root, tuple([-c for c in b]), other.den)
        # A factor +-eps^k is a unit of Z[eps]: the product keeps the other
        # factor's content, so it needs no gcd.  Two such factors multiply
        # to a third, read from root.
        if other.den == 1:
            hit = root._power_index.get(b)
            if hit is not None:
                if self.den == 1:
                    mine = root._power_index.get(a)
                    if mine is not None:
                        return root._units[(mine[0] + hit[0]) % root.l][
                            mine[1] * hit[1]]
                return _make(root, _times_power(root, a, *hit), self.den)
        if self.den == 1:
            hit = root._power_index.get(a)
            if hit is not None:
                return _make(root, _times_power(root, b, *hit), other.den)
        return _canonical(root, _convolve(root, a, b), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse: den times the product of the other Galois
        conjugates of num, over the norm of num.  A rational or +-eps^k / d
        is inverted directly."""
        num = self.num
        if not any(num):
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        root = self.root
        if not any(num[1:]):
            return root.one()._scale(self.den, num[0])
        # +-eps^k / d, a usual clock/shift entry: d * +-eps^(-k)
        hit = root._power_index.get(num)
        if hit is not None:
            k, sign = hit
            return root._powers[-k % root.l]._scale(sign * self.den, 1)
        a = _make(root, num, 1)
        conj = root.one()
        for m in range(2, root.l):
            if gcd(m, root.l) == 1:
                conj = conj * a.galois(m)
        norm = a * conj
        if any(norm.num[1:]):
            raise ArithmeticError("cyclotomic norm is not rational")
        return conj._scale(self.den, norm.num[0])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("cyclotomic division by zero")
            return self._scale(other.denominator, other.numerator)
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
        # square only while bits remain: x ** 1 is one product by 1
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def galois(self, m):
        """Image under the field automorphism raising the canonical root to m."""
        root = self.root
        l = root.l
        if gcd(m, l) != 1:
            raise ValueError("galois exponent must be coprime to l")
        out = [0] * root.deg
        pw = root._pow
        for k, c in enumerate(self.num):
            if c:
                for i, v in enumerate(pw[(k * m) % l]):
                    if v:
                        out[i] += c * v
        return _canonical(root, tuple(out), self.den)

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


def poly_trim(p):
    """Coefficient list (low degree first) without trailing zeros.  The
    coefficients may be Fractions or CycloNums: anything with a truth value."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def poly_divmod(num, den):
    """Long division of coefficient lists (low degree first) over a field,
    Q or Q(eps): (quotient, trimmed remainder)."""
    num = list(num)
    den = poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    dn = len(den) - 1
    inv = 1 / den[-1]
    zero = inv * 0
    if len(num) - 1 < dn:
        return [zero], poly_trim(num)
    out = [zero] * (len(num) - dn)
    for k in range(len(num) - dn - 1, -1, -1):
        c = num[k + dn] * inv
        out[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    return out, poly_trim(num)


class RootData:
    """Order l, the cyclotomic polynomial Phi_l, and a choice of primitive root.

    primitive_index j (coprime to l) selects eps = (canonical root)^j; all
    evaluations of Laurent polynomials go through that choice.
    """

    __slots__ = ("l", "phi", "primitive_index", "deg", "_pow", "_high",
                 "_tail", "_powers", "_units", "_power_index", "_zero",
                 "_one", "_zero_num", "_one_num", "_minus_one_num")

    def __init__(self, l, primitive_index=1):
        if l < 2:
            raise ValueError("root order must be at least 2")
        if gcd(primitive_index, l) != 1:
            raise ValueError("primitive_index must be coprime to l")
        self.l = l
        self.primitive_index = primitive_index % l
        self.phi = tuple(_cyclotomic_coeffs(l))
        deg = self.deg = len(self.phi) - 1
        # q^k mod Phi_l for 0 <= k < l, as integer vectors of length deg:
        # multiply by q and replace q^deg by -(Phi_l - q^deg).
        vec = (1,) + (0,) * (deg - 1)
        pw = []
        for _ in range(l):
            pw.append(vec)
            top = vec[-1]
            vec = tuple(a - top * p for a, p in zip((0,) + vec[:-1], self.phi))
        self._pow = tuple(pw)
        # A product of two reduced vectors has degree <= 2*deg - 2; its
        # coefficients of q^deg and up reduce through these sparse rows.
        self._high = tuple(tuple((i, v) for i, v in enumerate(pw[k % l]) if v)
                           for k in range(deg, 2 * deg - 1))
        # A rotation of a reduced vector by +-q^k has degree <= l - 1.
        self._tail = tuple(tuple((i, v) for i, v in enumerate(pw[k]) if v)
                           for k in range(deg, l))
        self._powers = tuple(_make(self, v, 1) for v in pw)
        # _units[k][sign] is sign * q^k
        self._units = tuple({1: p, -1: -p} for p in self._powers)
        # numerators of +-q^k -> (k, sign); at even l, -q^k is q^(k + l/2)
        self._power_index = {tuple([-c for c in v]): (k, -1)
                             for k, v in enumerate(pw)}
        self._power_index.update((v, (k, 1)) for k, v in enumerate(pw))
        self._zero = _make(self, (0,) * deg, 1)
        self._one = self._powers[0]
        self._zero_num = self._zero.num
        self._one_num = self._one.num
        self._minus_one_num = (-1,) + (0,) * (deg - 1)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def scalar(self, c):
        if not isinstance(c, (int, Fraction)):
            raise TypeError("expected int or Fraction, got %s"
                            % type(c).__name__)
        return _make(self, (c.numerator,) + (0,) * (self.deg - 1),
                     c.denominator)

    def eps_power(self, k):
        """eps^k for the selected primitive root."""
        return self._powers[(k * self.primitive_index) % self.l]

    def eps(self):
        return self.eps_power(1)

    def eval(self, f):
        """Evaluate a QLaurent at eps; a ring homomorphism."""
        coeffs = f.coeffs
        den = lcm(*[c.denominator for c in coeffs.values()])
        out = [0] * self.deg
        pw = self._pow
        j, l = self.primitive_index, self.l
        for d, c in coeffs.items():
            a = c.numerator * (den // c.denominator)
            for i, v in enumerate(pw[(d * j) % l]):
                if v:
                    out[i] += a * v
        return _canonical(self, tuple(out), den)

    def __repr__(self):
        return "RootData(l=%d, j=%d)" % (self.l, self.primitive_index)


def cyclotomic_build(l, primitive_index=1):
    """Build Phi_l by exact division of q^l - 1 by the lower cyclotomics."""
    return RootData(l, primitive_index)


# ---------------------------------------------------------------------------
# Reduction modulo a prime that splits Phi_l.

class NotPIntegral(ArithmeticError):
    """A denominator divisible by the residue prime."""


def _is_prime(n):
    """Miller-Rabin on bases 2, 3, 5 and 7, deterministic for n below
    3,215,031,751."""
    if n < 2:
        return False
    for a in (2, 3, 5, 7):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def residue_prime(l, _cache={}):
    """(p, w): the largest prime p below 2^31 with p = 1 (mod l), and an
    element w of exact order l in F_p.  Phi_l splits into linear factors
    mod p and w is one of its roots, so q -> w is a ring homomorphism from
    the p-integral elements of Q(eps) = Q[q]/(Phi_l) onto F_p."""
    if l not in _cache:
        p = (2 ** 31 - 2) // l * l + 1
        while not _is_prime(p):
            p -= l
        primes = [t for t in range(2, l + 1) if l % t == 0 and _is_prime(t)]
        a = 2
        while True:
            w = pow(a, (p - 1) // l, p)
            if all(pow(w, l // t, p) != 1 for t in primes):
                break
            a += 1
        _cache[l] = (p, w)
    return _cache[l]


def residue_map(root):
    """(p, image): the residue prime of root.l and the reduction q -> w of
    its p-integral CycloNums, image(x) an int in [0, p).  A CycloNum is in
    canonical form, so it is p-integral exactly when p does not divide its
    den; image raises NotPIntegral otherwise."""
    p, w = residue_prime(root.l)
    powers = [pow(w, i, p) for i in range(root.deg)]

    def image(x):
        den = x.den
        if den % p == 0:
            raise NotPIntegral("denominator %d is divisible by the residue "
                               "prime %d" % (den, p))
        t = sum([c * v for c, v in zip(x.num, powers)])
        return (t if den == 1 else t * pow(den, -1, p)) % p

    return p, image
