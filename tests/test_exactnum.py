import math
import random
from fractions import Fraction

import pytest

from qorder import exactnum
from qorder.exactnum import (
    CycloNum,
    QLaurent,
    NotDivisible,
    NotPIntegral,
    _canonical,
    _convolve,
    cyclotomic_build,
    poly_divmod,
    poly_trim,
    residue_map,
    residue_prime,
)
from conftest import divide_by_cyclotomic


def poly_long_division(num, den):
    """Oracle: plain long division of rational coefficient lists (low first).

    Returns (quotient, remainder)."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        c = num[-1] / den[-1]
        k = len(num) - len(den)
        q[k] = c
        for i, d in enumerate(den):
            num[k + i] -= c * d
        num.pop()
    return q, num


def rand_laurent(rng, span=4, terms=4):
    out = QLaurent()
    for _ in range(rng.randint(0, terms)):
        d = rng.randint(-span, span)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        out = out + QLaurent.q_power(d, c)
    return out


def test_cyclotomic_polynomials():
    assert cyclotomic_build(3).phi == (1, 1, 1)
    assert cyclotomic_build(2).phi == (1, 1)
    assert cyclotomic_build(5).phi == (1, 1, 1, 1, 1)
    assert cyclotomic_build(4).phi == (1, 0, 1)
    assert cyclotomic_build(6).phi == (1, -1, 1)
    assert cyclotomic_build(12).phi == (1, 0, -1, 0, 1)


def test_phi_divides_q_l_minus_one():
    for l in (2, 3, 4, 5, 6, 7, 12):
        r = cyclotomic_build(l)
        f = QLaurent({l: 1, 0: -1})
        g = divide_by_cyclotomic(f, r)
        phi = QLaurent({k: c for k, c in enumerate(r.phi)})
        assert g * phi == f
        assert r.eval(phi).is_zero()


def test_eval_examples(r3):
    e = r3.eps()
    # q^2 at a primitive cube root is -1 - eps
    v = r3.eval(QLaurent({2: 1}))
    assert v == -(r3.one()) - e
    # negative powers use the field inverse
    assert r3.eval(QLaurent({-1: 1})) == e.inverse()
    assert r3.eval(QLaurent({3: 1, 0: -1})).is_zero()


def test_primitive_root_order(r3, r5):
    for r in (r3, r5, cyclotomic_build(4), cyclotomic_build(6)):
        e = r.eps()
        assert e ** r.l == r.one()
        for k in range(1, r.l):
            assert e ** k != r.one()


def test_divide_by_cyclotomic_examples(r3):
    assert divide_by_cyclotomic(QLaurent({3: 1, 0: -1}), r3) == \
        QLaurent({1: 1, 0: -1})
    # frozen from the long-division oracle below
    got = divide_by_cyclotomic(QLaurent({6: 1, 0: -1}), r3)
    assert got == QLaurent({4: 1, 3: -1, 1: 1, 0: -1})
    quo, rem = poly_long_division([-1, 0, 0, 0, 0, 0, 1], [1, 1, 1])
    assert not any(rem)
    assert got == QLaurent({k: c for k, c in enumerate(quo)})
    with pytest.raises(NotDivisible):
        divide_by_cyclotomic(QLaurent({1: 1, 0: -1}), r3)


def test_divide_random_against_oracle(r3):
    rng = random.Random(11)
    phi = QLaurent({k: c for k, c in enumerate(r3.phi)})
    for _ in range(150):
        f = rand_laurent(rng)
        assert divide_by_cyclotomic(f * phi, r3) == f


def test_eval_is_ring_homomorphism():
    rng = random.Random(5)
    for l in (2, 3, 5, 6):
        r = cyclotomic_build(l)
        for _ in range(60):
            f, g = rand_laurent(rng), rand_laurent(rng)
            assert r.eval(f * g) == r.eval(f) * r.eval(g)
            assert r.eval(f + g) == r.eval(f) + r.eval(g)


def test_inverses():
    rng = random.Random(17)
    for l in (2, 3, 5, 7):
        r = cyclotomic_build(l)
        done = 0
        while done < 200:
            vec = [Fraction(rng.randint(-4, 4)) for _ in range(r.deg)]
            x = CycloNum(r, vec)
            if x.is_zero():
                continue
            assert x * x.inverse() == r.one()
            done += 1


def _galois_inverse(x):
    """1 / x as the product of the other Galois conjugates over the norm."""
    r = x.root
    conj = r.one()
    for m in range(2, r.l):
        if math.gcd(m, r.l) == 1:
            conj = conj * x.galois(m)
    norm, *rest = (x * conj).vec
    assert not any(rest)
    return conj / norm


def test_inverse_of_scaled_eps_powers(monkeypatch):
    # +-eps^k / d is inverted directly, with no Galois conjugate, and agrees
    # with the conjugate product
    cases = []
    for l in (2, 3, 4, 5, 6, 7, 9, 12):
        r = cyclotomic_build(l)
        for k in range(l):
            for d in (1, 2, -3):
                x = r.eps_power(k) / d
                cases.append((x, _galois_inverse(x)))

    def refuse(self, m):
        raise AssertionError("Galois conjugate taken")

    monkeypatch.setattr(CycloNum, "galois", refuse)
    for x, want in cases:
        inv = x.inverse()
        assert inv == want
        assert x * inv == x.root.one()


def test_negative_powers_of_laurent_monomials():
    assert QLaurent.q_power(2) ** -1 == QLaurent.q_power(-2)
    assert repr(QLaurent.q_power(2) ** -1) == "q^-2"
    assert repr(QLaurent.q_power(2, 2) ** -1) == "1/2*q^-2"
    assert QLaurent.q_power(2, 2) ** -1 == \
        QLaurent.q_power(-2, Fraction(1, 2))
    assert repr(QLaurent.q_power(-1, Fraction(-2, 3)) ** -2) == "9/4*q^2"
    assert QLaurent.q_power(1, Fraction(1, 2)) ** -1 == QLaurent.q_power(-1, 2)
    with pytest.raises(ValueError, match="monomials"):
        QLaurent({0: 1, 1: 1}) ** -1


def test_divide_by_cyclotomic_keeps_integral_coefficients_int(r3):
    def types(f):
        return {d: type(c) for d, c in f.items()}

    # (q^3 - 1) / Phi_3 = q - 1
    got = divide_by_cyclotomic(QLaurent({3: 1, 0: -1}), r3)
    assert got == QLaurent({1: 1, 0: -1}) and types(got) == {0: int, 1: int}
    # (q^3 - 1) (q^-1 + 1/2) / Phi_3 = 1 - 1/2 q^-1 - 1/2 + 1/2 q
    got = divide_by_cyclotomic(QLaurent({3: 1, 0: -1})
                               * QLaurent({-1: 1, 0: Fraction(1, 2)}), r3)
    assert got == QLaurent({1: Fraction(1, 2), 0: Fraction(1, 2),
                            -1: -1})
    assert types(got) == {-1: int, 0: Fraction, 1: Fraction}
    # a rational input whose quotient is integral comes out in ints
    got = divide_by_cyclotomic(QLaurent({3: Fraction(4, 2), 0: -2}), r3)
    assert got == QLaurent({1: 2, 0: -2}) and types(got) == {0: int, 1: int}
    with pytest.raises(NotDivisible):
        divide_by_cyclotomic(QLaurent({1: Fraction(1, 2), 0: -1}), r3)


class FractionLaurent:
    """Reference Laurent polynomial whose coefficients are all Fractions:
    the representation QLaurent used before it kept integral coefficients
    as ints.  Its hash and repr follow QLaurent's."""

    def __init__(self, coeffs):
        self.coeffs = {d: Fraction(c) for d, c in coeffs.items() if c}

    def __add__(self, other):
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, Fraction(0)) + c
        return FractionLaurent(out)

    def __neg__(self):
        return FractionLaurent({d: -c for d, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                out[d1 + d2] = out.get(d1 + d2, Fraction(0)) + c1 * c2
        return FractionLaurent(out)

    def __pow__(self, n):
        if n < 0:
            ((d, c),) = self.coeffs.items()
            return FractionLaurent({d * n: c ** n})
        out = FractionLaurent({0: 1})
        for _ in range(n):
            out = out * self
        return out

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for d, c in sorted(self.coeffs.items()):
            if d == 0:
                parts.append(str(c))
            elif d == 1:
                parts.append("%s*q" % c if c != 1 else "q")
            else:
                parts.append("%s*q^%d" % (c, d) if c != 1 else "q^%d" % d)
        return " + ".join(parts)


def _rand_coefficients(rng, rational, span=3, terms=4):
    out = {}
    for _ in range(rng.randint(0, terms)):
        c = rng.randint(-6, 6)
        if rational and rng.random() < 0.5:
            c = Fraction(c, rng.choice((1, 2, 3, 4, 6)))
        out[rng.randint(-span, span)] = c
    return out


def test_laurent_arithmetic_matches_fraction_reference():
    """+ - * ** == hash and repr agree with the Fraction-only reference on
    random Laurent polynomials, and integer inputs never build a Fraction."""
    rng = random.Random(2021)

    def agree(got, ref):
        assert got.coeffs == ref.coeffs
        assert hash(got) == hash(ref)
        assert repr(got) == repr(ref)
        return got

    for rational in (False, True) * 150:
        pairs = []
        for _ in range(2):
            coeffs = _rand_coefficients(rng, rational)
            pairs.append((agree(QLaurent(coeffs), FractionLaurent(coeffs)),
                          FractionLaurent(coeffs)))
        (a, ra), (b, rb) = pairs
        n = rng.randint(0, 3)
        results = [agree(a + b, ra + rb), agree(a - b, ra - rb),
                   agree(a * b, ra * rb), agree(a ** n, ra ** n),
                   agree(-a, -ra)]
        if not rational:
            assert {type(c) for f in results for c in f.coeffs.values()} \
                <= {int}
        assert (a == b) == (ra.coeffs == rb.coeffs)
        assert a + b - b == a and (a * b == b * a)
        if len(a.coeffs) == 1:
            agree(a ** -n, ra ** -n)
            assert a ** -n * a ** n == QLaurent.one()


def test_laurent_ring_axioms():
    rng = random.Random(23)
    for _ in range(100):
        a, b, c = (rand_laurent(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_galois_consistency():
    rng = random.Random(31)
    for l, j1, j2 in ((5, 1, 2), (5, 2, 3), (7, 1, 3), (12, 1, 5)):
        r1 = cyclotomic_build(l, j1)
        r2 = cyclotomic_build(l, j2)
        # eval at eps^j2 equals the galois image of eval at eps^j1
        m = next(m for m in range(1, l)
                 if (m * j1) % l == j2 % l)
        for _ in range(40):
            f = rand_laurent(rng)
            assert r2.eval(f).vec == r1.eval(f).galois(m).vec


def test_eps_selection_respects_primitive_index():
    r = cyclotomic_build(5, 2)
    # evaluating q gives the square of the canonical root
    v = r.eval(QLaurent({1: 1}))
    base = cyclotomic_build(5).eps()
    assert v == base * base


# Reference arithmetic on Fraction coefficient vectors (low degree first):
# reduction by Phi_l from the top, schoolbook products and the extended
# Euclid inverse.  CycloNum must agree with it through .vec.

def ref_reduce(vec, phi):
    deg = len(phi) - 1
    vec = [Fraction(c) for c in vec]
    for k in range(len(vec) - 1, deg - 1, -1):
        c = vec[k]
        if c:
            vec[k] = Fraction(0)
            for i in range(deg):
                vec[k - deg + i] -= c * phi[i]
    vec = vec[:deg]
    return tuple(vec + [Fraction(0)] * (deg - len(vec)))


def ref_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ref_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def ref_inverse(a, phi):
    r0, r1 = [Fraction(c) for c in phi], ref_trim(a)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while r1:
        quo, rem = poly_long_division(r0, r1)
        s = ref_poly_mul(quo, s1)
        s = [x - y for x, y in zip(s0 + [0] * len(s), s + [0] * len(s0))]
        r0, r1 = r1, ref_trim(rem)
        s0, s1 = s1, s
    assert len(r0) == 1
    return ref_reduce([x / r0[0] for x in s0], phi)


def ref_power_vec(l, terms):
    """sum of c * q^(k mod l) for (k, c) in terms, as a length-l vector."""
    vec = [Fraction(0)] * l
    for k, c in terms:
        vec[k % l] += c
    return vec


def rand_cyclo(rng, r):
    return CycloNum(r, [Fraction(rng.randint(-9, 9),
                                 rng.choice((1, 2, 3, 4, 6, 9)))
                        for _ in range(r.deg)])


def test_arithmetic_matches_fraction_reference():
    rng = random.Random(2010)
    for l in (2, 3, 4, 5, 6, 7, 9, 12):
        r = cyclotomic_build(l)
        for _ in range(40):
            x, y = rand_cyclo(rng, r), rand_cyclo(rng, r)
            a, b = x.vec, y.vec
            assert (x * y).vec == ref_reduce(ref_poly_mul(a, b), r.phi)
            assert (x + y).vec == tuple(u + v for u, v in zip(a, b))
            assert (x - y).vec == tuple(u - v for u, v in zip(a, b))
            if not x.is_zero():
                assert x.inverse().vec == ref_inverse(a, r.phi)
            for m in range(1, l):
                if math.gcd(m, l) == 1:
                    want = ref_power_vec(l, [(k * m, c)
                                             for k, c in enumerate(a)])
                    assert x.galois(m).vec == ref_reduce(want, r.phi)
        for j in (m for m in range(1, l) if math.gcd(m, l) == 1):
            rj = cyclotomic_build(l, j)
            for _ in range(10):
                f = rand_laurent(rng, span=2 * l)
                want = ref_power_vec(l, [(d * j, c) for d, c in f.items()])
                assert rj.eval(f).vec == ref_reduce(want, rj.phi)


def test_trivial_factor_products_match_fraction_reference():
    """Products by 0, 1 and -1 skip the convolution.  Each product, in both
    orders, equals the reference product in value, == and hash, and lives on
    its left factor's root, also across roots of one l with different
    primitive indices."""
    rng = random.Random(2014)

    def operands(r):
        return ([r.zero(), r.one(), -r.one(), r.scalar(Fraction(1, 2)),
                 r.scalar(Fraction(-1, 3))] +
                [s * r.eps_power(k) for k in range(r.l) for s in (1, -1)] +
                [rand_cyclo(rng, r) for _ in range(4)])

    for l in (2, 3, 4, 5, 6, 7, 9, 12):
        j = max(m for m in range(1, l) if math.gcd(m, l) == 1)
        r, rj = cyclotomic_build(l), cyclotomic_build(l, j)
        xs, ys = operands(r), operands(r) + operands(rj)
        for x in xs:
            for y in ys:
                want = ref_reduce(ref_poly_mul(x.vec, y.vec), r.phi)
                for a, b in ((x, y), (y, x)):
                    got = a * b
                    ref = CycloNum(a.root, want)
                    assert got.vec == want, (l, a, b)
                    assert got == ref and hash(got) == hash(ref)
                    assert got.root is a.root


def test_unit_power_products_match_the_convolution():
    """A factor +-eps^k with den 1 is folded through the rows of q^(i + k)
    mod Phi_l instead of convolved.  For every l in 2..12, every k, both
    signs and both factor orders, the product equals the convolution
    product, is in canonical form and lives on its left factor's root."""
    rng = random.Random(2017)
    for l in range(2, 13):
        for j in (1, max(m for m in range(1, l) if math.gcd(m, l) == 1)):
            r = cyclotomic_build(l, j)
            others = [rand_cyclo(rng, r) for _ in range(6)] + [
                r.scalar(Fraction(-2, 3)), r.eps_power(1) / 4,
                (r.one() + r.eps_power(l - 1)) * Fraction(6, 5),
                -r.eps_power(2)]
            assert sum(x.den != 1 for x in others) >= 4
            for k in range(l):
                for sign in (1, -1):
                    unit = r.eps_power(k) * sign
                    assert unit.den == 1 and unit.num in r._power_index
                    for x in others:
                        for a, b in ((unit, x), (x, unit)):
                            got = a * b
                            want = _canonical(r, _convolve(r, a.num, b.num),
                                              a.den * b.den)
                            assert (got.num, got.den) == (want.num, want.den)
                            assert got.den > 0
                            assert math.gcd(got.den, *got.num) == 1
                            assert got.root is a.root


def test_powers_match_the_repeated_product(monkeypatch):
    """x ** n equals the product of n factors x (of -n factors 1/x when n is
    negative) for every l in 2..7 and n in -3..12; x ** 1 multiplies by 1
    only, so a general x convolves nothing."""
    rng = random.Random(2026)
    for l in range(2, 8):
        r = cyclotomic_build(l)
        xs = [rand_cyclo(rng, r) for _ in range(4)] + [r.eps_power(1) / 3]
        xs = [x for x in xs if x]
        assert any(x.num not in r._power_index for x in xs)
        for x in xs:
            for n in range(-3, 13):
                want = r.one()
                for _ in range(abs(n)):
                    want = want * (x if n >= 0 else x.inverse())
                assert x ** n == want, (l, x, n)
    calls = []
    real = exactnum._convolve

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(exactnum, "_convolve", counted)
    for l in range(2, 8):
        r = cyclotomic_build(l)
        x = CycloNum(r, [Fraction(3, 2)] + [Fraction(-5, 3)] * (r.deg - 1))
        assert x.num not in r._power_index
        calls.clear()
        assert x ** 1 == x and not calls
        assert x ** 2 == x * x and calls


def test_canonical_form():
    rng = random.Random(2011)
    for l in (3, 5, 12):
        r = cyclotomic_build(l)
        half = CycloNum(r, [Fraction(2, 4)] + [0] * (r.deg - 1))
        same = r.scalar(Fraction(1, 2))
        assert half == same and hash(half) == hash(same)
        assert half.vec == same.vec == (Fraction(1, 2),) + (0,) * (r.deg - 1)
        for _ in range(30):
            x = rand_cyclo(rng, r)
            for y in ((x * 3) / 3, x * Fraction(6, 7) / Fraction(6, 7),
                      (x + x) * Fraction(1, 2), CycloNum(r, x.vec),
                      x * r.one(), (x - r.one()) + 1):
                assert y == x and hash(y) == hash(x) and y.vec == x.vec
            assert x - x == r.zero() and hash(x - x) == hash(r.zero())
            assert all(type(c) is Fraction for c in x.vec)


def test_exceptional_inputs(r3, r5):
    for r in (r3, r5):
        with pytest.raises(ZeroDivisionError):
            r.zero().inverse()
        with pytest.raises(ZeroDivisionError):
            r.one() / r.zero()
        with pytest.raises(ValueError):
            r.eps().galois(r.l)
    with pytest.raises(ValueError):
        cyclotomic_build(12).eps().galois(2)
    with pytest.raises(ValueError):
        r3.one() * r5.eps()
    with pytest.raises(ValueError):
        r5.zero() * r3.eps()


def test_cyclotomic_arithmetic_builds_no_fractions(monkeypatch):
    rng = random.Random(2012)
    for l in (3, 5, 12):
        r = cyclotomic_build(l)
        x, y = rand_cyclo(rng, r), rand_cyclo(rng, r)
        f = rand_laurent(rng, span=2 * l)
        with monkeypatch.context() as m:
            def refuse(cls, *args, **kwargs):
                raise AssertionError("Fraction built")
            m.setattr(Fraction, "__new__", refuse)
            for z in (x + y, x - y, x * y, x.inverse(), x.galois(l - 1),
                      r.eval(f), x * 3, x / 3, r.one() * x, -r.one() * x,
                      r.zero() * x):
                z.is_zero()


def test_poly_divmod_over_q_matches_long_division():
    rng = random.Random(2013)
    for _ in range(100):
        num = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
               for _ in range(rng.randint(1, 7))]
        den = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
               for _ in range(rng.randint(0, 3))]
        den.append(Fraction(rng.randint(1, 3), rng.randint(1, 4)))
        quo, rem = poly_divmod(num, den)
        want_quo, want_rem = poly_long_division(num, den)
        assert poly_trim(quo) == poly_trim(want_quo)
        assert rem == poly_trim(want_rem)


# The residue prime and the reduction that certify table censuses.

def _trial_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_residue_prime_is_the_largest_split_prime():
    for l in range(2, 13):
        p, w = residue_prime(l)
        assert p < 2 ** 31 and p % l == 1 and _trial_prime(p)
        # no larger prime below 2^31 is 1 mod l
        assert not any(_trial_prime(c) for c in range(p + l, 2 ** 31, l))
        # w has exact order l
        assert pow(w, l, p) == 1
        assert all(pow(w, d, p) != 1 for d in range(1, l))
        assert residue_prime(l) == (p, w)


def _random_cyclo(rng, r):
    return CycloNum(r, [Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                        for _ in range(r.deg)])


def test_residue_map_is_a_ring_homomorphism():
    rng = random.Random(2031)
    for l in range(2, 13):
        for j in sorted({1, l - 1, *(k for k in (2, 5, 7) if k < l)}):
            if math.gcd(j, l) != 1:
                continue
            r = cyclotomic_build(l, j)
            p, image = residue_map(r)
            w = residue_prime(l)[1]
            # q itself, whatever root primitive_index selects
            assert image(r.eps()) == pow(w, j, p)
            assert image(r.one()) == 1 and image(r.zero()) == 0
            for _ in range(25):
                a, b = _random_cyclo(rng, r), _random_cyclo(rng, r)
                assert image(a + b) == (image(a) + image(b)) % p
                assert image(a - b) == (image(a) - image(b)) % p
                assert image(a * b) == image(a) * image(b) % p
                if a:
                    inv = a.inverse()
                    # a unit mod p unless p divides the norm of a
                    if image(a):
                        assert image(inv) == pow(image(a), -1, p)
                    assert image(a * inv) == 1


def test_residue_map_refuses_a_denominator_divisible_by_p():
    r = cyclotomic_build(3)
    p, image = residue_map(r)
    assert image(r.scalar(Fraction(2, p + 1))) == 2 * pow(p + 1, -1, p) % p
    for x in (r.scalar(Fraction(1, p)), r.eps() * Fraction(3, 2 * p)):
        with pytest.raises(NotPIntegral):
            image(x)
