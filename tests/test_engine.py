import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from qorder.exactnum import QLaurent, cyclotomic_build
from qorder import engine
from qorder.engine import (
    AlgebraPresentation,
    Element,
    ValidationFailed,
    commutator,
    mul,
    normal_form,
    specialize,
    validate,
)
from conftest import (NotCentral, divide_by_cyclotomic, is_central_at_root,
                      monomial_inverse, poisson_bracket, poisson_lift, power)
from test_fiber import QUANTUM_MATRICES

# the positive part of quantum sl_3, e3 = e1 e2 - q^-1 e2 e1
QUANTUM_SL3_PLUS = """
algebra.kind = custom
algebra.gens = e1 e3 e2
algebra.n_poly = 3
algebra.S = 0 1 -1 / -1 0 1 / 1 -1 0
algebra.exponents = 2 0 0
algebra.delta.e1.e2 = e3
root.l = 3
"""


def quantum_plane():
    return AlgebraPresentation(["x1", "x2"], 2, [[0, 1], [-1, 0]])


def weyl_n1(s1=1):
    # tower order (y, x): y x = q^-s1 x y - q^-s1
    rule = Element.monomial(2, (0, 0), QLaurent.q_power(-s1, -1))
    return AlgebraPresentation(["y", "x"], 2, [[0, -s1], [s1, 0]],
                               exps=[s1, 0], delta={(0, 1): rule})


def weyl_w1(P, s1=1):
    return Element(2, {(0, 0): QLaurent.one(),
                       (1, 1): QLaurent({s1: 1, 0: -1})})


def rand_mono(rng, P, max_exp=3):
    vec = []
    for i in range(P.N):
        lo = -max_exp if P.is_invertible(i) else 0
        vec.append(rng.randint(lo, max_exp))
    return tuple(vec)


def test_validate_passes_presets():
    rep = validate(quantum_plane())
    assert rep.nilpotency_steps == {}
    rep = validate(weyl_n1())
    assert rep.nilpotency_steps == {(0, 1): 2}


def test_validate_rejects_nonnilpotent_delta():
    # delta_1(x_2) = x_2 never reaches zero under iteration
    rule = Element.gen(2, 1)
    P = AlgebraPresentation(["x1", "x2"], 2, [[0, 1], [-1, 0]],
                            exps=[1, 0], delta={(0, 1): rule})
    with pytest.raises(ValidationFailed, match="nilpotent"):
        validate(P)


def test_validate_rejects_exponent_flag_mismatch():
    P = AlgebraPresentation(["x1", "x2"], 2, [[0, 1], [-1, 0]], exps=[1, 0])
    with pytest.raises(ValidationFailed, match="skew exponent"):
        validate(P)


def test_validate_rejects_broken_q_skew():
    # delta value x2^2 forces tau delta = q^(2 s12) delta tau; declaring
    # s1 = 1 with s12 = 1 breaks the identity at the pair (x1, x2)
    rule = Element.gen(3, 1)
    P = AlgebraPresentation(["x1", "x2", "x3"], 3,
                            [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
                            exps=[1, 0, 0],
                            delta={(0, 2): Element.gen(3, 1, 2)})
    with pytest.raises(ValidationFailed, match="q-skew"):
        validate(P)


def test_validate_rejects_a_failed_associativity_probe():
    # delta_x(y) = z^2 passes the q-skew identity, but y z = z y while
    # delta_x(y z) = z^3 and delta_x(z y) = q z^3: no Ore extension
    P = AlgebraPresentation(["x", "y", "z"], 3,
                            [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]],
                            exps=[1, 0, 0],
                            delta={(0, 1): Element.gen(3, 2, 2)})
    with pytest.raises(ValidationFailed,
                       match=r"associativity probe fails on \(x, y, z\)$"):
        validate(P)


def _ore_towers():
    """Quantum Weyl n=2 and n=3, O_eps(M_2) and U_eps^+(sl_3)."""
    from qorder import cli, models
    return {
        "weyl-n2": models.build_weyl([[0, 1], [-1, 0]], [1, 1]).presentation,
        "weyl-n3": models.build_weyl([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]],
                                     [1, 1, 1]).presentation,
        **{name: cli.build_model(cli.parse_jobspec(text)).presentation
           for name, text in (("quantum-matrices", QUANTUM_MATRICES),
                              ("quantum-sl3-plus", QUANTUM_SL3_PLUS))},
    }


def test_validate_nilpotency_steps_on_the_ore_towers():
    reports = {name: validate(P) for name, P in _ore_towers().items()}
    assert {name: (rep.nilpotency_steps, rep.triples_checked)
            for name, rep in reports.items()} == {
        "weyl-n2": ({(0, 1): 1, (0, 2): 1, (0, 3): 2, (1, 2): 2, (1, 3): 1},
                    4),
        "weyl-n3": ({(0, 1): 1, (0, 2): 1, (0, 3): 1, (0, 4): 1, (0, 5): 2,
                     (1, 2): 1, (1, 3): 1, (1, 4): 2, (1, 5): 1, (2, 3): 2,
                     (2, 4): 1, (2, 5): 1}, 20),
        "quantum-matrices": ({(0, 1): 1, (0, 2): 1, (0, 3): 2}, 4),
        "quantum-sl3-plus": ({(0, 1): 1, (0, 2): 2}, 1),
    }


def test_delta_is_a_twisted_derivation_on_the_ore_towers():
    # delta_u(a b) = delta_u(a) b + tau_u(a) delta_u(b) for monomials a, b
    # on positions above u, however delta_apply computes delta
    for P in _ore_towers().values():
        for u in range(P.N):
            monos = [Element.gen(P.N, v, k)
                     for v in range(u + 1, P.N) for k in (1, 2)]
            for a, b in iproduct(monos, repeat=2):
                lhs = engine.delta_apply(P, u, mul(P, a, b))
                rhs = mul(P, engine.delta_apply(P, u, a), b) + \
                    mul(P, engine.tau_apply(P, u, a),
                        engine.delta_apply(P, u, b))
                assert lhs == rhs


def test_normal_form_defining_relations():
    P = quantum_plane()
    w = normal_form([1, 0], P)  # x2 * x1
    assert w == Element.monomial(2, (1, 1), QLaurent.q_power(-1))
    W = weyl_n1()
    xy = normal_form([1, 0], W)  # x * y = q yx + 1
    assert xy == Element(2, {(1, 1): QLaurent.q_power(1),
                             (0, 0): QLaurent.one()})
    xyx = normal_form([1, 0, 1], W)  # x y x = q yx^2 + x
    assert xyx == Element(2, {(1, 2): QLaurent.q_power(1),
                              (0, 1): QLaurent.one()})


def test_monomial_inverse_at_generic_q():
    # on the quantum torus, where every monomial is a unit
    P = AlgebraPresentation(["x1", "x2"], 0, [[0, 1], [-1, 0]])
    for coeff, inv, text in (
            (QLaurent.q_power(3), QLaurent.q_power(-3), "q^-3"),
            (QLaurent.q_power(3, 2), QLaurent.q_power(-3, Fraction(1, 2)),
             "1/2*q^-3"),
            (QLaurent.q_power(-1, Fraction(-2, 3)),
             QLaurent.q_power(1, Fraction(-3, 2)), "-3/2*q")):
        a = Element.monomial(2, (1, 2), coeff)
        b = monomial_inverse(a)
        assert b == Element.monomial(2, (-1, -2), inv)
        assert repr(b) == "(%s)*x^[-1, -2]" % text
        assert mul(P, a, b) == mul(P, b, a) == \
            Element.one(2, QLaurent.q_power(2))


def test_normal_form_scalars_and_powers():
    P = quantum_plane()
    w = normal_form([QLaurent.q_power(2), (1, 2), (0, 1)], P)
    assert w == Element.monomial(2, (1, 2), QLaurent.q_power(0))
    with pytest.raises(ValueError):
        normal_form([(0, -1)], P)


def test_normal_form_idempotent_and_linear():
    rng = random.Random(9)
    for P in (quantum_plane(), weyl_n1(), weyl_n1(2)):
        for _ in range(100):
            word = []
            for _ in range(rng.randint(0, 6)):
                word.append(rng.randrange(P.N))
            e = normal_form(word, P)
            # renormalizing a normal element changes nothing
            total = Element.zero(P.N)
            for vec, c in e.terms.items():
                items = []
                for i, k in enumerate(vec):
                    if k:
                        items.append((i, k))
                total = total + normal_form([c] + items, P)
            assert total == e


def test_commutator_examples(r3):
    P = quantum_plane()
    c = commutator(P, Element.gen(2, 0), Element.gen(2, 1))
    assert c == Element(2, {(1, 1): QLaurent({0: 1, -1: -1})})
    u = Element(2, {(1, 2): QLaurent.one(), (0, 0): QLaurent.const(3)})
    assert commutator(P, u, u).is_zero()
    W = weyl_n1()
    cw = commutator(W, Element.gen(2, 1), Element.gen(2, 0))
    assert cw == weyl_w1(W)


def test_centrality(r3, r5):
    P = quantum_plane()
    for r in (r3, r5, cyclotomic_build(4)):
        assert is_central_at_root(power(P, Element.gen(2, 0), r.l), P, r)
        assert is_central_at_root(power(P, Element.gen(2, 1), r.l), P, r)
    assert not is_central_at_root(Element.gen(2, 0), P, r3)
    W = weyl_n1()
    assert is_central_at_root(power(W, Element.gen(2, 0), 3), W, r3)
    assert is_central_at_root(power(W, Element.gen(2, 1), 3), W, r3)
    assert is_central_at_root(power(W, weyl_w1(W), 3), W, r3)
    assert not is_central_at_root(weyl_w1(W), W, r3)


def test_weyl_centrality_wider():
    from qorder import models
    for n, l in ((2, 3), (3, 3), (1, 5), (2, 5), (3, 5)):
        S = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                S[i][j] = 1
                S[j][i] = -1
        model = models.build_weyl(S, [1] * n)
        r = cyclotomic_build(l)
        if not model.admissibility(l):
            continue
        P = model.presentation
        for i in range(1, n + 1):
            assert is_central_at_root(
                power(P, Element.gen(P.N, model.xpos(i)), l), P, r)
            assert is_central_at_root(
                power(P, Element.gen(P.N, model.ypos(i)), l), P, r)
            assert is_central_at_root(power(P, model.w[i], l), P, r)


def test_poisson_quantum_plane_shape(r3):
    P = quantum_plane()
    a1 = power(P, Element.gen(2, 0), 3)
    a2 = power(P, Element.gen(2, 1), 3)
    br = poisson_bracket(P, r3, a1, a2)
    prod = engine.mul_at_root(P, r3, specialize(a1, r3), specialize(a2, r3))
    ((vec, c),) = br.terms.items()
    ((vec2, c2),) = prod.terms.items()
    assert vec == vec2 == (3, 3)
    kappa = c / c2
    # the derived constant: l^2 / eps, not l eps^(l-1)
    e = r3.eps()
    assert kappa == r3.scalar(9) * e.inverse()
    assert kappa != r3.scalar(3) * e ** 2


def test_poisson_self_bracket_vanishes(r3):
    P = quantum_plane()
    u = power(P, Element.gen(2, 0), 3)
    assert poisson_bracket(P, r3, u, u).is_zero()


def test_poisson_weyl_diagonal(r3):
    W = weyl_n1()
    a = power(W, Element.gen(2, 1), 3)
    b = power(W, Element.gen(2, 0), 3)
    br = poisson_bracket(W, r3, a, b)
    # shape: kappa * s1 * (a b) + kappa' * 1, both nonzero
    prod = engine.mul_at_root(W, r3, specialize(b, r3), specialize(a, r3))
    assert set(br.terms) == {(3, 3), (0, 0)}
    assert not br.terms[(0, 0)].is_zero()


def test_poisson_not_central(r3):
    P = quantum_plane()
    with pytest.raises(NotCentral):
        poisson_bracket(P, r3, Element.gen(2, 0), Element.gen(2, 1))


def test_poisson_antisymmetry_leibniz_jacobi(r3):
    P = quantum_plane()
    a1 = power(P, Element.gen(2, 0), 3)
    a2 = power(P, Element.gen(2, 1), 3)
    a12 = mul(P, a1, a2)
    # antisymmetry on lifts
    l1 = poisson_lift(P, r3, a1, a2)
    l2 = poisson_lift(P, r3, a2, a1)
    assert (l1 + l2).is_zero()
    # Leibniz holds exactly on lifts
    left = poisson_lift(P, r3, a1, mul(P, a2, a12))
    right = mul(P, poisson_lift(P, r3, a1, a2), a12) + \
        mul(P, a2, poisson_lift(P, r3, a1, a12))
    assert left == right
    # Jacobi after specialization: cyclic sum of double lifts vanishes at eps
    W = weyl_n1()
    u = power(W, Element.gen(W.N, 0), 3)
    v = power(W, Element.gen(W.N, 1), 3)
    w = power(W, weyl_w1(W), 3)
    total = Element.zero(W.N)
    for (x, y, z) in ((u, v, w), (v, w, u), (w, u, v)):
        total = total + poisson_lift(W, r3, x, poisson_lift(W, r3, y, z))
    for coeff in total.terms.values():
        divide_by_cyclotomic(coeff, r3)  # raises NotDivisible otherwise


def _word_product(P, r, word):
    """The normal form of a generator word, at generic q (r None) or at the
    root r, multiplied from the left."""
    gens = [Element.gen(P.N, i) for i in word]
    if r is None:
        out = Element.one(P.N)
        for g in gens:
            out = mul(P, out, g)
        return out
    out = Element.one(P.N, r.one())
    for g in gens:
        out = engine.mul_at_root(P, r, out, specialize(g, r))
    return out


def test_kept_products_match_a_fresh_presentation(r3):
    # the rewriter keeps x_u x^b for its presentation: after the build's
    # validation and every other word, each generator word of length <= 3
    # has the normal form that a presentation with no kept product gives
    from qorder import cli, models
    towers = [models.build_weyl([[0, 1], [-1, 0]], [1, 1]).presentation]
    towers += [cli.build_model(cli.parse_jobspec(text)).presentation
               for text in (QUANTUM_MATRICES, QUANTUM_SL3_PLUS)]
    for P in towers:
        words = [w for k in (1, 2, 3) for w in iproduct(range(P.N), repeat=k)]
        for r in (None, r3):
            served = [_word_product(P, r, w) for w in reversed(words)][::-1]
            key = None if r is None else (r.l, r.primitive_index)
            assert P._rewriters[key]._products
            for w, got in zip(words, served):
                fresh = AlgebraPresentation(P.gens, P.n_poly, P.S, P.exps,
                                            P.delta)
                assert got == _word_product(fresh, r, w) == \
                    _word_product(P, r, w)


def test_mutating_a_product_leaves_the_next_unchanged(r3):
    # the kept products are shared with no caller: every product is a
    # fresh terms dict
    P = weyl_n1()
    for r in (None, r3):
        first = _word_product(P, r, (1, 1, 0))
        expect = Element(2, dict(first.terms))
        assert len(expect.terms) == 2
        first.terms.clear()
        assert _word_product(P, r, (1, 1, 0)) == expect
        again = _word_product(P, r, (1, 0))
        for vec in list(again.terms):
            again.terms[vec] = again.terms[vec] * 5
        assert _word_product(P, r, (1, 1, 0)) == expect


def test_filtration_property():
    rng = random.Random(21)
    W = weyl_n1()
    for _ in range(60):
        a = rand_mono(rng, W, 2)
        b = rand_mono(rng, W, 2)
        u = Element.monomial(2, a)
        v = Element.monomial(2, b)
        uv = mul(W, u, v)
        vu = mul(W, v, u)
        top = tuple(x + y for x, y in zip(a, b))
        cu = uv.terms.get(top)
        cv = vu.terms.get(top)
        assert cu is not None and cv is not None
        assert len(cu.coeffs) == 1 and len(cv.coeffs) == 1
        s = cu.min_degree() - cv.min_degree()
        diff = uv - vu.scale(QLaurent.q_power(s))
        assert all(vec < top for vec in diff.terms)


def test_specialization_is_multiplicative(r3):
    rng = random.Random(33)
    W = weyl_n1()
    for _ in range(40):
        u = Element.monomial(2, rand_mono(rng, W, 2))
        v = Element.monomial(2, rand_mono(rng, W, 2))
        lhs = specialize(mul(W, u, v), r3)
        rhs = engine.mul_at_root(W, r3, specialize(u, r3), specialize(v, r3))
        assert lhs == rhs


def test_associativity_probes_random():
    rng = random.Random(77)
    for P in (quantum_plane(), weyl_n1(2)):
        for _ in range(50):
            a = Element.monomial(P.N, rand_mono(rng, P, 2))
            b = Element.monomial(P.N, rand_mono(rng, P, 2))
            c = Element.monomial(P.N, rand_mono(rng, P, 2))
            assert mul(P, mul(P, a, b), c) == mul(P, a, mul(P, b, c))


def test_monomial_bracket_scalar_matches_engine(r3, r5):
    # the stabilizer chart's bracket of two l-center monomials a^m, a^m'
    # over the twisted bracket table is the engine's Poisson bracket of
    # x^(l m) and x^(l m')
    from qorder import models
    from qorder.stabilizer import _Chart
    rng = random.Random(55)
    S = [[0, 1, 2], [-1, 0, -1], [-2, 1, 0]]
    P = AlgebraPresentation(["x1", "x2", "x3"], 3, S)
    model = models.build_twisted(S, 3)
    for r in (r3, r5):
        names, exprs = models.twisted_z0_table(model, r)[:2]
        chart = _Chart(names, exprs, [r.one()] * 3, r)
        for _ in range(40):
            a = tuple(rng.randint(0, 2) for _ in range(3))
            b = tuple(rng.randint(0, 2) for _ in range(3))
            u = Element.monomial(3, tuple(r.l * x for x in a))
            v = Element.monomial(3, tuple(r.l * x for x in b))
            br = poisson_bracket(P, r, u, v)
            lam = chart.bracket({a: r.one()}, {b: r.one()})
            target = tuple(x + y for x, y in zip(a, b))
            if not lam:
                assert br.is_zero()
            else:
                assert set(lam) == {target}
                assert set(br.terms) == {tuple(r.l * x for x in target)}
                assert br.terms[tuple(r.l * x for x in target)] == lam[target]
