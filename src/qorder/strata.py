"""Strata of the central character space and character location.

A stratum kills a family of elements (generating a prime ideal) and inverts
the survivors, whose images form a quantum torus.  For twisted models the
patterns are subsets of the polynomial generators; for quantum Weyl models
they are nested triples constraining which x, y, and w elements die.
Characters on the l-center are located by their vanishing pattern; the
location can legitimately fail, and the failure is reported stratum by
stratum rather than being an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from . import engine
from .engine import Element
from . import models as models_mod
from . import torus as torus_mod


class MultipleStrata(ValueError):
    """A character matched more than one stratum; the family is not a
    stratification on this input."""


class MissingWitness(ValueError):
    """An l-th root needed for a character value was not supplied."""


class Character:
    """Point of the l-center: values of generator l-th powers, with roots.

    values maps generator labels to the value of that generator's l-th
    power; witnesses optionally give an l-th root per nonzero value,
    enabling explicit representation matrices and extension values.
    """

    def __init__(self, values, witnesses=None):
        self.values = dict(values)
        self.witnesses = dict(witnesses or {})

    def value(self, label):
        return self.values[label]

    def witness(self, label):
        w = self.witnesses.get(label)
        if w is None:
            raise MissingWitness("no l-th root supplied for %s" % label)
        return w

    def check(self, model, r):
        """Enforce the invariants against a model: nonzero on invertibles,
        witness consistency.  Witness keys beyond the generators (composite
        survivors such as w-elements) are validated where they are used."""
        P = model.presentation
        for i, name in enumerate(P.gens):
            if name not in self.values:
                raise ValueError("character misses generator %s" % name)
            if P.is_invertible(i) and self.values[name].is_zero():
                raise ValueError(
                    "character vanishes on invertible generator %s" % name)
        for name, w in self.witnesses.items():
            if name in self.values and w ** r.l != self.values[name]:
                raise ValueError("witness for %s is not an l-th root" % name)
        return self

    def key(self):
        """Deterministic sort key for report merging."""
        bits = []
        for name in sorted(self.values):
            bits.append("%s=%r" % (name, self.values[name]))
        return ";".join(bits)

    def __repr__(self):
        return "Character(%s)" % self.key()


@dataclass
class SurvivorItem:
    """A torus frame generator of a stratum."""

    label: str
    lift: Element  # PBW element in the ambient presentation
    gen_index: int | None = None  # position when the survivor is a generator


@dataclass
class Stratum:
    pattern: object
    stratum_id: str
    killed_labels: list
    survivors: list  # SurvivorItem
    skew: list
    torus: torus_mod.TorusStructure
    # the generators that are neither killed nor survivors, each as a sum of
    # ordered survivor monomials: (label, [(coefficient at eps,
    # [(survivor label, exponent), ...]), ...])
    derived: list = field(default_factory=list)

    @property
    def t(self):
        return self.torus.t


@dataclass
class StrataContext:
    """Enumerated strata and the per-(model, root) l-center bracket table."""

    model: object
    root: object
    strata: list
    # (names, exprs, kappa, chain), see models._z0_table: the frame
    # coordinates are the l-th powers of the generators in names, and chain
    # maps further labels to the frame expressions of their l-th powers
    table: tuple

    def frame_values(self, character):
        """Character values on the frame coordinates of the bracket table."""
        return [character.value(g) for g in self.table[0]]

    def lcenter_value(self, label, character):
        """Value at the character of the l-th power behind a condition label:
        a generator's value, or its chain expression evaluated."""
        if label in character.values:
            return character.value(label)
        return engine.evaluate_expression(self.table[3][label],
                                          self.frame_values(character),
                                          self.root)


@dataclass
class Located:
    stratum: Stratum
    z_ext: dict  # z index (t-based, into z_rows) -> CycloNum value


@dataclass
class Uncovered:
    diagnostics: list  # (stratum_id, first failing condition description)


def enumerate_strata(model, r):
    """The strata of the model at the root, with its l-center table."""
    if isinstance(model, models_mod.WeylModel):
        table = models_mod.f_elements_and_z0_brackets(model, r)
        return StrataContext(model, r, _enumerate_weyl(model, r), table)
    if model.presentation.delta:
        raise ValueError("stratification covers twisted and quantum Weyl "
                         "models; custom towers with lower-order terms have "
                         "no generic stratum family")
    table = models_mod.twisted_z0_table(model, r)
    return StrataContext(model, r, _enumerate_twisted(model, r), table)


def _enumerate_twisted(model, r):
    P = model.presentation
    N = model.N
    strata = []
    poly = list(range(model.n_poly))
    for size in range(len(poly) + 1):
        for T in combinations(poly, size):
            mask = "".join("1" if i in T else "0" for i in poly)
            strata.append(_stratum(
                P, r, frozenset(T), "T=%s" % (mask or "-"),
                [P.gens[i] for i in T],
                [SurvivorItem(P.gens[i], Element.gen(N, i), i)
                 for i in range(N) if i not in T]))
    return strata


def weyl_admissible_triples(n):
    """Nested triples (T1, T2, T3) with i in T2 forcing i >= 2 and
    {i-1, i} in T3; the first pair index cannot die in the middle set
    because its w-relation would force the unit into the ideal."""
    idx = list(range(1, n + 1))
    out = []
    for m3 in range(len(idx) + 1):
        for T3 in combinations(idx, m3):
            t3 = set(T3)
            cand2 = [i for i in idx if i >= 2 and i in t3 and (i - 1) in t3]
            for m2 in range(len(cand2) + 1):
                for T2 in combinations(cand2, m2):
                    for m1 in range(len(T2) + 1):
                        for T1 in combinations(T2, m1):
                            out.append((frozenset(T1), frozenset(T2),
                                        frozenset(T3)))
    return out


def _enumerate_weyl(model, r):
    """Strata of a quantum Weyl model, one per admissible triple: x_i dies
    for i in T1 and survives for i in T2 - T1, y_i dies for i in T2, and w_i
    dies for i in T3.  The other x_i, i outside T2, is derived from the
    w-recursion: x_i = (q_i - 1)^-1 y_i^-1 (w_i - w_(i-1)), w_0 = 1."""
    P = model.presentation
    n = model.n

    def gen(name, pos):
        return SurvivorItem(name, Element.gen(P.N, pos), pos)

    strata = []
    for (T1, T2, T3) in weyl_admissible_triples(n):
        lam = set(range(1, n + 1))
        survivors = ([gen("x%d" % i, model.xpos(i)) for i in sorted(T2 - T1)]
                     + [gen("y%d" % i, model.ypos(i)) for i in sorted(lam - T2)]
                     + [SurvivorItem("w%d" % i, model.w[i])
                        for i in sorted(lam - T3)])
        killed = (["x%d" % i for i in sorted(T1)] +
                  ["y%d" % i for i in sorted(T2)] +
                  ["w%d" % i for i in sorted(T3)])
        derived = []
        for i in sorted(lam - T2):
            c = (r.eps_power(model.exps[i - 1]) - r.one()).inverse()
            yinv = ("y%d" % i, -1)
            terms = [(c, [yinv, ("w%d" % i, 1)])] if i not in T3 else []
            if i == 1:
                terms.append((-c, [yinv]))
            elif i - 1 not in T3:
                terms.append((-c, [yinv, ("w%d" % (i - 1), 1)]))
            derived.append(("x%d" % i, terms))
        sid = "T1=%s;T2=%s;T3=%s" % (_fmt(T1), _fmt(T2), _fmt(T3))
        strata.append(_stratum(P, r, (T1, T2, T3), sid, killed, survivors,
                               derived, model.chain_skew))
    return strata


def _fmt(s):
    return "[%s]" % ",".join(str(i) for i in sorted(s))


def _stratum(P, r, pattern, stratum_id, killed_labels, survivors,
             derived=(), chain_skew=None):
    """The stratum over survivors: their skew q-exponents, each generator's
    row of q-exponents against them, and the torus.

    Two generators with no delta rule between them read P.S.  A generator
    outside the survivors reads P.S against a generator survivor too: that
    is the exponent of their leading terms, exact modulo the killed ideal
    for a killed generator and the pairing of the leading survivor monomial
    for a derived one.  Every other pair reads chain_skew, the table of
    (label, label) -> c with a b = q^c b a that models.weyl_chain_skew
    writes and the model build checks with the engine; a pair in neither
    does not q-commute, and raises.
    """
    chain_skew = chain_skew or {}

    def exponent(a, i, b, j):
        if i is not None and j is not None and (i, j) not in P.delta \
                and (j, i) not in P.delta:
            return P.S[i][j]
        if (a, b) in chain_skew:
            return chain_skew[(a, b)]
        if (b, a) in chain_skew:
            return -chain_skew[(b, a)]
        raise engine.ValidationFailed("%s and %s do not q-commute" % (a, b))

    m = len(survivors)
    skew = [[0] * m for _ in range(m)]
    for a, sa in enumerate(survivors):
        for b in range(a + 1, m):
            sb = survivors[b]
            c = exponent(sa.label, sa.gen_index, sb.label, sb.gen_index)
            skew[a][b], skew[b][a] = c, -c
    position = {s.gen_index: a for a, s in enumerate(survivors)}
    full = []
    for g in range(P.N):
        if g in position:
            full.append(skew[position[g]])
            continue
        full.append([P.S[g][s.gen_index] if s.gen_index is not None
                     else exponent(P.gens[g], g, s.label, None)
                     for s in survivors])
    index = {s.label: a for a, s in enumerate(survivors)}
    targets = []
    for _, terms in derived:
        vecs = []
        for _, factors in terms:
            vec = [0] * m
            for label, e in factors:
                vec[index[label]] += e
            vecs.append(vec)
        targets += [[a - b for a, b in zip(vecs[0], vec)] for vec in vecs[1:]]
    return Stratum(pattern=pattern, stratum_id=stratum_id,
                   killed_labels=killed_labels, survivors=survivors,
                   skew=skew,
                   torus=torus_mod.torus_structure(skew, full, r.l, targets),
                   derived=list(derived))


def survivor_cocycle(skew, u, v):
    """Exponent c with mono(u) mono(v) = q^c mono(u + v) for the skew
    exponent matrix of the frame, in the normal ordering along the frame."""
    c = 0
    for rpos in range(len(u)):
        ur = u[rpos]
        if not ur:
            continue
        row = skew[rpos]
        for spos in range(rpos):
            if v[spos]:
                c += row[spos] * ur * v[spos]
    return c


def ordered_product_data(skew, rows, coeffs):
    """Exponent cocycle gamma and summed exponent acc of the ordered product
    prod_r mono(row_r)^(c_r) = q^gamma mono(acc)."""
    acc = [0] * len(skew)
    gamma = 0
    for row, c in zip(rows, coeffs):
        if c == 0:
            continue
        step = [c * x for x in row]
        # internal cocycle of mono(row)^c
        gamma += survivor_cocycle(skew, row, row) * (c * (c - 1) // 2)
        gamma += survivor_cocycle(skew, acc, step)
        acc = [a + b for a, b in zip(acc, step)]
    return gamma, acc


def root_exponent(skew, r, u):
    """The t such that eps^t times the witness product of u is the value of
    the monomial x^u under skew.  At even l a monomial whose self-cocycle
    is odd has no canonical root, and MissingWitness says so."""
    c = survivor_cocycle(skew, u, u)
    if r.l % 2 == 1:
        return c * (r.l - 1) // 2
    half = c * r.l * (r.l - 1) // 2
    if half % r.l:
        raise MissingWitness(
            "no canonical root for the monomial at even order")
    return half // r.l


def witness_product(labels, character, r, u):
    """The product of the witnesses of labels to the powers in u."""
    val = r.one()
    for label, e in zip(labels, u):
        if e:
            val = val * character.witness(label) ** e
    return val


def monomial_value(skew, labels, character, r, u):
    """Witness-based value of the monomial x^u in labels under skew.  Its
    l-th power is the value of the monomial's l-th power in the l-center."""
    return (r.eps_power(root_exponent(skew, r, u))
            * witness_product(labels, character, r, u))


def locate(character, ctx):
    """Unique stratum whose killed powers vanish and inverted powers do not.

    Returns Located (with extension values for the ambient-central z's when
    witnesses allow) or Uncovered with one diagnostic per stratum.  More
    than one match raises MultipleStrata.
    """
    diags = []
    hits = []
    for st in ctx.strata:
        fail = None
        for label in st.killed_labels:
            if not ctx.lcenter_value(label, character).is_zero():
                fail = "needs %s^l = 0" % label
                break
        if fail is None:
            for item in st.survivors:
                if ctx.lcenter_value(item.label, character).is_zero():
                    fail = "needs %s^l != 0" % item.label
                    break
        if fail is None:
            hits.append(st)
        else:
            diags.append((st.stratum_id, fail))
    if not hits:
        return Uncovered(diagnostics=diags)
    if len(hits) > 1:
        raise MultipleStrata(
            "character matches strata %s"
            % ", ".join(h.stratum_id for h in hits))
    st = hits[0]
    z_ext = {}
    ts = st.torus
    labels = [item.label for item in st.survivors]
    for j in range(ts.t, ts.p):
        try:
            z_ext[j] = monomial_value(st.skew, labels, character, ctx.root,
                                      ts.z_rows()[j])
        except MissingWitness:
            pass
    return Located(stratum=st, z_ext=z_ext)


def embed_vector(stratum, N, u):
    """Lift a survivor-coordinate exponent vector to ambient coordinates.

    Only meaningful when every survivor is a single generator."""
    out = [0] * N
    for item, e in zip(stratum.survivors, u):
        if item.gen_index is None:
            raise ValueError("survivor %s is not a generator" % item.label)
        out[item.gen_index] = e
    return out
