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

from .exactnum import QLaurent
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
    kind: str
    pattern: object
    stratum_id: str
    killed_labels: list
    survivors: list  # SurvivorItem
    skew: list
    full_rows: list
    torus: torus_mod.TorusStructure
    inverted_labels: list = field(default_factory=list)

    @property
    def t(self):
        return self.torus.t


@dataclass
class StrataContext:
    """Enumerated strata and the per-(model, root) l-center data: the Weyl
    center report, and the l-center bracket table built on first use."""

    model: object
    root: object
    strata: list
    weyl_center: object = None  # quantum Weyl: models.WeylCenterReport
    # bracket_table()'s result, or the exception its build raised
    _table: object = field(default=None, init=False, repr=False)

    def bracket_table(self):
        """(names, exprs, kappa) of the l-center bracket table over the frame
        of generator l-th powers.  A build that raised raises the same
        exception at every call."""
        if self._table is None:
            c = self.weyl_center
            try:
                self._table = (
                    (c.frame_names, c.brackets, c.kappa) if c is not None
                    else models_mod.twisted_z0_table(self.model, self.root))
            except (ArithmeticError, ValueError) as exc:
                self._table = exc
        if isinstance(self._table, Exception):
            raise self._table
        return self._table

    def frame_values(self, character):
        """Character values on the frame names of the bracket table."""
        if self.weyl_center is not None:
            return [character.value(n_to_gen(self.model, n))
                    for n in self.weyl_center.frame_names]
        return [character.value(g) for g in self.model.presentation.gens]

    def lcenter_value(self, label, character):
        """Value at the character of the l-th power behind a condition label."""
        if label.startswith("w") and self.weyl_center is not None:
            return engine.evaluate_expression(
                self.weyl_center.f_exprs[int(label[1:])],
                self.frame_values(character), self.root)
        return character.value(label)


def n_to_gen(model, frame_name):
    """Map an a_i/b_i frame name to the underlying generator label."""
    idx = int(frame_name[1:])
    if frame_name.startswith("a"):
        return "x%d" % idx
    return "y%d" % idx


@dataclass
class Located:
    stratum: Stratum
    z_ext: dict  # z index (t-based, into z_rows) -> CycloNum value


@dataclass
class Uncovered:
    diagnostics: list  # (stratum_id, first failing condition description)


def enumerate_strata(model, r):
    if isinstance(model, models_mod.WeylModel):
        return _enumerate_weyl(model, r)
    if model.presentation.delta:
        raise ValueError("stratification covers twisted and quantum Weyl "
                         "models; custom towers with lower-order terms have "
                         "no generic stratum family")
    return _enumerate_twisted(model, r)


def _enumerate_twisted(model, r):
    P = model.presentation
    N = model.N
    strata = []
    poly = list(range(model.n_poly))
    for size in range(len(poly) + 1):
        for T in combinations(poly, size):
            killed = set(T)
            J = [i for i in range(N) if i not in killed]
            skew = [[model.S[i][j] for j in J] for i in J]
            full = [[model.S[g][j] for j in J] for g in range(N)]
            ts = torus_mod.torus_structure(skew, full, r.l)
            mask = "".join("1" if i in killed else "0" for i in poly)
            strata.append(Stratum(
                kind="A1",
                pattern=frozenset(T),
                stratum_id="T=%s" % (mask or "-"),
                killed_labels=[P.gens[i] for i in sorted(killed)],
                survivors=[SurvivorItem(P.gens[i], Element.gen(N, i), i)
                           for i in J],
                skew=skew,
                full_rows=full,
                torus=ts,
                inverted_labels=[P.gens[i] for i in J],
            ))
    return StrataContext(model=model, root=r, strata=strata)


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
    P = model.presentation
    n = model.n
    center = models_mod.f_elements_and_z0_brackets(model, r)
    strata = []
    for (T1, T2, T3) in weyl_admissible_triples(n):
        lam = set(range(1, n + 1))
        surv_syms = ([("x", i) for i in sorted(T2 - T1)] +
                     [("y", i) for i in sorted(lam - T2)] +
                     [("w", i) for i in sorted(lam - T3)])
        killed_syms = ([("x", i) for i in sorted(T1)] +
                       [("y", i) for i in sorted(T2)] +
                       [("w", i) for i in sorted(T3)])
        survivors = []
        for kind, i in surv_syms:
            if kind == "x":
                survivors.append(SurvivorItem("x%d" % i,
                                              Element.gen(P.N, model.xpos(i)),
                                              model.xpos(i)))
            elif kind == "y":
                survivors.append(SurvivorItem("y%d" % i,
                                              Element.gen(P.N, model.ypos(i)),
                                              model.ypos(i)))
            else:
                survivors.append(SurvivorItem("w%d" % i, model.w[i], None))
        m = len(surv_syms)
        skew = [[models_mod.weyl_pair_exponent(model, a, b) for b in surv_syms]
                for a in surv_syms]
        gen_syms = [("y", i) for i in range(n, 0, -1)] + \
                   [("x", i) for i in range(1, n + 1)]
        full = [[models_mod.weyl_pair_exponent(model, g, s) for s in surv_syms]
                for g in gen_syms]
        _verify_survivor_commutation(model, survivors, skew)
        ts = torus_mod.torus_structure(skew, full, r.l)
        sid = "T1=%s;T2=%s;T3=%s" % (_fmt(T1), _fmt(T2), _fmt(T3))
        strata.append(Stratum(
            kind="A2",
            pattern=(T1, T2, T3),
            stratum_id=sid,
            killed_labels=["%s%d" % s for s in killed_syms],
            survivors=survivors,
            skew=skew,
            full_rows=full,
            torus=ts,
            inverted_labels=["%s%d" % s for s in surv_syms],
        ))
    return StrataContext(model=model, root=r, strata=strata,
                         weyl_center=center)


def _fmt(s):
    return "[%s]" % ",".join(str(i) for i in sorted(s))


def _verify_survivor_commutation(model, survivors, skew):
    """Exact engine check that the survivors q-commute with the listed
    exponents."""
    P = model.presentation
    for a in range(len(survivors)):
        for b in range(len(survivors)):
            if a == b:
                continue
            lhs = engine.mul(P, survivors[a].lift, survivors[b].lift)
            rhs = engine.mul(P, survivors[b].lift, survivors[a].lift)
            rhs = rhs.scale(QLaurent.q_power(skew[a][b]))
            if lhs != rhs:
                raise engine.ValidationFailed(
                    "survivors %s, %s do not q-commute as claimed"
                    % (survivors[a].label, survivors[b].label))


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


def monomial_value(stratum, character, r, u):
    """Witness-based value of the survivor monomial with exponent u.

    The value's l-th power always matches the value of the monomial's l-th
    power in the l-center; l odd makes the root choice canonical.
    """
    c = survivor_cocycle(stratum.skew, u, u)
    total = c * (r.l - 1) // 2 if r.l % 2 == 1 else None
    if total is None:
        half = c * r.l * (r.l - 1) // 2
        if half % r.l:
            raise MissingWitness(
                "no canonical root for the monomial at even order")
        total = half // r.l
    val = r.eps_power(total)
    for s_item, e in zip(stratum.survivors, u):
        if e:
            val = val * character.witness(s_item.label) ** e
    return val


def monomial_l_value(stratum, ctx, character, u):
    """Value of mono(u)^l, computable without witnesses."""
    r = ctx.root
    val = r.one()
    for s_item, e in zip(stratum.survivors, u):
        if e:
            val = val * ctx.lcenter_value(s_item.label, character) ** e
    return val


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
            for label in st.inverted_labels:
                if ctx.lcenter_value(label, character).is_zero():
                    fail = "needs %s^l != 0" % label
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
    for j in range(ts.t, ts.p):
        row = ts.z_rows()[j]
        try:
            z_ext[j] = monomial_value(st, character, ctx.root, row)
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
