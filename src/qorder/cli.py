"""Batch front end: job-file parsing, command dispatch, deterministic reports.

Job files are flat key = value lines; matrices write their rows separated by
slashes.  Reports come in two formats: human-readable text and a canonical
JSON document with sorted keys, byte-identical across runs on the same input.
Exit codes: 0 pass, 1 usage or parse failure, 2 validation failure, 3 verdict
mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from itertools import product as iproduct

from .exactnum import QLaurent, CycloNum, cyclotomic_build
from . import engine
from . import models as models_mod
from . import strata as strata_mod
from . import fiber as fiber_mod
from . import stabilizer as stab_mod
from . import zlattice

MINOR_NOTE = ("admissibility reads 'principal minors' as the nonzero ones; "
              "odd-order principal minors of a skew matrix vanish identically")


class ParseError(ValueError):
    def __init__(self, line_no, field, message):
        super().__init__("line %d (%s): %s" % (line_no, field, message))
        self.line_no = line_no
        self.field = field


class JobSpec:
    """Parsed job file: algebra block, root block, optional character."""

    def __init__(self):
        self.kind = None
        self.S = None
        self.n_poly = None
        self.exponents = None
        self.gens = None
        self.delta_rules = {}
        self.l = None
        self.primitive_index = 1
        self.character = {}
        self.witness = {}
        self.command = None

    def echo(self):
        out = {"algebra.kind": self.kind, "root.l": self.l,
               "root.primitive_index": self.primitive_index}
        if self.S is not None:
            out["algebra.S"] = self.S
        if self.n_poly is not None:
            out["algebra.n_poly"] = self.n_poly
        if self.exponents is not None:
            out["algebra.exponents"] = self.exponents
        if self.gens is not None:
            out["algebra.gens"] = self.gens
        for k, v in sorted(self.delta_rules.items()):
            out["algebra.delta.%s.%s" % k] = v
        for g, v in sorted(self.character.items()):
            out["character.%s" % g] = v
        for g, v in sorted(self.witness.items()):
            out["character.witness.%s" % g] = v
        return out


def _parse_int(text, line_no, field):
    try:
        return int(text)
    except ValueError:
        raise ParseError(line_no, field, "expected an integer, got %r" % text)


def _parse_matrix(text, line_no, field):
    rows = []
    for chunk in text.split("/"):
        entries = chunk.split()
        if not entries:
            raise ParseError(line_no, field, "empty matrix row")
        rows.append([_parse_int(e, line_no, field) for e in entries])
    width = len(rows[0])
    if any(len(rw) != width for rw in rows):
        raise ParseError(line_no, field, "ragged matrix rows")
    return rows


def parse_jobspec(text):
    spec = JobSpec()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(line_no, "-", "expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "command":
            spec.command = value
        elif key == "algebra.kind":
            if value not in ("twisted", "weyl", "borel-sl2", "custom"):
                raise ParseError(line_no, key, "unknown algebra kind %r" % value)
            spec.kind = value
        elif key == "algebra.S":
            spec.S = _parse_matrix(value, line_no, key)
        elif key == "algebra.n_poly":
            spec.n_poly = _parse_int(value, line_no, key)
        elif key == "algebra.exponents":
            spec.exponents = [_parse_int(v, line_no, key)
                              for v in value.split()]
        elif key == "algebra.gens":
            spec.gens = value.split()
        elif key.startswith("algebra.delta."):
            parts = key.split(".")
            if len(parts) != 4:
                raise ParseError(line_no, key, "expected algebra.delta.gi.gj")
            spec.delta_rules[(parts[2], parts[3])] = value
        elif key == "root.l":
            spec.l = _parse_int(value, line_no, key)
        elif key == "root.primitive_index":
            spec.primitive_index = _parse_int(value, line_no, key)
        elif key.startswith("character.witness."):
            spec.witness[key[len("character.witness."):]] = value
        elif key.startswith("character."):
            spec.character[key[len("character."):]] = value
        else:
            raise ParseError(line_no, key, "unknown key")
    if spec.kind is None:
        raise ParseError(0, "algebra.kind", "missing")
    if spec.l is None:
        raise ParseError(0, "root.l", "missing")
    if spec.S is None and spec.kind not in ("borel-sl2",):
        raise ParseError(0, "algebra.S", "missing")
    return spec


def parse_scalar(text, r, line_no=0, field="value"):
    """Rational, or a comma list of rationals as coefficients in eps powers."""
    parts = [p.strip() for p in text.split(",")]
    try:
        fracs = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError):
        raise ParseError(line_no, field, "bad scalar %r" % text)
    out = r.zero()
    for k, c in enumerate(fracs):
        if c:
            out = out + r.eps_power(k) * c
    return out


def _split_terms(text):
    """Split a sum on top-level + and -, keeping exponent signs intact."""
    terms = []
    cur = ""
    for ch in text:
        if ch in "+-" and cur.strip() and not cur.rstrip().endswith("^"):
            terms.append(cur.strip())
            cur = "-" if ch == "-" else ""
        else:
            cur += ch
    if cur.strip():
        terms.append(cur.strip())
    return terms


def _parse_delta_expression(text, gens, N, line_no, field):
    """Sum of terms: [rational][*q^k][*gen^e ...], separated by + and -."""
    elem = engine.Element.zero(N)
    for term in _split_terms(text):
        sign = 1
        body = term
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:].lstrip()
        coeff = QLaurent.const(sign)
        vec = [0] * N
        for tok in body.replace("*", " ").split():
            if tok.startswith("q^"):
                coeff = coeff * QLaurent.q_power(
                    _parse_int(tok[2:], line_no, field))
            elif tok == "q":
                coeff = coeff * QLaurent.q_power(1)
            else:
                base, _, power = tok.partition("^")
                if base in gens:
                    vec[gens.index(base)] += (
                        _parse_int(power, line_no, field) if power else 1)
                else:
                    if power:
                        raise ParseError(line_no, field,
                                         "unknown token %r" % tok)
                    try:
                        coeff = coeff * Fraction(base)
                    except (ValueError, ZeroDivisionError):
                        raise ParseError(line_no, field,
                                         "unknown token %r" % tok)
        elem = elem + engine.Element.monomial(N, tuple(vec), coeff)
    return elem


def build_model(spec):
    if spec.kind == "borel-sl2":
        return models_mod.build_borel_sl2()
    if spec.kind == "twisted":
        n_poly = spec.n_poly if spec.n_poly is not None else len(spec.S)
        return models_mod.build_twisted(spec.S, n_poly, names=spec.gens)
    if spec.kind == "weyl":
        if spec.exponents is None:
            raise ParseError(0, "algebra.exponents", "missing for weyl")
        return models_mod.build_weyl(spec.S, spec.exponents)
    # custom: an explicit Ore tower
    gens = spec.gens
    if gens is None:
        raise ParseError(0, "algebra.gens", "missing for custom")
    N = len(gens)
    n_poly = spec.n_poly if spec.n_poly is not None else N
    exps = spec.exponents if spec.exponents is not None else [0] * N
    delta = {}
    for (gi, gj), text in spec.delta_rules.items():
        if gi not in gens or gj not in gens:
            raise ParseError(0, "algebra.delta", "unknown generator in rule")
        elem = _parse_delta_expression(text, gens, N, 0, "algebra.delta")
        delta[(gens.index(gi), gens.index(gj))] = elem
    pres = engine.AlgebraPresentation(gens, n_poly, spec.S, exps=exps,
                                      delta=delta)
    engine.validate(pres)
    model = models_mod.TwistedModel(kind="custom", presentation=pres,
                                    S=[list(rw) for rw in spec.S],
                                    n_poly=n_poly, exps=list(exps))
    return model


# ---------------------------------------------------------------------------
# Serialization.

def serialize_scalar(x):
    if x is None:
        return None
    if isinstance(x, CycloNum):
        vec = []
        for c in x.vec:
            vec.append(int(c) if c.denominator == 1 else
                       "%d/%d" % (c.numerator, c.denominator))
        return vec
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    return x


def character_from_spec(spec, model, r):
    values = {}
    witnesses = {}
    P = model.presentation
    for name, text in spec.character.items():
        if name not in P.gens:
            raise ParseError(0, "character.%s" % name, "unknown generator")
        values[name] = parse_scalar(text, r, 0, "character.%s" % name)
    for name, text in spec.witness.items():
        witnesses[name] = parse_scalar(text, r, 0,
                                       "character.witness.%s" % name)
    if not values:
        return None
    for i, name in enumerate(P.gens):
        if name not in values:
            raise ParseError(0, "character.%s" % name, "missing value")
    return strata_mod.Character(values, witnesses).check(model, r)


def default_characters(model, r):
    """All vanishing patterns over {0, 1} with witness 1 on the ones."""
    P = model.presentation
    poly = [P.gens[i] for i in range(P.n_poly)]
    inv = [P.gens[i] for i in range(P.n_poly, P.N)]
    out = []
    for bits in iproduct((0, 1), repeat=len(poly)):
        values = {}
        wits = {}
        for name, b in zip(poly, bits):
            values[name] = r.scalar(b)
            if b:
                wits[name] = r.one()
        for name in inv:
            values[name] = r.one()
            wits[name] = r.one()
        out.append(strata_mod.Character(values, wits).check(model, r))
    return out


# ---------------------------------------------------------------------------
# Commands.

def _admissibility_record(model, r):
    adm = model.admissibility(r.l)
    rec = {"result.admissible": bool(adm), "result.l": r.l}
    if adm.offending_minor is not None:
        subset, value = adm.offending_minor
        rec["result.offending_minor"] = {"subset": list(subset),
                                         "value": value}
    if adm.offending_exponent is not None:
        rec["result.offending_exponent"] = adm.offending_exponent
    return rec


def cmd_check(model, r, spec):
    rec = _admissibility_record(model, r)
    doc = {"command": "check", "spec": spec.echo(), "notes": [MINOR_NOTE],
           "results": [rec]}
    text = ["check: admissible=%s (l=%d)" % (rec["result.admissible"], r.l)]
    if not rec["result.admissible"]:
        text.append("  offender: %s" % rec.get("result.offending_minor",
                    rec.get("result.offending_exponent")))
    code = 0 if rec["result.admissible"] else 2
    return doc, text, code


def _monomial_str(model, vec):
    bits = []
    for name, e in zip(model.presentation.gens, vec):
        if e:
            bits.append("%s^%d" % (name, e) if e != 1 else name)
    return "*".join(bits) if bits else "1"


def cmd_center(model, r, spec):
    from . import torus as torus_mod
    ctx = strata_mod.enumerate_strata(model, r)
    results = []
    text = ["center generators per stratum (l=%d):" % r.l]
    for st in ctx.strata:
        eps_c, l_c = torus_mod.center_generators_eps(st.torus, r.l)
        if all(it.gen_index is not None for it in st.survivors):
            emb = [strata_mod.embed_vector(st, model.N, v) for v in eps_c]
            emb_l = [strata_mod.embed_vector(st, model.N, v) for v in l_c]
            eps_str = [_monomial_str(model, v) for v in emb]
            l_str = [_monomial_str(model, v) for v in emb_l]
        else:
            labels = [it.label for it in st.survivors]
            eps_str = [_torus_mono_str(labels, v) for v in eps_c]
            l_str = [_torus_mono_str(labels, v) for v in l_c]
        results.append({"result.stratum": st.stratum_id,
                        "result.eps_center": eps_str,
                        "result.l_center": l_str,
                        "result.t": st.torus.t})
        text.append("  %s: eps-center {%s}; l-center {%s}"
                    % (st.stratum_id, ", ".join(eps_str), ", ".join(l_str)))
    doc = {"command": "center", "spec": spec.echo(), "notes": [],
           "results": results}
    return doc, text, 0


def _torus_mono_str(labels, vec):
    bits = []
    for name, e in zip(labels, vec):
        if e:
            bits.append("%s^%d" % (name, e) if e != 1 else name)
    return "*".join(bits) if bits else "1"


def cmd_strata(model, r, spec):
    ctx = strata_mod.enumerate_strata(model, r)
    results = []
    text = ["strata (l=%d): %d" % (r.l, len(ctx.strata))]
    for st in ctx.strata:
        results.append({
            "result.stratum": st.stratum_id,
            "result.killed": list(st.killed_labels),
            "result.survivors": [s.label for s in st.survivors],
            "result.k": st.torus.k,
            "result.p": st.torus.p,
            "result.t": st.torus.t,
            "result.ds": list(st.torus.ds),
        })
        text.append("  %s: killed=%s survivors=%s (k=%d, p=%d, t=%d)"
                    % (st.stratum_id, st.killed_labels,
                       [s.label for s in st.survivors],
                       st.torus.k, st.torus.p, st.torus.t))
    doc = {"command": "strata", "spec": spec.echo(), "notes": [],
           "results": results}
    return doc, text, 0


def _locate_record(ctx, character):
    loc = strata_mod.locate(character, ctx)
    if isinstance(loc, strata_mod.Uncovered):
        return loc, {"result.covered": False,
                     "result.uncovered_diagnostics":
                         ["%s: %s" % d for d in loc.diagnostics]}
    return loc, {"result.covered": True,
                 "result.stratum": loc.stratum.stratum_id,
                 "result.t": loc.stratum.torus.t}


def cmd_locate(model, r, spec):
    ctx = strata_mod.enumerate_strata(model, r)
    character = character_from_spec(spec, model, r)
    if character is None:
        raise ParseError(0, "character", "locate needs a character block")
    loc, rec = _locate_record(ctx, character)
    rec["character"] = character.key()
    doc = {"command": "locate", "spec": spec.echo(), "notes": [],
           "results": [rec]}
    if rec["result.covered"]:
        text = ["locate: %s (t=%d)" % (rec["result.stratum"], rec["result.t"])]
    else:
        text = ["locate: uncovered"]
        text.extend("  %s" % d for d in rec["result.uncovered_diagnostics"])
    return doc, text, 0


def _theorem_record(model, character, r, ctx):
    rep = stab_mod.main_theorem_check(model, character, r, ctx)
    rec = {
        "character": character.key(),
        "result.admissible": rep.admissible,
        "result.covered": rep.covered,
        "result.stratum": rep.stratum_id,
        "result.t": rep.t,
        "result.rank_chi": rep.rank_chi,
        "result.rank_chi0": rep.rank_chi0,
        "result.predicted": rep.predicted,
        "result.oracle": rep.oracle,
        "result.verdict": rep.verdict,
        "result.constant_kappa": serialize_scalar(rep.kappa),
        "result.notes": list(rep.notes),
    }
    return rep, rec


def cmd_count(model, r, spec):
    ctx = strata_mod.enumerate_strata(model, r)
    character = character_from_spec(spec, model, r)
    if character is None:
        raise ParseError(0, "character", "count needs a character block")
    rep, rec = _theorem_record(model, character, r, ctx)
    doc = {"command": "count", "spec": spec.echo(), "notes": [],
           "results": [rec]}
    text = ["count: predicted=%s (rank=%s, covered=%s)"
            % (rep.predicted, rep.rank_chi, rep.covered)]
    return doc, text, 0


def cmd_oracle(model, r, spec):
    character = character_from_spec(spec, model, r)
    if character is None:
        raise ParseError(0, "character", "oracle needs a character block")
    notes = []
    located = None
    ctx = None
    try:
        ctx = strata_mod.enumerate_strata(model, r)
        loc = strata_mod.locate(character, ctx)
        located = loc if isinstance(loc, strata_mod.Located) else None
    except ValueError as exc:
        notes.append(str(exc))
    A = fiber_mod.fiber_algebra(model, character, r, located)
    dims = None
    if located is not None:
        try:
            reps = fiber_mod.clock_shift_irreps(ctx, located, character)
            dims = [p.dim for p in reps]
        except strata_mod.MissingWitness as exc:
            notes.append(str(exc))
    res = fiber_mod.census(A, dims)
    rec = {"character": character.key(),
           "result.fiber_dim": res.dim,
           "result.rad_dim": res.rad_dim,
           "result.oracle": res.count,
           "result.blocks": res.blocks,
           "result.blocks_method": res.blocks_method}
    doc = {"command": "oracle", "spec": spec.echo(), "notes": notes,
           "results": [rec]}
    text = ["oracle: dim=%d rad=%d count=%d blocks=%s (%s)"
            % (res.dim, res.rad_dim, res.count, res.blocks,
               res.blocks_method)]
    return doc, text, 0


def cmd_stabilizer(model, r, spec):
    ctx = strata_mod.enumerate_strata(model, r)
    character = character_from_spec(spec, model, r)
    if character is None:
        raise ParseError(0, "character", "stabilizer needs a character block")
    loc = strata_mod.locate(character, ctx)
    notes = []
    if isinstance(loc, strata_mod.Located):
        g = stab_mod.stabilizer_from_stratum(ctx, loc, character, "eps")
        path = "stratum"
    else:
        names, exprs, _ = ctx.bracket_table()
        g = stab_mod.linearized_stabilizer(
            names, exprs, ctx.frame_values(character), r)
        path = "linearized"
        notes.extend("%s: %s" % d for d in loc.diagnostics)
    res = stab_mod.rank_and_checks(g)
    rec = {"character": character.key(),
           "result.path": path,
           "result.labels": list(g.labels),
           "result.t_labels": [g.labels[i] for i in g.t_idx],
           "result.n_labels": [g.labels[i] for i in g.n_idx],
           "result.brackets": {
               "%s,%s" % (g.labels[i], g.labels[j]):
                   [serialize_scalar(c) for c in vec]
               for (i, j), vec in sorted(g.bracket.items())},
           "result.rank_chi": res.rank,
           "result.checks": {k: (v if isinstance(v, (bool, int)) else str(v))
                             for k, v in res.checks.items()}}
    doc = {"command": "stabilizer", "spec": spec.echo(), "notes": notes,
           "results": [rec]}
    text = ["stabilizer (%s path): dim=%d rank=%d" % (path, g.dim, res.rank),
            "  t = %s; n = %s" % (rec["result.t_labels"],
                                  rec["result.n_labels"])]
    return doc, text, 0


def _verify_characters(model, r, spec):
    """The default characters plus the job's own, sorted by key."""
    characters = default_characters(model, r)
    extra = character_from_spec(spec, model, r)
    if extra is not None and all(extra.key() != c.key() for c in characters):
        characters.append(extra)
    characters.sort(key=lambda c: c.key())
    return characters


# (model, root, strata context, characters) of a `--jobs` worker process
_worker = None


def _init_worker(spec):
    global _worker
    r = cyclotomic_build(spec.l, spec.primitive_index)
    model = build_model(spec)
    _worker = (model, r, strata_mod.enumerate_strata(model, r),
               _verify_characters(model, r, spec))


def _verify_one(i):
    model, r, ctx, characters = _worker
    return _theorem_record(model, characters[i], r, ctx)[1]


def cmd_verify(model, r, spec, jobs=1):
    ctx = strata_mod.enumerate_strata(model, r)
    adm = model.admissibility(r.l)
    if not adm:
        rec = _admissibility_record(model, r)
        doc = {"command": "verify", "spec": spec.echo(), "notes": [MINOR_NOTE],
               "results": [rec]}
        return doc, ["verify: inadmissible root order"], 2
    characters = _verify_characters(model, r, spec)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                 initargs=(spec,)) as pool:
            recs = list(pool.map(_verify_one, range(len(characters))))
    else:
        recs = [_theorem_record(model, c, r, ctx)[1] for c in characters]
    verdicts = [rec["result.verdict"] for rec in recs]
    passed = sum(1 for v in verdicts if v.startswith("PASS"))
    flagged = sum(1 for v in verdicts if v == "PASS-with-flag")
    failed = sum(1 for v in verdicts if v == "FAIL")
    summary = {"result.characters": len(recs), "result.passed": passed,
               "result.uncovered": flagged, "result.failed": failed}
    e = r.eps()
    kappas = [rec["result.constant_kappa"] for rec in recs
              if rec["result.constant_kappa"] is not None]
    constants = {
        "derived_kappa": kappas[0] if kappas else None,
        "reference_l_eps_pow_l_minus_1":
            serialize_scalar(r.scalar(r.l) * e ** (r.l - 1)),
        "reference_l_squared_over_eps":
            serialize_scalar(r.scalar(r.l * r.l) * e.inverse()),
    }
    doc = {"command": "verify", "spec": spec.echo(), "notes": [MINOR_NOTE],
           "summary": summary, "constants": constants, "results": recs}
    text = ["verify: %d characters, %d pass (%d flagged uncovered), %d fail"
            % (len(recs), passed, flagged, failed)]
    for rec in recs:
        text.append("  %s -> %s (predicted=%s oracle=%s stratum=%s)"
                    % (rec["character"], rec["result.verdict"],
                       rec["result.predicted"], rec["result.oracle"],
                       rec["result.stratum"]))
    return doc, text, 0 if failed == 0 else 3


COMMANDS = {
    "check": cmd_check,
    "center": cmd_center,
    "strata": cmd_strata,
    "locate": cmd_locate,
    "count": cmd_count,
    "oracle": cmd_oracle,
    "stabilizer": cmd_stabilizer,
}


def run(command, spec, jobs=1):
    r = cyclotomic_build(spec.l, spec.primitive_index)
    model = build_model(spec)
    if command == "verify":
        return cmd_verify(model, r, spec, jobs=jobs)
    if command not in COMMANDS:
        raise ParseError(0, "command", "unknown command %r" % command)
    return COMMANDS[command](model, r, spec)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qorder",
        description="exact structure and representation counts for quantum "
                    "solvable algebras at roots of unity")
    parser.add_argument("command",
                        choices=sorted(list(COMMANDS) + ["verify"]))
    parser.add_argument("--spec", required=True, help="job file")
    parser.add_argument("--out", help="write the report here")
    parser.add_argument("--format", choices=["text", "data"], default="text")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        with open(args.spec) as fh:
            blob = fh.read()
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    try:
        spec = parse_jobspec(blob)
        doc, text, code = run(args.command, spec, jobs=args.jobs)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 1
    except (engine.ValidationFailed, zlattice.NotSkew, ValueError) as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return 2
    if args.format == "data":
        payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        payload = "\n".join(text) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
