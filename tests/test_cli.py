import dataclasses
import json

import pytest

from qorder import cli, fiber, strata

PLANE = """
# quantum plane at a cube root of unity
algebra.kind = twisted
algebra.S = 0 1 / -1 0
algebra.n_poly = 2
root.l = 3
character.x1 = 0
character.x2 = 1
character.witness.x2 = 1
"""

WEYL = """
algebra.kind = weyl
algebra.S = 0
algebra.exponents = 1
root.l = 3
"""

# a Laurent line: no polynomial generator, so one {0, 1} character
LAURENT_LINE = """
algebra.kind = twisted
algebra.S = 0
algebra.n_poly = 0
root.l = 3
"""

# the quantum Weyl pair written out as an explicit Ore tower
CUSTOM_WEYL = """
algebra.kind = custom
algebra.gens = y x
algebra.n_poly = 2
algebra.S = 0 -1 / 1 0
algebra.exponents = 1 0
algebra.delta.y.x = -1 * q^-1
root.l = 3
character.y = 0
character.x = 0
"""

# the same tower with S = 3: at a cube root of unity it is the classical
# Weyl algebra y x = x y - 1, where y^3 is not central
CLASSICAL_AT_EPS = (CUSTOM_WEYL.replace("0 -1 / 1 0", "0 -3 / 3 0")
                    .replace("exponents = 1 0", "exponents = 3 0")
                    .replace("q^-1", "q^-3"))


def run_cli(tmp_path, job_text, command, *extra):
    job = tmp_path / "job.txt"
    job.write_text(job_text)
    out = tmp_path / "out.txt"
    code = cli.main([command, "--spec", str(job), "--out", str(out)] +
                    list(extra))
    return code, out.read_text() if out.exists() else ""


def test_parse_errors(tmp_path):
    with pytest.raises(cli.ParseError, match="line 1"):
        cli.parse_jobspec("algebra.kindd = twisted")
    with pytest.raises(cli.ParseError, match="algebra.S"):
        cli.parse_jobspec("algebra.kind = twisted\nroot.l = 3")
    with pytest.raises(cli.ParseError, match="ragged"):
        cli.parse_jobspec("algebra.kind = twisted\nroot.l = 3\n"
                          "algebra.S = 0 1 / 1")
    job = tmp_path / "bad.txt"
    job.write_text("algebra.kindd = twisted\n")
    assert cli.main(["check", "--spec", str(job)]) == 1
    assert cli.main(["check", "--spec", str(tmp_path / "missing.txt")]) == 1
    # the command comes from the command line; a job file cannot name one
    with pytest.raises(cli.ParseError, match=r"line 1 \(command\): unknown"):
        cli.parse_jobspec("command = verify\n" + PLANE)
    job.write_text("command = verify\n" + PLANE)
    assert cli.main(["verify", "--spec", str(job)]) == 1


def test_usage_errors_exit_1(tmp_path, capsys):
    job = tmp_path / "plane.txt"
    job.write_text(PLANE)
    spec = ["--spec", str(job)]
    # non-positive --jobs only: a positive count would start workers
    for argv in (["frobnicate"] + spec, ["verify"], ["check"] + spec +
                 ["--jobs", "abc"], ["check"] + spec + ["--jobs", "0"],
                 ["verify"] + spec + ["--jobs", "-3"],
                 ["check"] + spec + ["--out", str(tmp_path / "no" / "x")]):
        capsys.readouterr()
        assert cli.main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, argv
        assert err.startswith(("parse error: line 0 (command line): ",
                               "error: ")), argv
    assert not (tmp_path / "no").exists()


def test_back_to_back_calls_parse_on_their_own(tmp_path, capsys):
    """The parser is built once per process: each call still parses its
    own command line from the defaults, and a usage error in between
    leaves nothing behind.  Usage errors say what a freshly built parser
    says."""
    job = tmp_path / "plane.txt"
    job.write_text(PLANE)
    spec = ["--spec", str(job)]
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert cli.main(["stabilizer"] + spec + ["--format", "data", "--out",
                                             str(report)]) == 0
    assert capsys.readouterr() == ("", "")
    data = report.read_text()
    assert json.loads(data)["command"] == "stabilizer"
    assert cli.main(["check"] + spec + ["--jobs", "0"]) == 1
    assert capsys.readouterr() == ("", "parse error: line 0 (command line): "
                                   "argument --jobs: expected a positive "
                                   "count, got 0\n")
    for argv in (["count"] + spec + ["--format", "json"],
                 ["frobnicate"] + spec, ["count", "--out", str(report)]):
        with pytest.raises(cli.ParseError) as fresh:
            cli._build_parser().parse_args(argv)
        assert cli.main(argv) == 1, argv
        assert capsys.readouterr() == ("", "parse error: %s\n" % fresh.value)
    assert cli.main(["count"] + spec) == 0
    printed, err = capsys.readouterr()
    assert printed == "count: predicted=3 (rank=1, covered=True)\n"
    assert err == "" and report.read_text() == data
    assert cli.main(["check"] + spec + ["--format", "data"]) == 0
    assert json.loads(capsys.readouterr()[0])["command"] == "check"


def test_missing_out_directory_is_refused_before_the_run(tmp_path, capsys,
                                                         monkeypatch):
    job = tmp_path / "plane.txt"
    job.write_text(PLANE)

    def no_run(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "run", no_run)
    for out in (tmp_path / "no" / "x", tmp_path / "plane.txt" / "x"):
        capsys.readouterr()
        assert cli.main(["verify", "--spec", str(job), "--out", str(out)]) == 1
        printed, err = capsys.readouterr()
        assert printed == "" and len(err.splitlines()) == 1
        assert err.startswith("error: --out %s" % out)
    assert not (tmp_path / "no").exists()


def test_validation_exit_code(tmp_path):
    code, _ = run_cli(tmp_path, "algebra.kind = twisted\nroot.l = 3\n"
                      "algebra.S = 0 1 / 1 0\n", "check")
    assert code == 2


def test_check_and_admissibility(tmp_path):
    code, text = run_cli(tmp_path, PLANE, "check")
    assert code == 0 and "admissible=True" in text
    code, text = run_cli(tmp_path, PLANE.replace("root.l = 3", "root.l = 2"),
                         "check")
    assert code == 0  # the plane's minors are 1, so l = 2 is admissible
    borel = "algebra.kind = borel-sl2\nroot.l = 2\n"
    code, text = run_cli(tmp_path, borel, "check")
    assert code == 2 and "admissible=False" in text


@pytest.mark.parametrize("job, offender", [
    # a Weyl pair exponent divisible by l
    ("algebra.kind = weyl\nalgebra.S = 0 0 / 0 0\nalgebra.exponents = 3 1\n"
     "root.l = 3\n", {"result.offending_exponent": 3}),
    # a pairing invariant sharing a factor with l
    ("algebra.kind = twisted\nalgebra.S = 0 3 / -3 0\nroot.l = 3\n",
     {"result.offending_minor": {"subset": [0, 1], "value": 9}}),
], ids=["weyl-exponent", "twisted-minor"])
def test_verify_reports_an_inadmissible_root(tmp_path, capsys, job, offender):
    """verify checks admissibility before it builds any stratum, so it
    writes the same admissibility record as check, with exit code 2."""
    code, text = run_cli(tmp_path, job, "verify", "--format", "data")
    doc = json.loads(text)
    assert code == 2 and capsys.readouterr().err == ""
    assert doc["command"] == "verify"
    assert doc["results"] == [dict({"result.admissible": False,
                                    "result.l": 3}, **offender)]
    check_code, check_text = run_cli(tmp_path, job, "check", "--format",
                                     "data")
    assert check_code == 2
    assert json.loads(check_text)["results"] == doc["results"]
    assert run_cli(tmp_path, job, "verify") == (
        2, "verify: inadmissible root order\n")


def test_commands_on_plane(tmp_path):
    for command, needle in (
        ("strata", "T=10"),
        ("locate", "locate: T=10 (t=1)"),
        ("count", "predicted=3"),
        ("oracle", "count=3"),
        ("stabilizer", "rank=1"),
        ("center", "eps-center"),
    ):
        code, text = run_cli(tmp_path, PLANE, command)
        assert code == 0 and needle in text, (command, text)


def test_verify_plane(tmp_path):
    code, text = run_cli(tmp_path, PLANE, "verify")
    assert code == 0
    assert "4 characters, 4 pass (0 flagged uncovered), 0 fail" in text


def test_verify_weyl_flags_uncovered(tmp_path):
    code, text = run_cli(tmp_path, WEYL, "verify")
    assert code == 0
    assert "2 flagged uncovered" in text and "0 fail" in text


def test_verify_weyl_where_y1_and_w1_survive(tmp_path):
    # x1 = c y1^-1 (w1 - 1): the frame is rebased so that w1 is diagonal
    # like 1, and x1 is a scaled partial permutation
    job = WEYL + """
character.x1 = -7/72, -7/36
character.y1 = 8
character.witness.y1 = 2
character.witness.w1 = 2
"""
    code, text = run_cli(tmp_path, job, "verify")
    assert code == 0
    assert ("x1=-7/72 + -7/36*e;y1=8 -> PASS (predicted=1 oracle=1 "
            "stratum=T1=[];T2=[];T3=[])") in text


def test_verify_marks_oversized_fibers_unchecked(tmp_path, monkeypatch):
    # the plane's fibers have dimension 9; a cap of 8 refuses every census,
    # and the sweep still reports every character with its prediction
    monkeypatch.setattr(fiber, "FIBER_DIM_LIMIT", 8)
    monkeypatch.setattr(fiber, "MONOMIAL_DIM_LIMIT", 8)
    code, text = run_cli(tmp_path, PLANE, "verify")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == ("verify: 4 characters, 0 pass (0 flagged uncovered), "
                        "0 fail")
    assert len(lines) == 5
    for line in lines[1:]:
        assert "-> UNCHECKED (predicted=" in line and "oracle=None" in line


def test_verify_marks_nonsplit_census_unchecked(tmp_path, monkeypatch):
    def nonsplit(A, constructed_dims=None):
        raise fiber.NonSplit("blocks not certified")

    monkeypatch.setattr(fiber, "census", nonsplit)
    code, text = run_cli(tmp_path, WEYL, "verify", "--format", "data")
    assert code == 0
    recs = json.loads(text)["results"]
    # covered and uncovered characters alike
    assert {rec["result.covered"] for rec in recs} == {True, False}
    for rec in recs:
        assert rec["result.verdict"] == "UNCHECKED"
        assert rec["result.oracle"] is None
        assert rec["result.predicted"] is not None
        assert "census: blocks not certified" in rec["result.notes"]


def _ones_job(S, gens, l, witnessed=None):
    """A twisted job with every generator polynomial and valued 1, and
    witness 1 on the generators in witnessed (all of them by default)."""
    lines = ["algebra.kind = twisted", "algebra.S = %s" % S,
             "algebra.n_poly = %d" % len(gens), "root.l = %d" % l]
    lines += ["character.%s = 1" % g for g in gens]
    lines += ["character.witness.%s = 1" % g
              for g in (gens if witnessed is None else witnessed)]
    return "\n".join(lines) + "\n"


def test_oracle_divides_by_central_monomials_without_strata(tmp_path):
    # l = 3 divides the pairing of x1 and x2, so the model has no strata
    # at this root; x3 is still central, and the fiber is divided by it,
    # from S and the witnesses: dim 9 and count 9, where dividing by
    # nothing gave dim 27 and count 27
    job = _ones_job("0 3 0 / -3 0 0 / 0 0 0", ["x1", "x2", "x3"], 3)
    code, text = run_cli(tmp_path, job, "oracle")
    assert code == 0
    assert text.splitlines()[0] == (
        "oracle: dim=9 rad=0 count=9 blocks=[%s] (inferred-commutative)"
        % ", ".join(["1"] * 9))


def test_partial_witnesses_leave_every_extension_to_the_census(tmp_path):
    # both generators of the commutative plane are extending z's, and x2
    # has no witness: the fiber is divided by neither (dim 9, count 9),
    # and the census is taken over both extension values.  Dividing by x1
    # alone gave dim 3, count 3 and one unresolved value.
    job = _ones_job("0 0 / 0 0", ["x1", "x2"], 3, ["x1"])
    code, text = run_cli(tmp_path, job, "oracle")
    assert code == 0
    assert text.splitlines()[0] == ("oracle: dim=9 rad=0 count=9 blocks=[%s] "
                                    "(inferred-commutative)"
                                    % ", ".join(["1"] * 9))
    code, text = run_cli(tmp_path, job, "count", "--format", "data")
    assert code == 0
    (rec,) = json.loads(text)["results"]
    assert (rec["result.verdict"], rec["result.oracle"],
            rec["result.predicted"]) == ("PASS-with-flag", 9, 1)
    assert ("census taken over 2 unresolved extension values"
            in rec["result.notes"])


def test_census_ignores_tampered_z_rows(tmp_path, monkeypatch):
    """The oracle's dim, rad and count stay the same when every extending
    z row of the located stratum is replaced by a wrong one: the fiber
    finds its own center.  The construction, which does read the rows, is
    skipped in both runs."""
    def unbuilt(*args):
        raise strata.MissingWitness("construction skipped")

    real = strata.locate
    tampered = []

    def locate_wrong(character, ctx):
        loc = real(character, ctx)
        ts = loc.stratum.torus
        wrong = [int(i == 0) for i in range(ts.m)]
        basis = ts.basis[:2 * ts.k + ts.t] + [wrong] * (ts.p - ts.t)
        assert basis != ts.basis
        tampered.append(ts.p - ts.t)
        stratum = dataclasses.replace(
            loc.stratum, torus=dataclasses.replace(ts, basis=basis))
        return dataclasses.replace(loc, stratum=stratum)

    monkeypatch.setattr(fiber, "clock_shift_irreps", unbuilt)
    cases = [("0 1 0 / -1 0 1 / 0 -1 0", ["x1", "x2", "x3"], 3, (9, 0, 1)),
             ("0 1 0 / -1 0 1 / 0 -1 0", ["x1", "x2", "x3"], 5, (25, 0, 1)),
             ("0 0 / 0 0", ["x1", "x2"], 3, (1, 0, 1))]
    for S, gens, l, want in cases:
        job = _ones_job(S, gens, l)
        for patch in (real, locate_wrong):
            monkeypatch.setattr(strata, "locate", patch)
            code, text = run_cli(tmp_path, job, "oracle", "--format", "data")
            assert code == 0
            (rec,) = json.loads(text)["results"]
            assert (rec["result.fiber_dim"], rec["result.rad_dim"],
                    rec["result.oracle"]) == want
    assert tampered == [1, 1, 2]


def test_noncentral_lth_power_is_a_validation_error(tmp_path, capsys):
    code, text = run_cli(tmp_path, CLASSICAL_AT_EPS, "oracle")
    assert code == 2 and text == ""
    assert "y^l is not central at eps" in capsys.readouterr().err
    # the quantum Weyl pair meets the premise
    code, text = run_cli(tmp_path, CUSTOM_WEYL, "oracle")
    assert code == 0
    assert text == ("oracle: dim=9 rad=0 count=1 blocks=[3] "
                    "(inferred-uniform)\n")
    code, text = run_cli(tmp_path, WEYL, "verify")
    assert code == 0 and "0 fail" in text


def test_report_determinism(tmp_path):
    for job_text in (PLANE, WEYL):
        job = tmp_path / "job.txt"
        job.write_text(job_text)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert cli.main(["verify", "--spec", str(job), "--format", "data",
                             "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        out = tmp_path / "c.json"
        assert cli.main(["verify", "--spec", str(job), "--format", "data",
                         "--jobs", "2", "--out", str(out)]) == 0
        assert out.read_bytes() == outs[0]


def test_verify_starts_no_more_workers_than_characters(tmp_path,
                                                      monkeypatch):
    # an in-process stand-in for the pool: it records its size and runs the
    # worker set-up and the characters here, so no process starts
    sizes = []

    class Pool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(cli, "_worker", None)
    job = tmp_path / "job.txt"
    reports = []
    for job_text, jobs in ((WEYL, "64"), (WEYL, "1"), (LAURENT_LINE, "8")):
        job.write_text(job_text)
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--spec", str(job), "--format", "data",
                         "--jobs", jobs, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    # four characters take four workers; one character runs in-process
    assert sizes == [4]
    assert reports[0] == reports[1]
    assert json.loads(reports[2])["summary"]["result.characters"] == 1


def test_data_format_keys(tmp_path):
    job = tmp_path / "job.txt"
    job.write_text(PLANE)
    out = tmp_path / "r.json"
    cli.main(["verify", "--spec", str(job), "--format", "data",
              "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["command"] == "verify"
    assert doc["summary"]["result.failed"] == 0
    rec = doc["results"][0]
    for key in ("result.admissible", "result.covered", "result.stratum",
                "result.t", "result.rank_chi", "result.rank_chi0",
                "result.predicted", "result.oracle", "result.verdict",
                "result.constant_kappa"):
        assert key in rec
    # exact scalars only: kappa serializes as integer coefficients here
    assert all(isinstance(c, int) for c in rec["result.constant_kappa"])


def test_reports_carry_no_floats(tmp_path):
    job = tmp_path / "job.txt"
    job.write_text(PLANE)
    out = tmp_path / "r.json"
    cli.main(["verify", "--spec", str(job), "--format", "data",
              "--out", str(out)])

    def walk(x):
        assert not isinstance(x, float)
        if isinstance(x, dict):
            for k, v in x.items():
                walk(k)
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    walk(json.loads(out.read_text()))


def test_custom_algebra_job(tmp_path):
    code, text = run_cli(tmp_path, CUSTOM_WEYL, "check")
    assert code == 0 and "admissible=True" in text
    code, text = run_cli(tmp_path, CUSTOM_WEYL, "oracle")
    assert code == 0 and "dim=9" in text and "count=1" in text


def test_custom_rejects_bad_delta(tmp_path):
    bad = CUSTOM_WEYL.replace("-1 * q^-1", "x")  # not locally nilpotent
    code, _ = run_cli(tmp_path, bad, "check")
    assert code == 2


def test_borel_verify(tmp_path):
    borel = ("algebra.kind = borel-sl2\nroot.l = 3\n")
    code, text = run_cli(tmp_path, borel, "verify")
    assert code == 0 and "0 fail" in text


def test_verify_reports_constants(tmp_path):
    job = tmp_path / "job.txt"
    job.write_text(PLANE)
    out = tmp_path / "r.json"
    cli.main(["verify", "--spec", str(job), "--format", "data",
              "--out", str(out)])
    doc = json.loads(out.read_text())
    consts = doc["constants"]
    # the derived constant sits beside both reference values; it agrees with
    # l^2/eps and differs from l eps^(l-1)
    assert consts["derived_kappa"] == consts["reference_l_squared_over_eps"]
    assert consts["derived_kappa"] != consts["reference_l_eps_pow_l_minus_1"]


def test_exit_code_3_on_verdict_mismatch(tmp_path, monkeypatch):
    from qorder import stabilizer as stab

    real = stab.main_theorem_check

    def broken(model, character, r, ctx=None):
        rep = real(model, character, r, ctx)
        rep.verdict = "FAIL"
        return rep

    monkeypatch.setattr(stab, "main_theorem_check", broken)
    job = tmp_path / "job.txt"
    job.write_text(PLANE)
    assert cli.main(["verify", "--spec", str(job)]) == 3


def test_exit_code_3_on_a_failed_internal_check(tmp_path, monkeypatch,
                                                capsys):
    from qorder import stabilizer as stab

    def undecomposable(g):
        raise stab.DecompositionInvalid("no toral part")

    def nonsplit(A, constructed_dims=None):
        raise fiber.NonSplit("blocks not certified")

    job = tmp_path / "job.txt"
    job.write_text(PLANE)
    for target, name, fake, command, message in (
            (stab, "rank_and_checks", undecomposable, "verify",
             "no toral part"),
            (fiber, "census", nonsplit, "oracle", "blocks not certified")):
        with monkeypatch.context() as patch:
            patch.setattr(target, name, fake)
            assert cli.main([command, "--spec", str(job)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "check failed: %s\n" % message


# twisted N=5 at l=7: the fiber (dimension 7^5) is under the monomial census
# cap, and the representations have dimension 49
TWISTED_N5_L7 = """
algebra.kind = twisted
algebra.S = 0 1 0 0 0 / -1 0 1 0 0 / 0 -1 0 1 0 / 0 0 -1 0 1 / 0 0 0 -1 0
algebra.n_poly = 1
root.l = 7
"""


def test_verify_twisted_n5_l7(tmp_path, monkeypatch):
    built = []
    irreps = fiber.clock_shift_irreps

    def recording(ctx, located, character):
        reps = irreps(ctx, located, character)
        built.extend(reps)
        return reps

    monkeypatch.setattr(fiber, "clock_shift_irreps", recording)
    code, text = run_cli(tmp_path, TWISTED_N5_L7, "verify", "--format",
                         "data")
    assert code == 0
    recs = json.loads(text)["results"]
    assert len(recs) == 2
    for rec in recs:
        assert rec["result.verdict"] == "PASS"
        assert rec["result.oracle"] == 1
        assert rec["result.predicted"] == 1
        assert rec["result.notes"] == []
    # one representation per character, built and verified on the way
    assert [(p.dim, p.verified) for p in built] == [(49, True)] * 2


# the same tridiagonal S at N=6: the fiber's dimension 7^6 is the monomial
# census cap
TWISTED_N6_L7 = """
algebra.kind = twisted
algebra.S = 0 1 0 0 0 0 / -1 0 1 0 0 0 / 0 -1 0 1 0 0 / 0 0 -1 0 1 0 / \
0 0 0 -1 0 1 / 0 0 0 0 -1 0
algebra.n_poly = 1
root.l = 7
"""


def test_verify_twisted_n6_l7(tmp_path):
    code, text = run_cli(tmp_path, TWISTED_N6_L7, "verify", "--format",
                         "data")
    assert code == 0
    recs = json.loads(text)["results"]
    assert [(rec["result.verdict"], rec["result.predicted"],
             rec["result.oracle"]) for rec in recs] == [("PASS", 7, 7),
                                                        ("PASS", 1, 1)]


# `weyl-table` job 0 of benchmark seed 1 at l = 5: a dim-625 table fiber
WEYL_N2_L5 = """
algebra.kind = weyl
algebra.S = 0 1 / -1 0
algebra.exponents = 1 1
root.l = 5
root.primitive_index = 2
character.x1 = 1
character.witness.x1 = 1
character.x2 = 1
character.witness.x2 = 1
character.y1 = 1
character.witness.y1 = 1
character.y2 = 1
character.witness.y2 = 1
"""


def test_oracle_weyl_n2_l5(tmp_path):
    code, text = run_cli(tmp_path, WEYL_N2_L5, "oracle")
    assert code == 0
    assert text == ("oracle: dim=625 rad=0 count=1 blocks=[25] "
                    "(inferred-uniform)\n")
