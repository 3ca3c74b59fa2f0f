import json

import pytest

from qorder import cli, fiber

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


def test_verify_marks_oversized_fibers_unchecked(tmp_path, monkeypatch):
    # the plane's fibers have dimension 9; a cap of 8 refuses every census,
    # and the sweep still reports every character with its prediction
    monkeypatch.setattr(fiber, "FIBER_DIM_LIMIT", 8)
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
