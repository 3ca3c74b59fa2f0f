"""Reports compared byte for byte with stored data reports.

Each `tests/golden/NAME.job` has one stored report `NAME.COMMAND.json`, the
`--format data` output of `qorder COMMAND` on it.  A change that is meant to
alter a report regenerates the file with

    PYTHONPATH=src python -m qorder.cli COMMAND --spec tests/golden/NAME.job \
        --format data --out tests/golden/NAME.COMMAND.json

and says why in its description.
"""

import json
from pathlib import Path

import pytest

from qorder import cli

GOLDEN = Path(__file__).parent / "golden"
REPORTS = sorted(GOLDEN.glob("*.json"))


def test_every_job_has_a_report():
    jobs = {p.stem for p in GOLDEN.glob("*.job")}
    assert jobs and jobs == {p.name.split(".")[0] for p in REPORTS}


@pytest.mark.parametrize("report", REPORTS, ids=lambda p: p.stem)
def test_report_is_byte_identical(tmp_path, report):
    name, command = report.stem.split(".")
    out = tmp_path / report.name
    code = cli.main([command, "--spec", str(GOLDEN / (name + ".job")),
                     "--format", "data", "--out", str(out)])
    results = json.loads(report.read_text())["results"]
    admissible = all(rec.get("result.admissible", True) for rec in results)
    assert code == (0 if admissible else 2)
    assert out.read_bytes() == report.read_bytes()
