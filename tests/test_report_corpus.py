import json
import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "report_corpus.py")


def _record(job, code=0, stdout="ok\n", stderr=""):
    return {"command": "verify", "job": job, "format": "data", "code": code,
            "stdout": stdout, "stderr": stderr}


def _compare(tmp_path, a, b):
    paths = []
    for name, records in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps(records))
        paths.append(str(path))
    done = subprocess.run([sys.executable, TOOL, "--compare"] + paths,
                          capture_output=True, text=True)
    return done.returncode, done.stdout


def test_compare_reads_every_record(tmp_path):
    plane = "algebra.kind = twisted\nroot.l = 3\n"
    other = "algebra.kind = twisted\nroot.l = 5\n"
    # a repeated run, once with a comment line, recorded alike twice
    same = [_record(plane), _record("# seed 2\n" + plane), _record(other)]
    code, out = _compare(tmp_path, same, same)
    assert code == 0
    assert out.splitlines()[-1] == \
        "3 and 3 records of 2 runs compared, 0 differ, 0 conflict"
    # the first of two records of one run differs: a last-record-wins
    # comparison would miss it
    conflicting = [_record(plane, stdout="changed\n")] + same[1:]
    code, out = _compare(tmp_path, conflicting, same)
    assert code == 1
    assert "2 different results in" in out
    assert '"changed\\n"' in out
    assert out.splitlines()[-1] == \
        "3 and 3 records of 2 runs compared, 1 differ, 1 conflict"
    # a file compared with itself shows its own conflicts
    code, out = _compare(tmp_path, conflicting, conflicting)
    assert code == 1
    assert out.splitlines()[-1].endswith("0 differ, 2 conflict")
    # one run recorded a different number of times
    code, out = _compare(tmp_path, same, same[1:])
    assert code == 1
    assert "2 records in" in out and "1 in" in out
