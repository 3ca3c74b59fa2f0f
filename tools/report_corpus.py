"""Record qorder's reports on a fixed corpus of jobs, or compare two records.

    python3 tools/report_corpus.py CHECKOUT OUT.json
    python3 tools/report_corpus.py --compare A.json B.json

The first form imports qorder from CHECKOUT/src and the benchmark's job
generator from CHECKOUT/bench/workloads.py, runs `qorder.cli.main` in this
process on every job of the corpus and writes one record per run: command,
job file text, format, exit code, stdout and stderr.  It changes nothing in
CHECKOUT; job files go to a temporary directory.  The corpus is

- every job of every benchmark workload at seeds 1 and 2, in both formats;
- `stabilizer` and `count` on every {0, 1} character, and `verify`, of a
  fixed family of small models at l = 2, 3, 4 and 5 (see `model_jobs`);
- `verify`, `stabilizer`, `count`, `oracle`, `center` and `strata` on every
  job under CHECKOUT/tests/golden.

The second form compares every record.  A run is its command, job file
text without comment lines, and format; the corpus repeats some runs (a
workload's seeds share jobs), so its 5,562 records hold 5,020 runs.  It names
every run that one file records twice with different results (exit code,
stdout or stderr), and every run whose records differ between the two files
or whose number of records does, and exits 1 if there is any.  Comparing a
file with itself thus checks that no run gave two different reports inside
one corpus.  Uses the standard library only.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from itertools import product

SEEDS = (1, 2)
LS = (2, 3, 4, 5)
GOLDEN_COMMANDS = ("verify", "stabilizer", "count", "oracle", "center",
                   "strata")


def _matrix_text(S):
    return " / ".join(" ".join(str(x) for x in row) for row in S)


def model_jobs(workloads):
    """(header lines, polynomial generators, invertible generators) of the
    small models: twisted N = 2 and 3 with S entries in {-1, 0, 1} at n_poly
    N and N - 1, twisted S = 0 2 / -2 0, borel-sl2, and the quantum Weyl
    algebras n = 1 (S = 0, exponents 1) and n = 2 (S = 0 1 / -1 0,
    exponents 1 1; S = 0 0 / 0 0, exponents 1 2)."""
    out = []
    for N in (2, 3):
        gens = ["x%d" % (i + 1) for i in range(N)]
        for S in workloads.all_skew(N, span=1):
            for n_poly in (N, N - 1):
                out.append((["algebra.kind = twisted",
                             "algebra.S = %s" % _matrix_text(S),
                             "algebra.n_poly = %d" % n_poly],
                            gens[:n_poly], gens[n_poly:]))
    out.append((["algebra.kind = twisted", "algebra.S = 0 2 / -2 0",
                 "algebra.n_poly = 2"], ["x1", "x2"], []))
    out.append((["algebra.kind = borel-sl2"], ["f"], ["k"]))
    for S, exps in (("0", "1"), ("0 1 / -1 0", "1 1"), ("0 0 / 0 0", "1 2")):
        n = len(exps.split())
        gens = (["y%d" % i for i in range(n, 0, -1)] +
                ["x%d" % i for i in range(1, n + 1)])
        out.append((["algebra.kind = weyl", "algebra.S = %s" % S,
                     "algebra.exponents = %s" % exps], gens, []))
    return out


def corpus(checkout, workloads):
    """Every run of the corpus as (command, job text, format)."""
    runs = []
    for name in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            for job in workloads.make_jobs(name, seed):
                for fmt in ("text", "data"):
                    runs.append((job.command, job.text(), fmt))
    for l in LS:
        for header, poly, inv in model_jobs(workloads):
            base = header + ["root.l = %d" % l]
            runs.append(("verify", "\n".join(base) + "\n", "data"))
            for bits in product((0, 1), repeat=len(poly)):
                lines = list(base)
                ones = [g for g, b in zip(poly, bits) if b] + inv
                lines += ["character.%s = %d" % (g, b)
                          for g, b in zip(poly, bits)]
                lines += ["character.%s = 1" % g for g in inv]
                lines += ["character.witness.%s = 1" % g for g in ones]
                text = "\n".join(lines) + "\n"
                runs.append(("stabilizer", text, "data"))
                runs.append(("count", text, "data"))
    golden = os.path.join(checkout, "tests", "golden")
    for fname in sorted(os.listdir(golden)):
        if fname.endswith(".job"):
            with open(os.path.join(golden, fname)) as fh:
                text = fh.read()
            for command in GOLDEN_COMMANDS:
                runs.append((command, text, "data"))
    return runs


def run_one(cli, workdir, command, text, fmt):
    path = os.path.join(workdir, "job.txt")
    with open(path, "w") as fh:
        fh.write(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([command, "--spec", path, "--format", fmt])
        except Exception as exc:  # an uncaught error is part of the record
            code = "uncaught %s: %s" % (type(exc).__name__, exc)
    return {"command": command, "job": text, "format": fmt, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def record(checkout, out_path):
    checkout = os.path.abspath(checkout)
    sys.path[:0] = [os.path.join(checkout, "src"),
                    os.path.join(checkout, "bench")]
    sys.dont_write_bytecode = True
    import workloads
    from qorder import cli
    runs = corpus(checkout, workloads)
    records = []
    with tempfile.TemporaryDirectory() as workdir:
        for i, run in enumerate(runs, start=1):
            records.append(run_one(cli, workdir, *run))
            if i % 500 == 0:
                print("%d/%d runs" % (i, len(runs)), file=sys.stderr)
    with open(out_path, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    codes = {}
    for rec in records:
        codes[str(rec["code"])] = codes.get(str(rec["code"]), 0) + 1
    print("%d runs; exit codes %s" % (len(records), json.dumps(codes,
                                                              sort_keys=True)))
    return 0


def _key(rec):
    """A run's command, job and format; comment lines of the job file are
    left out, since no report reads them."""
    job = "".join(line for line in rec["job"].splitlines(True)
                  if not line.lstrip().startswith("#"))
    return (rec["command"], job, rec["format"])


FIELDS = ("code", "stdout", "stderr")


def _runs(path):
    """A file's records grouped by run, in file order."""
    runs = {}
    with open(path) as fh:
        for rec in json.load(fh):
            runs.setdefault(_key(rec), []).append(rec)
    return runs


def _print_run(key, where):
    command, job, fmt = key
    print("%s --format %s: %s\n  %s" % (
        command, fmt, where,
        "\n  ".join(line for line in job.splitlines() if line)))


def _conflicts(path, runs):
    """Print every run that the file records with two different results;
    return their number."""
    count = 0
    for key, recs in sorted(runs.items()):
        results = []
        for rec in recs:
            result = [rec[f] for f in FIELDS]
            if result not in results:
                results.append(result)
        if len(results) < 2:
            continue
        count += 1
        _print_run(key, "%d different results in %s" % (len(results), path))
        for result in results:
            print("  ---")
            for f, value in zip(FIELDS, result):
                print("  %s: %s" % (f, json.dumps(value)))
    return count


def compare(path_a, path_b):
    a, b = _runs(path_a), _runs(path_b)
    conflicting = _conflicts(path_a, a) + _conflicts(path_b, b)
    differing = 0
    for key in sorted(set(a) | set(b)):
        ra, rb = a.get(key, []), b.get(key, [])
        if len(ra) != len(rb):
            where = "%d records in %s, %d in %s" % (len(ra), path_a,
                                                    len(rb), path_b)
        else:
            fields = [f for f in FIELDS
                      if any(x[f] != y[f] for x, y in zip(ra, rb))]
            if not fields:
                continue
            where = "differs in " + ", ".join(fields)
        differing += 1
        _print_run(key, where)
    print("%d and %d records of %d runs compared, %d differ, %d conflict"
          % (sum(map(len, a.values())), sum(map(len, b.values())),
             len(set(a) | set(b)), differing, conflicting))
    return 1 if differing or conflicting else 0


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        return compare(args[1], args[2])
    if len(args) == 2 and not args[0].startswith("-"):
        return record(args[0], args[1])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
