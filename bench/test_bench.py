"""The benchmark's own checks, on small slices of each workload."""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qorder import fiber, stabilizer  # noqa: E402


def run_slice(jobs, tmp_path, tracer=None):
    probes = 0 if tracer else 1
    return harness.run(jobs, str(tmp_path / "run"), 0, probes, tracer)


def test_closed_form_counts():
    plane = [[0, 1], [-1, 0]]
    assert workloads.twisted_count(plane, [], 3) == (1, 1)
    assert workloads.twisted_count(plane, [1], 3) == (3, 1)
    assert workloads.twisted_count(plane, [0, 1], 3) == (1, 1)
    # S = 0: the algebra is commutative, every fiber point is a character
    zero = [[0, 0], [0, 0]]
    assert workloads.twisted_count(zero, [0, 1], 5) == (1, 25)
    assert workloads.admissible(plane, 3)
    assert not workloads.admissible([[0, 3], [-3, 0]], 3)


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        a = [j.text() for j in workloads.make_jobs(name, 4)]
        assert a == [j.text() for j in workloads.make_jobs(name, 4)]
        assert any(a != [j.text() for j in workloads.make_jobs(name, seed)]
                   for seed in range(5, 10))
    sweep = workloads.make_jobs("sweep", 0)
    assert len(sweep) == 530
    assert sum(len(j.expected_keys()) for j in sweep) == 1945


def test_sweep_slice_passes_and_restores_the_program(tmp_path):
    originals = (stabilizer.main_theorem_check, fiber.census)
    res = run_slice(workloads.make_jobs("sweep", 3)[:12], tmp_path)
    assert res["errors"] == [] and res["failed"] == 0
    assert res["attempted"] == 12 + len(res["char_ms"])
    assert 0 < res["setup_s"] < res["wall_s"]
    assert 0 < min(res["char_ms"])
    assert sum(res["char_ms"]) < 1500 * res["wall_s"]
    assert (stabilizer.main_theorem_check, fiber.census) == originals


def test_monomial_slice_passes(tmp_path):
    res = run_slice(workloads.make_jobs("monomial-625", 3)[:1], tmp_path)
    assert res["errors"] == [] and res["failed"] == 0
    assert len(res["char_ms"]) == 4


def test_weyl_slice_passes(tmp_path):
    # the same generator at n=1, whose fibers have dimension 9
    jobs = workloads.weyl_table(random.Random(3), n=1, l=3)
    assert sorted(j.values["y1"] for j in jobs) == ["0", "1"]
    res = run_slice(jobs, tmp_path)
    assert res["errors"] == [] and res["failed"] == 0


def test_perturbed_count_is_rejected(tmp_path):
    job = next(j for j in workloads.make_jobs("sweep", 0)
               if j.n_poly == 2 and len(j.S) == 2 and j.S[0][1])
    runner = harness.Runner([job], str(tmp_path / "run"), harness.Sampler())
    runner.write_jobs()
    with harness.Patches() as patches:
        patches.wrap(stabilizer, "main_theorem_check", runner._theorem)
        patches.wrap(fiber, "census", runner._census)
        _, setups, _, _, errors = runner.round(1)
    assert setups[0][0] > 0
    assert errors == []
    with open(runner.report_path(0)) as fh:
        doc = json.load(fh)
    assert job.check_report(doc, runner.census) == ([], 0)
    rec = next(r for r in doc["results"] if r["result.oracle"] > 1)
    key = rec["character"]
    rec["result.oracle"] += 1
    errors, _ = job.check_report(doc, runner.census)
    assert any("closed form" in e for e in errors)
    rec["result.oracle"] -= 1
    dim, rad, count = runner.census[key]
    errors, _ = job.check_report(doc, dict(runner.census,
                                           **{key: (dim, rad, count + 1)}))
    assert errors
    rec["result.verdict"] = "FAIL"
    assert job.check_report(doc, runner.census)[1] == 1
    doc["results"].pop()
    assert job.check_report(doc, runner.census)[0]


def test_traced_slice_accounts_for_character_time(tmp_path):
    tracer = tracing.Tracer()
    res = run_slice(workloads.make_jobs("sweep", 3)[:6], tmp_path, tracer)
    assert res["errors"] == []
    metrics = tracer.layer_metrics(res["rounds"])
    char_s = metrics["trace.char_s"][0]
    layer_s = sum(v for k, (v, unit) in metrics.items()
                  if unit == "s" and k.split(".")[0] in
                  ("strata", "models", "stabilizer", "fiber", "engine"))
    assert 0 <= metrics["trace.gap_s"][0] < char_s
    assert layer_s > 0.5 * char_s
    assert metrics["stabilizer.rank_calls"][0] > 0
    tracer.write(str(tmp_path / "spans.jsonl"))
    with open(tmp_path / "spans.jsonl") as fh:
        assert all(json.loads(line)["end"] is not None for line in fh)
