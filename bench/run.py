"""Benchmark of `qorder verify` and `qorder count`: one workload per process.

    python3 bench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The jobs are generated from the seed into
bench/out/, run through `qorder.cli.main` in this process with `--jobs 1`,
and every answer is checked against closed forms (see workloads.py).  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (wall_s, setup_s,
char_p50_ms, peak_rss_mb); with `--trace 1` they are the per-layer ones, and
the spans are written to bench/out/<workload>-s<seed>-trace/spans.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Set-up probes before each job; a job's set-up time is their median.
SETUP_PROBES = {"sweep": 1, "monomial-625": 20, "weyl-table": 20}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "qorder")):
        print("error: no qorder sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import harness
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    jobs = workloads.make_jobs(args.workload, args.seed)
    workdir = os.path.join(HERE, "out", "%s-s%d%s" % (
        args.workload, args.seed, "-trace" if args.trace else ""))

    with harness.Sampler() as sampler:
        if args.trace:
            tracer = tracing.Tracer()
            res = harness.run(jobs, workdir, args.seconds, 0, tracer, sampler)
            tracer.write(os.path.join(workdir, "spans.jsonl"))
            metrics = {name: (value * res["scale"] if unit == "s" else value,
                              unit)
                       for name, (value, unit)
                       in tracer.layer_metrics(res["rounds"]).items()}
            metrics["trace.wall_s"] = (res["wall_unscaled_s"] * res["scale"],
                                       "s")
            metrics.update(tracing.exactnum_metrics(
                workloads.WORKLOAD_L[args.workload], sampler))
        else:
            res = harness.run(jobs, workdir, args.seconds,
                              SETUP_PROBES[args.workload], None, sampler)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "wall_s": (res["wall_s"], "s"),
                "setup_s": (res["setup_s"], "s"),
                "char_p50_ms": (statistics.median(res["char_ms"]), "ms"),
                "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            }
    print("reference loop: %d samples, mean %.3f ms; rounds scaled by %.4f"
          % (len(sampler.samples), statistics.fmean(sampler.samples) * 1e3,
             res["scale"]), file=sys.stderr)
    for err in res["errors"][:20]:
        print("check failed: %s" % err, file=sys.stderr)
    print("%s seed %d: %d round(s), %d jobs, %d characters"
          % (args.workload, args.seed, res["rounds"], len(jobs),
             len(res["char_ms"])), file=sys.stderr)
    print(json.dumps({
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
