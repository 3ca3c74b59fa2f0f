"""Spans around calls into the program's layers, kept in memory.

A span is one call of a wrapped public function: its name, its parent span,
the job and character it belongs to, and its start and end.  Spans are
written as JSON lines when the run ends.  A layer's self time is its spans'
durations minus the durations of their child spans.
"""

from __future__ import annotations

import json
import random
import statistics
import time

from qorder import cli, engine, fiber, models, stabilizer, strata
from qorder.exactnum import cyclotomic_build

# (layer name, module, public function); one span per call.
LAYERS = [
    ("cli.parse", cli, "parse_jobspec"),
    ("strata.enumerate", strata, "enumerate_strata"),
    ("strata.locate", strata, "locate"),
    ("models.z0_table", models, "twisted_z0_table"),
    ("models.z0_table", models, "f_elements_and_z0_brackets"),
    ("stabilizer.stratum", stabilizer, "stabilizer_from_stratum"),
    ("stabilizer.rank", stabilizer, "rank_and_checks"),
    ("stabilizer.linearized", stabilizer, "linearized_stabilizer"),
    ("fiber.build", fiber, "fiber_algebra"),
    ("fiber.irreps", fiber, "clock_shift_irreps"),
    ("fiber.census", fiber, "census"),
    ("engine.mul_at_root", engine, "mul_at_root"),
]
CHAR = "stabilizer.main_theorem_check"
JOB = "cli.main"
COUNTED = ("strata.enumerate", "models.z0_table", "stabilizer.rank",
           "engine.mul_at_root")


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, job, char, start, end]
        self.stack = []
        self.job = None
        self.char = None
        self.census = []  # (dim, rad_dim) per census call
        self.clock = time.perf_counter

    def _open(self, name):
        span = [len(self.spans), self.stack[-1][0] if self.stack else None,
                name, self.job, self.char, self.clock(), None]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span[6] = self.clock()
        self.stack.pop()

    def begin_job(self, k):
        self.job = k
        self.char = None
        self._open(JOB)

    def end_job(self, seconds):
        """Close the job span; its length is the wall time the caller
        measured, so that it does not include the caller's bookkeeping."""
        span = self.stack.pop()
        span[6] = span[5] + seconds

    def _wrap(self, name):
        def make(original):
            def traced(*args, **kwargs):
                span = self._open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close(span)
            return traced
        return make

    def _wrap_char(self, original):
        def main_theorem_check(model, character, r, ctx=None):
            self.char = character.key()
            span = self._open(CHAR)
            try:
                return original(model, character, r, ctx)
            finally:
                self._close(span)
                self.char = None
        return main_theorem_check

    def _wrap_census(self, original):
        def census(A, constructed_dims=None):
            res = original(A, constructed_dims)
            self.census.append((res.dim, res.rad_dim))
            return res
        return census

    def install(self, patches):
        patches.wrap(fiber, "census", self._wrap_census)
        for name, module, attr in LAYERS:
            patches.wrap(module, attr, self._wrap(name))
        patches.wrap(stabilizer, "main_theorem_check", self._wrap_char)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, job, char, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "job": job, "char": char,
                                     "start": t0, "end": t1}) + "\n")

    def layer_metrics(self, rounds):
        """Per-round self seconds and call counts of each layer."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        self_s = {}
        calls = {}
        char_s = 0.0
        for sid, _, name, _, _, t0, t1 in self.spans:
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[sid]
            calls[name] = calls.get(name, 0) + 1
            if name == CHAR:
                char_s += t1 - t0
        out = {}
        for name, _, _ in LAYERS:
            out[name + "_s"] = (self_s.get(name, 0.0) / rounds, "s")
        for name in COUNTED:
            out[name + "_calls"] = (calls.get(name, 0) / rounds, "count")
        out["fiber.dim_sum"] = (sum(d for d, _ in self.census) / rounds,
                                "count")
        out["fiber.rad_dim_sum"] = (sum(r for _, r in self.census) / rounds,
                                    "count")
        out["trace.char_s"] = (char_s / rounds, "s")
        out["trace.gap_s"] = (self_s.get(CHAR, 0.0) / rounds, "s")
        return out


def exactnum_metrics(l, sampler, reps=7):
    """Microseconds per CycloNum product, inverse and RootData.one() at l,
    on a fixed batch: the median of `reps` timings of the batch, each scaled
    by a reference sample taken just before it."""
    r = cyclotomic_build(l)
    rng = random.Random(1010)
    batch = []
    while len(batch) < 64:
        vec = [rng.randint(-9, 9) for _ in range(r.deg)]
        den = rng.randint(1, 4)
        x = r.zero()
        for k, c in enumerate(vec):
            if c:
                x = x + r.eps_power(k) * c / den
        if not x.is_zero():
            batch.append(x)
    pairs = [(a, b) for a in batch for b in batch[:16]]

    def per_op(fn, n):
        times = []
        for _ in range(reps):
            mark = len(sampler.samples)
            sampler.sample()
            t0 = sampler.clock()
            fn()
            elapsed = sampler.clock() - t0
            times.append(elapsed * sampler.scale(mark) / n * 1e6)
        return statistics.median(times)

    return {
        "exactnum.mul_us": (per_op(lambda: [a * b for a, b in pairs],
                                   len(pairs)), "us"),
        "exactnum.inverse_us": (per_op(lambda: [a.inverse() for a in batch],
                                       len(batch)), "us"),
        "exactnum.one_us": (per_op(lambda: [r.one() for _ in range(2000)],
                                   2000), "us"),
    }
