"""Run a workload through `qorder.cli.main` in this process and time it.

The program's code is not changed.  The benchmark replaces module attributes
of the program with thin wrappers for the length of a run and puts the
originals back afterwards:

* always: `stabilizer.main_theorem_check`, to time each character's verdict
  pipeline from outside and to mark the end of a job's set-up, and
  `fiber.census`, to see the fiber dimension the report does not print;
* traced runs only: every public function named in `tracing.LAYERS`, which
  records one span per call.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

from qorder import cli, fiber, stabilizer


# The reference loop: REF_LOOP additions, nominally REF_NOMINAL_S seconds.
REF_LOOP = 100_000
REF_NOMINAL_S = 0.004


def reference_loop():
    s = 0
    for i in range(REF_LOOP):
        s += i
    return s


class Sampler:
    """Times the reference loop every `interval` seconds of the run.

    The machine this runs on changes speed by up to a factor of two over
    seconds to minutes, because it is shared.  A SIGALRM handler times a
    fixed loop at regular intervals, inside long calls too, so the run knows
    how fast the machine was while it ran.  `clock()` is perf_counter minus
    the time spent in the handler, and `scale()` converts seconds on that
    clock into seconds on a machine where the loop takes REF_NOMINAL_S.
    Samples are indexed in the order they were taken, so an interval of the
    run is scaled by the samples taken during it and just around it.
    """

    def __init__(self, interval=0.25):
        self.interval = interval
        self.samples = []
        self.stolen = 0.0
        self._busy = False
        self._previous = None

    def clock(self):
        return time.perf_counter() - self.stolen

    def sample(self):
        """Time the reference loop once, now."""
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - t0)
        self.stolen += time.perf_counter() - t0
        self._busy = False

    def _tick(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, lo=0, hi=None):
        """REF_NOMINAL_S over the mean loop time of samples[lo:hi]."""
        if not self.samples[lo:hi]:
            self.sample()
            return REF_NOMINAL_S / self.samples[-1]
        return REF_NOMINAL_S / statistics.fmean(self.samples[lo:hi])

    def around(self, lo, hi, pad=2):
        """Scale for an interval during which samples[lo:hi] were taken,
        widened by `pad` samples on each side (half a second)."""
        return self.scale(max(0, lo - pad), hi + pad)


class SetupDone(Exception):
    """Raised at the first character to end a set-up probe."""


class Patches:
    """Replace module attributes for the life of a `with` block."""

    def __init__(self):
        self._saved = []

    def wrap(self, module, name, make):
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, make(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)
        return False


class Runner:
    """Jobs of one workload, run through the CLI with outside timing.

    Times are read from `sampler.clock`, so the reference loop's own time is
    not in them.  Every timed interval is kept as (seconds, first sample,
    end sample) and scaled when the run is over."""

    def __init__(self, jobs, workdir, sampler, tracer=None):
        self.jobs = jobs
        self.workdir = workdir
        self.sampler = sampler
        self.clock = sampler.clock
        self.tracer = tracer
        self.probing = False
        self.first_char = None
        self.chars = []
        self.census = {}
        self.current = None

    def _timed(self, fn, *args):
        lo = len(self.sampler.samples)
        t0 = self.clock()
        out = fn(*args)
        return out, (self.clock() - t0, lo, len(self.sampler.samples))

    # -- wrappers ----------------------------------------------------------

    def _theorem(self, original):
        def main_theorem_check(model, character, r, ctx=None):
            if self.first_char is None:
                self.first_char = self.clock()
            if self.probing:
                raise SetupDone()
            self.current = character.key()
            rep, interval = self._timed(original, model, character, r, ctx)
            self.chars.append(interval)
            return rep
        return main_theorem_check

    def _census(self, original):
        def census(A, constructed_dims=None):
            res = original(A, constructed_dims)
            self.census[self.current] = (res.dim, res.rad_dim, res.count)
            return res
        return census

    # -- jobs --------------------------------------------------------------

    def _argv(self, k, job):
        return [job.command, "--spec", self.job_path(k), "--jobs", "1",
                "--format", "data", "--out", self.report_path(k)]

    def job_path(self, k):
        return os.path.join(self.workdir, "jobs", "%04d.job" % k)

    def report_path(self, k):
        return os.path.join(self.workdir, "reports", "%04d.json" % k)

    def write_jobs(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(os.path.join(self.workdir, "jobs"))
        os.makedirs(os.path.join(self.workdir, "reports"))
        for k, job in enumerate(self.jobs):
            with open(self.job_path(k), "w") as fh:
                fh.write(job.text())

    def _probe(self, k):
        self.first_char = None
        t0 = self.clock()
        try:
            cli.main(self._argv(k, self.jobs[k]))
        except SetupDone:
            pass
        return (self.first_char or self.clock()) - t0

    def setup(self, k, probes):
        """Set-up interval of job k: the median of `probes` runs of the job
        stopped at its first character."""
        self.probing = True
        try:
            times, (_, lo, hi) = self._timed(
                lambda: [self._probe(k) for _ in range(probes)])
        finally:
            self.probing = False
        return statistics.median(times), lo, hi

    def _run_job(self, k, job):
        try:
            return cli.main(self._argv(k, job))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return None

    def round(self, probes):
        """One pass over every job, each after `probes` set-up probes.

        Returns the jobs' wall intervals, their set-up intervals, attempted,
        failed, and the errors the checks found."""
        walls = []
        setups = []
        attempted = failed = 0
        errors = []
        for k, job in enumerate(self.jobs):
            if probes:
                setups.append(self.setup(k, probes))
            n_chars = len(job.expected_keys())
            attempted += 1 + n_chars
            self.first_char = None
            self.census = {}
            if self.tracer is not None:
                self.tracer.begin_job(k)
            code, interval = self._timed(self._run_job, k, job)
            if self.tracer is not None:
                self.tracer.end_job(interval[0])
            walls.append(interval)
            if code != 0:
                print("job %d (%s) ended with %r" % (k, job.command, code),
                      file=sys.stderr)
                failed += 1 + n_chars
                continue
            with open(self.report_path(k)) as fh:
                doc = json.load(fh)
            job_errors, job_failed = job.check_report(doc, self.census)
            failed += job_failed
            errors.extend("job %d: %s" % (k, e) for e in job_errors)
        return walls, setups, attempted, failed, errors


def run(jobs, workdir, seconds, probes, tracer=None, sampler=None):
    """Whole rounds until the next would overrun `seconds` (at least one).

    Wall, set-up and character times are scaled interval by interval
    (`Sampler.around`); `scale` is the one scale of all rounds, for the
    caller's traced times, and `wall_unscaled_s` the round time it applies
    to.  Without a sampler the run makes its own."""
    if sampler is None:
        with Sampler() as own:
            return run(jobs, workdir, seconds, probes, tracer, own)
    runner = Runner(jobs, workdir, sampler, tracer)
    runner.write_jobs()
    with Patches() as patches:
        patches.wrap(stabilizer, "main_theorem_check", runner._theorem)
        patches.wrap(fiber, "census", runner._census)
        if tracer is not None:
            tracer.clock = sampler.clock
            tracer.install(patches)
        rounds = []
        attempted = failed = 0
        errors = []
        first = len(sampler.samples)
        start = time.perf_counter()
        while True:
            walls, setups, a, f, errs = runner.round(probes)
            rounds.append((walls, setups))
            attempted += a
            failed += f
            errors.extend(errs)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(rounds) > seconds:
                break
        scale = sampler.scale(first)

    def total(intervals):
        return sum(t * sampler.around(lo, hi) for t, lo, hi in intervals)

    return {
        "rounds": len(rounds),
        "scale": scale,
        "wall_s": statistics.median(total(w) for w, _ in rounds),
        "wall_unscaled_s": statistics.median(
            sum(t for t, _, _ in w) for w, _ in rounds),
        "setup_s": statistics.median(total(s) for _, s in rounds)
        if probes else None,
        "char_ms": [t * sampler.around(lo, hi) * 1000.0
                    for t, lo, hi in runner.chars],
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }
