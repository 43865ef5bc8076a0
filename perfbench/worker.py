"""One benchmark process: set up a workload, run its job list once, check it.

`run.py` starts this in a fresh interpreter for every set-up and every pass:

    python3 perfbench/worker.py MODE --workload W --seed N --cache-dir D \\
        --deadline T --out FILE --spawned T0 [--trace-out FILE]

MODE is `fill` (populate the `closure` disk cache), `setup` (imports and
inputs, then stop) or `pass` (set up, then run and check every job).  The
result is one JSON object written to FILE.  Untraced, it holds the set-up
time since T0, the parent's `time.monotonic()` at the spawn, as measured
(`setup_s`) and at the reference speed (`ref_setup_s`), and for a pass the
job times likewise (`wall_s`, `ref_wall_s`).
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import sys
import time
from array import array
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# A job running longer than this is stopped and counted as failed, so a
# regression to a hang cannot stall the benchmark.
JOB_BOUND_S = 30.0

# The host's speed drifts by up to half over minutes, for every process alike
# (CPU time equals wall time; there is no steal).  So an untraced pass times a
# fixed reference workload every REFERENCE_PERIOD_S of CPU time, from SIGPROF,
# and scales each stretch of job time between two samples to a host on which
# the reference takes REFERENCE_S.
REFERENCE_PERIOD_S = 0.3
REFERENCE_S = 0.02
# Entries of the reference's memory walk: 2**21 seeded random words, 8 MB.
WALK_BITS = 21


class JobTimeout(BaseException):
    """Raised from SIGALRM; a BaseException so no `except Exception` eats it."""


def _alarm(signum, frame):
    raise JobTimeout


def walk_table() -> array:
    rng, table = random.Random(0), array("I")
    for _ in range(1 << (WALK_BITS - 16)):  # 256 KB at a time
        table.frombytes(rng.randbytes(4 << 16))
    return table


def reference_loop(walk) -> int:
    """Fixed work of the program's two kinds: integer arithmetic with dict
    updates, and dependent loads from a table larger than most caches (the
    program's groups are sets of up to 655360 tuples).  It allocates no
    objects the garbage collector tracks, so it does not move the program's
    collections."""
    table: dict = {}
    x = 1
    for i in range(16000):
        x = (x * 48271 + i) % 2147483647
        key = (x & 255) << 2 | (i & 3)
        table[key] = table.get(key, 0) + 1
    mask = len(walk) - 1
    j = 0
    for k in range(32000):
        j = (walk[j] + k) & mask
    return len(table) + j


class Reference:
    """Samples of `reference_loop`'s time: three at once, then, inside a
    `with` block, one every REFERENCE_PERIOD_S of CPU time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.walk = walk_table()
        for _ in range(3):
            self._sample()

    def at_start(self, seconds: float) -> float:
        """`seconds` just before this object was made, at the reference
        speed."""
        first = statistics.median(s for _, s in self.samples[:3])
        return seconds * REFERENCE_S / first

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, REFERENCE_PERIOD_S,
                         REFERENCE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._sample()

    def _sample(self, *_):
        t = time.perf_counter()
        reference_loop(self.walk)
        self.samples.append((t, time.perf_counter() - t))

    def scale(self, t0: float, t1: float) -> tuple[float, float]:
        """Job time in [t0, t1] without the samples in it, as measured and
        at the reference speed: each stretch between two samples is scaled
        by REFERENCE_S over the mean of those two samples."""
        before = [s for s in self.samples if s[0] < t0]
        inside = [s for s in self.samples if t0 <= s[0] < t1]
        after = [s for s in self.samples if s[0] >= t1]
        bounds = before[-1:] + inside + after[:1]
        measured = scaled = 0.0
        start = t0
        for prev, nxt in zip(bounds, bounds[1:]):
            end = min(nxt[0], t1)
            stretch = max(0.0, end - start)
            measured += stretch
            scaled += stretch * REFERENCE_S / ((prev[1] + nxt[1]) / 2)
            start = nxt[0] + nxt[1]
        return measured, scaled


def run_jobs(jobs, expected: dict, deadline: float, tracer=None):
    """Run the jobs in order, each under a wall-time bound; check answers.

    Each record's `span` is the job's (start, end) in `time.perf_counter()`.
    """
    signal.signal(signal.SIGALRM, _alarm)
    queue = deque(jobs)
    records, answers = [], {}
    while queue:
        job = queue.popleft()
        bound = min(JOB_BOUND_S, deadline - time.monotonic())
        if bound <= 0:
            now = time.perf_counter()
            records.append({"id": job.id, "span": (now, now), "ok": False,
                            "error": "not started before the run deadline"})
            continue
        if tracer is not None:
            tracer.job = job.id
        error = None
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, bound)
            try:
                raw = job.call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except JobTimeout:
            error = f"stopped at its {bound:.1f} s bound"
        except Exception as exc:  # any other outcome is a failed job
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if error is None:
            answer, more = job.finish(raw)
            answer = json.loads(json.dumps(answer))
            answers[job.id] = answer
            queue.extendleft(reversed(more))
            if job.id not in expected:
                error = "no expected answer"
            elif answer != expected[job.id]:
                error = f"wrong answer {answer!r}"
        records.append({"id": job.id, "span": (t0, t1), "ok": error is None,
                        "error": error})
    return records, answers


def time_jobs(records, reference: Reference | None) -> None:
    """Replace each record's span by its seconds, `s`, and with a reference,
    by its seconds without samples and at the reference speed, `ref_s`.
    Called after the last sample, which closes the last job's stretch."""
    for r in records:
        t0, t1 = r.pop("span")
        if reference is None:
            r["s"] = t1 - t0
        else:
            r["s"], r["ref_s"] = reference.scale(t0, t1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("fill", "setup", "pass"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cache-dir", type=Path, required=True)
    p.add_argument("--deadline", type=float, required=True)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--trace-out", type=Path)
    args = p.parse_args(argv)

    import workloads
    out: dict = {}
    if args.mode == "fill":
        lead = time.monotonic() - args.spawned
        with Reference() as reference:
            t0 = time.perf_counter()
            workloads.fill_cache(args.cache_dir)
            t1 = time.perf_counter()
        fill_s, ref_fill_s = reference.scale(t0, t1)
        out.update(setup_s=lead + fill_s,
                   ref_setup_s=reference.at_start(lead) + ref_fill_s)
    else:
        jobs = workloads.WORKLOADS[args.workload](random.Random(args.seed),
                                                  args.cache_dir)
        expected = json.loads((HERE / "expected.json").read_text())
        lead = time.monotonic() - args.spawned
        if not args.trace_out:
            reference = Reference()
            out.update(setup_s=lead, ref_setup_s=reference.at_start(lead))
    if args.mode == "pass":
        tracer = None
        if args.trace_out:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        if tracer is None:
            with reference:
                records, answers = run_jobs(jobs, expected[args.workload],
                                            args.deadline)
            time_jobs(records, reference)
            out.update(ref_wall_s=sum(r["ref_s"] for r in records),
                       reference_ms=1000 * statistics.median(
                           s for _, s in reference.samples))
        else:
            records, answers = run_jobs(jobs, expected[args.workload],
                                        args.deadline, tracer)
            time_jobs(records, None)
        out.update(wall_s=sum(r["s"] for r in records), jobs=records,
                   answers=answers,
                   peak_rss_mb=resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            tracer.uninstall()
            tracer.write(args.trace_out)
            metrics = tracing.layer_metrics(tracer)
            ns = tracing.reduce_pair_ns(args.seed)
            if ns is not None:
                metrics["golden_ring.reduce_pair.ns_per_call"] = ns
            out["metrics"] = metrics
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
