"""hecke5 benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload quotient --seed 1 --seconds 5 --trace 0

Run from anywhere; the checkout is the parent of this directory and the
package is imported from its `src/` (nothing is installed).  Every set-up and
every pass of the job list runs in a fresh interpreter (`worker.py`), one at
a time, on one thread: a closed loop with one caller.  The job list is run
again, each time in a new process with a new cache directory, until the
passes add up to `--seconds`.  Times are scaled to a reference host speed,
measured while the jobs run (see `worker.Reference`).

`--trace 0` reports the end-to-end metrics of `BENCHMARK.json`.  `--trace 1`
runs one untraced and one traced pass and reports the per-layer metrics;
their answers must agree.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("quotient", "closure", "census", "congruence")
# Set-up samples per untraced run; each pass is one, the rest are set-ups
# alone.  A `closure` set-up builds the order-655360 quotient (about 12 s),
# so it gets no extra one.
SETUPS = {"quotient": 2, "closure": 1, "census": 2, "congruence": 2}
# Whole run, including set-ups; a run must end within 180 s.
RUN_BUDGET_S = 165.0


class Run:
    def __init__(self, workload: str, seed: int, scratch: Path, deadline: float):
        self.workload, self.seed = workload, seed
        self.scratch, self.deadline = scratch, deadline
        self.env = {k: v for k, v in os.environ.items() if k != "HECKE5_CACHE_DIR"}
        self.env["PYTHONHASHSEED"] = "0"

    def spawn(self, mode: str, cache: Path, deadline: float | None = None,
              trace_out: Path | None = None) -> dict:
        """Run one worker to completion; its result."""
        deadline = self.deadline if deadline is None else deadline
        out = Path(tempfile.mkstemp(dir=self.scratch, suffix=".json")[1])
        cmd = [sys.executable, str(HERE / "worker.py"), mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--cache-dir", str(cache), "--deadline", repr(deadline),
               "--out", str(out)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["--spawned", repr(time.monotonic())]
        subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=sys.stderr,
                       check=True,
                       timeout=max(1.0, deadline - time.monotonic() + 10))
        return json.loads(out.read_text())

    def cache(self) -> tuple[Path, float]:
        """A new cache directory, filled for `closure`; with the fill's
        seconds at the reference speed."""
        cache = Path(tempfile.mkdtemp(dir=self.scratch, prefix="cache-"))
        if self.workload != "closure":
            return cache, 0.0
        return cache, self.spawn("fill", cache)["ref_setup_s"]

    def setup_only(self) -> float:
        cache, fill_s = self.cache()
        setup_s = self.spawn("setup", cache)["ref_setup_s"]
        shutil.rmtree(cache)
        return fill_s + setup_s


def untraced(run: Run, seconds: float) -> dict:
    passes, setups = [], []
    while True:
        started = time.monotonic()
        cache, fill_s = run.cache()
        res = run.spawn("pass", cache)
        shutil.rmtree(cache)
        print(f"perfbench: pass of {res['wall_s']:.3f} s, "
              f"{res['ref_wall_s']:.3f} s at the reference speed "
              f"(reference {res['reference_ms']:.2f} ms); set-up "
              f"{res['setup_s']:.3f} s, {res['ref_setup_s']:.3f} s",
              file=sys.stderr)
        passes.append(res)
        setups.append(fill_s + res["ref_setup_s"])
        took = time.monotonic() - started
        if (sum(p["ref_wall_s"] for p in passes) >= seconds
                or time.monotonic() + took > run.deadline):
            break
    while len(setups) < SETUPS[run.workload]:
        setups.append(run.setup_only())
    jobs = [j for p in passes for j in p["jobs"]]
    ok = sum(j["ok"] for j in jobs)
    total_s = sum(p["ref_wall_s"] for p in passes)
    metrics = {
        "ref_wall_s": (statistics.median(p["ref_wall_s"] for p in passes),
                       "s"),
        "ref_jobs_per_s": (ok / total_s if total_s else 0.0, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return result(jobs, metrics)


def traced(run: Run) -> dict:
    cache, _ = run.cache()
    # the untraced pass gets at most half of the time that is left
    plain = run.spawn("pass", cache,
                      deadline=(time.monotonic() + run.deadline) / 2)
    if run.workload != "closure":  # `closure` only reads its cache
        shutil.rmtree(cache)
        cache, _ = run.cache()
    traces = ROOT / ".perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_out = traces / f"{run.workload}-seed{run.seed}.jsonl"
    res = run.spawn("pass", cache, trace_out=trace_out)
    shutil.rmtree(cache)
    jobs = plain["jobs"] + res["jobs"]
    metrics = {k: (v, unit_of(k)) for k, v in res["metrics"].items()}
    metrics["trace.overhead_ratio"] = (
        res["wall_s"] / plain["wall_s"] if plain["wall_s"] else 0.0, "ratio")
    metrics["run.wall_s"] = (plain["wall_s"], "s")
    metrics["run.reference_ms"] = (plain["reference_ms"], "ms")
    out = result(jobs, metrics)
    if res["answers"] != plain["answers"]:
        print("perfbench: traced answers differ from untraced answers",
              file=sys.stderr)
        out["correct"] = False
    print(f"perfbench: spans in {trace_out.relative_to(ROOT)}", file=sys.stderr)
    return out


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "miss_s", "hit_s"):
        return "s"
    if last == "elements_per_s":
        return "1/s"
    if last == "ns_per_call":
        return "ns"
    if last == "bytes":
        return "B"
    if last.endswith("ratio"):
        return "ratio"
    return "count"


def result(jobs: list[dict], metrics: dict) -> dict:
    for j in jobs:
        if not j["ok"]:
            print(f"perfbench: FAILED {j['id']}: {j['error']}", file=sys.stderr)
    failed = sum(not j["ok"] for j in jobs)
    return {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hecke5" / "__init__.py").is_file():
        print(f"perfbench: no hecke5 sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=base, prefix="run-"))
    try:
        run = Run(args.workload, args.seed, scratch, started + RUN_BUDGET_S)
        out = traced(run) if args.trace else untraced(run, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
