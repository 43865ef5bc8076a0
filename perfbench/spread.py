"""Run the benchmark once per seed and summarise each metric over the runs.

    python3 perfbench/spread.py --workload census --seeds 301-310 [--out FILE]

Runs `run.py --trace 0` for each seed, one after another, and prints for each
end-to-end metric the median, the quartiles and the spread: the distance
between the first and third quartile (`statistics.quantiles(v, n=4)`) as a
share of the median.  With `--out`, the summary and every run's result are
written there as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="301-310")
    p.add_argument("--seconds", default=str(json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]))
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    runs = []
    for seed in seeds_of(args.seeds):
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=True)
        out = json.loads(done.stdout.strip().splitlines()[-1])
        out["seed"], out["elapsed_s"] = seed, time.monotonic() - started
        runs.append(out)
        print(f"seed {seed}: {out['elapsed_s']:.1f} s, correct "
              f"{out['correct']}, " + ", ".join(
                  f"{k} {v['value']:.4g}" for k, v in out["metrics"].items()),
              file=sys.stderr)

    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else None,
                         "unit": first["unit"]}
        print(f"{args.workload} {name}: median {median:.4g} {first['unit']},"
              f" spread {summary[name]['spread']:.3f}")
    if args.out:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "summary": summary, "runs": runs},
            indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
