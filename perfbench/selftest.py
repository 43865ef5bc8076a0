"""Self-test of the benchmark itself (about eight minutes on two cores).

    python3 perfbench/selftest.py

1. `expected.json` holds the values the test suite pins.
2. Every workload passes, with every answer checked, at seed 1 untraced and
   at seed 2 traced; the traced run also compares its answers with an
   untraced pass.  The metric names are exactly those of `BENCHMARK.json`.
3. The traced runs show the design matrix: which layers each workload may
   and may not use.  The heaviest layer by self time is printed beside the
   one expected on the seed code; that is a finding, not a failure, since
   optimisations are meant to move it.
4. In a directory holding only `BENCHMARK.json` and the benchmark, `run.py`
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("quotient", "closure", "census", "congruence")

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def pinned_values(expected: dict) -> None:
    q, c, g = expected["quotient"], expected["closure"], expected["congruence"]
    orders = [g["congruence/principal/2"]["quotient_order"],
              q["quotient/proj/2+L"]["order"],
              g["congruence/principal/3"]["quotient_order"],
              q["quotient/proj/8+hist"]["order"],
              q["quotient/hom/6"]["order"],
              q["quotient/proj/16"]["order"]]
    check(orders == [10, 60, 60, 10240, 1200, 655360],
          f"quotient orders {orders}")
    check(c["closure/8/T^4"]["order"] == 32
          and c["closure/16/T^4"]["order"] == 2048,
          "normal closure of T^4 has order 32 mod 8 and 2048 mod 16")
    rows = [v for k, v in expected["census"].items()
            if k.startswith("census/5/")]
    check(expected["census"]["census/enumerate/5"]["tables"] == 26
          and len(rows) == 26, "26 subgroups of index 5")
    check(Counter(r["geometric_level"] for r in rows)
          == {2: 5, 3: 5, 4: 5, 5: 6, 6: 5}
          and sum(r["normal"] for r in rows) == 1,
          "index-5 level histogram and one normal subgroup")
    verdicts = Counter((r["geometric_level"], r["verdict"]) for r in rows)
    check(verdicts[2, "congruence"] == 5 and verdicts[3, "congruence"] == 5
          and verdicts[4, "not-congruence"] == 5
          and verdicts[5, "congruence"] == 5, "index-5 verdicts")
    check(g["congruence/hfs/i5-level6"]["verdict"] == "not-congruence",
          "i5-level6 is not congruence")
    for n in ("2", "2+L", "3", "4", "6"):
        r = g[f"congruence/principal/{n}"]
        level = f"({n})"
        check(r["verdict"] == "congruence" and r["algebraic_level"] == level,
              f"G({n}) is congruence of level {level}")
    check(g["congruence/undecided/S"] == g["congruence/undecided/T^4"]
          == "undecided", "<S> and <T^4> are undecided")


def run(workload: str, seed: int, trace: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stderr)
        check(False, f"{workload} seed {seed} trace {trace} exits 0")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def heaviest(metrics: dict) -> str:
    own = {k[:-len(".self_s")]: v["value"] for k, v in metrics.items()
           if k.endswith(".self_s")}
    return max(own, key=own.get)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    pinned_values(json.loads((HERE / "expected.json").read_text()))

    layers = {}
    for w in WORKLOADS:
        for seed, trace, names in ((1, 0, end_to_end), (2, 1, per_layer)):
            out = run(w, seed, trace)
            if out is None:
                continue
            check(out["correct"] and out["failed"] == 0,
                  f"{w} seed {seed} trace {trace}: {out['attempted']} jobs, "
                  f"{out['failed']} failed")
            check(set(out["metrics"]) == names,
                  f"{w} trace {trace} reports the metrics of BENCHMARK.json"
                  f" (missing {sorted(names - set(out['metrics']))},"
                  f" extra {sorted(set(out['metrics']) - names)})")
            if trace:
                layers[w] = out["metrics"]

    def value(w, name):
        return layers[w][name]["value"] if name in layers.get(w, {}) else None

    for w in layers:
        if w != "closure":
            check(value(w, "closure.normal_closure.calls") == 0,
                  f"no normal closure in {w}")
        if w != "congruence":
            check(value(w, "congruence.coset_table.calls") == 0,
                  f"no coset enumeration in {w}")
        hits = value(w, "quotients.cache.hits")
        check((hits > 0) == (w == "closure"),
              f"disk-cache hits in {w}: {hits}")
    seed_heaviest = {"quotient": "closure.generated_closure",
                     "closure": "quotients.kernel_subgroup, or "
                                "closure.generated_closure from the normal "
                                "closure's rounds",
                     "census": "closure.generated_closure",
                     "congruence": "congruence.coset_table"}
    for w in layers:
        print(f"note heaviest self time in {w}: {heaviest(layers[w])} "
              f"(seed code: {seed_heaviest[w]})")

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "quotient",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without the sources, run.py fails and prints no result")

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
