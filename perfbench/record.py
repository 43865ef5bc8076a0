"""Regenerate the benchmark's frozen inputs and expected answers.

    python3 perfbench/record.py

Writes `inputs/principal.json` (generator words of the principal congruence
subgroups G(N), the Schreier generators of the regular action of Q(N) with
points numbered in breadth-first order, S before T) and then
`expected.json` (every job's answer, from one untimed run of each
workload).  Run it only on a commit whose answers are trusted; `selftest.py`
cross-checks the answers against the values the tests pin.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hecke5 import congruence, quotients  # noqa: E402

import workloads  # noqa: E402
from worker import run_jobs  # noqa: E402

PRINCIPAL = ["2", "2+L", "3", "4", "6"]


def regular_action(q) -> congruence.CosetTable:
    order, pos = [q.identity], {q.identity: 0}
    for x in order:
        for g in (q.gen_S, q.gen_T):
            y = q.mult(x, g)
            if y not in pos:
                pos[y] = len(order)
                order.append(y)
    return congruence.CosetTable(
        tuple(pos[q.mult(x, q.gen_S)] for x in order),
        tuple(pos[q.mult(x, q.gen_T)] for x in order))


def main() -> int:
    principal = {}
    for n in PRINCIPAL:
        t = regular_action(quotients.build_quotient(workloads.modulus(n)))
        principal[n] = [str(w) for w in congruence.schreier_generators(t)]
    workloads.INPUTS.mkdir(exist_ok=True)
    (workloads.INPUTS / "principal.json").write_text(
        json.dumps(principal, indent=0) + "\n")

    expected = {}
    scratch = Path(tempfile.mkdtemp(dir=HERE))
    try:
        for name, make_jobs in workloads.WORKLOADS.items():
            cache = scratch / name
            cache.mkdir()
            if name == "closure":
                workloads.fill_cache(cache)
            records, answers = run_jobs(make_jobs(random.Random(0), cache), {},
                                        float("inf"))
            missing = [r for r in records if r["id"] not in answers]
            if missing:
                raise SystemExit(f"jobs without an answer: {missing}")
            expected[name] = dict(sorted(answers.items()))
            print(f"{name}: {len(answers)} answers", file=sys.stderr)
    finally:
        shutil.rmtree(scratch)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
