"""Check `order_histogram` against each element's own order for every ideal
of norm at most N (default 60), both projectivities.

    PYTHONPATH=src python tests/sweep_histograms.py [N]

The oracle is `histogram_by_element` from `test_quotients.py`, which walks
every element's powers on its own.  At N = 60 this checks 26 ideals, about
25 s on one core.  Exits 1 if any histogram disagrees.
"""

import sys
import time

from hecke5.congruence import _ideal_divisors
from hecke5.golden_ring import Modulus
from hecke5.quotients import build_quotient

from test_quotients import histogram_by_element


def main(top: int) -> int:
    start = time.perf_counter()
    mods = {Modulus.ideal(d) for n in range(1, top + 1)
            for d in _ideal_divisors(n) if abs(d.norm()) <= top}
    bad = []
    for m in sorted(mods, key=lambda m: m.ring_size):
        for p in (True, False):
            q = build_quotient(m, p)
            if q.order_histogram() != histogram_by_element(q):
                bad.append((str(m), p))
    print(f"{len(mods)} ideals of norm at most {top}, {2 * len(mods)} cases: "
          f"{len(bad)} disagree {bad} "
          f"({time.perf_counter() - start:.1f} s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 60))
