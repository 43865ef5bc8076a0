"""Check `quotient_order` against the row orbit for every ideal of norm at
most N (default 400), both projectivities.

    PYTHONPATH=src python tests/sweep_orders.py [N]

Every ideal divides (its norm), so the divisors of (n), n <= N, hold them
all.  Tier-1 checks the 36 that divide some n <= 31; at N = 400 this walks
172 ideals, about 13 s on one core.  Exits 1 if any order disagrees.
"""

import sys

from hecke5.congruence import _ideal_divisors
from hecke5.golden_ring import Modulus
from hecke5.quotients import build_quotient, orbit_order, quotient_order


def main(top: int) -> int:
    mods = {Modulus.ideal(d) for n in range(1, top + 1)
            for d in _ideal_divisors(n) if abs(d.norm()) <= top}
    bad = [(str(m), p) for m in sorted(mods, key=lambda m: m.ring_size)
           for p in (True, False)
           if quotient_order(m, p) != orbit_order(build_quotient(m, p))]
    print(f"{len(mods)} ideals of norm at most {top}, {2 * len(mods)} cases: "
          f"{len(bad)} disagree {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 400))
