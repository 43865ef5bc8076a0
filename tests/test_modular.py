import sys
import time
from functools import lru_cache
from itertools import product

import pytest

from hecke5 import closure
from hecke5.closure import UndecidedError, generated_closure
from hecke5.modular_oracle import (
    _inv, _pow, _subgroup_closure, build_sl2_quotient, check_lemma_d1,
    check_wohlfahrt_instance, d2_closure_order, lemma_d2,
    reduction_kernel_order,
)
from hecke5.verify import run_check


def brute_force_order(n):
    count = 0
    for a, b, c, d in product(range(n), repeat=4):
        if (a * d - b * c) % n == 1 % n:
            count += 1
    return count


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_group_order_matches_brute_force(n):
    assert build_sl2_quotient(n).order == brute_force_order(n)


@lru_cache(maxsize=None)
def sl2_by_bfs(n):
    """SL(2, Z/n) as the orbit of I under right multiplication by T and S."""
    q = build_sl2_quotient(n)
    return frozenset(generated_closure(
        q.identity, [lambda x, g=g: q.mult(x, g) for g in (q.gen_t, q.gen_s)]))


def kernel_by_filter(big, small):
    """The kernel of reduction by its definition: the elements of
    SL(2, Z/big) that are I mod small."""
    return sum(1 for x in sl2_by_bfs(big)
               if all(v % small == w % small for v, w in zip(x, (1, 0, 0, 1))))


@pytest.mark.parametrize("n", range(1, 17))
def test_order_formula_matches_bfs(n):
    assert len(sl2_by_bfs(n)) == build_sl2_quotient(n).order


@pytest.mark.parametrize("big", range(1, 17))
def test_kernel_orders_match_the_filter(big):
    for small in range(1, big + 1):
        if big % small == 0:
            assert reduction_kernel_order(big, small) == kernel_by_filter(
                big, small), (big, small)


def test_oracle_builds_no_element_set(monkeypatch):
    """Orders and kernel orders come from the index formula: only the
    Dimino closures enumerate elements, never a BFS of SL(2, Z/n)."""
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle enumerated SL(2, Z/n)")

    holders = [m for name, m in sys.modules.items()
               if name.split(".")[0] == "hecke5"
               and getattr(m, "generated_closure", None)
               is closure.generated_closure]
    assert closure in holders
    for module in holders:
        monkeypatch.setattr(module, "generated_closure", refuse)
    for check_id in ("D1", "D2", "W"):
        assert all(r.passed for r in run_check(check_id)), check_id
    for r, s in [(5, 12), (3, 16), (5, 8), (7, 6)]:
        assert check_wohlfahrt_instance(r, s), (r, s)
    assert check_d2_generators(4, 2)


def test_known_orders():
    assert build_sl2_quotient(2).order == 6
    assert build_sl2_quotient(3).order == 24
    assert build_sl2_quotient(4).order == 48
    assert build_sl2_quotient(5).order == 120


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_unipotent_pair_generates(p):
    assert check_lemma_d1(p)


@pytest.mark.parametrize("m,p", [(2, 2), (2, 3), (3, 2), (6, 2), (1, 5)])
def test_closure_equals_kernel(m, p):
    holds, order = lemma_d2(m, p)
    assert holds and order == reduction_kernel_order(m * p, m)


def test_closure_orders():
    assert d2_closure_order(2, 2) == 8
    assert d2_closure_order(2, 3) == 24
    assert d2_closure_order(1, 5) == build_sl2_quotient(5).order


@pytest.mark.parametrize("r,s", [(2, 2), (3, 2), (2, 3)])
def test_wohlfahrt_instances(r, s):
    assert check_wohlfahrt_instance(r, s)


def check_d2_generators(m: int, p: int) -> bool:
    """U = T^m, V = S T^m S^-1, W = T V T^-1 generate the p^3 kernel when p | m."""
    if m % p:
        raise ValueError("requires p | m")
    q = build_sl2_quotient(m * p)
    t, s = q.gen_t, q.gen_s
    u = _pow(q, t, m)
    v = q.mult(q.mult(s, u), _inv(q, s))
    w = q.mult(q.mult(t, v), _inv(q, t))
    closure = _subgroup_closure(q, [u, v, w])
    if len(closure) != p ** 3:
        return False
    if len(closure) != reduction_kernel_order(m * p, m):
        return False
    # elementary abelian: generators commute and have order p
    for x in (u, v, w):
        if _pow(q, x, p) != q.identity:
            return False
        for y in (u, v, w):
            if q.mult(x, y) != q.mult(y, x):
                return False
    return True


@pytest.mark.parametrize("m,p", [(2, 2), (3, 3), (4, 2)])
def test_kernel_generator_triple(m, p):
    assert check_d2_generators(m, p)


def test_kernel_generator_triple_needs_divisibility():
    with pytest.raises(ValueError):
        check_d2_generators(3, 2)


def test_modulus_above_the_cap_is_refused_unfactored():
    """Factoring this n, two primes near 10^9, by trial division takes
    minutes; above the cap |SL(2, Z/n)| > n^3 / 2 is too, unfactored."""
    n = (10**9 + 7) * (10**9 + 9)
    start = time.perf_counter()
    with pytest.raises(UndecidedError, match=rf"Z/{n}\) has over {n}\^3 / 2"):
        build_sl2_quotient(n)
    assert time.perf_counter() - start < 1


def test_kernel_orders():
    assert reduction_kernel_order(4, 2) == 8
    assert reduction_kernel_order(6, 2) == build_sl2_quotient(6).order // 6
    assert reduction_kernel_order(6, 6) == 1
    with pytest.raises(ValueError):
        reduction_kernel_order(6, 4)
