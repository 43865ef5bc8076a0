"""Registry of checkable claims with default instance grids.

Each entry decides a single finite instance of one of the library's
structural claims (kernel indexes, normal closures, generator collapses,
and their classical SL(2, Z/n) analogs).  Claims of one shape share one
function: the six closure lemmas are the rows of `CLOSURES`, and the
generator families of 2.2, B and C share `_family_order`.  `run_check`
evaluates one instance; `run_all` sweeps every default grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import gcd
from operator import eq, ge
from typing import Callable

from .golden_ring import GoldenInt, Modulus, is_prime, parse_golden
from . import modular_oracle as oracle
from .hecke_matrices import (
    appendix_b_words, appendix_c_words, decompose, delta_m_words,
    delta_prime, elementary_generators, eval_word, omega_2, word,
)
from .quotients import (
    build_quotient, check_elementary_abelian, kernel_subgroup, normal_closure,
    orbit_order, refuse_kernel, sl2_enumeration_order, sl_index_formula,
    subgroup_closure,
)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    params: dict
    passed: bool
    detail: str

    def line(self) -> str:
        args = "".join(f" {k}={v}" for k, v in self.params.items())
        status = "pass" if self.passed else "FAIL"
        return f"{self.check_id}{args}: {status} ({self.detail})"


def _result(check_id, params, passed, detail) -> CheckResult:
    return CheckResult(check_id, dict(params), bool(passed), detail)


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError("p must be a prime")


# -- individual checks -------------------------------------------------------


def check_index_formula(a: str) -> CheckResult:
    mod = _parse_modulus(a)
    got = sl2_enumeration_order(mod)  # refused above the cap: count first
    expected = sl_index_formula(mod)
    return _result("index-formula", {"a": a}, expected == got,
                   f"formula {expected}, enumeration {got}")


def _family_order(check_id: str, params: dict, modulus: int, family,
                  expected: int, p: int | None = None) -> CheckResult:
    """The subgroup of Q(modulus) generated by `family()` has order
    `expected`, and is elementary abelian when a prime p is given.  The
    family is built after Q(modulus), so a bad modulus is named first."""
    amb = build_quotient(Modulus.rational(modulus), projective=True)
    h = subgroup_closure(amb, family())
    ok = h.order == expected and (p is None or check_elementary_abelian(h, p))
    return _result(check_id, params, ok,
                   f"order {h.order}, expected {expected}")


def check_delta_grid(m: int, p: int) -> CheckResult:
    """Six translation-conjugate generators mod mp: elementary abelian p^6,
    for a prime p | m (and 4 | m when p = 2)."""
    _require_prime(p)
    if m % p or (p == 2 and m % 4):
        raise ValueError("p must divide m, and 4 must divide m when p = 2")
    return _family_order(
        "delta-grid", {"m": m, "p": p}, m * p,
        lambda: (map(eval_word, delta_m_words(m)) if delta_prime(m)
                 else elementary_generators(m)), p**6, p)


def check_delta_residues(m: int, p: int) -> CheckResult:
    """The group-element realization hits the prescribed residues mod mp,
    for p the smallest odd prime factor of m, as `delta_m_words` takes it."""
    error = ValueError("p must be the smallest odd prime factor of m")
    if p % 2 == 0 or not is_prime(p) or m % p:
        raise error
    amb = build_quotient(Modulus.rational(m * p), projective=True)
    if p != delta_prime(m):  # trial division, after Q(mp) is known to fit
        raise error
    got = {amb.key_of(eval_word(w)) for w in delta_m_words(m)}
    want = {amb.key_of(g) for g in elementary_generators(m)}
    return _result("delta-residues", {"m": m, "p": p}, got == want,
                   f"{len(got & want)}/6 residues match")


def check_kernel_ladder(pi: str) -> CheckResult:
    """|G(2pi)/G(4pi)| for odd pi: 16 at pi=1, else 32, counted by
    enumerating the kernel."""
    g = _parse_modulus(pi).generator
    two = GoldenInt(2, 0)
    if g.divisible_by(two):
        raise ValueError("pi must be odd")
    q = build_quotient(Modulus.ideal(g * two * two), projective=True)
    k = kernel_subgroup(q, Modulus.ideal(g * two))
    size = len(frozenset(k.members))
    unit = abs(g.norm()) == 1
    expected = 16 if unit else 32
    ok = size == expected and (not unit or check_elementary_abelian(k, 2))
    return _result("kernel-ladder", {"pi": pi}, ok,
                   f"order {size}, expected {expected}")


# Each closure lemma compares N(G(M), T^k) with G(d) inside Q(M).  A row
# holds the check name, the domain test and its error, (M, k, d) from the
# parameters, and the relation of the two member sets, closure first.
CLOSURES = {
    # 3.2: N(G(ab), T^b) = G(b) for coprime a, b
    "3.2": ("closure-coprime", lambda a, b: gcd(a, b) == 1,
            "a and b must be coprime", lambda a, b: (a * b, b, b), eq),
    # 3.3: N(G(mn), T^m) = G(m) for odd n
    "3.3": ("closure-odd", lambda m, n: n % 2, "n must be odd",
            lambda m, n: (m * n, m, m), eq),
    # 3.5: N(G(4m), T^2m) = G(2m) for odd m
    "3.5": ("closure-4m", lambda m: m % 2, "m must be odd",
            lambda m: (4 * m, 2 * m, 2 * m), eq),
    # 3.6: N(G(8m), T^2m) = G(2m) for odd m
    "3.6": ("closure-8m", lambda m: m % 2, "m must be odd",
            lambda m: (8 * m, 2 * m, 2 * m), eq),
    # 3.7: G(2m) <= N(G(4m), T^m) for m a multiple of 4
    "3.7": ("closure-contains", lambda m: m % 4 == 0,
            "m must be a multiple of 4", lambda m: (4 * m, m, 2 * m), ge),
    # 3.8: [N(G(4m), T^2m) : G(4m)] = 2^5 (< 2^6) for even m
    "3.8": ("closure-strict", lambda m: m % 2 == 0, "m must be even",
            lambda m: (4 * m, 2 * m, 2 * m),
            lambda h, k: len(h) == 32 and len(k) == 64 and h < k),
}


def check_closure(lemma: str, **params) -> CheckResult:
    """The closure lemma `lemma`, a key of `CLOSURES`, at `params`."""
    check_id, domain, error, instance, relation = CLOSURES[lemma]
    if not domain(**params):
        raise ValueError(error)
    modulus, power, level = instance(**params)
    q = build_quotient(Modulus.rational(modulus), projective=True)
    below = Modulus.rational(level)
    k = kernel_subgroup(q, below)
    # with the kernel above the cap no relation can pass: refuse it first
    refuse_kernel(q, below, k.order)
    h = normal_closure(q, [eval_word(word([("T", power)]))])
    return _result(check_id, params, relation(h.members, k.members),
                   f"closure {h.order}, kernel {k.order}")


def check_translation_collapse(m: int) -> CheckResult:
    """Five-word generator family: order 2^4 mod 4 (m=1), 2^5 mod 4m (odd m>1)."""
    if m % 2 == 0:
        raise ValueError("m must be odd")
    return _family_order("translation-collapse", {"m": m}, 4 * m,
                         lambda: map(eval_word, appendix_b_words(m)),
                         16 if m == 1 else 32)


def check_translation_collapse_4(m: int) -> CheckResult:
    """Six-word generator family for 4 | m: order 2^6 mod 4m."""
    if m % 4:
        raise ValueError("m must be a multiple of 4")
    return _family_order("translation-collapse-4", {"m": m}, 4 * m,
                         lambda: map(eval_word, appendix_c_words(m)), 64)


def check_level2_generators() -> CheckResult:
    """The kernel mod 2 generator family: all in the group, image trivial mod 2."""
    gens = omega_2()
    for g in gens:
        decompose(g)
    q = build_quotient(Modulus.rational(2), projective=True)
    img = subgroup_closure(q, gens)
    return _result("level2-generators", {}, img.order == 1,
                   f"{len(gens)} generators, image order {img.order}")


def check_homogeneous_product(a: int, b: int) -> CheckResult:
    """|H/H(ab)| = |H/H(a)| * |H/H(b)| for coprime a, b, each counted by
    its row orbit."""
    if gcd(a, b) != 1:
        raise ValueError("a and b must be coprime")
    qa, qb, qab = (orbit_order(build_quotient(Modulus.rational(n), False))
                   for n in (a, b, a * b))
    return _result("homogeneous-product", {"a": a, "b": b}, qab == qa * qb,
                   f"{qab} vs {qa}*{qb}")


def check_oracle_unipotent(p: int) -> CheckResult:
    _require_prime(p)
    ok = oracle.check_lemma_d1(p)
    return _result("oracle-unipotent", {"p": p}, ok,
                   f"SL(2,{p}) generated by the unipotent pair")


def check_oracle_closure(m: int, p: int) -> CheckResult:
    _require_prime(p)
    ok, order = oracle.lemma_d2(m, p)
    return _result("oracle-closure", {"m": m, "p": p}, ok,
                   f"closure order {order}")


def check_oracle_wohlfahrt(r: int, s: int) -> CheckResult:
    ok = oracle.check_wohlfahrt_instance(r, s)
    return _result("oracle-wohlfahrt", {"r": r, "s": s}, ok,
                   f"mod {r * s}: closure of T^{s} vs kernel of level {s}")


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    fn: Callable[..., CheckResult]
    grid: tuple[dict, ...]  # every entry names all the parameters


REGISTRY: dict[str, Check] = {
    "2.1": Check(check_index_formula,
                 ({"a": "2"}, {"a": "3"}, {"a": "2+L"}, {"a": "4"})),
    "2.2": Check(check_delta_grid,
                 ({"m": 3, "p": 3}, {"m": 5, "p": 5},
                  {"m": 6, "p": 3}, {"m": 4, "p": 2})),
    "2.3": Check(check_kernel_ladder,
                 ({"pi": "1"}, {"pi": "3"}, {"pi": "2+L"})),
    "2.4": Check(check_homogeneous_product, ({"a": 2, "b": 3},)),
    "2.6": Check(check_level2_generators, ({},)),
    "3.2": Check(partial(check_closure, "3.2"),
                 ({"a": 3, "b": 2}, {"a": 2, "b": 3})),
    "3.3": Check(partial(check_closure, "3.3"),
                 ({"m": 2, "n": 3}, {"m": 1, "n": 3}, {"m": 1, "n": 5})),
    "3.5": Check(partial(check_closure, "3.5"), ({"m": 1}, {"m": 3})),
    "3.6": Check(partial(check_closure, "3.6"), ({"m": 1},)),
    "3.7": Check(partial(check_closure, "3.7"), ({"m": 4},)),
    "3.8": Check(partial(check_closure, "3.8"), ({"m": 2},)),
    "A": Check(check_delta_residues,
               ({"m": 3, "p": 3}, {"m": 6, "p": 3}, {"m": 5, "p": 5})),
    "B": Check(check_translation_collapse, ({"m": 1}, {"m": 3})),
    "C": Check(check_translation_collapse_4, ({"m": 4},)),
    "D1": Check(check_oracle_unipotent,
                ({"p": 2}, {"p": 3}, {"p": 5}, {"p": 7})),
    "D2": Check(check_oracle_closure,
                ({"m": 2, "p": 2}, {"m": 2, "p": 3},
                 {"m": 3, "p": 2}, {"m": 6, "p": 2})),
    "W": Check(check_oracle_wohlfahrt,
               ({"r": 2, "s": 2}, {"r": 3, "s": 2}, {"r": 2, "s": 3})),
}


def run_check(check_id: str, **params) -> list[CheckResult]:
    if check_id not in REGISTRY:
        raise ValueError(f"unknown check id {check_id!r}")
    entry = REGISTRY[check_id]
    supplied = {k: v for k, v in params.items() if v is not None}
    if supplied:
        sample = entry.grid[0]
        if supplied.keys() != sample.keys():
            raise ValueError(f"check {check_id} takes parameters "
                             f"{list(sample)}, not {sorted(supplied)}")
        coerced = {k: type(v)(supplied[k]) for k, v in sample.items()}
        return [entry.fn(**coerced)]
    return [entry.fn(**g) for g in entry.grid]


def run_all() -> list[CheckResult]:
    return [r for check_id in REGISTRY for r in run_check(check_id)]


def _parse_modulus(text: str) -> Modulus:
    g = parse_golden(text)
    if g.b == 0:
        return Modulus.rational(g.a)
    return Modulus.ideal(g)
