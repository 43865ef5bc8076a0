"""Registry of checkable claims with default instance grids.

Each entry decides a single finite instance of one of the library's
structural claims (kernel indexes, normal closures, generator collapses,
and their classical SL(2, Z/n) analogs).  `run_check` evaluates one
instance; `run_all` sweeps every default grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import eq, ge
from typing import Callable

from .closure import DEFAULT_ELEMENT_CAP
from .golden_ring import GoldenInt, Modulus, factor, parse_golden
from . import modular_oracle as oracle
from .hecke_matrices import (
    appendix_b_set, appendix_c_set, decompose, delta_m, delta_m_words,
    delta_prime, elementary_generators, eval_word, omega_2, word,
)
from .quotients import (
    _refuse_tables, build_quotient, check_elementary_abelian,
    kernel_subgroup, normal_closure, orbit_order, sl2_enumeration_order,
    sl_index_formula, subgroup_closure,
)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    params: dict
    passed: bool
    detail: str

    def line(self) -> str:
        args = " ".join(f"{k}={v}" for k, v in self.params.items())
        status = "pass" if self.passed else "FAIL"
        return f"{self.check_id} {args}: {status} ({self.detail})"


def _result(check_id, params, passed, detail) -> CheckResult:
    return CheckResult(check_id, dict(params), bool(passed), detail)


def _require_prime(p: int) -> None:
    if p < 2 or factor(p) != {p: 1}:
        raise ValueError("p must be a prime")


# -- individual checks -------------------------------------------------------


def check_index_formula(a: str) -> CheckResult:
    mod = _parse_modulus(a)
    _refuse_tables(mod, 2 * mod.ring_size ** 2, DEFAULT_ELEMENT_CAP)
    expected = sl_index_formula(mod)
    got = sl2_enumeration_order(mod)
    return _result("index-formula", {"a": a}, expected == got,
                   f"formula {expected}, enumeration {got}")


def check_delta_grid(m: int, p: int) -> CheckResult:
    """Six translation-conjugate generators mod mp: elementary abelian p^6,
    for a prime p | m (and 4 | m when p = 2)."""
    _require_prime(p)
    if m % p or (p == 2 and m % 4):
        raise ValueError("p must divide m, and 4 must divide m when p = 2")
    amb = build_quotient(Modulus.rational(m * p), projective=True)
    if delta_prime(m) is not None:
        gens = delta_m(m)
    else:
        gens = elementary_generators(m)
    h = subgroup_closure(amb, gens)
    ok = h.order == p**6 and check_elementary_abelian(h, p)
    return _result("delta-grid", {"m": m, "p": p}, ok,
                   f"order {h.order}, expected {p**6}")


def check_delta_residues(m: int, p: int) -> CheckResult:
    """The group-element realization hits the prescribed residues mod mp,
    for p the smallest odd prime factor of m, as `delta_m_words` takes it."""
    if p != delta_prime(m):
        raise ValueError("p must be the smallest odd prime factor of m")
    amb = build_quotient(Modulus.rational(m * p), projective=True)
    words = delta_m_words(m)
    got = {amb.key_of(eval_word(w)) for w in words}
    want = {amb.key_of(g) for g in elementary_generators(m)}
    return _result("delta-residues", {"m": m, "p": p}, got == want,
                   f"{len(got & want)}/6 residues match")


def check_kernel_ladder(pi: str) -> CheckResult:
    """|G(2pi)/G(4pi)| for odd pi: 16 at pi=1, else 32, counted by
    enumerating the kernel."""
    g = _parse_modulus(pi).generator
    if g.divisible_by(2):
        raise ValueError("pi must be odd")
    two = GoldenInt(2, 0)
    q = build_quotient(Modulus.ideal(g * two * two), projective=True)
    k = kernel_subgroup(q, Modulus.ideal(g * two))
    size = len(frozenset(k.members))
    expected = 16 if abs(g.norm()) == 1 else 32
    detail = f"order {size}, expected {expected}"
    if abs(g.norm()) == 1:
        return _result("kernel-ladder", {"pi": pi},
                       size == 16 and check_elementary_abelian(k, 2), detail)
    return _result("kernel-ladder", {"pi": pi}, size == expected, detail)


def _closure_vs_kernel(check_id: str, params: dict, modulus: int, power: int,
                       level: int, relation) -> CheckResult:
    """Compare N(G(modulus), T^power) with G(level) inside Q(modulus):
    `relation` takes the two member sets, closure first."""
    q = build_quotient(Modulus.rational(modulus), projective=True)
    h = normal_closure(q, [eval_word(word([("T", power)]))])
    k = kernel_subgroup(q, Modulus.rational(level))
    return _result(check_id, params, relation(h.members, k.members),
                   f"closure {h.order}, kernel {k.order}")


def check_closure_coprime(a: int, b: int) -> CheckResult:
    """N(G(ab), T^b) = G(b) for coprime a, b."""
    if gcd(a, b) != 1:
        raise ValueError("a and b must be coprime")
    return _closure_vs_kernel("closure-coprime", {"a": a, "b": b}, a * b, b, b, eq)


def check_closure_odd(m: int, n: int) -> CheckResult:
    """N(G(mn), T^m) = G(m) for odd n."""
    if n % 2 == 0:
        raise ValueError("n must be odd")
    return _closure_vs_kernel("closure-odd", {"m": m, "n": n}, m * n, m, m, eq)


def check_closure_4m(m: int) -> CheckResult:
    """N(G(4m), T^2m) = G(2m) for odd m."""
    if m % 2 == 0:
        raise ValueError("m must be odd")
    return _closure_vs_kernel("closure-4m", {"m": m}, 4 * m, 2 * m, 2 * m, eq)


def check_closure_8m(m: int) -> CheckResult:
    """N(G(8m), T^2m) = G(2m) for odd m."""
    if m % 2 == 0:
        raise ValueError("m must be odd")
    return _closure_vs_kernel("closure-8m", {"m": m}, 8 * m, 2 * m, 2 * m, eq)


def check_closure_contains(m: int) -> CheckResult:
    """G(2m) <= N(G(4m), T^m) for m a multiple of 4."""
    if m % 4:
        raise ValueError("m must be a multiple of 4")
    return _closure_vs_kernel("closure-contains", {"m": m}, 4 * m, m, 2 * m, ge)


def check_closure_strict(m: int) -> CheckResult:
    """[N(G(4m), T^2m) : G(4m)] = 2^5 (< 2^6) for even m."""
    if m % 2:
        raise ValueError("m must be even")
    return _closure_vs_kernel(
        "closure-strict", {"m": m}, 4 * m, 2 * m, 2 * m,
        lambda h, k: len(h) == 32 and len(k) == 64 and h < k)


def check_translation_collapse(m: int) -> CheckResult:
    """Five-word generator family: order 2^4 mod 4 (m=1), 2^5 mod 4m (odd m>1)."""
    if m % 2 == 0:
        raise ValueError("m must be odd")
    amb = build_quotient(Modulus.rational(4 * m), projective=True)
    h = subgroup_closure(amb, appendix_b_set(m))
    expected = 16 if m == 1 else 32
    return _result("translation-collapse", {"m": m}, h.order == expected,
                   f"order {h.order}, expected {expected}")


def check_translation_collapse_4(m: int) -> CheckResult:
    """Six-word generator family for 4 | m: order 2^6 mod 4m."""
    if m % 4:
        raise ValueError("m must be a multiple of 4")
    amb = build_quotient(Modulus.rational(4 * m), projective=True)
    h = subgroup_closure(amb, appendix_c_set(m))
    return _result("translation-collapse-4", {"m": m}, h.order == 64,
                   f"order {h.order}, expected 64")


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
    order = oracle.d2_closure_order(m, p)
    ok = order == oracle.reduction_kernel_order(m * p, m)
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
    params: tuple[str, ...]
    grid: tuple[dict, ...]


REGISTRY: dict[str, Check] = {
    "2.1": Check(check_index_formula, ("a",),
                 ({"a": "2"}, {"a": "3"}, {"a": "2+L"}, {"a": "4"})),
    "2.2": Check(check_delta_grid, ("m", "p"),
                 ({"m": 3, "p": 3}, {"m": 5, "p": 5},
                  {"m": 6, "p": 3}, {"m": 4, "p": 2})),
    "2.3": Check(check_kernel_ladder, ("pi",),
                 ({"pi": "1"}, {"pi": "3"}, {"pi": "2+L"})),
    "2.4": Check(check_homogeneous_product, ("a", "b"),
                 ({"a": 2, "b": 3},)),
    "2.6": Check(check_level2_generators, (), ({},)),
    "3.2": Check(check_closure_coprime, ("a", "b"),
                 ({"a": 3, "b": 2}, {"a": 2, "b": 3})),
    "3.3": Check(check_closure_odd, ("m", "n"),
                 ({"m": 2, "n": 3}, {"m": 1, "n": 3}, {"m": 1, "n": 5})),
    "3.5": Check(check_closure_4m, ("m",), ({"m": 1}, {"m": 3})),
    "3.6": Check(check_closure_8m, ("m",), ({"m": 1},)),
    "3.7": Check(check_closure_contains, ("m",), ({"m": 4},)),
    "3.8": Check(check_closure_strict, ("m",), ({"m": 2},)),
    "A": Check(check_delta_residues, ("m", "p"),
               ({"m": 3, "p": 3}, {"m": 6, "p": 3}, {"m": 5, "p": 5})),
    "B": Check(check_translation_collapse, ("m",), ({"m": 1}, {"m": 3})),
    "C": Check(check_translation_collapse_4, ("m",), ({"m": 4},)),
    "D1": Check(check_oracle_unipotent, ("p",),
                ({"p": 2}, {"p": 3}, {"p": 5}, {"p": 7})),
    "D2": Check(check_oracle_closure, ("m", "p"),
                ({"m": 2, "p": 2}, {"m": 2, "p": 3},
                 {"m": 3, "p": 2}, {"m": 6, "p": 2})),
    "W": Check(check_oracle_wohlfahrt, ("r", "s"),
               ({"r": 2, "s": 2}, {"r": 3, "s": 2}, {"r": 2, "s": 3})),
}


def run_check(check_id: str, **params) -> list[CheckResult]:
    if check_id not in REGISTRY:
        raise ValueError(f"unknown check id {check_id!r}")
    entry = REGISTRY[check_id]
    supplied = {k: v for k, v in params.items() if v is not None}
    if supplied:
        missing = [k for k in entry.params if k not in supplied]
        if missing:
            raise ValueError(f"check {check_id} needs parameters {missing}")
        sample = entry.grid[0]
        coerced = {k: type(sample[k])(supplied[k]) for k in entry.params}
        return [entry.fn(**coerced)]
    return [entry.fn(**g) for g in entry.grid]


def run_all() -> list[CheckResult]:
    out = []
    for check_id in REGISTRY:
        out.extend(run_check(check_id))
    return out


def _parse_modulus(text: str) -> Modulus:
    g = parse_golden(text)
    if g.b == 0:
        return Modulus.rational(g.a)
    return Modulus.ideal(g)
