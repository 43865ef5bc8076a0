"""End-to-end acceptance gate: one test (and one status line) per criterion."""

import random
from math import gcd

import pytest

from hecke5.congruence import (
    enumerate_index, geometric_level_from_table, is_congruence,
    is_normal_table, schreier_generators,
)
from hecke5.golden_ring import GoldenInt, Modulus, parse_golden, ring_tables
from hecke5.hecke_matrices import decompose, eval_word, parse_word, word
from hecke5.modular_oracle import d2_closure_order
from hecke5.quotients import (
    build_quotient, check_elementary_abelian, kernel_subgroup, normal_closure,
)
from hecke5.farey import parse_hfs, side_pairing
from hecke5.verify import run_check

from conftest import ACCEPTANCE_LINES
from test_farey import EXAMPLES
from test_matrices import same_up_to_sign


def note(n, ok, detail=""):
    status = "pass" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    ACCEPTANCE_LINES.append(f"criterion {n}: {status}{suffix}")
    print(ACCEPTANCE_LINES[-1])
    assert ok, f"criterion {n} failed{suffix}"


def tw(text):
    return eval_word(parse_word(text))


def hfs_words(name):
    return [decompose(g) for g in side_pairing(parse_hfs(EXAMPLES[name][0]))]


def test_criterion_1_quotient_orders():
    got = {
        "2": build_quotient(Modulus.rational(2)).order,
        "3": build_quotient(Modulus.rational(3)).order,
        "2+L": build_quotient(Modulus.ideal(parse_golden("2+L"))).order,
        "8": build_quotient(Modulus.rational(8)).order,
        "6 hom": build_quotient(Modulus.rational(6), projective=False).order,
    }
    want = {"2": 10, "3": 60, "2+L": 60, "8": 10240, "6 hom": 1200}
    hist = build_quotient(Modulus.rational(2)).order_histogram()
    ok = got == want and set(hist) <= {1, 2, 5}
    note(1, ok, f"orders {got}, mod-2 element orders {sorted(hist)}")


def test_criterion_2_kernel_ladder():
    results = [run_check("2.3", pi=pi)[0] for pi in ("1", "3", "2+L")]
    note(2, all(r.passed for r in results),
         "; ".join(r.detail for r in results))


def test_criterion_3_delta_grid():
    results = run_check("2.2")
    note(3, all(r.passed for r in results),
         "; ".join(f"({r.params['m']},{r.params['p']}) {r.detail}"
                   for r in results))


@pytest.mark.parametrize("m,p", [(m, p) for p in (2, 3, 5)
                                 for m in range(1, 9) if m * p <= 30])
def test_delta_grid_outside_its_domain(m, p):
    """Lemma 2.2 needs p | m, and 4 | m when p = 2.  Of these 22 cases it
    holds in the 5 inside that domain and fails in the other 17, which
    are input errors."""
    if (m, p) in {(4, 2), (8, 2), (3, 3), (6, 3), (5, 5)}:
        assert run_check("2.2", m=m, p=p)[0].passed
    else:
        with pytest.raises(ValueError, match="p must divide m"):
            run_check("2.2", m=m, p=p)


@pytest.mark.parametrize("m,p", [(3, 0), (3, 1), (1, 1), (4, 4), (9, 9)])
def test_delta_grid_needs_a_prime(m, p):
    """Lemma 2.2's p is a prime: p = 0 divided by zero, and p = 1 or 4
    answered."""
    with pytest.raises(ValueError, match="p must be a prime"):
        run_check("2.2", m=m, p=p)


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9])
def test_unipotent_pair_needs_a_prime(p):
    """Lemma D1 is a claim about SL(2, p) for a prime p: p = 1, 4, 6 and
    9 were answered "pass"."""
    with pytest.raises(ValueError, match="p must be a prime"):
        run_check("D1", p=p)


@pytest.mark.parametrize("m,p", [(1, 0), (2, 1), (2, 4), (1, 40), (3, 9)])
def test_closure_oracle_needs_a_prime(m, p):
    """Lemma D2, like D1, is a claim for a prime p: p = 1, 4 and 40 were
    answered "pass"."""
    with pytest.raises(ValueError, match="p must be a prime"):
        run_check("D2", m=m, p=p)


@pytest.mark.parametrize("m,p", [(m, p) for p in (1, 2, 3, 5)
                                 for m in range(1, 10) if m * p <= 30])
def test_delta_residues_outside_its_domain(m, p):
    """Lemma A's words take r from the smallest odd prime factor of m, so p
    must be that prime.  Of these 33 cases it holds in the 4 inside that
    domain, and the other 29 are input errors."""
    if (m, p) in {(3, 3), (6, 3), (9, 3), (5, 5)}:
        assert run_check("A", m=m, p=p)[0].passed
    else:
        with pytest.raises(ValueError, match="smallest odd prime factor"):
            run_check("A", m=m, p=p)


@pytest.mark.parametrize("lemma", ["2.4", "3.2"])
@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 5)
                                 for b in range(1, 5)])
def test_coprime_lemmas_outside_their_domain(lemma, a, b):
    """Lemmas 2.4 and 3.2 need coprime a and b: they hold for each coprime
    pair here, and the other pairs are input errors."""
    if gcd(a, b) == 1:
        assert run_check(lemma, a=a, b=b)[0].passed
    else:
        with pytest.raises(ValueError, match="a and b must be coprime"):
            run_check(lemma, a=a, b=b)


@pytest.mark.parametrize("pi,odd", [
    ("1", True), ("3", True), ("5", True), ("2+L", True), ("3+L", True),
    ("2", False), ("4", False), ("6", False), ("2*L", False),
    ("2+2*L", False)])
def test_kernel_ladder_outside_its_domain(pi, odd):
    """Lemma 2.3 needs pi odd, not divisible by 2: it holds for the odd pi
    here, and the others are input errors."""
    if odd:
        assert run_check("2.3", pi=pi)[0].passed
    else:
        with pytest.raises(ValueError, match="pi must be odd"):
            run_check("2.3", pi=pi)


def test_criterion_4_normal_closures():
    cases = []  # (modulus, seed word, expected closure order)
    for n, seed, expected in [(4, "T^2", 16), (8, "T^2", 1024), (8, "T^4", 32),
                              (6, "T^3", 10), (6, "T^2", 60)]:
        q = build_quotient(Modulus.rational(n))
        h = normal_closure(q, [tw(seed)])
        cases.append((f"mod {n} {seed}", h.order == expected, h.order))
    q8 = build_quotient(Modulus.rational(8))
    h = normal_closure(q8, [tw("T^4")])
    k = kernel_subgroup(q8, Modulus.rational(4))
    cases.append(("mod 8 T^4 strict", h.members < k.members and k.order == 64,
                  k.order))
    q16 = build_quotient(Modulus.rational(16))
    h16 = normal_closure(q16, [tw("T^4")])
    k16 = kernel_subgroup(q16, Modulus.rational(8))
    cases.append(("mod 16 T^4 contains level-8 kernel",
                  k16.members <= h16.members, h16.order))
    note(4, all(ok for _, ok, _ in cases),
         "; ".join(f"{name}: {order}" for name, ok, order in cases))


def test_criterion_5_translation_families():
    results = run_check("B") + run_check("C")
    note(5, all(r.passed for r in results),
         "; ".join(r.detail for r in results))


def test_criterion_6_index_formula():
    results = run_check("2.1")
    note(6, all(r.passed for r in results),
         "; ".join(f"{r.params['a']}: {r.detail}" for r in results))


def test_criterion_7_worked_examples():
    want = {
        "index2": ("congruence", "(2)"),
        "i5-level2": ("congruence", "(2)"),
        "i5-level3": ("congruence", "(3)"),
        "i5-level5": ("congruence", "(2+L)"),
        "i5-level4": ("not-congruence", None),
    }
    details, ok = [], True
    for name, (verdict, level) in want.items():
        report = is_congruence(hfs_words(name))
        good = (report.verdict, report.algebraic_level) == (verdict, level)
        good = good and report.index == EXAMPLES[name][2]
        good = good and report.geometric_level == EXAMPLES[name][1]
        ok = ok and good
        details.append(f"{name}: {report.verdict}"
                       + (f" {report.algebraic_level}"
                          if report.algebraic_level else ""))
    free_report = is_congruence(hfs_words("i5-free"))  # runs to a verdict
    details.append(f"i5-free: {free_report.verdict}")
    note(7, ok, "; ".join(details))


@pytest.mark.xfail(strict=True, reason=(
    "the recorded expectation for the index-5 geometric-level-6 subgroup "
    "(congruence of algebraic level (6)) is contradicted by computation: "
    "its image mod (6) is the full quotient, and the same holds at every "
    "candidate modulus"))
def test_criterion_7_level6_expectation():
    report = is_congruence(hfs_words("i5-level6"))
    ok = (report.verdict, report.algebraic_level) == ("congruence", "(6)")
    note("7 (level-6 symbol)", ok,
         f"computed {report.verdict}, image {report.image_order} "
         f"of {report.quotient_order} mod {report.test_modulus}")


def test_criterion_8_census():
    counts = {n: len(enumerate_index(n)) for n in range(1, 6)}
    ok = counts == {1: 1, 2: 1, 3: 0, 4: 0, 5: 26}
    tables = enumerate_index(5)
    normal = [t for t in tables if is_normal_table(t)]
    ok = ok and len(normal) == 1
    ok = ok and geometric_level_from_table(normal[0]) == 5
    levels = sorted(geometric_level_from_table(t) for t in tables)
    dist = {lv: levels.count(lv) for lv in set(levels)}
    ok = ok and dist == {2: 5, 3: 5, 4: 5, 5: 6, 6: 5}
    note(8, ok, f"counts {counts}, level distribution {dist}, "
                f"{len(normal)} normal")


def test_criterion_9_classical_oracle():
    results = run_check("D1") + run_check("D2") + run_check("W")
    ok = all(r.passed for r in results) and d2_closure_order(2, 2) == 8
    note(9, ok, f"{sum(r.passed for r in results)}/{len(results)} oracle "
                f"instances, kernel order {d2_closure_order(2, 2)} at (2,2)")


def test_criterion_10_randomized_invariants():
    rng = random.Random(20260826)

    def rand_golden():
        return GoldenInt(rng.randint(-30, 30), rng.randint(-30, 30))

    ok = True
    ring = ring_tables(Modulus.rational(6))
    for _ in range(200):
        x, y, z = rand_golden(), rand_golden(), rand_golden()
        ok = ok and (x + y) * z == x * z + y * z
        ok = ok and (x * y).norm() == x.norm() * y.norm()
        ok = ok and ring.at((x * y).a, (x * y).b) == ring.red[ring.mul[
            ring.at(x.a, x.b)][ring.at(y.a, y.b)]]

    roundtrips = 0
    for _ in range(200):
        letters = []
        for _ in range(rng.randint(1, 12)):
            if rng.random() < 0.4:
                letters.append(("S", 1))
            else:
                letters.append(("T", rng.randint(-4, 4) or 1))
        w = word(letters)
        roundtrips += same_up_to_sign(eval_word(decompose(eval_word(w))),
                                      eval_word(w))
    ok = ok and roundtrips == 200

    q = build_quotient(Modulus.rational(4))
    for seed in ("T^2", "S T^2 S^-1", "T"):
        h = normal_closure(q, [tw(seed)])
        ok = ok and q.order % h.order == 0

    k = kernel_subgroup(build_quotient(Modulus.rational(4)),
                        Modulus.rational(2))
    ok = ok and check_elementary_abelian(k, 2)

    note(10, ok, f"{roundtrips}/200 word roundtrips, ring and quotient "
                 f"invariants hold")
