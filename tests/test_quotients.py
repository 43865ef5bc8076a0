import hashlib
import operator
import os
import random
import re
import stat
import struct
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from hecke5.closure import DEFAULT_ELEMENT_CAP, generated_closure
from hecke5.golden_ring import GoldenInt, Modulus, RAMIFIED_PRIME, ring_tables
from hecke5.hecke_matrices import (
    S_MAT, T_MAT, delta_m_words, elementary_generators, eval_word,
    parse_word, word,
)
from hecke5 import closure, congruence, quotients
from hecke5.congruence import _ideal_divisors
from hecke5.quotients import (
    QuotientGroup, UndecidedError, _cache_name, _kernel, _load_quotient,
    _row_orbit, build_quotient, check_elementary_abelian,
    kernel_subgroup, normal_closure, orbit_order, quotient_order,
    sl2_enumeration_order, sl_index_formula, subgroup_closure,
)


def q(n, projective=True):
    mod = Modulus.rational(n) if isinstance(n, int) else Modulus.ideal(n)
    return build_quotient(mod, projective=projective)


def right_actions(group):
    """Right multiplication by S and by T, each read off `group.step`."""
    return (lambda x: group.step(x)[0]), (lambda x: group.step(x)[1])


class TestOrders:
    def test_mod_2(self):
        group = q(2)
        assert group.order == 10
        hist = group.order_histogram()
        assert set(hist) <= {1, 2, 5}
        assert hist == {1: 1, 2: 5, 5: 4}

    @pytest.mark.parametrize("mod,expected", [
        (2, 10), (3, 60), (4, 160), (6, 600), (8, 10240),
    ])
    def test_rational(self, mod, expected):
        assert q(mod).order == expected

    def test_ideal_above_five(self):
        assert q(RAMIFIED_PRIME).order == 60

    def test_homogeneous_mod_6(self):
        assert q(6, projective=False).order == 1200

    def test_trivial(self):
        assert q(1).order == 1

    def test_ring_cap(self):
        # every use but the order builds 7 * ring_size entries: refused here
        with pytest.raises(UndecidedError, match="mod 535 need 2003575 "
                                                 "entries, above the element "
                                                 "cap of 2000000"):
            build_quotient(Modulus.rational(535))
        with pytest.raises(UndecidedError):
            build_quotient(Modulus.rational(10**9))
        mod = Modulus.rational(534)
        assert build_quotient(mod).order == quotient_order(mod)
        # mul and the row orbit, 2 * 1089**2 entries, are refused where read
        group = build_quotient(Modulus.rational(33))
        reads = [lambda: group.mult(group.identity, group.gen_T),
                 lambda: orbit_order(group),
                 lambda: set(kernel_subgroup(group, group.modulus).members)]
        for read in reads:
            with pytest.raises(UndecidedError, match="mod 33 need 2371842 "
                                                     "entries"):
                read()
        # mod 2: 7 * 4 entries, then 2 * 4**2
        with pytest.raises(UndecidedError, match="mod 2 need 28 entries, "
                                                 "above the element cap of 27"):
            build_quotient(Modulus.rational(2), element_cap=27)
        small = build_quotient(Modulus.rational(2), element_cap=31)
        assert small.order == len(small.elements) == 10
        for read in (lambda: frozenset(small.elements),
                     lambda: small.identity in small.elements):
            with pytest.raises(UndecidedError, match="mod 2 need 32 entries, "
                                                     "above the element cap "
                                                     "of 31"):
                read()
        assert len(frozenset(build_quotient(Modulus.rational(2),
                                            element_cap=32).elements)) == 10
        with pytest.raises(ValueError, match="at least 1, not 0"):
            build_quotient(Modulus.rational(2), element_cap=0)

    def test_constructor_refuses_tables_above_the_cap(self):
        """No quotient exists whose 7 * ring_size tables pass its cap, and
        the refusal builds no table."""
        before = ring_tables.cache_info()
        with pytest.raises(UndecidedError) as exc:
            QuotientGroup(Modulus.rational(535), True, DEFAULT_ELEMENT_CAP)
        assert str(exc.value) == ("residue tables mod 535 need 2003575 "
                                  "entries, above the element cap of 2000000")
        assert ring_tables.cache_info() == before
        with pytest.raises(ValueError) as exc:
            QuotientGroup(Modulus.rational(2), True, 0)
        assert str(exc.value) == "element cap must be at least 1, not 0"

    @pytest.mark.parametrize("p,expected", [
        (19, (19 * (19**2 - 1)) ** 2 // 2),  # split: |SL(2, 19)|^2 / 2
        (23, 23**2 * (23**4 - 1) // 2),      # inert: q (q^2 - 1) / 2, q = 23^2
    ])
    def test_order_above_cap_is_psl2(self, p, expected):
        """Above the element cap the order is still exact: |PSL(2, O/p)|
        (23392800 and 74017680), counted independently of the row orbit."""
        assert build_quotient(Modulus.rational(p)).order == expected

    def test_one_undecided_error(self):
        assert closure.UndecidedError is UndecidedError
        assert congruence.UndecidedError is UndecidedError

    def test_subgroup_closure_is_capped(self, low_element_cap):
        # the elementary generators at m = 1 generate 58800 elements mod 7
        # (and far more than 2M mod 31, where uncapped this closure ran out
        # of memory)
        amb = build_quotient(Modulus.rational(7))
        with pytest.raises(UndecidedError,
                           match=f"element cap of {low_element_cap}"):
            subgroup_closure(amb, elementary_generators(1))


# Rational 1-12 but 11 (order 871200; 13 is above the element cap) and the
# ideals (a+b*L) below, not (7+2*L) (order 205320 homogeneous): every
# quotient of order up to 150000, so the BFS takes a few tenths of a second.
ORACLE_MODULI = [Modulus.rational(n) for n in (*range(1, 11), 12)] + [
    Modulus.ideal(GoldenInt(a, b)) for a, b in
    [(2, 1), (3, 1), (1, -3), (4, 2), (3, 2), (5, 2), (6, 3), (4, 1), (0, 3)]]


@pytest.mark.parametrize("projective", [True, False])
@pytest.mark.parametrize("mod", ORACLE_MODULI, ids=str)
def test_build_matches_bfs(mod, projective):
    """Row orbit x stabilizer against the BFS orbit of the identity."""
    group = build_quotient(mod, projective)
    reps, shifts = _row_orbit(group)
    bfs = generated_closure(group.identity, right_actions(group))
    assert group.elements == bfs
    assert {group.gen_S, group.gen_T} <= group.elements
    assert group.order == len(reps) * len(shifts) == len(group.elements)


@pytest.mark.parametrize("projective", [True, False])
@pytest.mark.parametrize("mod", [Modulus.rational(8), Modulus.ideal(RAMIFIED_PRIME),
                                 Modulus.ideal(GoldenInt(5, 2))], ids=str)
def test_element_cap_boundary(mod, projective):
    """Enumerating the elements is undecided exactly when the order passes
    the cap, as the BFS was; the order, and so their number, is known
    either way."""
    order = build_quotient(mod, projective).order
    at = build_quotient(mod, projective, element_cap=order)
    assert len(frozenset(at.elements)) == order
    below = build_quotient(mod, projective, element_cap=order - 1)
    assert below.order == len(below.elements) == order
    refusal = (rf"^the kernel of Q\({re.escape(str(mod))}\) mod 1 has "
               rf"{order} elements, above the element cap of {order - 1}$")
    for read in (lambda: frozenset(below.elements),
                 lambda: below.identity in below.elements):
        with pytest.raises(UndecidedError, match=refusal):
            read()


def histogram_by_element(group):
    """The histogram oracle: each element's order on its own, by powers
    through `group.mult`, which costs the sum of the orders in products."""
    def order(x):
        n, y = 1, x
        while y != group.identity:
            y, n = group.mult(y, x), n + 1
        return n
    return Counter(map(order, group.elements))


@pytest.mark.parametrize("projective", [True, False])
@pytest.mark.parametrize("mod", [
    *(Modulus.rational(n) for n in (1, 2, 3, 4, 5, 6, 8, 9, 10, 12)),
    *(Modulus.ideal(GoldenInt(a, b))
      for a, b in [(2, 1), (4, 2), (3, 1), (4, 1)]),
], ids=str)
def test_histogram_matches_the_oracle(mod, projective):
    """One power walk per (trace, (b, c), a mod (b, c)) key against each
    element's own order; the counts add up to |Q|, one element has order 1,
    and every order divides |Q|.  (4+L) is a split prime of norm 19."""
    group = build_quotient(mod, projective)
    hist = group.order_histogram()
    assert hist == histogram_by_element(group)
    assert sum(hist.values()) == group.order
    assert hist[1] == 1
    assert all(group.order % n == 0 for n in hist)


class TestLagrange:
    @pytest.mark.parametrize("mod", [2, 3, 4, 6, 8])
    def test_subgroups_divide(self, mod):
        group = q(mod)
        rng = random.Random(mod)
        elems = sorted(group.elements)
        for _ in range(5):
            seeds = rng.sample(elems, k=min(2, len(elems)))
            h = subgroup_closure(group, seeds)
            assert group.order % h.order == 0

    @pytest.mark.parametrize("mod", [4, 6, 8])
    def test_kernels_divide(self, mod):
        group = q(mod)
        for d in range(1, mod + 1):
            if mod % d:
                continue
            k = kernel_subgroup(group, Modulus.rational(d))
            assert group.order % k.order == 0


class TestKernelLadder:
    def test_two_to_four(self):
        k = kernel_subgroup(q(4), Modulus.rational(2))
        assert k.order == 16
        assert check_elementary_abelian(k, 2)

    def test_six_to_twelve(self):
        k = kernel_subgroup(q(12), Modulus.rational(6))
        assert k.order == 32

    def test_ideal_ladder(self):
        pi = RAMIFIED_PRIME
        four_pi = Modulus.ideal(pi * GoldenInt(4, 0))
        group = build_quotient(four_pi)
        k = kernel_subgroup(group, Modulus.ideal(pi * GoldenInt(2, 0)))
        assert k.order == 32

    def test_kernel_requires_divisor(self):
        with pytest.raises(ValueError):
            kernel_subgroup(q(6), Modulus.rational(4))


def test_a_cyclic_group_of_order_4_is_not_elementary_abelian():
    """<T> in Q(4) is a 2-group, but T^2 is not the identity."""
    group = q(4)
    h = subgroup_closure(group, [group.gen_T])
    assert h.order == 4
    assert not check_elementary_abelian(h, 2)


def test_a_dihedral_group_of_order_8_is_not_elementary_abelian():
    """<T^2, S> in Q(4): both generators have order 2, but they do not
    commute."""
    group = q(4)
    t2, s = group.mult(group.gen_T, group.gen_T), group.gen_S
    h = subgroup_closure(group, [t2, s])
    assert h.order == 8
    assert group.mult(t2, t2) == group.mult(s, s) == group.identity
    assert group.mult(t2, s) != group.mult(s, t2)
    assert not check_elementary_abelian(h, 2)


def kernel_by_filter(group, m):
    """The kernel by its definition: the elements of the group that are I,
    or +-I when projective, mod m."""
    big, small = ring_tables(group.modulus), ring_tables(m)
    down = [small.at(*big.pair(i)) for i in range(group.modulus.ring_size)]
    one, zero = small.at(1, 0), small.at(0, 0)
    signs = {one, small.neg[one]} if group.projective else {one}
    return frozenset(x for x in group.elements
                     if down[x[1]] == zero and down[x[2]] == zero
                     and down[x[0]] == down[x[3]] and down[x[0]] in signs)


@pytest.mark.parametrize("projective", [True, False])
@pytest.mark.parametrize("mod,divisors", [
    pytest.param(Modulus.rational(n), [Modulus.rational(d) for d in
                                       range(1, n + 1) if n % d == 0], id=str(n))
    for n in (4, 6, 8, 10, 12, 16)] + [
    pytest.param(Modulus.ideal(GoldenInt(4, 2)),
                 [Modulus.rational(2), Modulus.ideal(GoldenInt(2, 1))],
                 id="(4+2L) over (2) and (2+L)")])
def test_kernels_from_the_orbit_match_the_filter(mod, divisors, projective):
    """`kernel_subgroup` reads the kernel off the row orbit; the oracle
    filters the whole element set."""
    group = build_quotient(mod, projective)
    for d in divisors:
        k = kernel_subgroup(group, d)
        want = kernel_by_filter(group, d)
        assert k.members == want, d
        # `==` takes the length from the orders: the enumeration itself
        # must yield every member, once
        enumerated = frozenset(k.members)
        assert enumerated == want, d
        assert len(enumerated) == len(k.members), d
        assert k.order * build_quotient(d, projective).order == group.order


@pytest.mark.parametrize("n,d", [(16, 8), (9, 3), (12, 6)])
def test_a_kernel_builds_no_product_table_of_its_divisor(n, d):
    """A kernel member's u is -c/a with a = +-1 mod d: no product mod d is
    needed, so the ring_size**2 `mul` of the divisor is never built."""
    ring_tables.cache_clear()
    m = Modulus.rational(d)
    k = kernel_subgroup(build_quotient(Modulus.rational(n)), m)
    assert len(frozenset(k.members)) == k.order
    assert "mul" not in vars(ring_tables(m))


def test_kernel_above_the_cap_is_undecided_before_it_is_built():
    """|Q(19)| is about 23M: the kernel mod 19 is trivial, and the kernel
    mod 1, all of Q(19), is known by its order and refused, from the
    orders alone, when it is iterated or searched."""
    group = q(19)
    assert kernel_subgroup(group, Modulus.rational(19)).members == {
        group.identity}
    whole = kernel_subgroup(group, Modulus.rational(1)).members
    assert len(whole) == group.order
    assert whole != {group.identity}
    for use in (iter, lambda k: group.identity in k):
        with pytest.raises(UndecidedError, match="element cap of 2000000"):
            use(whole)
    assert "elements" not in vars(group)


def test_kernel_of_another_size_is_an_error():
    """An enumeration that disagrees with the size it was given, the
    formula's, is refused when its walk ends: every kernel enumerated to
    the end certifies the formula."""
    walk = _kernel(q(4), Modulus.rational(2), 17)
    with pytest.raises(ArithmeticError, match="Q\\(4\\) mod 2 has 16 members, "
                                              "not 17"):
        list(walk)


@pytest.mark.parametrize("seed,levels", [("T^4", []), ("T^2", [2])])
def test_kernels_of_another_order_are_not_enumerated(
        monkeypatch, seed, levels):
    """What `hecke5 closure --mod 16` does: a kernel is enumerated only
    when its order is the closure's."""
    runs = []

    def spy(q, m, size):
        runs.append(m.d1)
        return kernel(q, m, size)

    kernel = quotients._kernel
    monkeypatch.setattr(quotients, "_kernel", spy)
    group = q(16)
    h = normal_closure(group, [eval_word(parse_word(seed))])
    divisors = [1, 2, 4, 8, 16]
    matches = [d for d in divisors
               if kernel_subgroup(group, Modulus.rational(d)).members
               == h.members]
    assert matches == levels
    assert runs == [d for d in divisors
                    if group.order // q(d).order == h.order]
    assert "elements" not in vars(group)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.booleans(), st.data())
def test_kernel_members_compare_as_a_frozenset(n, projective, data):
    """A kernel of Q(n) against another kernel of Q(n) as a frozenset,
    perhaps with one member taken out or T put in; kernels of at most
    20,000 elements, so that each example takes a fraction of a second."""
    group = q(n, projective)
    levels = st.sampled_from([Modulus.rational(k) for k in range(1, n + 1)
                              if n % k == 0 and group.order // q(k, projective)
                              .order <= 20_000])
    d, e = data.draw(levels), data.draw(levels)
    other = frozenset(kernel_subgroup(group, e).members)
    change = data.draw(st.sampled_from(["none", "drop", "add"]))
    if change == "drop":
        other -= {min(other)}
    elif change == "add" and e.d1 > 1:  # T's corner L is a unit: not 0 mod e
        other |= {group.gen_T}
    as_set = frozenset(kernel_subgroup(group, d).members)
    for op in (operator.eq, operator.lt, operator.le, operator.ge,
               operator.and_, operator.sub):
        # a new handle for each operation: nothing enumerated beforehand
        assert op(kernel_subgroup(group, d).members, other) == op(as_set, other)
        assert op(other, kernel_subgroup(group, d).members) == op(other, as_set)


def test_kernels_combine_as_frozensets():
    """&, | and - of two kernels of Q(8), the one mod 4 inside the one mod
    2: `Set` builds each result through `_from_iterable`."""
    group = q(8)
    k4 = kernel_subgroup(group, Modulus.rational(4)).members
    k2 = kernel_subgroup(group, Modulus.rational(2)).members
    assert k4 & k2 == frozenset(k4)
    assert k4 | k2 == frozenset(k2)
    assert len(k2 - k4) == len(k2) - len(k4)
    assert {type(k4 & k2), type(k4 | k2), type(k2 - k4)} == {frozenset}


class TestNormalClosures:
    def test_t2_mod_4(self):
        group = q(4)
        h = normal_closure(group, [eval_word(word([("T", 2)]))])
        assert h.order == 16
        assert h.members == kernel_subgroup(group, Modulus.rational(2)).members

    def test_t2_mod_8(self):
        group = q(8)
        h = normal_closure(group, [eval_word(word([("T", 2)]))])
        assert h.order == 1024

    def test_t4_mod_8_strict(self):
        group = q(8)
        h = normal_closure(group, [eval_word(word([("T", 4)]))])
        k = kernel_subgroup(group, Modulus.rational(4))
        assert h.order == 32 and k.order == 64
        assert h.members < k.members

    def test_t3_mod_6(self):
        group = q(6)
        h = normal_closure(group, [eval_word(word([("T", 3)]))])
        assert h.order == 10
        assert h.members == kernel_subgroup(group, Modulus.rational(3)).members

    def test_t2_mod_6(self):
        group = q(6)
        h = normal_closure(group, [eval_word(word([("T", 2)]))])
        assert h.order == 60


def test_t4_mod_16_contains_level8_kernel():
    group = q(16)
    h = normal_closure(group, [eval_word(word([("T", 4)]))])
    k = kernel_subgroup(group, Modulus.rational(8))
    assert k.members <= h.members


class TestIndexFormula:
    @pytest.mark.parametrize("mod,expected", [
        (Modulus.rational(2), 60),
        (Modulus.rational(3), 720),
        (Modulus.ideal(RAMIFIED_PRIME), 120),
        (Modulus.rational(4), 3840),
    ])
    def test_formula_matches_enumeration(self, mod, expected):
        assert sl_index_formula(mod) == expected
        assert sl2_enumeration_order(mod) == expected

    def test_enumeration_above_the_cap_is_refused(self):
        # two passes over the 10201**2 pairs of residues mod 101: refused
        with pytest.raises(UndecidedError, match="mod 101 need 208120802 "
                                                 "entries"):
            sl2_enumeration_order(Modulus.rational(101))


# The ideals that divide some n <= 31 and have at most 400 residues: 36,
# among them (3)(2+L), where Q(3) and Q(2+L) have A5 in common, and both
# primes over 11, 19, 29 and 31.  `tests/sweep_orders.py` checks the rest.
ORDER_MODULI = sorted({Modulus.ideal(d) for n in range(1, 32)
                       for d in _ideal_divisors(n)
                       if abs(d.norm()) <= 400},
                      key=lambda m: (m.ring_size, m.d1, m.c))


@pytest.mark.parametrize("projective", [True, False])
@pytest.mark.parametrize("mod", ORDER_MODULI, ids=str)
def test_order_formula_matches_the_orbit(mod, projective):
    """`quotient_order` against the row orbit's count."""
    assert quotient_order(mod, projective) == orbit_order(
        build_quotient(mod, projective))


def test_an_order_builds_no_tables():
    """|Q(31)| and |Q(32)| are `quotient_order`: no residue table is built
    for them, though mod 32 `mul` alone would pass the element cap."""
    ring_tables.cache_clear()
    assert build_quotient(Modulus.rational(31)).order == 442828800
    assert build_quotient(Modulus.rational(32)).order == 41943040
    assert ring_tables.cache_info().currsize == 0


def test_one_word_has_order_ten_homogeneous_and_five_projective():
    """S^-1 T generates a subgroup of order 10 in the homogeneous Q(5), and
    of order 5 in the projective one: one exact product, keyed with its
    sign or up to it."""
    mod, w = Modulus.rational(5), parse_word("S^-1 T")
    hom = build_quotient(mod, projective=False)
    assert subgroup_closure(hom, [eval_word(w)]).order == 10
    assert subgroup_closure(build_quotient(mod), [eval_word(w)]).order == 5


def test_lazy_ambient_closure():
    """Q(25) has 117187500 elements, far above the cap: its closures and
    its order need none of them."""
    amb = build_quotient(Modulus.rational(25), projective=True)
    h = subgroup_closure(amb, [eval_word(w) for w in delta_m_words(5)])
    assert h.order == 5**6
    assert check_elementary_abelian(h, 5)
    assert amb.order == sl_index_formula(Modulus.rational(25)) // 2
    assert len(amb.elements) == amb.order
    with pytest.raises(UndecidedError):
        frozenset(amb.elements)
    with pytest.raises(UndecidedError):
        amb.identity in amb.elements


def test_disk_cache_roundtrip(tmp_path, monkeypatch):
    mod = Modulus.rational(3)
    built = build_quotient(mod, cache_dir=tmp_path)
    (path,) = tmp_path.iterdir()
    assert path.name == _cache_name(mod, True)
    loaded = build_quotient(mod, True, built.element_cap)
    _load_quotient(path, loaded)
    assert vars(loaded)["_orbit"] == built._orbit
    # the next build reads the file instead of walking the orbit
    monkeypatch.setattr(quotients, "_row_orbit", None)
    again = build_quotient(mod, cache_dir=tmp_path)
    assert again.elements == built.elements


def test_rational_and_ideal_share_one_quotient(tmp_path):
    ideal, rational = Modulus.ideal(GoldenInt(8, 0)), Modulus.rational(8)
    assert ideal == rational
    assert build_quotient(ideal) == build_quotient(rational)
    assert (str(ideal), str(rational)) == ("(8)", "8")
    # and one cache file
    assert _cache_name(ideal, True) == _cache_name(rational, True)
    build_quotient(rational, cache_dir=tmp_path)
    build_quotient(ideal, cache_dir=tmp_path)
    assert len(list(tmp_path.iterdir())) == 1


def test_associates_share_one_quotient(tmp_path):
    """(5+5*L) = (5 L^2) is the modulus 5: one quotient, one cache file."""
    ideal, rational = Modulus.ideal(GoldenInt(5, 5)), Modulus.rational(5)
    assert ideal == rational and hash(ideal) == hash(rational)
    assert (str(ideal), str(rational)) == ("(5+5*L)", "5")
    assert build_quotient(ideal, cache_dir=tmp_path) == build_quotient(
        rational, cache_dir=tmp_path)
    assert build_quotient(rational, cache_dir=tmp_path).order == 7500
    assert len(list(tmp_path.iterdir())) == 1


def test_cached_quotient_obeys_element_cap(tmp_path):
    """A cache hit answers as the build does: undecided above the cap."""
    mod = Modulus.rational(8)  # order 10240
    build_quotient(mod, cache_dir=tmp_path)
    for cache_dir in (None, tmp_path):
        capped = build_quotient(mod, element_cap=9000, cache_dir=cache_dir)
        assert len(capped.elements) == capped.order == 10240
        for read in (lambda: frozenset(capped.elements),
                     lambda: capped.identity in capped.elements):
            with pytest.raises(UndecidedError,
                               match="Q\\(8\\) mod 1 has 10240 elements, "
                                     "above the element cap of 9000$"):
                read()
    assert build_quotient(mod, element_cap=10240,
                          cache_dir=tmp_path).order == 10240
    # mul mod 8 has 64**2 entries: refused with the orbit read from the file
    loaded = build_quotient(mod, element_cap=8191, cache_dir=tmp_path)
    assert "_orbit" in vars(loaded)
    with pytest.raises(UndecidedError, match="mod 8 need 8192 entries"):
        set(kernel_subgroup(loaded, Modulus.rational(4)).members)


def test_cache_dir_leaves_an_order_above_the_cap_alone(
        tmp_path, low_element_cap):
    """With a cache directory, an order above the cap (here 5000) is still
    answered and its file written: the file holds the row orbit, not the
    elements, which stay undecided."""
    group = build_quotient(Modulus.rational(5), cache_dir=tmp_path)
    assert group.order == 7500
    path = tmp_path / _cache_name(group.modulus, True)
    assert list(tmp_path.iterdir()) == [path]
    assert len(group.elements) == group.order
    with pytest.raises(UndecidedError):
        frozenset(group.elements)
    with pytest.raises(UndecidedError):
        group.identity in group.elements


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_disk_cache_file_mode_follows_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        build_quotient(Modulus.rational(4), cache_dir=tmp_path)
    finally:
        os.umask(old)
    (path,) = tmp_path.iterdir()
    assert stat.S_IMODE(path.stat().st_mode) == mode


def test_disk_cache_write_that_fails_leaves_no_file(tmp_path, monkeypatch):
    """A write cut short before its rename leaves no file under the cache
    name, and no temporary file beside it."""
    def crash(src, dst):
        raise OSError("cut short before the rename")

    monkeypatch.setattr(quotients.os, "replace", crash)
    with pytest.raises(OSError, match="cut short"):
        build_quotient(Modulus.rational(4), cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("garbage", [b"not a quotient cache file", b"HQC1\x05"])
def test_disk_cache_bad_file_is_rebuilt(tmp_path, garbage):
    mod = Modulus.rational(8)
    path = tmp_path / _cache_name(mod, True)
    path.write_bytes(garbage)
    assert build_quotient(mod, cache_dir=tmp_path).order == 10240
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() != garbage
    loaded = build_quotient(mod, True, 10240)
    _load_quotient(path, loaded)
    assert vars(loaded)["_orbit"] == _row_orbit(build_quotient(mod))
    assert loaded.order == 10240
    assert build_quotient(mod, cache_dir=tmp_path).order == 10240


# -- Residue-index keys ------------------------------------------------------

KEY_MODULI = [Modulus.rational(n) for n in (2, 3, 4, 6, 8)] + [
    Modulus.ideal(GoldenInt(2, 1)), Modulus.ideal(GoldenInt(4, 2))]

words = st.lists(
    st.tuples(st.sampled_from("ST"), st.integers(-4, 4).filter(bool)),
    max_size=8).map(word)


@given(st.sampled_from(KEY_MODULI), st.booleans(), words, words)
# T (T^-1 S) = S has first entry 0 = -0: `_mult` signs it by its later entries
@example(Modulus.ideal(RAMIFIED_PRIME), True, word([("T", 1)]),
         word([("T", -1), ("S", 1)]))
def test_mult_matches_matrix_product(mod, projective, u, v):
    amb = build_quotient(mod, projective=projective)
    g, h = eval_word(u), eval_word(v)
    assert amb.mult(amb.key_of(g), amb.key_of(h)) == amb.key_of(g * h)
    assert amb.mult(amb.key_of(g), amb.inv_key(amb.key_of(g))) == amb.identity
    assert amb.step(amb.key_of(g)) == (amb.key_of(g * S_MAT),
                                       amb.key_of(g * T_MAT))


@pytest.mark.parametrize("n", [5, 6, 8])
@given(w=words)
@example(w=word([("S", 2)]))
@example(w=word([]))
def test_a_word_keys_as_the_product_of_its_letters(n, w):
    """The homogeneous key of the exact product is the `mult` product of the
    generator keys, letter by letter: the sign of S^2 = -I is kept."""
    hom = build_quotient(Modulus.rational(n), projective=False)
    gen = {"S": (hom.gen_S, hom.inv_key(hom.gen_S)),
           "T": (hom.gen_T, hom.inv_key(hom.gen_T))}
    x = hom.identity
    for g, e in w.letters:
        for _ in range(abs(e)):
            x = hom.mult(x, gen[g][e < 0])
    assert hom.key_of(eval_word(w)) == x


@pytest.mark.parametrize("mod", [Modulus.rational(6), Modulus.rational(8),
                                 Modulus.ideal(GoldenInt(4, 2))])
def test_subgroup_closure_matches_bfs(mod):
    """Dimino's incremental closure against the plain BFS orbit."""
    group = build_quotient(mod)
    rng = random.Random(str(mod))
    elems = sorted(group.elements)
    for k in (1, 2, 3):
        seeds = rng.sample(elems, k)
        bfs = generated_closure(
            group.identity, [lambda x, s=s: group.mult(x, s) for s in seeds])
        assert subgroup_closure(group, seeds).members == bfs


@pytest.mark.parametrize("n,seed,expected", [
    (4, "T^2", 16), (8, "T^2", 1024), (8, "T^4", 32), (6, "T^3", 10),
    (6, "T^2", 60), (16, "T^4", 2048), (12, "S T^3 S", 320),
])
def test_normal_closure_is_normal(n, seed, expected):
    group = q(n)
    h = normal_closure(group, [eval_word(parse_word(seed))])
    assert h.order == expected
    assert set(h.seeds) <= h.members
    for g in (group.gen_S, group.gen_T):
        g_inv = group.inv_key(g)
        assert all(group.mult(group.mult(g, x), g_inv) in h.members
                   for x in h.members)
    assert all(group.mult(x, s) in h.members for x in h.members for s in h.seeds)


def test_disk_cache_ignores_v1_files(tmp_path):
    """Files under the v1 and v2 names are stale: they are neither read nor
    rewritten, whatever they hold."""
    mod = Modulus.rational(3)
    ident = build_quotient(mod, True, 10**6).identity

    def name(tag):
        return tmp_path / (hashlib.sha256(tag.encode()).hexdigest()[:20]
                           + ".quot")

    # well-formed in the current format, but holding only the identity's row
    # and U = {0}: read, it would give an orbit of one element
    v1 = name(f"v1|{mod.kind}|{mod.generator.a},{mod.generator.b}|1")
    v1.write_bytes(b"HQC3" + struct.pack("<QQ5I", 1, 1, *ident, ident[1]))
    # well-formed in the v2 format (gen_S, gen_T, then the elements), but
    # holding only the identity
    v2 = name(f"v2|{mod.d1},{mod.c},{mod.d2}|1")
    v2.write_bytes(b"HQC2" + struct.pack("<Q12I", 1, *ident, *ident, *ident))
    probe = build_quotient(mod, True, 10**6)
    _load_quotient(v1, probe)
    assert probe._orbit == ([ident], [ident[1]])
    stale = {v1: v1.read_bytes(), v2: v2.read_bytes()}
    assert build_quotient(mod, cache_dir=tmp_path)._orbit == _row_orbit(
        build_quotient(mod))
    assert {path: path.read_bytes() for path in stale} == stale
    assert sorted(tmp_path.iterdir()) == sorted(
        [v1, v2, tmp_path / _cache_name(mod, True)])
