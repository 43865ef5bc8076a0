import random
from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy.combinatorics.fp_groups import (
    FpGroup, coset_enumeration_r, low_index_subgroups,
)
from sympy.combinatorics import Permutation, PermutationGroup
from sympy.combinatorics.free_groups import free_group

from hecke5 import congruence
from hecke5.congruence import (
    DEFAULT_COSET_CAP, CongruenceReport, CosetTable, UndecidedError,
    _canonical, _conflicts, _ideal_divisors, algebraic_level, coset_table,
    enumerate_index, geometric_level_from_table, is_congruence,
    is_normal_table, levels, schreier_generators, wohlfahrt_modulus,
)
from hecke5.farey import parse_hfs, side_pairing
from hecke5.golden_ring import (
    GoldenInt, Modulus, RAMIFIED_PRIME, canonical_associate, ring_tables,
)
from hecke5.hecke_matrices import decompose, omega_2, parse_word, word
from hecke5.quotients import (
    QuotientGroup, build_quotient, normal_closure, quotient_order,
    subgroup_closure,
)
from hecke5.hecke_matrices import eval_word

from test_farey import EXAMPLES
from test_quotients import right_actions


def hfs_words(name):
    return [decompose(g) for g in side_pairing(parse_hfs(EXAMPLES[name][0]))]


# -- Euclidean gcd in Z[L] ---------------------------------------------------
# The oracle for the algebraic level: the passing divisors are closed under
# it (`TestAlgebraicLevel`).


def golden_gcd(x: GoldenInt, y: GoldenInt) -> GoldenInt:
    """Generator of the ideal (x, y), canonicalised; Euclidean descent."""
    if not x and not y:
        raise ValueError("gcd(0, 0) is undefined")
    while y:
        x, y = y, _euclid_remainder(x, y)
    return canonical_associate(x)


def _euclid_remainder(x: GoldenInt, y: GoldenInt) -> GoldenInt:
    n = y.norm()
    z = x * y.conj()  # exact field quotient is z / n
    fa, fb = _floor_div(z.a, n), _floor_div(z.b, n)
    qa, qb = _round_div(z.a, n), _round_div(z.b, n)
    # floor/ceil combinations first, then the 3x3 grid around the rounding
    grids = (
        [(fa + da, fb + db) for da in (0, 1) for db in (0, 1)],
        [(qa + da, qb + db) for da in (-1, 0, 1) for db in (-1, 0, 1)],
    )
    for grid in grids:
        best = min((x - GoldenInt(*q) * y for q in grid),
                   key=lambda r: abs(r.norm()))
        if abs(best.norm()) < abs(n):
            return best
    raise ArithmeticError(f"euclidean step failed for {x}, {y}")  # unreachable


def _floor_div(a: int, n: int) -> int:
    if n < 0:
        a, n = -a, -n
    return a // n


def _round_div(a: int, n: int) -> int:
    if n < 0:
        a, n = -a, -n
    return (2 * a + n) // (2 * n)


small = st.builds(GoldenInt, st.integers(-50, 50), st.integers(-50, 50))


@given(small.filter(bool), small.filter(bool))
def test_gcd_divides(x, y):
    g = golden_gcd(x, y)
    assert x.divisible_by(g) and y.divisible_by(g)


def test_gcd_values():
    assert (Modulus.ideal(golden_gcd(RAMIFIED_PRIME, GoldenInt(5, 0)))
            == Modulus.ideal(RAMIFIED_PRIME))
    assert abs(golden_gcd(GoldenInt(2, 0), GoldenInt(3, 1)).norm()) == 1


class TestCosetTable:
    def test_whole_group(self):
        t = coset_table([parse_word("S"), parse_word("T")])
        assert t.degree == 1
        assert geometric_level_from_table(t) == 1

    def test_index_two(self):
        t = coset_table(hfs_words("index2"))
        assert t.degree == 2

    def test_index_five(self):
        t = coset_table(hfs_words("i5-level2"))
        assert t.degree == 5

    def test_level_two_kernel(self):
        t = coset_table([decompose(g) for g in omega_2()])
        assert t.degree == 10
        assert geometric_level_from_table(t) == 2

    def test_infinite_index_hits_cap(self):
        with pytest.raises(UndecidedError):
            coset_table([parse_word("T")], cap=200)
        # a cap below 1 is an input error, not "no cap"
        with pytest.raises(ValueError):
            coset_table([parse_word("T")], cap=0)

    def test_word_above_the_bound_is_refused_unexpanded(self):
        # the bound is on the word's length in S and T; at it, a word is
        # enumerated
        message = "a generator word is longer than 1000000 letters S and T"
        with pytest.raises(ValueError, match=message):
            coset_table([parse_word("T^1000000007")])
        gens = [parse_word("S"), parse_word("T")]
        assert coset_table(gens + [parse_word("T^1000000")]).degree == 1
        for text in ("T^1000001", "S T^999999 S", "T^600000 S T^400000"):
            with pytest.raises(ValueError, match=message):
                coset_table(gens + [parse_word(text)])

    def test_validation(self):
        with pytest.raises(ValueError):
            CosetTable((1, 2, 0), (0, 1, 2))  # S-action not an involution
        with pytest.raises(ValueError):
            CosetTable((0, 1), (0, 1))  # not transitive

    @pytest.mark.parametrize("perm_s,perm_t", [
        ((1,), (0,)), ((1, 0), (2, 0)), ((0,), (-1,))])
    def test_entries_out_of_range_are_refused(self, perm_s, perm_t):
        with pytest.raises(ValueError, match="permutation entry is outside"):
            CosetTable(perm_s, perm_t)


# sympy's G5 = <s, u | s^2 = u^5 = 1>, for the oracles below
_F, _s, _u = free_group("s u")
_PRESENTATION = FpGroup(_F, [_s**2, _u**5])


def _s_and_t(rows) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """S- and T-actions from the rows of a sympy coset table."""
    # columns follow CosetTable.A = [s, s^-1, u, u^-1]
    perm_s = tuple(row[0] for row in rows)
    perm_u = tuple(row[2] for row in rows)
    return perm_s, tuple(perm_u[j] for j in perm_s)


def sympy_table(words, cap):
    """sympy's HLT enumeration of `words`, standardized as `coset_table`
    standardizes, and the number of cosets it defined; (None, None) where it
    stops at `cap`."""
    subgroup = []
    for w in words:
        g = _F.identity
        for gen, exp in w.letters:
            g = g * (_s**exp if gen == "S" else (_s * _u)**exp)
        subgroup.append(g)
    try:
        table = coset_enumeration_r(_PRESENTATION, subgroup, max_cosets=cap)
    except ValueError:
        return None, None
    defined = len(table.table)
    table.compress()
    return CosetTable(*_canonical(*_s_and_t(table.table))), defined


def table_or_none(words, cap):
    try:
        return coset_table(words, cap)
    except UndecidedError:
        return None


def assert_agrees_with_sympy(words, cap):
    """Same table as sympy at `cap`, or both stop there.  Where sympy ends
    after defining n cosets, both also end at cap n and stop at n - 1, so
    the same cap decides."""
    expected, defined = sympy_table(words, cap)
    assert table_or_none(words, cap) == expected
    if defined is not None:
        assert table_or_none(words, defined) == expected
        assert defined == 1 or table_or_none(words, defined - 1) is None


short_word_sets = st.lists(
    st.lists(st.tuples(st.sampled_from("ST"),
                       st.integers(-4, 4).filter(bool)),
             min_size=1, max_size=8).map(word),
    min_size=1, max_size=5)


class TestEnumeratorOracle:
    """`coset_table` against sympy's `coset_enumeration_r`, which stays in
    the tests only, as an independent oracle."""

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_examples(self, name):
        assert_agrees_with_sympy(hfs_words(name), DEFAULT_COSET_CAP)

    def test_census_schreier_generators(self):
        for n in (5, 6):
            for t in enumerate_index(n):
                assert_agrees_with_sympy(schreier_generators(t),
                                         DEFAULT_COSET_CAP)

    @pytest.mark.parametrize("text", ["S", "T^4"])
    @pytest.mark.parametrize("cap", [100, 2000, 5000])
    def test_infinite_index(self, text, cap):
        assert_agrees_with_sympy([parse_word(text)], cap)

    @given(short_word_sets)
    @settings(max_examples=100, deadline=None)
    # index 2 after 18 definitions: coincidences kill 16 cosets
    @example([parse_word("S^3 T^2 S^3"), parse_word("S T^-5")])
    # index 1 after 96 definitions, 97 if u^5 is scanned before s^2
    @example([parse_word(w) for w in ["T^3 S^-3 T^2", "T^4 S^-3 T^4 S^-4 T^7",
                                      "S^4 T^-2 S^3 T^-2 S^3",
                                      "T^-3 S^4 T S^3 T^6 S^-2"]])
    def test_random_word_sets(self, words):
        assert_agrees_with_sympy(words, 200)


@pytest.mark.parametrize("m,expected", [
    (1, 1), (2, 2), (3, 3), (4, 8), (5, 5), (6, 6), (8, 16), (12, 24),
])
def test_wohlfahrt_modulus(m, expected):
    assert wohlfahrt_modulus(m) == expected


class TestSchreier:
    @pytest.mark.parametrize("name", ["index2", "i5-level2", "i5-level4"])
    def test_generators_stabilize_and_regenerate(self, name):
        # both tables are standardized, so equal subgroups give equal tables
        t = coset_table(hfs_words(name))
        t2 = coset_table(schreier_generators(t))
        assert t2 == t
        assert geometric_level_from_table(t2) == geometric_level_from_table(t)


class TestVerdicts:
    """Decision pipeline on the worked index <= 5 subgroups."""

    def run(self, name):
        return is_congruence(hfs_words(name))

    def test_index_two(self):
        r = self.run("index2")
        assert (r.index, r.geometric_level, r.verdict) == (2, 2, "congruence")
        assert r.algebraic_level == "(2)"

    def test_level_two(self):
        r = self.run("i5-level2")
        assert (r.geometric_level, r.verdict) == (2, "congruence")
        assert r.algebraic_level == "(2)"
        assert r.quotient_order == r.image_order * r.index

    def test_level_three(self):
        r = self.run("i5-level3")
        assert (r.geometric_level, r.verdict) == (3, "congruence")
        assert r.algebraic_level == "(3)"

    def test_level_five_split(self):
        r = self.run("i5-level5")
        assert (r.geometric_level, r.verdict) == (5, "congruence")
        assert r.algebraic_level == "(2+L)"

    def test_level_four_not_congruence(self):
        r = self.run("i5-level4")
        assert (r.geometric_level, r.test_modulus) == (4, 8)
        assert r.verdict == "not-congruence"
        assert r.algebraic_level is None

    def test_level_six_runs_to_verdict(self):
        # a verdict must be produced; the asserted value lives in the
        # acceptance suite where the published claim is recorded as disputed
        r = self.run("i5-level6")
        assert r.geometric_level == 6
        assert r.verdict in ("congruence", "not-congruence")

    def test_normal_index_five_runs_to_verdict(self):
        r = self.run("i5-free")
        assert r.geometric_level == 5
        assert r.verdict in ("congruence", "not-congruence")

    def test_whole_group(self):
        r = is_congruence([parse_word("S"), parse_word("T")])
        assert (r.index, r.verdict, r.algebraic_level) == (1, "congruence", "(1)")


class TestSoundness:
    def test_kernel_generators_detected(self):
        """A generator set of the level-2 kernel comes back at level (2)."""
        r = is_congruence([decompose(g) for g in omega_2()])
        assert (r.index, r.verdict, r.algebraic_level) == (10, "congruence", "(2)")

    def test_conjugation_invariance(self):
        rng = random.Random(7)
        base = hfs_words("i5-level5")
        letters = [(rng.choice("ST"), rng.choice([-2, -1, 1, 2]))
                   for _ in range(6)]
        c = word(letters)
        conj = [c * w * c.inv() for w in base]
        r0, r1 = is_congruence(base), is_congruence(conj)
        assert (r0.index, r0.geometric_level, r0.verdict, r0.algebraic_level) \
            == (r1.index, r1.geometric_level, r1.verdict, r1.algebraic_level)

    def test_not_congruence_conjugation_invariance(self):
        base = hfs_words("i5-level4")
        c = parse_word("T S T^2")
        conj = [c * w * c.inv() for w in base]
        assert is_congruence(conj).verdict == "not-congruence"


def image(words, n):
    """The image of the subgroup generated by `words` in Q(n)."""
    q = build_quotient(Modulus.rational(n))
    return subgroup_closure(q, [eval_word(w) for w in words])


def level_oracle(words, index, big):
    """The algebraic level from the generators, divisor by divisor.

    The subgroup contains G(d) iff its image in Q(d) has the subgroup's
    index; the level is the gcd of the passing divisors d of (big).
    """
    passing = []
    for d in _ideal_divisors(big):
        q = build_quotient(Modulus.ideal(d))
        img = subgroup_closure(q, [eval_word(w) for w in words])
        if q.order == img.order * index:
            passing.append(d)
    return str(Modulus.ideal(reduce(golden_gcd, passing)))


def passes(t, d: Modulus):
    """True iff the walk of Q(d) finds no conflict, that is G(d) <= K."""
    return next(_conflicts(t, d), None) is None


def tuple_conflicts(t, d: Modulus):
    """The oracle for `_conflicts`: a walk that shares nothing with other
    walks.  It steps Q(d)'s 4-tuple keys itself and labels them in a dict,
    under the element cap read at call time."""
    q = QuotientGroup(d, True, congruence.DEFAULT_ELEMENT_CAP)
    cap = q.element_cap
    actions = list(zip(right_actions(q), (t.perm_s, t.perm_t)))
    label = {q.identity: 0}
    order = [q.identity]
    for x in order:  # grows while it is walked
        a = label[x]
        for act, perm in actions:
            y, b = act(x), perm[a]
            c = label.get(y)
            if c is None:
                if len(order) >= cap:
                    raise UndecidedError(f"walk reached the element cap of "
                                         f"{cap}")
                label[y] = b
                order.append(y)
            elif c != b:
                yield c, b


def until_undecided(walk):
    """The pairs a walk yields, then its UndecidedError's text or None."""
    pairs = []
    try:
        for pair in walk:
            pairs.append(pair)
    except UndecidedError as e:
        return pairs, str(e)
    return pairs, None


def right_coset_table(q, h):
    """Right action of S and T on the right cosets h*x of a subgroup h of q."""
    ids, reps = {}, []

    def coset(x):
        if x not in ids:
            for k in h.members:
                ids[q.mult(k, x)] = len(reps)
            reps.append(x)
        return ids[x]

    coset(q.identity)
    perms = ([], [])
    for x in reps:  # grows while it is walked
        for act, perm in zip(right_actions(q), perms):
            perm.append(coset(act(x)))
    return CosetTable(tuple(perms[0]), tuple(perms[1]))


def intersection_table(a, b):
    """Coset table of the intersection of the subgroups of two tables."""
    ids, pairs = {(0, 0): 0}, [(0, 0)]
    perms = ([], [])
    for i, j in pairs:  # grows while it is walked
        for perm, pa, pb in zip(perms, (a.perm_s, a.perm_t), (b.perm_s, b.perm_t)):
            y = (pa[i], pb[j])
            if y not in ids:
                ids[y] = len(pairs)
                pairs.append(y)
            perm.append(ids[y])
    return CosetTable(tuple(perms[0]), tuple(perms[1]))


# 40 = 2^3 * 5 (inert, ramified), 55 = 5 * 11, 99 = 3^2 * 11, 121 = 11^2
# (11 splits): (k+1), (2k+1) and (k+1)^2 divisors per inert, ramified and
# split p^k
@pytest.mark.parametrize("n,count", [(40, 12), (55, 12), (99, 12), (121, 9)])
def test_divisors_carry_no_unit_factor(n, count):
    """Each ideal divisor of (n) once, and the rational ones spelled as
    rational integers: equal to their `Modulus.rational`, so they share its
    residue tables and cache file."""
    mods = [Modulus.ideal(d) for d in _ideal_divisors(n)]
    assert len({(m.d1, m.c, m.d2) for m in mods}) == len(mods) == count
    rational = [m for m in mods if m.c == 0 and m.d1 == m.d2]
    assert all(m == Modulus.rational(m.d1) for m in rational)
    assert sorted(m.d1 for m in rational) == [
        d for d in range(1, n + 1) if n % d == 0]


class TestAlgebraicLevel:
    def test_walks_build_no_multiplication(self, monkeypatch):
        """The walks act by S and T only: the residue tables of each walked
        modulus have no `mul`."""
        walked, walk = set(), congruence._conflicts

        def spy(t, d):
            walked.add(d)
            return walk(t, d)

        monkeypatch.setattr(congruence, "_conflicts", spy)
        ring_tables.cache_clear()
        congruence._graph.cache_clear()  # cached graphs need no tables
        for t in enumerate_index(6):
            levels(t)
        assert ring_tables.cache_info().currsize == len(walked) > 1
        assert not any("mul" in vars(ring_tables(d)) for d in walked)

    def test_walk_tables_above_the_cap_are_undecided_at_once(self):
        """Mod 1000 the walk's tables would have 7 * 10**6 entries: it is
        undecided before it builds any."""
        t = enumerate_index(2)[0]
        before = ring_tables.cache_info()
        graphs = congruence._graph.cache_info().currsize
        with pytest.raises(UndecidedError,
                           match="mod 1000 need 7000000 entries, above the "
                                 "element cap of 2000000"):
            next(_conflicts(t, Modulus.rational(1000)))
        assert ring_tables.cache_info() == before
        assert congruence._graph.cache_info().currsize == graphs

    def test_minimal_divisor_found(self):
        level = algebraic_level(coset_table(hfs_words("i5-level5")), 5)
        assert str(level) == "(2+L)"
        # the level-4 subgroup contains G(d) for no divisor d of its test modulus
        assert algebraic_level(coset_table(hfs_words("i5-level4")), 8) is None

    def test_matches_oracle(self):
        """Verdict, image order and level against closures of the generators."""
        cases = [(schreier_generators(t), t)
                 for n in (5, 6) for t in enumerate_index(n)]
        cases += [(hfs_words(name), None) for name in EXAMPLES]
        checked = 0
        for words, table in cases:
            r = is_congruence(words, table=table)
            io = image(words, r.test_modulus).order
            assert r.image_order == io
            assert r.is_congruence == (r.quotient_order == io * r.index)
            if r.is_congruence:
                assert r.algebraic_level == level_oracle(
                    words, r.index, r.test_modulus)
                checked += 1
            else:
                assert r.algebraic_level is None
        assert checked == 31  # 15 at index 5, 12 at index 6, 4 symbols

    def test_image_order_of_intersections(self):
        """Image orders where K's image is a proper subgroup of Q(M).

        K runs over the intersections of a congruence and a not-congruence
        index-6 subgroup, of geometric levels 3 and 6.  On 3 of these 108,
        joining only the walk's conflicting pairs leaves 7 or 8 blocks
        where there are 6 G(6)-orbits: the blocks must be closed under S
        and T.
        """
        level3, level6 = [], []
        for t in enumerate_index(6):
            r = is_congruence([], table=t)
            if (r.geometric_level, r.verdict) == (3, "congruence"):
                level3.append(t)
            elif (r.geometric_level, r.verdict) == (6, "not-congruence"):
                level6.append(t)
        proper = 0
        for a in level3:
            for b in level6:
                t = intersection_table(a, b)
                r = is_congruence([], table=t)
                assert r.verdict == "not-congruence"
                assert r.image_order == image(schreier_generators(t), 6).order
                proper += r.image_order < r.quotient_order
        assert proper == 108

    def test_passing_divisors_closed_under_gcd(self):
        # the level is the first passing divisor by norm only because of this
        rows = 0
        for t in enumerate_index(5) + enumerate_index(6):
            r = is_congruence([], table=t)
            if not r.is_congruence:
                continue
            passing = [d for d in _ideal_divisors(r.test_modulus)
                       if passes(t, Modulus.ideal(d))]
            g = reduce(golden_gcd, passing)
            assert passes(t, Modulus.ideal(g))
            least = min(passing, key=lambda d: abs(d.norm()))
            assert Modulus.ideal(g) == Modulus.ideal(least)
            assert r.algebraic_level == str(Modulus.ideal(g))
            rows += 1
        assert rows == 27

    def test_modulus_r_suffices_unless_four_divides_r(self):
        """Where 4 does not divide the level r, G(r) <= K iff G(2r) <= K.

        One way holds as G(2r) <= G(r); for the other, a conflict in Q(r)
        must show up in Q(2r) too.  Neither walk enumerates Q(2r) whole.
        """
        rows = conflicts = 0
        for t in enumerate_index(5) + enumerate_index(6):
            r = geometric_level_from_table(t)
            if r % 4 == 0:
                continue
            if not passes(t, Modulus.rational(r)):
                assert not passes(t, Modulus.rational(2 * r)), t
                conflicts += 1
            rows += 1
        assert (rows, conflicts) == (63, 36)

    def test_image_index_consistency(self):
        # the level-(2+L) image and the mod-5 image give the same verdict
        from hecke5.golden_ring import RAMIFIED_PRIME
        words = hfs_words("i5-level5")
        for mod in (Modulus.rational(5), Modulus.ideal(RAMIFIED_PRIME)):
            q = build_quotient(mod)
            img = subgroup_closure(q, [q.key_of(eval_word(w)) for w in words])
            assert q.order == img.order * 5


class TestSharedWalk:
    """`_conflicts` walks one graph of Q(d) per modulus, grown as far as
    some walk has stepped; it yields what `tuple_conflicts` yields."""

    def test_matches_the_tuple_walk(self):
        """Every row at index 5-7, at every ideal divisor of its test
        modulus, from an empty graph cache and in a seeded shuffled order:
        each walk once stopped at its first conflict and once in full, so
        graphs are extended from partial states.  The 14 rows at index 7
        that walk Q(24), of 1,228,800 elements, walk it only to their
        first conflict: in full both walks of them take about a minute.
        Q(10), of 75,000 elements, is the largest walked in full."""
        walks = []
        for n in (5, 6, 7):
            for t, (_, m, _) in census_rows(n):
                for g in _ideal_divisors(m):
                    d = Modulus.ideal(g)
                    walks.append((t, d, False))
                    if d != Modulus.rational(24):
                        walks.append((t, d, True))
        assert len(walks) == 2 * 554 - 14
        random.Random(27).shuffle(walks)
        congruence._graph.cache_clear()
        for t, d, full in walks:
            if full:
                assert list(_conflicts(t, d)) == list(tuple_conflicts(t, d))
            else:
                assert (next(_conflicts(t, d), None)
                        == next(tuple_conflicts(t, d), None))

    def test_stopped_walk_then_complete_walk(self):
        """A walk that stops at its first conflict leaves the graph of Q(8)
        partial; a complete walk of another row extends it to all of Q(8),
        and the first walk, resumed, goes on over the edges it built."""
        d = Modulus.rational(8)
        first, second = [t for t, (_, m, level) in census_rows(6)
                         if m == 8 and level is None][:2]
        congruence._graph.cache_clear()
        stopped, expected = _conflicts(first, d), tuple_conflicts(first, d)
        assert next(stopped) == next(expected)
        graph = congruence._graph(d, congruence.DEFAULT_ELEMENT_CAP)
        assert 0 < len(graph.succ) < 2 * quotient_order(d)
        assert list(_conflicts(second, d)) == list(tuple_conflicts(second, d))
        assert len(graph.succ) == 2 * quotient_order(d)
        assert list(stopped) == list(expected)

    def test_capped_walks_match_the_tuple_walk(self, monkeypatch):
        """Every element cap from 161 down to 100 on Q(4), of 160 elements
        and residue tables of 7 * 16 = 112 entries: each row at index 1 and
        5 yields the tuple walk's pairs and then its refusal, if any, at the
        same edge.  Some walks meet conflicts before the capped edge, some
        none; a graph grown under one cap serves no other."""
        d = Modulus.rational(4)
        rows = enumerate_index(1) + enumerate_index(5)
        congruence._graph.cache_clear()
        seen = Counter()
        for cap in range(161, 99, -1):
            monkeypatch.setattr(congruence, "DEFAULT_ELEMENT_CAP", cap)
            for t in rows:
                got = until_undecided(_conflicts(t, d))
                assert got == until_undecided(tuple_conflicts(t, d))
                pairs, refusal = got
                seen[bool(pairs), refusal and refusal.split()[0]] += 1
        # 21 rows conflict in Q(4), 6 do not; caps 160 and 161 pass the
        # whole walk, 112-159 stop it and 100-111 refuse its tables
        assert seen == {(True, None): 2 * 21, (False, None): 2 * 6,
                        (True, "walk"): 48 * 21, (False, "walk"): 48 * 6,
                        (False, "residue"): 12 * 27}
        monkeypatch.undo()
        for t in rows:
            assert until_undecided(_conflicts(t, d)) == (
                list(tuple_conflicts(t, d)), None)


def hall_counts(top):
    """Index-n subgroup counts of C2 * C5 for n = 0 .. top, by Hall's
    recursion, which never enumerates a subgroup.

    h_n = |Hom(C2 * C5, S_n)| is the number of involutions of S_n (the
    identity included) times the number of u with u^5 = 1; then
    a_n = h_n / (n-1)! - sum over k < n of h_(n-k) a_k / (n-k)!.
    """
    inv, fifth = [1, 1], [1]
    for n in range(2, top + 1):
        inv.append(inv[n - 1] + (n - 1) * inv[n - 2])
    for n in range(1, top + 1):  # n's 5-cycle, if any, takes 4 more points
        fifth.append(fifth[n - 1] + (factorial(n - 1) // factorial(n - 5)
                                     * fifth[n - 5] if n >= 5 else 0))
    h = [i * f for i, f in zip(inv, fifth)]
    a = [0]
    for n in range(1, top + 1):
        a_n = Fraction(h[n], factorial(n - 1)) - sum(
            Fraction(h[n - k] * a[k], factorial(n - k)) for k in range(1, n))
        assert a_n.denominator == 1
        a.append(int(a_n))
    return a


def sympy_census(n):
    """sympy's low-index search at n, one table per conjugacy class,
    expanded to every subgroup by moving the marked point."""
    out = set()
    for c in low_index_subgroups(_PRESENTATION, n):
        if len(c.table) == n:
            perm_s, perm_t = _s_and_t(c.table)
            out |= {CosetTable(*_canonical(perm_s, perm_t, base))
                    for base in range(n)}
    return out


@cache
def census_rows(n):
    """Each subgroup of index n with its `levels`, decided once for every
    test that reads them."""
    return [(t, levels(t)) for t in enumerate_index(n)]


def monodromy_order(t):
    """|P| for P = <perm_s, perm_t> = G5 / core(K), by sympy's exact
    `order()` (Schreier-Sims), never the Monte Carlo `is_alt_sym()`."""
    return PermutationGroup([Permutation(list(t.perm_s)),
                             Permutation(list(t.perm_t))]).order()


class TestCensus:
    @pytest.mark.parametrize("n,count", list(enumerate(hall_counts(12)))[1:])
    def test_small_indexes(self, n, count):
        # each subgroup once, and as many as Hall's recursion counts
        tabs = enumerate_index(n)
        assert len(set(tabs)) == len(tabs) == count

    @pytest.mark.parametrize("n", range(1, 11))
    def test_agrees_with_sympy(self, n):
        """The same subgroups as sympy's low-index search (Sims' algorithm),
        which stays in the tests only, as an independent oracle."""
        assert set(enumerate_index(n)) == sympy_census(n)

    @pytest.mark.parametrize("n", [0, 13])
    def test_index_out_of_range(self, n):
        with pytest.raises(ValueError):
            enumerate_index(n)

    def test_index_ten_congruence_rows(self):
        """61 of the 1766 subgroups of index 10 are congruence.  Their test
        moduli go up to 40, whose walks need no ring_size**2 table."""
        rows = census_rows(10)
        found = Counter(str(level) for _, (_, _, level) in rows)
        del found["None"]
        assert len(rows) == 1766
        assert found == {"(2)": 1, "(3)": 10, "(4)": 30, "(2+L)": 10,
                         "(6)": 5, "(4+2*L)": 5}

    def test_index_eleven_congruence_rows(self):
        """44 of the 5192 subgroups of index 11 are congruence, of level
        (3+L) or (1-3*L): the two primes over 11."""
        rows = census_rows(11)
        found = Counter(str(level) for _, (_, _, level) in rows)
        del found["None"]
        assert len(rows) == 5192
        assert found == {"(3+L)": 22, "(1-3*L)": 22}

    def test_congruence_monodromy_divides_the_level_quotient(self):
        """A congruence K of level A contains G(A), so core(K) does, and P
        is a quotient of Q(A): |P| divides `quotient_order(A)`.  This ties
        the closed-form orders to the census (1, 1, 15, 12 and 61 rows at
        index 1, 2, 5, 6 and 10)."""
        counts = Counter()
        for n in range(1, 11):
            for t, (_, _, level) in census_rows(n):
                if level is not None:
                    counts[n] += 1
                    assert quotient_order(level) % monodromy_order(t) == 0, t
        assert counts == {1: 1, 2: 1, 5: 15, 6: 12, 10: 61}

    def test_alternating_monodromy_is_not_congruence(self):
        """Non-congruence without the paper's theorem.  If |P| is n!/2 or
        n!, then P contains A_n.  For n >= 7, A_n is no PSL(2, q) and not
        A5, so it is no composition factor of any Q(N) (the argument in
        `quotient_order`'s docstring), and K is no congruence subgroup.
        Every such row at index 7-10 is not congruence by the walk too."""
        counts = Counter()
        for n in range(7, 11):
            for t, (_, _, level) in census_rows(n):
                if monodromy_order(t) in (factorial(n) // 2, factorial(n)):
                    counts[n] += 1
                    assert level is None, t
        assert counts == {7: 56, 8: 32, 9: 9, 10: 1380}

    def test_index_five(self):
        tabs = enumerate_index(5)
        assert len(tabs) == 26
        assert sum(is_normal_table(t) for t in tabs) == 1

    def test_level_distribution(self):
        tabs = enumerate_index(5)
        levels = Counter(geometric_level_from_table(t) for t in tabs)
        assert levels == {2: 5, 3: 5, 4: 5, 5: 6, 6: 5}

    def test_normal_one_has_level_five(self):
        tabs = enumerate_index(5)
        normal = [t for t in tabs if is_normal_table(t)]
        assert geometric_level_from_table(normal[0]) == 5

    def test_verdict_constant_on_conjugacy_classes(self):
        tabs = enumerate_index(5)
        by_level = {}
        for t in tabs:
            r = is_congruence(schreier_generators(t), table=t)
            key = (geometric_level_from_table(t), is_normal_table(t))
            by_level.setdefault(key, set()).add(
                (r.verdict, r.algebraic_level))
        for key, verdicts in by_level.items():
            assert len(verdicts) == 1, (key, verdicts)

    def test_congruence_classes(self):
        tabs = enumerate_index(5)
        verdicts = Counter()
        for t in tabs:
            r = is_congruence(schreier_generators(t), table=t)
            verdicts[(geometric_level_from_table(t), r.verdict)] += 1
        assert verdicts[(2, "congruence")] == 5
        assert verdicts[(3, "congruence")] == 5
        assert verdicts[(4, "not-congruence")] == 5
        assert verdicts[(5, "congruence")] == 5  # the non-normal class


def test_sharpness_witness():
    """The paper's witness that the test modulus must be 2r when 4 | r.

    K is the preimage of H = N(T^4) in Q(8): geometric level 4, congruence
    of algebraic level (8), so G(8) <= K but G(4) is not.
    """
    q = build_quotient(Modulus.rational(8))
    h = normal_closure(q, [eval_word(parse_word("T^4"))])
    assert h.order == 32
    t = right_coset_table(q, h)
    assert (t.degree, geometric_level_from_table(t)) == (320, 4)
    r = is_congruence([], table=t)
    assert (r.test_modulus, r.verdict, r.algebraic_level) == (8, "congruence", "(8)")
    assert r.image_order == 32
    assert not passes(t, Modulus.rational(4))


def test_no_index_five_subgroup_has_level_six():
    """Certifies the strict xfail on the level-6 symbol in the acceptance suite.

    K contains G(6) iff its image has index 5 in Q(6).  If its image in Q(2)
    (or Q(3)) already has index 5, then K contains G(2) (or G(3)), so its
    congruence level divides 2 (or 3) and is not (6).
    """
    quotients = {n: build_quotient(Modulus.rational(n)) for n in (2, 3, 6)}

    def image_index(n, gens):
        q = quotients[n]
        img = subgroup_closure(q, [q.key_of(eval_word(w)) for w in gens])
        return q.order // img.order

    level_six = []
    for t in enumerate_index(5):
        gens = schreier_generators(t)
        idx = {n: image_index(n, gens) for n in quotients}
        if idx[6] == 5:
            assert idx[2] == 5 or idx[3] == 5, idx
        if geometric_level_from_table(t) == 6:
            level_six.append(idx)
    assert level_six == [{2: 1, 3: 1, 6: 1}] * 5


class TestReportSerialization:
    def test_roundtrip(self):
        r = is_congruence(hfs_words("i5-level3"))
        assert CongruenceReport.from_json(r.to_json()) == r

    def test_not_congruence_roundtrip(self):
        r = is_congruence(hfs_words("i5-level4"))
        assert CongruenceReport.from_json(r.to_json()) == r
