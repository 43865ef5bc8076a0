from math import prod

import pytest
from hypothesis import example, given, strategies as st
from sympy import isprime

from hecke5.golden_ring import (
    GoldenInt, LAMBDA, ONE, ZERO, Modulus, RAMIFIED_PRIME, _split_factor,
    canonical_associate, classify_rational_prime, emb_ratio_round, factor,
    is_prime, parse_golden, ring_tables,
)

ints = st.integers(min_value=-10**6, max_value=10**6)
elems = st.builds(GoldenInt, ints, ints)
small = st.builds(GoldenInt, st.integers(-50, 50), st.integers(-50, 50))


def test_lambda_relation():
    assert LAMBDA * LAMBDA == ONE + LAMBDA


@given(elems, elems, elems)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x + (-x) == ZERO


@given(elems, elems)
def test_norm_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(elems)
def test_conjugation(x):
    assert x.conj().conj() == x
    assert (x * x.conj()) == GoldenInt(x.norm(), 0)


@given(elems)
@example(GoldenInt(0, 10))
@example(GoldenInt(0, -10))
@example(GoldenInt(-7, -12))
def test_parse_roundtrip(x):
    assert parse_golden(str(x)) == x


@pytest.mark.parametrize("text,val", [
    ("L", LAMBDA), ("2+L", GoldenInt(2, 1)), ("-1+2*L", GoldenInt(-1, 2)),
    ("7", GoldenInt(7, 0)), ("-L", GoldenInt(0, -1)), ("0", ZERO),
])
def test_parse_forms(text, val):
    assert parse_golden(text) == val


def test_parse_rejects_garbage():
    for bad in ("", "1+", "x", "L*L", "1..2"):
        with pytest.raises(ValueError):
            parse_golden(bad)


@given(small, small.filter(lambda y: bool(y)))
def test_embedding_ratio_round(x, y):
    import math
    lam = (1 + math.sqrt(5)) / 2
    ratio = (x.a + x.b * lam) / (y.a + y.b * lam)
    k = emb_ratio_round(x, y)
    assert abs(k - ratio) <= 0.5 + 1e-9


def _sign5(p: int, q: int) -> int:
    """Sign of p + q*sqrt5, by comparing p^2 with 5 q^2 where signs differ."""
    if p >= 0 and q >= 0:
        return int(p > 0 or q > 0)
    if p <= 0 and q <= 0:
        return -1
    return (1 if p > 0 else -1) if p * p > 5 * q * q else (1 if q > 0 else -1)


huge = st.builds(GoldenInt, st.integers(-10**30, 10**30),
                 st.integers(-10**30, 10**30))


@given(huge, huge.filter(bool))
@example(GoldenInt(3, 0), GoldenInt(2, 0))  # 3/2 rounds up to 2
@example(GoldenInt(-3, 0), GoldenInt(2, 0))  # -3/2 rounds up to -1
@example(GoldenInt(0, 3), GoldenInt(0, 2))  # norm -4: 3/2 rounds to 2
@example(GoldenInt(0, -3), GoldenInt(0, 2))  # norm -4: -3/2 rounds to -1
@example(GoldenInt(0, 5), LAMBDA)  # norm -1, exact ratio 5
@example(GoldenInt(2, 0), LAMBDA)  # norm -1: 2/L = 1.236... rounds to 1
@example(GoldenInt(0, -1), ONE)  # B < 0: -L = -1.618... rounds to -2
@example(GoldenInt(7, 11), GoldenInt(-2, 5))  # norm -31
def test_embedding_ratio_round_exact(x, y):
    """k = round(t), halves up, for t = emb(x)/emb(y): (2k - 1) emb(y) <=
    2 emb(x) < (2k + 1) emb(y) when emb(y) > 0.  With 2 emb(u) =
    (2a + b) + b sqrt5, each side is p + q sqrt5, decided in integers."""
    k = emb_ratio_round(x, y)
    sy = _sign5(2 * y.a + y.b, y.b)
    X = (sy * (2 * x.a + x.b), sy * x.b)  # 2 emb(x), signed as emb(y) > 0
    Y = (sy * (2 * y.a + y.b), sy * y.b)

    def at_least(j):  # 2 emb(x) >= j emb(y)
        return _sign5(2 * X[0] - j * Y[0], 2 * X[1] - j * Y[1]) >= 0

    assert at_least(2 * k - 1) and not at_least(2 * k + 1)


def test_units():
    assert abs(LAMBDA.norm()) == 1
    assert abs((-GoldenInt(2, 3)).norm()) == 1  # -L^4
    assert abs(GoldenInt(2, 0).norm()) != 1
    assert LAMBDA.inverse() * LAMBDA == ONE


def test_classification():
    assert classify_rational_prime(5).kind == "ramified"
    assert classify_rational_prime(2).kind == "inert"
    assert classify_rational_prime(3).kind == "inert"
    eleven = classify_rational_prime(11)
    assert eleven.kind == "split"
    f, g = eleven.factors
    assert abs(f.norm()) == 11 and abs(g.norm()) == 11
    assert Modulus.ideal(f) != Modulus.ideal(g)
    assert Modulus.ideal(f * g) == Modulus.rational(11)
    assert Modulus.ideal(RAMIFIED_PRIME * RAMIFIED_PRIME) == Modulus.rational(5)


def split_factor_by_search(p):
    """The first a + b*L of norm +-p, by b in 0..p and then a in -p..p: the
    oracle for `_split_factor`, which solves for a."""
    for b in range(p + 1):
        for a in range(-p, p + 1):
            if abs(a * a + a * b - b * b) == p:
                return canonical_associate(GoldenInt(a, b))


def test_split_factor_matches_the_search():
    primes = [p for p in range(11, 5000) if p % 10 in (1, 9) and isprime(p)]
    assert len(primes) == 326
    for p in primes:
        assert _split_factor(p) == split_factor_by_search(p), p


def test_split_factor_of_a_large_prime():
    # the norm of 235-476*L, an ideal whose 7 * 283211 residue table
    # entries fit under the default element cap
    assert _split_factor(283211) == GoldenInt(235, -476)
    assert classify_rational_prime(283211).kind == "split"


def test_classification_rejects_composite():
    with pytest.raises(ValueError):
        classify_rational_prime(6)
    with pytest.raises(ValueError, match="1000000016000000063 is not prime"):
        classify_rational_prime((10**9 + 7) * (10**9 + 9))


def test_is_prime_matches_sympy():
    """Every n below 10^5, strong pseudoprimes to the first bases (2; 2 to
    7; 2 to 23), and primes and semiprimes far beyond trial division."""
    assert [n for n in range(-2, 10**5) if is_prime(n) != isprime(n)] == []
    for n in (2047, 3215031751, 3825123056546413051, 10**18 + 3, 10**18 + 9,
              (10**9 + 7) * (10**9 + 9), 2**89 - 1, 2**127 - 1,
              (2**61 - 1) * (2**89 - 1)):
        assert is_prime(n) == isprime(n), n


@pytest.mark.parametrize("n", range(1, 301))
def test_factor(n):
    f = factor(n)
    assert prod(p**e for p, e in f.items()) == n
    assert all(isprime(p) and e >= 1 for p, e in f.items())


@pytest.mark.parametrize("n", [0, -4])
def test_factor_rejects_nonpositive(n):
    with pytest.raises(ValueError):
        factor(n)


@given(small)
def test_canonical_associate_idempotent(x):
    if x:
        c = canonical_associate(x)
        assert Modulus.ideal(c) == Modulus.ideal(x)
        assert canonical_associate(c) == c
        assert canonical_associate(-x) == c


@given(elems.filter(bool), st.integers(-8, 8))
@example(GoldenInt(1, 0), -8)
@example(GoldenInt(-3, 5), 8)
def test_canonical_associate_is_unit_invariant(x, k):
    """+-L^k x all have x's canonical associate: `Modulus` prints a split
    prime's factor through it."""
    u = ONE
    for _ in range(abs(k)):
        u = u * (LAMBDA if k > 0 else LAMBDA.inverse())
    c = canonical_associate(x)
    assert canonical_associate(u * x) == c
    assert canonical_associate(-u * x) == c


def canonical_associate_by_lookahead(x: GoldenInt) -> GoldenInt:
    """The oracle for `canonical_associate`: search each direction until
    three steps in a row find no lighter associate, then break ties among
    the least one's L-neighbours."""
    if not x:
        return x
    lam_inv = GoldenInt(-1, 1)

    def weight(y: GoldenInt) -> int:
        return abs(y.a) + abs(y.b)

    best = x
    for step in (LAMBDA, lam_inv):
        cur = best
        stale = 0
        while stale < 3:
            cur = cur * step
            if weight(cur) < weight(best):
                best, stale = cur, 0
            else:
                stale += 1
    candidates = [best, -best]
    for step in (LAMBDA, lam_inv):
        y = best * step
        if weight(y) == weight(best):
            candidates += [y, -y]
    ties = [y for y in candidates if weight(y) == weight(best)]
    return min(ties, key=lambda y: (-(y.a > 0), -(y.b > 0), y.a, y.b))


# Associates of least weight at two adjacent k, then at one k, then zero.
@given(huge)
@example(ONE)  # 1 and L, weight 1
@example(GoldenInt(0, -1))  # -L and -1
@example(GoldenInt(0, 3))  # 3L and 3
@example(GoldenInt(-7, -7))  # -7L^2: -7 and -7L, weight 7
@example(GoldenInt(-1, 2))  # -1+2L and 2+L, weight 3
@example(GoldenInt(-4, 3))  # (-1+2L) L^-1: one step down to that tie
@example(GoldenInt(5, 8))  # L^6: six steps down to the tie of 1 and L
@example(GoldenInt(5, -2))  # (3+L) L^-1: 3+L alone has weight 4
@example(GoldenInt(3, 1))  # 3+L itself
@example(ZERO)
def test_canonical_associate_matches_the_lookahead(x):
    assert canonical_associate(x) == canonical_associate_by_lookahead(x)


def test_canonical_associate_matches_the_lookahead_on_a_grid():
    grid = [GoldenInt(a, b) for a in range(-60, 61) for b in range(-60, 61)]
    assert [x for x in grid if canonical_associate(x)
            != canonical_associate_by_lookahead(x)] == []


@given(elems.filter(bool))
@example(ONE)
@example(GoldenInt(3, 0))
@example(GoldenInt(-5, 8))
def test_associate_weight_falls_steps_once_then_rises(x):
    """w(k) = |a| + |b| of L^k x over k in -40..40: strictly falling, one
    step of either sign (or 0), then strictly rising."""
    y = x
    for _ in range(40):
        y = y * GoldenInt(-1, 1)  # L^-1
    w = []
    for _ in range(81):
        w.append(abs(y.a) + abs(y.b))
        y = y * LAMBDA
    steps = [v - u for u, v in zip(w, w[1:])]
    falls = next((i for i, d in enumerate(steps) if d >= 0), len(steps))
    assert all(d > 0 for d in steps[falls + 1:]), steps


class TestModulus:
    def test_ring_sizes(self):
        assert Modulus.rational(2).ring_size == 4
        assert Modulus.ideal(RAMIFIED_PRIME).ring_size == 5
        assert Modulus.ideal(GoldenInt(3, 1)).ring_size == 11

    def test_rational_integer_below(self):
        # d1 is the least positive rational integer in the ideal
        assert Modulus.ideal(RAMIFIED_PRIME).d1 == 5
        assert Modulus.ideal(GoldenInt(3, 1)).d1 == 11
        assert Modulus.rational(6).d1 == 6

    def test_divides(self):
        assert Modulus.rational(2).divides(Modulus.rational(6))
        assert not Modulus.rational(4).divides(Modulus.rational(6))
        assert Modulus.ideal(RAMIFIED_PRIME).divides(Modulus.rational(5))

    @given(small, small)
    def test_reduce_is_ring_homomorphism(self, x, y):
        for m in (Modulus.rational(6), Modulus.ideal(RAMIFIED_PRIME),
                  Modulus.ideal(GoldenInt(3, 1))):
            r = ring_tables(m)
            i, j = r.at(x.a, x.b), r.at(y.a, y.b)
            assert r.at((x + y).a, (x + y).b) == r.red[r.wide[i] + r.wide[j]]
            assert r.at((x * y).a, (x * y).b) == r.red[r.mul[i][j]]

    @given(st.builds(GoldenInt, st.integers(-10**12, 10**12),
                     st.integers(-10**12, 10**12)).filter(bool))
    @example(GoldenInt(6, 0))
    @example(LAMBDA)
    @example(GoldenInt(5, 5))
    @example(GoldenInt(4, 2))
    @example(GoldenInt(-3, -1))
    @example(GoldenInt(235, -476))
    def test_ideal_hnf_is_a_basis_of_the_ideal(self, g):
        """(d1, 0) and (c, d2) lie in (g), and their lattice has the
        index |N(g)| of (g), so they are a basis of it, in Hermite form."""
        m = Modulus.ideal(g)
        assert m.d1 * m.d2 == abs(g.norm())
        assert m.d2 > 0 and 0 <= m.c < m.d1
        assert GoldenInt(m.d1, 0).divisible_by(g)
        assert GoldenInt(m.c, m.d2).divisible_by(g)

    def test_residue_count(self):
        m = Modulus.ideal(GoldenInt(2, 1))
        assert len(list(m.residues())) == 5

    def test_kernel_of_reduction(self):
        m = Modulus.ideal(RAMIFIED_PRIME)
        assert m.contains(GoldenInt(5, 0))
        assert m.contains(RAMIFIED_PRIME * GoldenInt(-3, 7))
        assert not m.contains(ONE)


# Residue-index tables: rational moduli and the ideals 2+L (norm 5) and
# 4+2*L (norm 20, where d1 != d2 and c != 0).
table_moduli = st.one_of(
    st.integers(1, 12).map(Modulus.rational),
    st.sampled_from([Modulus.ideal(GoldenInt(2, 1)),
                     Modulus.ideal(GoldenInt(4, 2))]),
)


def reduced_index(m, x):
    a, b = m.reduce_pair(x.a, x.b)
    return a * m.d2 + b


@given(table_moduli, small, small)
def test_ring_tables_match_golden_arithmetic(m, x, y):
    r = ring_tables(m)
    i, j = r.at(x.a, x.b), r.at(y.a, y.b)
    assert i == reduced_index(m, x) and j == reduced_index(m, y)
    assert r.pair(i) == m.reduce_pair(x.a, x.b)
    assert r.red[r.wide[i] + r.wide[j]] == reduced_index(m, x + y)
    assert r.red[r.mul[i][j]] == reduced_index(m, x * y)
    assert r.neg[i] == reduced_index(m, -x)
    assert r.red[r.lam[i]] == reduced_index(m, LAMBDA * x)


@pytest.mark.parametrize("m", [Modulus.rational(n) for n in range(1, 17)] + [
    Modulus.ideal(GoldenInt(*g)) for g in [(2, 1), (4, 2), (3, 1), (5, 5)]],
    ids=str)
def test_ring_tables_equal_the_per_entry_tables(m):
    """Every entry of `mul` and `red` against `reduce_pair` of the
    `GoldenInt` product or sum, one call per entry (the oracle)."""
    r, span = ring_tables(m), 2 * m.d2
    pairs = list(m.residues())
    assert r.mul == [[r.wide[reduced_index(m, GoldenInt(*x) * GoldenInt(*y))]
                      for y in pairs] for x in pairs]
    assert r.red == [
        reduced_index(m, GoldenInt(x // span, 0) + GoldenInt(0, x % span))
        for x in range(4 * m.ring_size)]


def test_ring_index_order_is_pair_order():
    for m in (Modulus.rational(6), Modulus.ideal(GoldenInt(4, 2))):
        pairs = list(m.residues())
        assert [ring_tables(m).at(a, b) for a, b in pairs] == list(range(len(pairs)))
