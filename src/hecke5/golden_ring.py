"""Exact arithmetic in Z[L], L = golden ratio, the ring of integers of Q(sqrt 5).

Elements are stored as integer pairs (a, b) meaning a + b*L with L^2 = L + 1.
Everything here is pure integer arithmetic; no floating point is used anywhere,
including the real-embedding rounding that the matrix reduction needs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd, isqrt


@dataclass(frozen=True)
class GoldenInt:
    """a + b*L with arbitrary-precision integer coordinates."""

    a: int
    b: int

    def __add__(self, other: "GoldenInt") -> "GoldenInt":
        return GoldenInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "GoldenInt") -> "GoldenInt":
        return GoldenInt(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "GoldenInt":
        return GoldenInt(-self.a, -self.b)

    def __mul__(self, other: "GoldenInt") -> "GoldenInt":
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        bb = b1 * b2
        return GoldenInt(a1 * a2 + bb, a1 * b2 + a2 * b1 + bb)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def conj(self) -> "GoldenInt":
        """Galois conjugate, L -> 1 - L."""
        return GoldenInt(self.a + self.b, -self.b)

    def norm(self) -> int:
        """Signed norm a^2 + a*b - b^2 (= self * self.conj())."""
        return self.a * self.a + self.a * self.b - self.b * self.b

    def inverse(self) -> "GoldenInt":
        """Inverse of a unit."""
        n = self.norm()
        if abs(n) != 1:
            raise ValueError(f"{self} is not a unit")
        c = self.conj()
        return c if n == 1 else -c

    def divisible_by(self, d: "GoldenInt") -> bool:
        n = d.norm()
        if n == 0:
            return not self
        z = self * d.conj()
        return z.a % n == 0 and z.b % n == 0

    def __str__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        if b == 1:
            lam = "L"
        elif b == -1:
            lam = "-L"
        else:
            lam = f"{b}*L"
        if a == 0:
            return lam
        return f"{a}+{lam}" if not lam.startswith("-") else f"{a}{lam}"


ZERO = GoldenInt(0, 0)
ONE = GoldenInt(1, 0)
LAMBDA = GoldenInt(0, 1)

_GOLDEN_RE = re.compile(
    r"""^\s*
    (?:(?P<a>[+-]?\d+)\s*(?=[+-]|$))?             # integer part: ends at a sign or the end
    (?:(?P<sign>[+-])?\s*(?:(?P<b>\d+)\s*\*\s*)?(?P<lam>L))?   # lambda part
    \s*$""",
    re.VERBOSE,
)


def parse_golden(text: str) -> GoldenInt:
    """Parse the `a+b*L` grammar (whitespace insignificant)."""
    m = _GOLDEN_RE.match(text)
    if not m or (m.group("a") is None and m.group("lam") is None):
        raise ValueError(f"malformed ring element: {text!r}")
    a = int(m.group("a")) if m.group("a") is not None else 0
    if m.group("lam") is None:
        return GoldenInt(a, 0)
    b = int(m.group("b")) if m.group("b") is not None else 1
    if m.group("sign") == "-":
        b = -b
    return GoldenInt(a, b)


# ---------------------------------------------------------------------------
# Real-embedding rounding (L -> (1+sqrt5)/2), exact integer arithmetic.


def emb_ratio_round(x: GoldenInt, y: GoldenInt) -> int:
    """Nearest integer to emb(x)/emb(y), halves rounded up, exact; y nonzero."""
    n = y.norm()
    z = x * y.conj()  # emb(x)/emb(y) = emb(z)/n
    A, B = 2 * z.a + z.b, z.b
    if n < 0:
        A, B, n = -A, -B, -n
    # round(t) = floor((A + n + B sqrt5) / 2n) with t = (A + B sqrt5) / 2n,
    # and floor((N + b) / C) = (N + floor(b)) // C for integers N, C > 0;
    # floor(B sqrt5) is exact, as 5 B^2 is a square only at B = 0
    f = isqrt(5 * B * B) if B >= 0 else -isqrt(5 * B * B) - 1
    return (A + n + f) // (2 * n)


# ---------------------------------------------------------------------------
# Moduli; residue arithmetic is `RingTables`.


@dataclass(frozen=True)
class Modulus:
    """A rational integer n or an ideal (g), with the HNF lattice basis.

    The reduction lattice is {x*g : x in Z[L]} in (a, b) coordinates, with
    basis vectors (d1, 0) and (c, d2), 0 <= c < d1.  Moduli are equal when
    their HNFs are, so Rational(n), Ideal(n) and Ideal(u*n) for a unit u
    are one modulus: `kind` and `generator` only decide how `str()` prints
    it.
    """

    kind: str = field(compare=False)  # "rational" | "ideal"
    generator: GoldenInt = field(compare=False)
    d1: int
    c: int
    d2: int

    @staticmethod
    def rational(n: int) -> "Modulus":
        if n <= 0:
            raise ValueError("rational modulus must be positive")
        return Modulus("rational", GoldenInt(n, 0), n, 0, n)

    @staticmethod
    def ideal(g: GoldenInt) -> "Modulus":
        if not g:
            raise ValueError("ideal modulus must be nonzero")
        d1, c, d2 = _ideal_hnf(g)
        return Modulus("ideal", g, d1, c, d2)

    @property
    def ring_size(self) -> int:
        return self.d1 * self.d2

    def reduce_pair(self, a: int, b: int) -> tuple[int, int]:
        d1, c, d2 = self.d1, self.c, self.d2
        j, b = divmod(b, d2)
        return (a - j * c) % d1, b

    def contains(self, x: GoldenInt) -> bool:
        return self.reduce_pair(x.a, x.b) == (0, 0)

    def divides(self, other: "Modulus") -> bool:
        """True iff (other.generator) is contained in (self.generator)."""
        return self.contains(other.generator)

    def residues(self):
        """All canonical residue pairs, ring_size of them."""
        for a in range(self.d1):
            for b in range(self.d2):
                yield (a, b)

    def __str__(self) -> str:
        if self.kind == "rational":
            return str(self.generator.a)
        return f"({self.generator})"


def _ideal_hnf(g: GoldenInt) -> tuple[int, int, int]:
    """HNF (d1, c, d2) of (g) = e(h), e = gcd(a, b), h = a' + b'L primitive:
    Z[L]/(h) is Z/N, N = |N(h)|, so (h) has basis (N, 0), (c, 1) with
    c = a'/b' mod N (c + L is in (h)); gcd(b', N) = gcd(b', a'^2) = 1."""
    e = gcd(g.a, g.b)
    a, b = g.a // e, g.b // e
    n = abs(a * a + a * b - b * b)
    return e * n, e * (a * pow(b, -1, n) % n), e


class RingTables:
    """Arithmetic of Z[L]/m on residue indices i = a*d2 + b.

    (a, b) is the canonical pair, 0 <= a < d1 and 0 <= b < d2, so index
    order is the lexicographic order of pairs.  Sums go through spaced
    indices a*2*d2 + b (`wide`): two add without a carry from b into a.
    `red` takes a sum A*2*d2 + j*d2 + b back to its index, the residue of
    A - j*c + bL (c + d2*L is in the lattice).  So x + y is
    red[wide[x] + wide[y]].  `neg` and `lam` (times L, spaced) have
    ring_size entries.  `mul`, ring_size rows of ring_size spaced entries,
    is built on first read, as x*y is additive in x: row a + bL is row
    a + (b-1)L plus `lam`, and row a is row a-1 plus `wide`.
    `ring_tables` caches and shares them: treat them as read-only.
    """

    def __init__(self, m: Modulus):
        d1, c, d2 = m.d1, m.c, m.d2
        self.modulus = m
        pairs = list(m.residues())
        self.wide = wide = [a * 2 * d2 + b for a, b in pairs]
        self.neg = [self.at(-a, -b) for a, b in pairs]
        # L(a + bL) = b + (a + b)L
        self.lam = [wide[self.at(b, a + b)] for a, b in pairs]
        self.red = [((A - j * c) % d1) * d2 + b
                    for A in range(2 * d1) for j in (0, 1) for b in range(d2)]

    @cached_property
    def mul(self) -> list[list[int]]:
        wide, lam, d2 = self.wide, self.lam, self.modulus.d2
        w = [wide[i] for i in self.red]  # a sum of spaced values, reduced
        rows = [[0] * len(wide)]  # 0 times y
        for i in range(1, len(wide)):
            prev, step = (rows[i - 1], lam) if i % d2 else (rows[i - d2], wide)
            rows.append([w[u + v] for u, v in zip(prev, step)])
        return rows

    def at(self, a: int, b: int) -> int:
        """Index of a + b*L for any integers a, b."""
        a, b = self.modulus.reduce_pair(a, b)
        return a * self.modulus.d2 + b

    def pair(self, i: int) -> tuple[int, int]:
        return divmod(i, self.modulus.d2)


ring_tables = lru_cache(maxsize=64)(RingTables)


# ---------------------------------------------------------------------------
# Prime classification.

RAMIFIED_PRIME = GoldenInt(2, 1)  # 2 + L, the prime above 5


@dataclass(frozen=True)
class PrimeClassification:
    kind: str  # "ramified" | "inert" | "split"
    factors: tuple[GoldenInt, ...]


def factor(n: int) -> dict[int, int]:
    """Prime factorisation {p: exponent} of n >= 1 by trial division."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 37, exact for n < 3.18e23
    (Sorenson and Webster, 2015); no trial division."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    for a in bases:  # mod a prime, x = 1 or one of its squarings is -1
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 2**i, n) != n - 1 for i in range(s)):
            return False
    return True


def classify_rational_prime(p: int) -> PrimeClassification:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 5:
        return PrimeClassification("ramified", (RAMIFIED_PRIME,))
    if p % 10 in (1, 9):
        f = _split_factor(p)
        return PrimeClassification("split", (f, canonical_associate(f.conj())))
    return PrimeClassification("inert", (GoldenInt(p, 0),))


def _split_factor(p: int) -> GoldenInt:
    """The a + b*L of norm +-p with the least b, then the least a: the
    roots of a^2 + ab - b^2 = +-p are a = (-b +- r) / 2, r^2 = 5b^2 +- 4p."""
    for b in range(p + 1):
        roots = [(-b + sign * r) // 2
                 for n in (5 * b * b - 4 * p, 5 * b * b + 4 * p) if n >= 0
                 for r in [isqrt(n)] if r * r == n for sign in (-1, 1)]
        if roots:
            return canonical_associate(GoldenInt(min(roots), b))
    raise RuntimeError(f"no factor of split prime {p} found")  # unreachable


def canonical_associate(x: GoldenInt) -> GoldenInt:
    """Deterministic representative of the associate class of x.

    Scales by +-L^k to minimise |a| + |b|; ties broken by preferring a > 0,
    then b > 0, then the least a and b.

    Write L^k x = f_k + f_(k+1) L, so f_(k+2) = f_(k+1) + f_k, and let
    w(k) = |f_k| + |f_(k+1)|.  Then w(k+1) - w(k) = |f_(k+2)| - |f_k|:
    -|f_(k+1)| while f_k, f_(k+1), f_(k+2) alternate in sign, and
    +|f_(k+1)| once f_k and f_(k+1) agree, after which all later terms
    agree.  So w falls strictly, takes one step of either sign (or 0),
    then rises strictly: its least value sits at one k or at two adjacent
    ones.  Stepping by L, then by L^-1, while w strictly drops reaches one
    of them; the other, if any, is an L-neighbour of equal weight.
    """
    if not x:
        return x

    def weight(y: GoldenInt) -> int:
        return abs(y.a) + abs(y.b)

    steps = (LAMBDA, GoldenInt(-1, 1))  # L and L^-1 = L - 1
    for step in steps:
        while weight(y := x * step) < weight(x):
            x = y
    ties = [x] + [y for y in (x * step for step in steps)
                  if weight(y) == weight(x)]
    return min([y for t in ties for y in (t, -t)],
               key=lambda y: (-(y.a > 0), -(y.b > 0), y.a, y.b))
