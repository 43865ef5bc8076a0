"""Determinant-1 matrices over Z[L], words in the generators S and T.

S = [[0, 1], [-1, 0]] and T = [[1, L], [0, 1]] generate the homogeneous group.
Every matrix here is a `GMat` with a definite sign: `eval_word` gives the
exact product of a word's letters, so S^2 evaluates to -I.  The projective
group G5 identifies M with -M, and only the keys of a projective
`quotients.QuotientGroup` do that.

`eval_word` applies the letters to the four entries as column steps and
builds one `GMat` at the end.  `decompose` solves the word problem by the
nearest-L continued fraction (Rosen, 1954) in the real embedding: repeatedly
split off T^k S, with k the nearest integer to emb(e11) / emb(L e21), until
the matrix is upper triangular, on the four entries alone.  The new e21 is
e11 - kL e21, and |t - k| <= 1/2 for t = emb(e11) / emb(L e21), so each step
multiplies |emb(e21)| by at most L/2 < 1.  A matrix is rejected as lying
outside the group when its terminal triangular form is not +-T^j, or when
the reduction passes its step bound.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .golden_ring import GoldenInt, LAMBDA, ONE, ZERO, emb_ratio_round, factor


class NotInG5Error(ValueError):
    """Raised when a determinant-1 matrix is provably not a word in S, T."""


@dataclass(frozen=True)
class GMat:
    e11: GoldenInt
    e12: GoldenInt
    e21: GoldenInt
    e22: GoldenInt

    def __post_init__(self):
        if self.det() != ONE:
            raise ValueError(f"determinant of {self} is not 1")

    def det(self) -> GoldenInt:
        return self.e11 * self.e22 - self.e12 * self.e21

    def __mul__(self, other: "GMat") -> "GMat":
        a, b, c, d = self.e11, self.e12, self.e21, self.e22
        e, f, g, h = other.e11, other.e12, other.e21, other.e22
        return GMat(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def __neg__(self) -> "GMat":
        return GMat(-self.e11, -self.e12, -self.e21, -self.e22)

    def inv(self) -> "GMat":
        return GMat(self.e22, -self.e12, -self.e21, self.e11)

    def entries(self) -> tuple[GoldenInt, GoldenInt, GoldenInt, GoldenInt]:
        return (self.e11, self.e12, self.e21, self.e22)

    def __str__(self) -> str:
        return f"[[{self.e11},{self.e12}],[{self.e21},{self.e22}]]"


IDENTITY = GMat(ONE, ZERO, ZERO, ONE)
S_MAT = GMat(ZERO, ONE, -ONE, ZERO)
T_MAT = GMat(ONE, LAMBDA, ZERO, ONE)


def translation(x: GoldenInt) -> GMat:
    """[[1, x], [0, 1]]; T^k = translation(k*L)."""
    return GMat(ONE, x, ZERO, ONE)


# ---------------------------------------------------------------------------
# Words.

Letter = tuple[str, int]  # ("S" | "T", nonzero exponent)


@dataclass(frozen=True)
class Word:
    letters: tuple[Letter, ...]

    def __post_init__(self):
        for gen, exp in self.letters:
            if gen not in ("S", "T") or exp == 0:
                raise ValueError(f"bad letter {(gen, exp)}")
        for (g1, _), (g2, _) in zip(self.letters, self.letters[1:]):
            if g1 == g2:
                raise ValueError("word is not freely reduced")

    def __mul__(self, other: "Word") -> "Word":
        return word(list(self.letters) + list(other.letters))

    def inv(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(g if e == 1 else f"{g}^{e}" for g, e in self.letters)


def word(letters) -> Word:
    """Build a freely reduced Word from (gen, exp) pairs."""
    out: list[Letter] = []
    for gen, exp in letters:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return Word(tuple(out))


# letters apart by whitespace, then an optional "1"; not "1?\s*", which tries
# quadratically many splits of a long blank tail before refusing it
_WORD = re.compile(r"\s*(?:[ST](?:\^-?\d+)?\s*)*(?:1\s*)?")
_WORD_TOKEN = re.compile(r"([ST])(?:\^(-?\d+))?")


def parse_word(text: str) -> Word:
    if not _WORD.fullmatch(text):
        raise ValueError(f"malformed word: {text!r}")
    return word((g, int(e or 1)) for g, e in _WORD_TOKEN.findall(text))


def eval_word(w: Word) -> GMat:
    """The exact product of the letters' matrices, one column step per letter:
    T^k adds kL times column 1 to column 2, and S^e turns the columns by
    e mod 4 quarter turns, (a, b, c, d) -> (-b, a, -d, c)."""
    a, b, c, d = ONE, ZERO, ZERO, ONE
    for gen, exp in w.letters:
        if gen == "T":
            kl = GoldenInt(0, exp)
            b, d = b + kl * a, d + kl * c
        else:
            for _ in range(exp % 4):
                a, b, c, d = -b, a, -d, c
    return GMat(a, b, c, d)


# ---------------------------------------------------------------------------
# Word problem.

_MAX_REDUCTION_STEPS = 10_000


def decompose(m: GMat) -> Word:
    """A word in S, T evaluating to m or -m; NotInG5Error if there is none.

    m is read up to sign: each step is linear in the entries and k depends
    only on their ratio, so -m takes the same steps to the negated terminal
    matrix, and the sign of its diagonal is folded into the last T^j.  Thus
    decompose(-m) == decompose(m)."""
    # m checked det = 1 when it was built, and each step keeps it
    e11, e12, e21, e22 = m.entries()
    letters: list[Letter] = []
    for _ in range(_MAX_REDUCTION_STEPS):
        if not e21:
            break
        k = emb_ratio_round(e11, LAMBDA * e21)
        # m <- S^-1 T^-k m, rows (-row 2, row 1 - kL row 2); record T^k S
        kl = GoldenInt(0, k)
        e11, e12, e21, e22 = -e21, -e22, e11 - kl * e21, e12 - kl * e22
        letters += [("T", k), ("S", 1)]
    else:
        raise NotInG5Error("reduction did not terminate")
    if e11 not in (ONE, -ONE) or e11 != e22:
        terminal = GMat(e11, e12, e21, e22)
        raise NotInG5Error(
            f"terminal triangular matrix {terminal} has non-trivial unit")
    sign = 1 if e11 == ONE else -1
    if e12.a != 0:
        raise NotInG5Error(f"terminal translation {e12} is not a multiple of L")
    letters.append(("T", sign * e12.b))
    return word(letters)


# ---------------------------------------------------------------------------
# Generator sets from the appendix word recipes.


_S, _T = word([("S", 1)]), word([("T", 1)])


def _conj(g: Word, x: Word) -> Word:
    return g * x * g.inv()


def _abc(n: int) -> tuple[Word, Word, Word]:
    """A = T^n, B = S A S^-1 and C = T B T^-1."""
    a = word([("T", n)])
    b = _conj(_S, a)
    return a, b, _conj(_T, b)


def _ge_gf(n: int) -> tuple[Word, Word]:
    """GE and GF from T^n, where E = A^-2 B^-1 C, F = A^2 B D with
    D = T^-1 S A^-1 S^-1 T, and G = S E S^-1."""
    a, b, c = _abc(n)
    e = a.inv() * a.inv() * b.inv() * c
    f = a * a * b * _conj(_T.inv(), _conj(_S, a.inv()))
    g = _conj(_S, e)
    return g * e, g * f


def delta_m_words(m: int) -> list[Word]:
    """The six normal-closure witness words for T^m.

    The last three are built from X = (GEGF)^r with 2r = 1 mod p for the
    smallest odd prime divisor p of m (r = 1 if there is none; the mod-mp
    residue table only applies when such a p exists).
    """
    if m < 1:
        raise ValueError("m must be positive")
    p = delta_prime(m)
    r = 1 if p is None else ((p + 1) // 2)  # minimal r with 2r = 1 (mod p)
    ge, gf = _ge_gf(m)
    xs = word(list((ge * gf).letters) * r)  # (GEGF)^r
    return [*_abc(m), _conj(_S, xs), xs, _conj(_T, xs)]


def delta_prime(m: int) -> int | None:
    """The smallest odd prime factor of m, or None: the p of `delta_m_words`."""
    return min((q for q in factor(m) if q % 2), default=None)


def elementary_generators(m: int) -> list[GMat]:
    """The six explicit det-1 matrices generating the order-p^6 group mod mp.

    These are the matrix *residue representatives*; unlike the values of
    `delta_m_words` they need not lie in the group itself.
    """
    lam = LAMBDA
    lam2 = lam * lam
    lam3 = lam2 * lam
    mm = GoldenInt(m, 0)
    return [
        translation(mm * lam),
        GMat(ONE, ZERO, -(mm * lam), ONE),
        GMat(ONE - mm * lam2, mm * lam3, -(mm * lam), ONE + mm * lam2),
        translation(mm),
        GMat(ONE, ZERO, -mm, ONE),
        GMat(ONE - mm * lam, mm * lam2, -mm, ONE + mm * lam),
    ]


def omega_2() -> list[GMat]:
    """The four independent generators of the principal level-2 subgroup."""
    two_lam = GoldenInt(0, 2)
    one_2lam = GoldenInt(1, 2)
    two_2lam = GoldenInt(2, 2)
    return [
        translation(two_lam),
        GMat(ONE, ZERO, two_lam, ONE),
        GMat(one_2lam, two_2lam, two_lam, one_2lam),
        GMat(one_2lam, two_lam, two_2lam, one_2lam),
    ]


def appendix_b_words(m: int) -> list[Word]:
    """Five words in the normal closure of T^(2m), m odd: A, B, C, GE, T(GE)T^-1."""
    if m < 1 or m % 2 == 0:
        raise ValueError("m must be odd and positive")
    ge, _ = _ge_gf(2 * m)
    return [*_abc(2 * m), ge, _conj(_T, ge)]


def appendix_c_words(m: int) -> list[Word]:
    """Six words in the normal closure of T^m for 4 | m, built on Y = GEGF."""
    if m % 4 != 0:
        raise ValueError("m must be a multiple of 4")
    ge, gf = _ge_gf(m)
    y = ge * gf
    return [*_abc(2 * m), _conj(_S, y), y, _conj(_T, y)]
