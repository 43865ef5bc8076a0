"""Hecke-Farey symbols: parsing, side-pairing generators, cusp widths.

A symbol is an ordered list of cusps from -inf to inf with one label per
consecutive pair: `o` (an order-2 pairing of the edge with itself), `*`
(an order-5 pairing) or a positive integer occurring exactly twice (an
infinite-order pairing of the two edges that carry it).

Cusps are kept as formal fractions over Z[L] exactly as written: L/L is
distinct from 1/1, and the unreduced coordinates are what make consecutive
pairs unimodular.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .golden_ring import GoldenInt, parse_golden
from .hecke_matrices import (
    GMat, ProjMat, S_MAT, T_MAT, decompose,
)

_U5 = S_MAT * T_MAT  # order-5 rotation pairing the edge (-inf, 0)


@dataclass(frozen=True)
class Cusp:
    """Formal fraction num/den; (-1, 0) encodes -inf and (1, 0) encodes inf."""

    num: GoldenInt
    den: GoldenInt

    def __post_init__(self):
        if not self.den and self.num not in (GoldenInt(1, 0), GoldenInt(-1, 0)):
            raise ValueError("cusp with zero denominator must be +-inf")

    @property
    def is_minus_inf(self) -> bool:
        return not self.den and self.num == GoldenInt(-1, 0)

    @property
    def is_plus_inf(self) -> bool:
        return not self.den and self.num == GoldenInt(1, 0)

    def __str__(self) -> str:
        if self.is_minus_inf:
            return "-inf"
        if self.is_plus_inf:
            return "inf"
        if self.den == GoldenInt(1, 0):
            return str(self.num)
        return f"{self.num}/{self.den}"


EVEN = "o"
ODD = "*"

Label = str | int  # EVEN, ODD, or the positive integer of a free pair


@dataclass(frozen=True)
class HeckeFareySymbol:
    vertices: tuple[Cusp, ...]
    labels: tuple[Label, ...]

    def __post_init__(self):
        if len(self.vertices) < 2 or len(self.labels) != len(self.vertices) - 1:
            raise ValueError("vertex/label counts do not form a symbol")
        if not self.vertices[0].is_minus_inf or not self.vertices[-1].is_plus_inf:
            raise ValueError("symbol must run from -inf to inf")
        for v in self.vertices[1:-1]:
            if not v.den:
                raise ValueError("interior vertices must be finite cusps")
        counts: dict[int, int] = {}
        for lab in self.labels:
            if isinstance(lab, int):
                if lab < 1:
                    raise ValueError(f"free label {lab} must be positive")
                counts[lab] = counts.get(lab, 0) + 1
            elif lab not in (EVEN, ODD):
                raise ValueError(f"unknown label {lab!r}")
        for lab, c in counts.items():
            if c != 2:
                raise ValueError(f"free label {lab} occurs {c} times, need exactly 2")

    def edges(self) -> list[tuple[Cusp, Cusp, Label]]:
        return [(self.vertices[i], self.vertices[i + 1], lab)
                for i, lab in enumerate(self.labels)]

    def __str__(self) -> str:
        parts = []
        for i, v in enumerate(self.vertices):
            parts.append(str(v))
            if i < len(self.labels):
                parts.append(str(self.labels[i]))
        return "[" + "; ".join(parts) + "]"


def parse_hfs(text: str) -> HeckeFareySymbol:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError("symbol must be bracketed")
    items = [s.strip() for s in text[1:-1].split(";")]
    if len(items) % 2 == 0 or len(items) < 3:
        raise ValueError("symbol must alternate vertex; label; vertex; ...")
    vertices = [_parse_cusp(s) for s in items[0::2]]
    labels = [_parse_label(s) for s in items[1::2]]
    return HeckeFareySymbol(tuple(vertices), tuple(labels))


def _parse_cusp(s: str) -> Cusp:
    if s == "-inf":
        return Cusp(GoldenInt(-1, 0), GoldenInt(0, 0))
    if s == "inf":
        return Cusp(GoldenInt(1, 0), GoldenInt(0, 0))
    if "/" in s:
        num, den = s.split("/", 1)
        return Cusp(parse_golden(num), parse_golden(den))
    return Cusp(parse_golden(s), GoldenInt(1, 0))


def _parse_label(s: str) -> Label:
    if s == EVEN or s == ODD:
        return s
    try:
        n = int(s)
    except ValueError:
        raise ValueError(f"unknown label {s!r}") from None
    return n


# ---------------------------------------------------------------------------
# Side pairings.


def _pair_even(u: Cusp, v: Cusp) -> GMat:
    """Trace-0 element swapping u and v: W R W^-1 with R the quarter turn."""
    det = u.num * v.den - v.num * u.den
    if abs(det.norm()) != 1:
        raise ValueError(f"edge ({u}, {v}) is not unimodular")
    a, b, c, d = u.num, u.den, v.num, v.den
    inv = det.inverse()
    # W * [[0,-1],[1,0]] * adj(W) * det^-1 with W = [u v]
    t = a * b + c * d
    return GMat(t * inv, -(a * a + c * c) * inv,
                (b * b + d * d) * inv, -t * inv)


def _pair_odd(u: Cusp, v: Cusp) -> GMat:
    """Order-5 element pairing the edge (u, v), conjugate of the basic rotation."""
    det = u.num * v.den - v.num * u.den
    if abs(det.norm()) != 1:
        raise ValueError(f"edge ({u}, {v}) is not unimodular")
    # M maps the basic edge (-inf, 0) onto (u, v); M = [-u, v]
    m11, m21, m12, m22 = -u.num, -u.den, v.num, v.den
    mdet = -det
    inv = mdet.inverse()
    u5 = _U5
    # M * U5 * adj(M) * mdet^-1
    p11 = m11 * u5.e11 + m12 * u5.e21
    p12 = m11 * u5.e12 + m12 * u5.e22
    p21 = m21 * u5.e11 + m22 * u5.e21
    p22 = m21 * u5.e12 + m22 * u5.e22
    return GMat((p11 * m22 - p12 * m21) * inv, (-p11 * m12 + p12 * m11) * inv,
                (p21 * m22 - p22 * m21) * inv, (-p21 * m12 + p22 * m11) * inv)


def _pair_free(u1: Cusp, v1: Cusp, u2: Cusp, v2: Cusp) -> GMat:
    """Infinite-order element mapping edge (u1, v1) onto (u2, v2) reversed."""
    d1 = u1.num * v1.den - v1.num * u1.den
    d2 = u2.num * v2.den - v2.num * u2.den
    if abs(d1.norm()) != 1 or abs(d2.norm()) != 1:
        raise ValueError("free edges must be unimodular")
    inv = d1.inverse()
    # [v2, -u2] * adj([u1 v1]) * d1^-1
    a, b = v2.num, v2.den
    c, d = -u2.num, -u2.den
    w11, w12, w21, w22 = v1.den, -v1.num, -u1.den, u1.num  # adj([u1 v1])
    return GMat((a * w11 + c * w21) * inv, (a * w12 + c * w22) * inv,
                (b * w11 + d * w21) * inv, (b * w12 + d * w22) * inv)


def side_pairing(hfs: HeckeFareySymbol) -> list[ProjMat]:
    """One generator per even label, odd label, and free pair, in symbol order."""
    gens: list[ProjMat] = []
    free_first: dict[int, tuple[Cusp, Cusp]] = {}
    for u, v, lab in hfs.edges():
        if lab == EVEN:
            gens.append(ProjMat.of(_pair_even(u, v)))
        elif lab == ODD:
            gens.append(ProjMat.of(_pair_odd(u, v)))
        elif lab in free_first:
            u1, v1 = free_first.pop(lab)
            gens.append(ProjMat.of(_pair_free(u1, v1, u, v)))
        else:
            free_first[lab] = (u, v)
    for g in gens:
        decompose(g)  # raises NotInG5Error for an invalid symbol
    return gens


# ---------------------------------------------------------------------------
# Cusp classes, widths and geometric level.


def _vertex_classes(hfs: HeckeFareySymbol) -> list[int]:
    """Union-find classes of vertex indices under the pairing identifications."""
    n = len(hfs.vertices)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    union(0, n - 1)  # -inf and inf are the same cusp
    free_first: dict[int, tuple[int, int]] = {}
    for i, lab in enumerate(hfs.labels):
        if lab in (EVEN, ODD):
            union(i, i + 1)
        elif lab in free_first:
            a, b = free_first.pop(lab)
            union(a, i + 1)  # u1 ~ v2
            union(b, i)      # v1 ~ u2
        else:
            free_first[lab] = (i, i + 1)
    return [find(i) for i in range(n)]


def cusp_widths(hfs: HeckeFareySymbol) -> list[tuple[Cusp, int]]:
    """(representative cusp, width) per pairing-identified vertex class.

    Each edge endpoint contributes half an even line to its vertex; the
    convention is pinned by the coset-table cycle-length oracle on the
    index-5 census examples.
    """
    classes = _vertex_classes(hfs)
    incidence = [0] * len(hfs.vertices)
    for i in range(len(hfs.labels)):
        incidence[i] += 1
        incidence[i + 1] += 1
    totals: dict[int, int] = {}
    for i, cls in enumerate(classes):
        totals[cls] = totals.get(cls, 0) + incidence[i]
    out = []
    for cls in sorted(totals, key=lambda c: classes.index(c)):
        count = totals[cls]
        if count % 2:
            raise ValueError("odd even-line incidence; invalid symbol")
        rep = hfs.vertices[classes.index(cls)]
        out.append((rep, count // 2))
    return out


def geometric_level(hfs: HeckeFareySymbol) -> int:
    return lcm(*(w for _, w in cusp_widths(hfs)))

