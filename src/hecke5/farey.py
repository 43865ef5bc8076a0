"""Hecke-Farey symbols: parsing and side-pairing generators.

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

from .golden_ring import LAMBDA, GoldenInt, parse_golden
from .hecke_matrices import GMat


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


Column = tuple[GoldenInt, GoldenInt]  # a cusp's (num, den)


def _side_map(x: tuple[Column, Column], y: tuple[Column, Column],
              message: str) -> GMat:
    """[x0 x1] [y0 y1]^-1 for matrices given by their columns: the element
    mapping cusp y0 to x0 and y1 to x1.  Both must be unimodular, else
    ValueError(message)."""
    (a, c), (b, d) = x
    (p, r), (q, s) = y
    det = p * s - q * r
    if abs(det.norm()) != 1 or abs((a * d - b * c).norm()) != 1:
        raise ValueError(message)
    inv = det.inverse()
    # [a b; c d] * adj([p q; r s]) * det^-1
    return GMat((a * s - b * r) * inv, (b * p - a * q) * inv,
                (c * s - d * r) * inv, (d * p - c * q) * inv)


def side_pairing(hfs: HeckeFareySymbol) -> list[GMat]:
    """One generator per even label, odd label, and free pair, in symbol order.

    With u, v the columns of an edge's cusps:
    - even, the trace-0 element swapping u and v: [v, -u] [u v]^-1;
    - odd, the order-5 conjugate M (S T) M^-1 of the rotation pairing the
      edge (-inf, 0), with M = [-u v] mapping that edge onto (u, v):
      [-v, -u-Lv] [-u v]^-1;
    - free, mapping the first edge (u1, v1) onto the second (u, v)
      reversed: [v, -u] [u1 v1]^-1.

    Each is that product with the sign it comes out with.  A pairing is an
    element of G5 only up to sign, and no sign needs choosing: `decompose`
    gives M and -M the same word, and projective quotient keys are equal.
    Membership in G5 is the caller's `decompose` (NotInG5Error).
    """
    gens: list[GMat] = []
    free_first: dict[int, tuple[Column, Column]] = {}
    for e0, e1, lab in hfs.edges():
        u, v = (e0.num, e0.den), (e1.num, e1.den)
        minus_u, minus_v = (-u[0], -u[1]), (-v[0], -v[1])
        edge = f"edge ({e0}, {e1}) is not unimodular"
        if lab == EVEN:
            g = _side_map((v, minus_u), (u, v), edge)
        elif lab == ODD:
            turn = (-u[0] - LAMBDA * v[0], -u[1] - LAMBDA * v[1])
            g = _side_map((minus_v, turn), (minus_u, v), edge)
        elif lab in free_first:
            g = _side_map((v, minus_u), free_first.pop(lab),
                          "free edges must be unimodular")
        else:
            free_first[lab] = (u, v)
            continue
        gens.append(g)
    return gens
