from math import lcm

import pytest

from hecke5.congruence import coset_table, geometric_level_from_table
from hecke5.farey import (
    EVEN, ODD, Cusp, HeckeFareySymbol, parse_hfs, side_pairing,
)
from hecke5.golden_ring import GoldenInt, LAMBDA, ZERO
from hecke5.hecke_matrices import IDENTITY, NotInG5Error, decompose

from test_matrices import same_up_to_sign

# the worked index-2 and index-5 examples: symbol, expected level, index
EXAMPLES = {
    "index2": ("[-inf; *; 0; *; inf]", 2, 2),
    "i5-level2": ("[-inf; 1; 0; 2; 1/L; o; L/L; 2; L; 1; inf]", 2, 5),
    "i5-level3": ("[-inf; 1; 0; 1; 1/L; o; L/L; 2; L; 2; inf]", 3, 5),
    "i5-level5": ("[-inf; 1; 0; 2; 1/L; o; L/L; 1; L; 2; inf]", 5, 5),
    "i5-level4": ("[-inf; 1; 0; o; 1/L; o; L/L; o; L; 1; inf]", 4, 5),
    "i5-level6": ("[-inf; o; 0; 1; 1/L; o; L/L; 1; L; o; inf]", 6, 5),
    "i5-free": ("[-inf; o; 0; o; 1/L; o; L/L; o; L; o; inf]", 5, 5),
}


def proj_order(g, cap=12):
    x = g
    for k in range(1, cap + 1):
        if same_up_to_sign(x, IDENTITY):
            return k
        x = x * g
    return None


class TestParsing:
    def test_roundtrip(self):
        for text, _, _ in EXAMPLES.values():
            hfs = parse_hfs(text)
            assert str(hfs).replace(" ", "") == text.replace(" ", "")

    def test_unreduced_cusps_kept(self):
        hfs = parse_hfs(EXAMPLES["i5-level2"][0])
        lam_over_lam = hfs.vertices[3]
        assert lam_over_lam.num == LAMBDA and lam_over_lam.den == LAMBDA

    def test_free_label_must_pair(self):
        with pytest.raises(ValueError):
            parse_hfs("[-inf; o; 0; 1; inf]")
        with pytest.raises(ValueError):
            parse_hfs("[-inf; 1; 0; 1; 1/L; 1; inf]")

    def test_endpoints_required(self):
        with pytest.raises(ValueError):
            parse_hfs("[0; o; 1; o; inf]")
        with pytest.raises(ValueError):
            parse_hfs("[-inf; o; 0]")

    def test_bad_labels_and_cusps(self):
        with pytest.raises(ValueError):
            parse_hfs("[-inf; x; 0; o; inf]")
        with pytest.raises(ValueError):
            parse_hfs("[-inf; o; 1/(2L); o; inf]")
        with pytest.raises(ValueError):
            parse_hfs("[-inf; 0; 0; 0; inf]")  # free labels are positive

    def test_interior_infinity_rejected(self):
        with pytest.raises(ValueError):
            HeckeFareySymbol(
                (Cusp(GoldenInt(-1, 0), ZERO), Cusp(GoldenInt(1, 0), ZERO),
                 Cusp(GoldenInt(1, 0), ZERO)),
                ("o", "o"))


class TestSidePairing:
    def test_all_examples_in_group(self):
        for text, _, _ in EXAMPLES.values():
            for g in side_pairing(parse_hfs(text)):
                decompose(g)  # raises if not a member

    def test_label_contracts(self):
        hfs = parse_hfs(EXAMPLES["i5-level4"][0])
        gens = side_pairing(hfs)
        labels = [lab for lab in hfs.labels if lab != 0]
        # generator order follows symbol order: free pair completes at its
        # second edge
        assert [proj_order(g) for g in gens] == [2, 2, 2, None]
        for g, expected in zip(gens, [2, 2, 2, None]):
            if expected == 2:
                assert not g.e11 + g.e22

    def test_order_five_pairings(self):
        gens = side_pairing(parse_hfs(EXAMPLES["index2"][0]))
        assert [proj_order(g) for g in gens] == [5, 5]
        for g in gens:
            trace = g.e11 + g.e22
            assert abs(trace.norm()) == 1  # |trace| is a power of L

    def test_five_involutions(self):
        gens = side_pairing(parse_hfs(EXAMPLES["i5-free"][0]))
        assert [proj_order(g) for g in gens] == [2] * 5

    def test_free_pairings_infinite_order(self):
        gens = side_pairing(parse_hfs(EXAMPLES["i5-level2"][0]))
        free = [g for g in gens if proj_order(g) is None]
        assert len(free) == 2

    def test_invalid_edge_rejected(self):
        bad = "[-inf; o; 0; o; 2; o; inf]"   # det [0 2; 1 1] = -2, not a unit
        message = r"^edge \(0, 2\) is not unimodular$"
        with pytest.raises(ValueError, match=message):
            side_pairing(parse_hfs(bad))

    def test_pairing_outside_g5_is_refused_by_decompose(self):
        # (0, 1+L) is unimodular (det -L^2), but its even pairing is not in
        # G5: side_pairing returns it, and membership is decompose's
        gens = side_pairing(parse_hfs("[-inf; o; 0; o; 1+L; o; inf]"))
        with pytest.raises(NotInG5Error, match="^terminal"):
            for g in gens:
                decompose(g)


# -- Cusp classes, widths and geometric level --------------------------------
# The level read off the symbol: an oracle for `geometric_level_from_table`,
# which reads it off the coset table.


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


class TestWidthsAndLevels:
    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_levels(self, name):
        text, level, _ = EXAMPLES[name]
        assert geometric_level(parse_hfs(text)) == level

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_widths_match_permutation_oracle(self, name):
        """Widths from the symbol equal T-cycle lengths from coset enumeration."""
        text, _, index = EXAMPLES[name]
        hfs = parse_hfs(text)
        widths = sorted(w for _, w in cusp_widths(hfs))
        table = coset_table([decompose(g) for g in side_pairing(hfs)])
        assert table.degree == index
        cycles = []
        seen = set()
        for i in range(table.degree):
            if i in seen:
                continue
            j, n = i, 0
            while j not in seen:
                seen.add(j)
                j = table.perm_t[j]
                n += 1
            cycles.append(n)
        assert widths == sorted(cycles)
        assert geometric_level_from_table(table) == geometric_level(hfs)

    def test_width_sum_is_index(self):
        for text, _, index in EXAMPLES.values():
            assert sum(w for _, w in cusp_widths(parse_hfs(text))) == index


def test_whole_group_symbol():
    hfs = parse_hfs("[-inf; *; 0; o; inf]")
    gens = side_pairing(hfs)
    assert [proj_order(g) for g in gens] == [5, 2]
    table = coset_table([decompose(g) for g in gens])
    assert table.degree == 1
