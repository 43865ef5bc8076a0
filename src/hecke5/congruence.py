"""Congruence-subgroup decision pipeline and low-index census.

A finite-index subgroup K is handed over as a list of generator words.
Coset enumeration over the presentation <s, u | s^2 = u^5 = 1> (with
T = S*U) gives the index and the T-action on cosets, hence the geometric
level m.  The Wohlfahrt criterion reduces congruence to a finite check:
K is congruence iff G(M) <= K for M = m (m not divisible by 4) or 2m.
G(d) <= K iff the coset K*w depends only on w's image in Q(d) = G5/G(d),
which one labelled walk of Q(d) decides (`_conflicts`); the algebraic
level is the least-norm ideal divisor (d) of (M) whose walk has no conflict.
"""

from __future__ import annotations

import json
from array import array
from collections import deque
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from math import lcm

from . import __version__
from .closure import DEFAULT_ELEMENT_CAP, UndecidedError
from .golden_ring import GoldenInt, Modulus, classify_rational_prime, factor
from .hecke_matrices import Word, word
from .quotients import QuotientGroup, quotient_order

DEFAULT_COSET_CAP = 5_000
MAX_WORD_LENGTH = 1_000_000
MAX_CENSUS_INDEX = 12


@dataclass(frozen=True)
class CosetTable:
    """Right action of S and T on the cosets of K; coset 0 is K itself."""

    perm_s: tuple[int, ...]
    perm_t: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm_s)
        if any(not 0 <= x < n for x in self.perm_s + self.perm_t):
            raise ValueError(f"a permutation entry is outside 0..{n - 1}")
        if len(self.perm_t) != n:
            raise ValueError("permutation length mismatch")
        if any(self.perm_s[self.perm_s[i]] != i for i in range(n)):
            raise ValueError("S-action is not an involution")
        u = self.perm_u
        for i in range(n):
            j = i
            for _ in range(5):
                j = u[j]
            if j != i:
                raise ValueError("U-action does not have order dividing 5")
        if len(_walk(self.perm_s, self.perm_t)) != n:
            raise ValueError("coset action is not transitive")

    @property
    def degree(self) -> int:
        return len(self.perm_s)

    @property
    def perm_u(self) -> tuple[int, ...]:
        # U = S T, acting on the right: first S, then T
        return tuple(self.perm_t[self.perm_s[i]] for i in range(self.degree))


def _walk(perm_s, perm_t, base: int = 0) -> dict[int, tuple[int, str] | None]:
    """Breadth-first walk from `base`, S before T.

    Maps each reached point, in order of first appearance, to the edge
    (point, "S" or "T") that first reached it; `base` maps to None.
    """
    edge: dict[int, tuple[int, str] | None] = {base: None}
    order = [base]
    for i in order:  # grows while it is walked
        for name, perm in (("S", perm_s), ("T", perm_t)):
            j = perm[i]
            if j not in edge:
                edge[j] = (i, name)
                order.append(j)
    return edge


# Coset enumeration over <s, u | s^2 = u^5 = 1> with columns s, s^-1, u, u^-1
# numbered 0..3, so the inverse of column x is x ^ 1.
_RELATORS = ([0, 0], [2] * 5)


# the columns of S, S^-1, T = s u and T^-1 = u^-1 s^-1, keyed by generator
# and the sign of the exponent
_UNITS = {("S", True): [0], ("S", False): [1],
          ("T", True): [0, 2], ("T", False): [3, 1]}


def _letters(w: Word) -> list[int]:
    """`w` as a freely reduced list of columns, with T = s*u.  A word longer
    than MAX_WORD_LENGTH letters S and T is refused before the power that
    passes the bound is expanded: scanning it may take a step per column
    however small the table.

    A letter's expansion, its unit repeated, is reduced by itself: its
    neighbouring columns are 0 0 (S^k), 1 1 (S^-k), 0 2 and 2 0 (T^k), or
    3 1 and 1 3 (T^-k), never a column x and its inverse x ^ 1.  So columns
    cancel only where a letter meets the tail of `out`."""
    out: list[int] = []
    length = 0
    for gen, exp in w.letters:
        k = abs(exp)
        length += k
        if length > MAX_WORD_LENGTH:
            raise ValueError(f"a generator word is longer than "
                             f"{MAX_WORD_LENGTH} letters S and T")
        chunk = _UNITS[gen, exp > 0] * k
        i = 0
        while out and i < len(chunk) and out[-1] == chunk[i] ^ 1:
            out.pop()
            i += 1
        out += chunk[i:]
    return out


def coset_table(generators: list[Word], cap: int = DEFAULT_COSET_CAP) -> CosetTable:
    """K's coset table by HLT enumeration (relator-based Todd-Coxeter; Holt,
    Handbook of Computational Group Theory, 5.2), step for step as sympy's
    HLT enumerator, which a test keeps as the oracle.

    Raises UndecidedError when a definition would make the table, dead
    cosets included, reach `cap` rows.  The live cosets are relabelled by
    `_canonical` (S before T).
    """
    if cap < 1:
        raise ValueError(f"coset cap must be at least 1, not {cap}")
    table: list[list[int | None]] = [[None] * 4]
    p = [0]  # p[a] == a iff coset a is live, else p[a] < a is a class-mate

    def rep(a: int) -> int:
        root = a
        while p[root] != root:
            root = p[root]
        while p[a] != root:  # point the chain at its root
            p[a], a = root, p[a]
        return root

    def merge(a: int, b: int, queue: deque) -> None:
        a, b = rep(a), rep(b)
        if a != b:
            p[max(a, b)] = min(a, b)
            queue.append(max(a, b))

    def coincidence(a: int, b: int) -> None:
        queue: deque = deque()
        merge(a, b, queue)
        while queue:
            dead = queue.popleft()
            for x in range(4):
                d = table[dead][x]
                if d is None:
                    continue
                table[d][x ^ 1] = None
                mu, nu = rep(dead), rep(d)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x], queue)
                elif table[nu][x ^ 1] is not None:
                    merge(mu, table[nu][x ^ 1], queue)
                else:
                    table[mu][x], table[nu][x ^ 1] = nu, mu

    def define(a: int, x: int) -> None:
        if len(table) >= cap:
            raise UndecidedError(f"coset enumeration exceeded {cap} cosets")
        beta = len(table)
        table.append([None] * 4)
        p.append(beta)
        table[a][x], table[beta][x ^ 1] = beta, a

    def scan_and_fill(a: int, w: list[int]) -> None:
        f, b, i, j = a, a, 0, len(w) - 1
        while True:
            while i <= j and (g := table[f][w[i]]) is not None:
                f, i = g, i + 1
            while j >= i and (g := table[b][w[j] ^ 1]) is not None:
                b, j = g, j - 1
            if j < i:  # the scan completes
                if f != b:
                    coincidence(f, b)
                return
            if j == i:  # a deduction completes it
                table[f][w[i]], table[b][w[i] ^ 1] = b, f
                return
            define(f, w[i])

    for w in generators:
        scan_and_fill(0, _letters(w))
    a = 0
    while a < len(table):  # grows while it is walked
        if p[a] == a:
            for w in _RELATORS:
                scan_and_fill(a, w)
                if p[a] != a:  # a died in a coincidence
                    break
            else:
                for x in range(4):
                    if table[a][x] is None:
                        define(a, x)
        a += 1
    perm_s = [row[0] for row in table]  # a dead row may have gaps: unread
    perm_t = [None if x is None else table[x][2] for x in perm_s]
    return CosetTable(*_canonical(perm_s, perm_t))


def _cycle_lengths(perm: tuple[int, ...]) -> list[int]:
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        n, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            n += 1
        out.append(n)
    return out


def geometric_level_from_table(t: CosetTable) -> int:
    return lcm(*_cycle_lengths(t.perm_t))


def wohlfahrt_modulus(m: int) -> int:
    if m < 1:
        raise ValueError("level must be positive")
    return m if m % 4 else 2 * m


def schreier_generators(t: CosetTable) -> list[Word]:
    """Generators of the point-0 stabilizer from a spanning tree of the action."""
    gens = [("S", t.perm_s), ("T", t.perm_t)]
    edge = _walk(t.perm_s, t.perm_t)
    reps: dict[int, Word] = {}
    for j, e in edge.items():  # a tree edge's source comes first
        reps[j] = word([]) if e is None else reps[e[0]] * word([(e[1], 1)])
    tree = set(edge.values())
    out = []
    for i in range(t.degree):
        for name, perm in gens:
            if (i, name) in tree:
                continue
            g = reps[i] * word([(name, 1)]) * reps[perm[i]].inv()
            if g.letters:
                out.append(g)
    return out


@dataclass(frozen=True)
class CongruenceReport:
    index: int
    geometric_level: int
    test_modulus: int
    quotient_order: int
    image_order: int
    verdict: str  # "congruence" | "not-congruence"
    algebraic_level: str | None = None

    @property
    def is_congruence(self) -> bool:
        return self.verdict == "congruence"

    def to_dict(self) -> dict:
        return {"version": __version__, **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "CongruenceReport":
        d = json.loads(text)
        return CongruenceReport(**{f.name: d[f.name]
                                   for f in fields(CongruenceReport)})


def levels(t: CosetTable) -> tuple[int, int, Modulus | None]:
    """K's geometric level m, test modulus M and algebraic level, which is
    None iff K is not congruence."""
    m = geometric_level_from_table(t)
    big = wohlfahrt_modulus(m)
    return m, big, algebraic_level(t, big)


def is_congruence(generators: list[Word],
                  table: CosetTable | None = None) -> CongruenceReport:
    """Decide congruence from K's coset table; `generators` are only
    enumerated when no table is given."""
    if table is None:
        table = coset_table(generators)
    index = table.degree
    m, big, level = levels(table)
    qo = quotient_order(Modulus.rational(big))
    if level is not None:
        return CongruenceReport(index, m, big, qo, qo // index, "congruence",
                                str(level))
    blocks = _block_count(table, _conflicts(table, Modulus.rational(big)))
    return CongruenceReport(index, m, big, qo, qo // blocks, "not-congruence")


class _Graph:
    """Q(d)'s breadth-first walk from the identity, S before T, grown one
    edge at a time and shared by every walk of Q(d) (`_graph`).

    Elements are numbered by first appearance, the identity 0, so edge
    2i + g leads from element i by generator g (0 for S, 1 for T) to
    element `succ[2i + g]`.  The walk steps with `QuotientGroup.step`,
    whose constructor refuses tables above the element cap before any is
    built.  Edge 2i + g takes image g of `step(element i)`: the T image is
    recomputed at edge 2i + 1, not held from edge 2i, so it is numbered,
    and the element cap refuses it, at its own edge, as walks one edge at a
    time expect.  Once every element's two edges are built the keys are
    dropped.
    """

    def __init__(self, d: Modulus, cap: int):
        q = QuotientGroup(d, True, cap)
        self.succ = array("I")
        self._cap, self._step = cap, q.step
        self._keys, self._elements = {q.identity: 0}, [q.identity]

    def grow(self, e: int) -> int:
        """Build edge e unless it is built; the number of edges built.
        Undecided if the edge reaches a new element when the walk already
        has as many as the cap."""
        succ, keys, elements = self.succ, self._keys, self._elements
        if e < len(succ):
            return len(succ)
        y = self._step(elements[e >> 1])[e & 1]
        j = keys.get(y)
        if j is None:
            j = len(elements)
            if j >= self._cap:
                raise UndecidedError(f"walk reached the element cap of "
                                     f"{self._cap}")
            keys[y] = j
            elements.append(y)
        succ.append(j)
        if len(succ) == 2 * len(elements):  # the walk is complete
            self._keys = self._elements = self._step = None
        return len(succ)


# keyed by the HNF and the cap: a graph grown under one cap serves no other
_graph = lru_cache(maxsize=64)(_Graph)


def _conflicts(t: CosetTable, d: Modulus):
    """Walk Q(d) breadth-first from the identity, labelling each element
    with a coset: the identity gets 0, x*S gets perm_s[label(x)] and x*T
    gets perm_t[label(x)].  Yields (label, other label) whenever a reached
    element gets a second, different label; none are yielded iff G(d) <= K.

    Two words with one image in Q(d) differ by some g in G(d), and
    K*g*w = K*w iff g is in K.  Each edge off the walk's spanning tree is a
    Schreier generator of G(d), so checking every edge is complete.  Every
    walk of Q(d) meets its elements in the same order, so the walk is that
    of the shared `_Graph`, grown only as far as some walk has stepped, and
    element j is new to this walk iff j == len(label), kept as `reached`.
    """
    graph = _graph(d, DEFAULT_ELEMENT_CAP)
    succ, images = graph.succ, list(zip(t.perm_s, t.perm_t))
    label, reached, built, e = [0], 1, len(succ), 0
    for a in label:  # grows while it is walked
        for b in images[a]:
            if e == built:  # other walks may have built it since
                built = graph.grow(e)
            j = succ[e]
            if j == reached:
                label.append(b)
                reached += 1
            elif label[j] != b:
                yield label[j], b
            e += 1


def _block_count(t: CosetTable, pairs) -> int:
    """Blocks of the finest S- and T-invariant partition of the cosets that
    joins every pair; stops reading pairs once there is one block.

    Fed a walk's conflicts, the blocks are the orbits of G(d), so K's image
    in Q(d) has order |Q(d)| / blocks.
    """
    parent = list(range(t.degree))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    blocks = t.degree
    for pair in pairs:
        pending = [pair]
        while pending:
            a, b = map(find, pending.pop())
            if a == b:
                continue
            parent[b] = a
            blocks -= 1
            if blocks == 1:
                return 1
            pending += [(t.perm_s[a], t.perm_s[b]), (t.perm_t[a], t.perm_t[b])]
    return blocks


def _ideal_divisors(n: int) -> list[GoldenInt]:
    """All ideal divisors of (n) in Z[L], one generator each.

    Each is a product over the prime powers p^k || n of p^c * g^e, with g a
    prime over p: none for an inert p, e <= 1 for the ramified g (as
    (g^2) = (5)) and e <= k - c for either of a split pair (as (g g') = (p)).
    So no generator carries a unit factor, and a rational ideal has a
    rational generator.
    """
    divisors = [GoldenInt(1, 0)]
    for p, k in factor(n).items():
        cls = classify_rational_prime(p)
        most = {"inert": 0, "ramified": 1, "split": k}[cls.kind]
        local = []
        for c in range(k + 1):
            local.append(GoldenInt(p**c, 0))
            for g in cls.factors:
                x = GoldenInt(p**c, 0)
                for _ in range(min(most, k - c)):
                    x = x * g
                    local.append(x)
        divisors = [d * q for d in divisors for q in local]
    return divisors


@lru_cache(maxsize=64)
def _test_moduli(big: int) -> tuple[tuple[Modulus, int], ...]:
    """The ideal divisors d of (big), least norm first, each with |Q(d)|:
    shared by every row whose test modulus is `big`."""
    moduli = sorted(map(Modulus.ideal, _ideal_divisors(big)),
                    key=lambda m: m.ring_size)
    return tuple((m, quotient_order(m)) for m in moduli)


def algebraic_level(t: CosetTable, big: int) -> Modulus | None:
    """Least-norm ideal (d) dividing (big) with G(d) <= K, or None.

    G(d) <= K makes K / G(d) a subgroup of index [G5 : K] in Q(d), so a
    divisor whose |Q(d)| that index does not divide is skipped unwalked.
    Each other divisor's walk stops at its first conflict.  The passing
    divisors are closed under gcd (a test checks this on the census), so
    the first one to pass is the algebraic level.
    """
    for d, order in _test_moduli(big):
        if order % t.degree == 0 and next(_conflicts(t, d), None) is None:
            return d
    return None


# ---------------------------------------------------------------------------
# Low-index census.


def _canonical(perm_s, perm_t, base: int = 0):
    """Relabel points by first appearance in a BFS from `base` (S before T)."""
    order = list(_walk(perm_s, perm_t, base))
    pos = {p: k for k, p in enumerate(order)}
    return (tuple(pos[perm_s[p]] for p in order),
            tuple(pos[perm_t[p]] for p in order))


def _actions(n: int):
    """Each transitive action (s, u) of <s, u | s^2 = u^5 = 1> on range(n)
    whose points are labelled in order of first appearance, once.

    Points are visited in label order.  Each gets its s-image, then its
    u-cycle: fixed, or a 5-cycle through points with no u-image yet or
    through new points, which take the next free label.  So each subgroup
    of index n, the stabilizer of point 0, comes out exactly once.
    """
    s: list[int | None] = [None] * n
    u: list[int | None] = [None] * n

    def free(perm, p: int, size: int) -> list[int]:
        """Labelled points after p with no image under perm, then a new one."""
        return ([q for q in range(p + 1, size) if perm[q] is None]
                + ([size] if size < n else []))

    def visit(p: int, size: int):  # points below `size` are labelled
        if p == size:  # the orbit of 0 is closed: a result iff it has n points
            if p == n:
                yield tuple(s), tuple(u)
        elif s[p] is None:
            for q in [p] + free(s, p, size):
                s[p], s[q] = q, p
                yield from visit(p, max(size, q + 1))
                s[p] = s[q] = None
        elif u[p] is None:
            u[p] = p
            yield from visit(p + 1, size)
            u[p] = None
            yield from cycle([p], size)
        else:
            yield from visit(p + 1, size)

    def cycle(path: list[int], size: int):  # a u-cycle from path[0]
        if len(path) < 5:
            for q in [q for q in free(u, path[0], size) if q not in path]:
                yield from cycle(path + [q], max(size, q + 1))
        else:
            for a, b in zip(path, path[1:] + path[:1]):
                u[a] = b
            yield from visit(path[0] + 1, size)
            for a in path:
                u[a] = None

    return visit(0, 1)


def enumerate_index(n: int) -> list[CosetTable]:
    """One coset table per index-n subgroup (distinct stabilizers of point
    0), in the order `_actions` finds them."""
    if not 1 <= n <= MAX_CENSUS_INDEX:
        raise ValueError(f"census index must be 1 to {MAX_CENSUS_INDEX}")
    return [CosetTable(*_canonical(s, tuple(u[j] for j in s)))
            for s, u in _actions(n)]


def is_normal_table(t: CosetTable) -> bool:
    """K is normal iff the marked-point choice does not change the subgroup."""
    base = _canonical(t.perm_s, t.perm_t, 0)
    return all(_canonical(t.perm_s, t.perm_t, i) == base
               for i in range(1, t.degree))
