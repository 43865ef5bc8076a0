"""Finite quotients of the Hecke group by principal congruence subgroups.

A quotient is materialised as the BFS closure of the images of S and T in
the ring of 2x2 residue matrices mod a `Modulus`, either homogeneously or
with +-I identified.  Elements are 4-tuples of residue indices (one per
entry, see `RingTables`), so they hash cheaply, compare like the entries'
canonical (a, b) pairs, and multiply by table lookups.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from array import array
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Callable

from .closure import (
    DEFAULT_ELEMENT_CAP, UndecidedError, _cap_reached, element_order,
    generated_closure, subgroup,
)
from .closure import normal_closure as _normal_closure_engine
from .golden_ring import (
    GoldenInt, Modulus, classify_rational_prime, factor, rational_integer_below,
    ring_tables,
)
from .hecke_matrices import GMat, IDENTITY, ProjMat, S_MAT, T_MAT

Key = tuple[int, int, int, int]


def _signed(neg: list[int], t: Key) -> Key:
    """The smaller of t and -t: the key of a matrix taken up to sign."""
    n = (neg[t[0]], neg[t[1]], neg[t[2]], neg[t[3]])
    return n if n < t else t


def _make_mult(modulus: Modulus, projective: bool):
    r = ring_tables(modulus)
    add, mul, neg = r.add, r.mul, r.neg

    def mult(x: Key, y: Key) -> Key:
        y0, y1, y2, y3 = y
        m0, m1, m2, m3 = mul[x[0]], mul[x[1]], mul[x[2]], mul[x[3]]
        t = (add[m0[y0]][m1[y2]], add[m0[y1]][m1[y3]],
             add[m2[y0]][m3[y2]], add[m2[y1]][m3[y3]])
        return _signed(neg, t) if projective else t

    return mult


def _generator_actions(modulus: Modulus,
                       projective: bool) -> list[Callable[[Key], Key]]:
    """Right multiplication by S = (0 1; -1 0) and T = (1 L; 0 1)."""
    r = ring_tables(modulus)
    add, lam, neg = r.add, r.lam, r.neg

    def times_s(x: Key) -> Key:  # (a b; c d) S = (-b a; -d c)
        a, b, c, d = x
        t = (neg[b], a, neg[d], c)
        return _signed(neg, t) if projective else t

    def times_t(x: Key) -> Key:  # (a b; c d) T = (a aL+b; c cL+d)
        a, b, c, d = x
        t = (a, add[lam[a]][b], c, add[lam[c]][d])
        return _signed(neg, t) if projective else t

    return [times_s, times_t]


@dataclass(frozen=True)
class QuotientGroup:
    modulus: Modulus
    projective: bool
    elements: frozenset[Key] | None  # None: ambient not enumerated (lazy)
    gen_S: Key
    gen_T: Key
    element_cap: int = field(compare=False)  # bounds every closure in it
    _mult: object = field(repr=False, compare=False)

    @property
    def order(self) -> int:
        if self.elements is None:
            raise ValueError("ambient group was not enumerated")
        return len(self.elements)

    @property
    def identity(self) -> Key:
        return self.key_of(IDENTITY)

    def mult(self, x: Key, y: Key) -> Key:
        return self._mult(x, y)

    def key_of(self, m: GMat | ProjMat) -> Key:
        if isinstance(m, ProjMat):
            m = m.rep
        r = ring_tables(self.modulus)
        t = (r.index(m.e11.a, m.e11.b), r.index(m.e12.a, m.e12.b),
             r.index(m.e21.a, m.e21.b), r.index(m.e22.a, m.e22.b))
        return _signed(r.neg, t) if self.projective else t

    def inv_key(self, x: Key) -> Key:
        # det = 1 mod modulus, so the inverse is the adjugate
        neg = ring_tables(self.modulus).neg
        t = (x[3], neg[x[1]], neg[x[2]], x[0])
        return _signed(neg, t) if self.projective else t

    def element_order(self, x: Key) -> int:
        return element_order(x, self.identity, self._mult, self.element_cap)

    def order_histogram(self) -> Counter:
        return Counter(self.element_order(x) for x in self.elements)


@dataclass(frozen=True)
class SubgroupHandle:
    parent: QuotientGroup
    members: frozenset[Key]
    seeds: tuple[Key, ...] = ()

    @property
    def order(self) -> int:
        return len(self.members)


def _ambient(modulus: Modulus, projective: bool, element_cap: int) -> QuotientGroup:
    """The quotient's arithmetic, with no elements enumerated.

    The residue tables are enumerated too, one entry at a time: `add` and
    `mul` have ring_size**2 entries each, and count against the element cap.
    """
    if element_cap < 1:
        raise ValueError(f"element cap must be at least 1, not {element_cap}")
    entries = 2 * modulus.ring_size ** 2
    if entries > element_cap:
        raise UndecidedError(f"residue tables mod {modulus} need {entries} "
                             f"entries, above the element cap of {element_cap}")
    mult = _make_mult(modulus, projective)
    stub = QuotientGroup(modulus, projective, None, (), (), element_cap, mult)
    return replace(stub, gen_S=stub.key_of(S_MAT), gen_T=stub.key_of(T_MAT))


def build_quotient(modulus: Modulus, projective: bool = True,
                   element_cap: int = DEFAULT_ELEMENT_CAP,
                   cache_dir: str | Path | None = None) -> QuotientGroup:
    """BFS closure of {S, T} mod `modulus`, memoised per process.

    The memo is keyed by modulus, projectivity and the cap; `cache_dir`
    only matters on a miss.  Then the quotient is read from the disk cache
    if its file loads, else built and (with `cache_dir` set) written there.
    A file that does not load (bad magic, truncated) counts as missing and
    is rewritten.  A memo hit touches no file.
    """
    key = (modulus, projective, element_cap)
    q = _memo.pop(key, None)
    if q is None:
        path = (None if cache_dir is None
                else Path(cache_dir) / _cache_name(modulus, projective))
        q = _load_or_build(modulus, projective, element_cap, path)
    _memo[key] = q  # re-inserted last: the dict's order is least recent first
    if len(_memo) > _MEMO_SIZE:
        del _memo[next(iter(_memo))]
    return q


_MEMO_SIZE = 64
_memo: dict[tuple, QuotientGroup] = {}


def _load_or_build(modulus: Modulus, projective: bool, element_cap: int,
                   path: Path | None) -> QuotientGroup:
    q = _ambient(modulus, projective, element_cap)
    if path is not None:
        try:
            return _load_quotient(path, q)
        except (FileNotFoundError, ValueError, struct.error):
            pass  # no file, or one that does not load: a miss
    elements = generated_closure(
        q.identity, _generator_actions(modulus, projective), element_cap)
    q = replace(q, elements=frozenset(elements))
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        _save_quotient(q, path)
    return q


def residue_ambient(modulus: Modulus, projective: bool = True) -> QuotientGroup:
    """Ambient handle for closures at moduli too large to enumerate fully.

    Its closures stop at DEFAULT_ELEMENT_CAP elements, and it raises
    UndecidedError when its residue tables alone would pass that cap.
    """
    return _ambient(modulus, projective, DEFAULT_ELEMENT_CAP)


# Cache format v2: gen_S, gen_T, then the elements, 4 residue indices each.
_CACHE_MAGIC = b"HQC2"


def _cache_name(modulus: Modulus, projective: bool) -> str:
    # no `kind`: equal moduli share one file, as they share one memo entry
    tag = f"v2|{modulus.generator.a},{modulus.generator.b}|{int(projective)}"
    return hashlib.sha256(tag.encode()).hexdigest()[:20] + ".quot"


def _save_quotient(q: QuotientGroup, path: Path) -> None:
    """Write to a temporary file beside `path`, then rename it into place,
    so a crash mid-write never leaves a partial file under the cache name."""
    flat = array("I", chain(q.gen_S, q.gen_T, chain.from_iterable(q.elements)))
    umask = os.umask(0)  # reading the umask means setting it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_CACHE_MAGIC)
            fh.write(struct.pack("<Q", q.order))
            fh.write(flat.tobytes())
        # mkstemp makes the file 0600; give it the mode open() would
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_quotient(path: Path, q: QuotientGroup) -> QuotientGroup:
    """The quotient in `path`, given the ambient `q` it was built from.

    Raises UndecidedError, as the build would, when the file holds more
    elements than `q.element_cap`."""
    with open(path, "rb") as fh:
        if fh.read(4) != _CACHE_MAGIC:
            raise ValueError(f"bad quotient cache file {path}")
        (count,) = struct.unpack("<Q", fh.read(8))
        if count > q.element_cap:
            raise _cap_reached(q.element_cap)
        flat = array("I")
        flat.frombytes(fh.read())
    if len(flat) != 4 * (count + 2):
        raise ValueError(f"truncated quotient cache file {path}")
    if flat and max(flat) >= q.modulus.ring_size:
        raise ValueError(f"residue index out of range in {path}")
    keys = list(zip(*[iter(flat)] * 4))
    return replace(q, elements=frozenset(keys[2:]), gen_S=keys[0], gen_T=keys[1])


# ---------------------------------------------------------------------------
# Subgroups.


def subgroup_closure(q: QuotientGroup, seeds) -> SubgroupHandle:
    """Smallest subgroup of q containing the seeds."""
    keys = tuple(_as_key(q, s) for s in seeds)
    members = subgroup(q.identity, keys, q.mult, q.element_cap)
    return SubgroupHandle(q, frozenset(members), keys)


def normal_closure(q: QuotientGroup, seeds) -> SubgroupHandle:
    """Smallest subgroup containing the seeds, closed under conjugation by S, T."""
    keys = tuple(_as_key(q, s) for s in seeds)
    conj = [(q.gen_S, q.inv_key(q.gen_S)), (q.gen_T, q.inv_key(q.gen_T))]
    members = _normal_closure_engine(q.identity, keys, q.mult, conj,
                                     q.element_cap)
    return SubgroupHandle(q, frozenset(members), keys)


def _as_key(q: QuotientGroup, seed) -> Key:
    if isinstance(seed, (GMat, ProjMat)):
        return q.key_of(seed)
    return seed


def kernel_predicate(q: QuotientGroup, m: Modulus) -> Callable[[Key], bool]:
    """Test for x congruent to I (homogeneous) or +-I (projective) mod m."""
    if not m.divides(q.modulus):
        raise ValueError(f"{m} does not divide {q.modulus}")
    big, small = ring_tables(q.modulus), ring_tables(m)
    down = [small.index(*big.pair(i)) for i in range(q.modulus.ring_size)]
    one, zero = small.index(1, 0), small.index(0, 0)
    diagonal = {(one, one)}
    if q.projective:
        diagonal.add((small.neg[one], small.neg[one]))

    def member(x: Key) -> bool:
        return (down[x[1]] == zero and down[x[2]] == zero
                and (down[x[0]], down[x[3]]) in diagonal)

    return member


def kernel_subgroup(q: QuotientGroup, m: Modulus) -> SubgroupHandle:
    """Elements of q congruent to I (homogeneous) or +-I (projective) mod m."""
    return SubgroupHandle(q, frozenset(filter(kernel_predicate(q, m), q.elements)))


def check_elementary_abelian(h: SubgroupHandle, p: int) -> bool:
    """True iff h is abelian with every non-identity element of order p."""
    if h.order == 1:
        return True
    if set(factor(h.order)) != {p}:
        return False
    q = h.parent
    gens = h.seeds if h.seeds else tuple(h.members)
    for g in gens:
        if q.element_order(g) not in (1, p):
            return False
    for i, g in enumerate(gens):
        for k in gens[i + 1:]:
            if q.mult(g, k) != q.mult(k, g):
                return False
    return True


# ---------------------------------------------------------------------------
# Index formula and its enumeration oracle.


def _prime_ideal_divisors(m: Modulus) -> list[tuple[GoldenInt, int]]:
    """Distinct prime ideal divisors of m with their residue field sizes N(P)."""
    out: list[tuple[GoldenInt, int]] = []
    gen = m.generator
    for p in factor(rational_integer_below(m)):
        cls = classify_rational_prime(p)
        for f in cls.factors:
            if gen.divisible_by(f):
                out.append((f, abs(f.norm())))
    return out


def sl_index_formula(a: Modulus) -> int:
    """N(A)^3 prod over prime divisors P of A of (1 - N(P)^-2), exactly."""
    n = a.ring_size
    value = Fraction(n) ** 3
    for _, np in _prime_ideal_divisors(a):
        value *= 1 - Fraction(1, np * np)
    if value.denominator != 1:
        raise ArithmeticError(f"index formula for {a} is not integral")
    return value.numerator


def sl2_enumeration_order(m: Modulus) -> int:
    """|SL(2, Z[L]/m)| by direct counting; the oracle for the index formula."""
    residues = list(m.residues())
    index = {r: i for i, r in enumerate(residues)}
    size = len(residues)
    # pair_count[v] = number of (b, c) with b*c = v
    pair_count = [0] * size
    red = m.reduce_pair
    for (a1, b1) in residues:
        for (a2, b2) in residues:
            bb = b1 * b2
            v = red(a1 * a2 + bb, a1 * b2 + a2 * b1 + bb)
            pair_count[index[v]] += 1
    total = 0
    for (a1, b1) in residues:
        for (a2, b2) in residues:
            bb = b1 * b2
            det_needed = red(a1 * a2 + bb - 1, a1 * b2 + a2 * b1 + bb)
            total += pair_count[index[det_needed]]
    return total
