"""Finite quotients of the Hecke group by principal congruence subgroups.

A quotient is the group generated by the images of S and T in the ring of
2x2 residue matrices mod a `Modulus`, either homogeneously or with +-I
identified.  Its order is in closed form (`quotient_order`).  Its residue
tables are built on first use, and its elements and kernels of reduction
are enumerated on first use from the row orbit: the orbit of (1, 0) times
the lower unitriangular matrices that fix that row.  Elements are
4-tuples of residue indices (one per entry, see `RingTables`): they hash
cheaply, compare like the entries' canonical (a, b) pairs, and multiply
by table lookups.
"""

from __future__ import annotations

import hashlib
import os
import struct
from array import array
from collections import Counter
from collections.abc import Iterator, Set
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import AbstractSet, Callable

from .closure import DEFAULT_ELEMENT_CAP, UndecidedError
from .closure import normal_closure as _normal_closure_engine
from .golden_ring import (
    Modulus, RingTables, classify_rational_prime, factor, ring_tables,
)
from .hecke_matrices import GMat, S_MAT, T_MAT

Key = tuple[int, int, int, int]


def _signed(neg: list[int], t: Key) -> Key:
    """The smaller of t and -t: the key of a matrix taken up to sign.

    `_mult` applies this rule in place: it negates a key iff its first
    entry's negation is smaller, or equal and the rest negated is smaller;
    `QuotientGroup.step` relies on its input obeying it."""
    n = (neg[t[0]], neg[t[1]], neg[t[2]], neg[t[3]])
    return n if n < t else t


def _refuse_tables(modulus: Modulus, entries: int, element_cap: int) -> None:
    """Undecided if tables of `entries` entries mod `modulus` pass the cap."""
    if entries > element_cap:
        raise UndecidedError(f"residue tables mod {modulus} need {entries} "
                             f"entries, above the element cap of {element_cap}")


@dataclass(frozen=True)
class QuotientGroup:
    """Q(modulus): its order in closed form at once; its arithmetic, keys,
    row orbit (see `_row_orbit`, walked once) and elements on first use.
    Residue tables above the element cap are refused: the 7 * ring_size
    entries every use but `order` builds at construction, `mul` (`_mul`)
    where it is first read."""

    modulus: Modulus
    projective: bool
    element_cap: int = field(compare=False)  # bounds every closure in it

    def __post_init__(self):
        if self.element_cap < 1:
            raise ValueError(f"element cap must be at least 1, "
                             f"not {self.element_cap}")
        _refuse_tables(self.modulus, 7 * self.modulus.ring_size,
                       self.element_cap)

    @cached_property
    def _mul(self) -> list[list[int]]:
        """`mul`, refused with the row orbit: ring_size**2 entries each."""
        _refuse_tables(self.modulus, 2 * self.modulus.ring_size ** 2,
                       self.element_cap)
        return ring_tables(self.modulus).mul

    @cached_property
    def step(self) -> Callable[[Key], tuple[Key, Key]]:
        """x -> (x S, x T), with S = (0 1; -1 0) and T = (1 L; 0 1): both
        right multiplications of x in one call.  x must be a key of this
        quotient as `key_of`, `step` or `mult` return it, so a <= -a when
        projective.  Then x S = (-b a; -d c) is signed by -b <= b, as -b = b
        with a = -a only where 2 = 0, and x T, which keeps a, is compared
        with its negation only where a = -a."""
        r, projective = ring_tables(self.modulus), self.projective
        red, wide, lam, neg = r.red, r.wide, r.lam, r.neg

        def step(x: Key) -> tuple[Key, Key]:
            a, b, c, d = x
            # (a b; c d) S = (-b a; -d c) and T = (a aL+b; c cL+d)
            nb, bt, dt = neg[b], red[lam[a] + wide[b]], red[lam[c] + wide[d]]
            t = (a, bt, c, dt)
            if not projective:
                return (nb, a, neg[d], c), t
            s = (nb, a, neg[d], c) if nb <= b else (b, neg[a], d, neg[c])
            if neg[a] != a:
                return s, t
            return s, min(t, (a, neg[bt], neg[c], neg[dt]))

        return step

    @cached_property
    def _mult(self) -> Callable[[Key, Key], Key]:
        mul, r = self._mul, ring_tables(self.modulus)
        red, neg, projective = r.red, r.neg, self.projective

        def mult(x: Key, y: Key) -> Key:
            y0, y1, y2, y3 = y
            m0, m1, m2, m3 = mul[x[0]], mul[x[1]], mul[x[2]], mul[x[3]]
            a, b = red[m0[y0] + m1[y2]], red[m0[y1] + m1[y3]]
            c, d = red[m2[y0] + m3[y2]], red[m2[y1] + m3[y3]]
            if projective:  # signed by the first entries, else as a whole
                na = neg[a]
                if na < a:
                    return (na, neg[b], neg[c], neg[d])
                if na == a:
                    return min((a, b, c, d), (na, neg[b], neg[c], neg[d]))
            return (a, b, c, d)

        return mult

    @cached_property
    def _orbit(self) -> tuple[list[Key], list[int]]:
        return _row_orbit(self)

    @property
    def order(self) -> int:
        return quotient_order(self.modulus, self.projective)

    @cached_property
    def elements(self) -> _KernelMembers:
        """All of Q, the kernel of reduction mod 1: its `len` is the order."""
        return _KernelMembers(self, Modulus.rational(1), self.order)

    @cached_property
    def gen_S(self) -> Key:
        return self.key_of(S_MAT)

    @cached_property
    def gen_T(self) -> Key:
        return self.key_of(T_MAT)

    @cached_property
    def identity(self) -> Key:
        """I's key: (1, 0) is the smaller of +-(1, 0), so it is `_signed`."""
        r = ring_tables(self.modulus)
        one, zero = r.at(1, 0), r.at(0, 0)
        return (one, zero, zero, one)

    def mult(self, x: Key, y: Key) -> Key:
        return self._mult(x, y)

    def key_of(self, m: GMat) -> Key:
        r = ring_tables(self.modulus)
        t = (r.at(m.e11.a, m.e11.b), r.at(m.e12.a, m.e12.b),
             r.at(m.e21.a, m.e21.b), r.at(m.e22.a, m.e22.b))
        return _signed(r.neg, t) if self.projective else t

    def inv_key(self, x: Key) -> Key:
        # det = 1 mod modulus, so the inverse is the adjugate
        neg = ring_tables(self.modulus).neg
        t = (x[3], neg[x[1]], neg[x[2]], x[0])
        return _signed(neg, t) if self.projective else t

    def order_histogram(self) -> Counter:
        """Element orders, by one power walk per class of a key that fixes
        the order.

        Take x = (a b; c d) with det 1 and trace t = a + d.  By
        Cayley-Hamilton x^2 = t x - I, so x^n = s_n x - s_(n-1) I, where
        s_0 = 0, s_1 = 1 and s_(n+1) = t s_n - s_(n-1).  Hence x^n = e I iff
        s_n b = s_n c = 0 and s_n a - s_(n-1) = e = s_n d - s_(n-1).  The
        first two say that s_n annihilates the ideal J = (b, c) of
        R = Z[L]/modulus; then s_n a depends on a mod J alone, and
        s_n d = s_n (t - a).  So the least n with x^n = I (homogeneous), or
        x^n = +-I (projective, on the stored key), depends on
        (t, J, a mod J) alone.  The stream of `elements` counts these keys
        and keeps the first element of each, whose powers through `mult`
        give the key's order."""
        stream = iter(self.elements)  # refused above the cap before the orbit
        r = ring_tables(self.modulus)
        red, wide = r.red, r.wide
        ideal, join, coset = _ideals(r, self._mul)
        classes: dict[tuple[int, int, int], list] = {}
        for x in stream:
            a, b, c, d = x
            j = join[ideal[b]][ideal[c]]
            key = (red[wide[a] + wide[d]], j, coset[j][a])
            if seen := classes.get(key):
                seen[0] += 1
            else:
                classes[key] = [1, x]
        hist, mult, identity = Counter(), self._mult, self.identity
        for count, x in classes.values():
            n, y = 1, x
            while y != identity:
                y, n = mult(y, x), n + 1
            hist[n] += count
        return hist


def _ideals(r: RingTables, mul: list[list[int]]):
    """The ideals of R = Z[L]/m, numbered: `ideal[v]` is the number of (v),
    `join[i][j]` that of the sum of ideals i and j, and `coset[i][x]` the
    least index in x + ideal i.  R is a quotient of the Dedekind domain
    Z[L], so each of its ideals is some (v), the set of spaced values in
    `mul[v]`; the sum of two ideals is then the least ideal holding both."""
    red, wide, size = r.red, r.wide, len(r.wide)
    number: dict[frozenset[int], int] = {}
    ideal = [number.setdefault(frozenset(mul[v]), len(number))
             for v in range(size)]
    sets = list(number)
    join = [[min((k for k, s in enumerate(sets) if i | j <= s),
                 key=lambda k: len(sets[k])) for j in sets] for i in sets]
    coset = []
    for s in sets:
        label = [-1] * size
        for x in range(size):
            if label[x] < 0:
                for w in s:
                    label[red[wide[x] + w]] = x
        coset.append(label)
    return ideal, join, coset


@dataclass(frozen=True)
class SubgroupHandle:
    parent: QuotientGroup
    members: AbstractSet[Key]
    seeds: tuple[Key, ...] = ()

    @property
    def order(self) -> int:
        return len(self.members)


def build_quotient(modulus: Modulus, projective: bool = True,
                   element_cap: int = DEFAULT_ELEMENT_CAP,
                   cache_dir: str | Path | None = None) -> QuotientGroup:
    """The image of {S, T} mod `modulus`, built no further than its order;
    the constructor refuses residue tables above the element cap.

    With `cache_dir`, the row orbit is read from its file if that loads,
    else walked and written.  A file that does not load (bad magic,
    truncated) counts as missing and is rewritten.
    """
    q = QuotientGroup(modulus, projective, element_cap)
    if cache_dir is not None:
        path = Path(cache_dir) / _cache_name(modulus, projective)
        try:
            _load_quotient(path, q)
        except (FileNotFoundError, ValueError, struct.error):
            _save_quotient(q, path)  # no file, or one that does not load
    return q


def _row_orbit(q: QuotientGroup) -> tuple[list[Key], list[int]]:
    """Orbit-stabilizer for the first row (Holt, Eick, O'Brien, Handbook of
    Computational Group Theory, 4.1).

    The homogeneous image Q of {S, T} acts on first rows by right
    multiplication; the elements fixing (1, 0) are the (1 0; u 1), which
    multiply by adding their u's.  Returns a list `reps` with one element
    of Q for each row in the orbit of (1, 0), and the additive group U of
    those u's.  Q is the disjoint union of the cosets (1 0; u 1) t, u in U,
    over t in `reps`, so |Q| = len(reps) * len(U).  U is spanned by the
    Schreier generators t g t'^-1, one for each t in `reps` and generator
    g such that t g has the row of a t' found before.

    Projective: `step` returns `_signed` keys, so the walk is over
    +-rows, and each rep is the one of +-t with the smaller row (S^2 = -I
    is in Q, so both are).  Each (1 0; u 1) t keeps that row, so its key is
    already `_signed`: a row equal to its negation has 2a = 2b = 0, and for
    a unimodular (a, b) that means 2 = 0, where every key is its own
    negation.
    """
    mul, r, step = q._mul, ring_tables(q.modulus), q.step
    red, wide, neg, size = r.red, r.wide, r.neg, q.modulus.ring_size
    identity = q.identity
    one, zero = identity[:2]
    reps = [identity]
    by_row = {one * size + zero: identity}  # keyed by the row (a, b)
    gens = set()
    for t in reps:  # grows while it is walked: breadth first
        for y in step(t):
            rep = by_row.setdefault(y[0] * size + y[1], y)
            if rep is y:
                reps.append(y)
            else:  # y (a b; c' d')^-1 = (1 0; u 1) with u = c d' - d c'
                gens.add(red[mul[y[2]][rep[3]] + mul[neg[y[3]]][rep[2]]])
    shifts = [zero]
    span = {zero}
    for u in shifts:  # also grows while it is walked
        for g in gens:
            v = red[wide[u] + wide[g]]
            if v not in span:
                span.add(v)
                shifts.append(v)
    return reps, shifts


# Cache format v3: len(reps), len(U), the reps (4 indices each), then U.
_CACHE_MAGIC = b"HQC3"


def _cache_name(modulus: Modulus, projective: bool) -> str:
    # the ideal's HNF, not its generator or `kind`: equal moduli share one
    # file
    tag = f"v3|{modulus.d1},{modulus.c},{modulus.d2}|{int(projective)}"
    return hashlib.sha256(tag.encode()).hexdigest()[:20] + ".quot"


def _save_quotient(q: QuotientGroup, path: Path) -> None:
    """Write to a temporary file beside `path`, then rename it into place,
    so a crash mid-write never leaves a partial file under the cache name."""
    reps, shifts = q._orbit
    flat = array("I", chain(chain.from_iterable(reps), shifts))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CACHE_MAGIC)
            fh.write(struct.pack("<QQ", len(reps), len(shifts)))
            fh.write(flat.tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load_quotient(path: Path, q: QuotientGroup) -> None:
    """Set q's row orbit from `path` as walking it would."""
    with open(path, "rb") as fh:
        if fh.read(4) != _CACHE_MAGIC:
            raise ValueError(f"bad quotient cache file {path}")
        n_reps, n_shifts = struct.unpack("<QQ", fh.read(16))
        flat = array("I")
        flat.frombytes(fh.read())
    if len(flat) != 4 * n_reps + n_shifts:
        raise ValueError(f"truncated quotient cache file {path}")
    if flat and max(flat) >= q.modulus.ring_size:
        raise ValueError(f"residue index out of range in {path}")
    reps = list(zip(*[iter(flat[:4 * n_reps])] * 4))
    vars(q)["_orbit"] = reps, list(flat[4 * n_reps:])


# ---------------------------------------------------------------------------
# Subgroups.


def subgroup_closure(q: QuotientGroup, seeds) -> SubgroupHandle:
    """Smallest subgroup of q containing the seeds."""
    keys = tuple(_as_key(q, s) for s in seeds)
    members = _normal_closure_engine(q.identity, keys, q.mult, (),
                                     q.element_cap)
    return SubgroupHandle(q, frozenset(members), keys)


def normal_closure(q: QuotientGroup, seeds) -> SubgroupHandle:
    """Smallest subgroup containing the seeds, closed under conjugation by S, T."""
    keys = tuple(_as_key(q, s) for s in seeds)
    conj = [(q.gen_S, q.inv_key(q.gen_S)), (q.gen_T, q.inv_key(q.gen_T))]
    members = _normal_closure_engine(q.identity, keys, q.mult, conj,
                                     q.element_cap)
    return SubgroupHandle(q, frozenset(members), keys)


def _as_key(q: QuotientGroup, seed) -> Key:
    if isinstance(seed, GMat):
        return q.key_of(seed)
    return seed


def kernel_subgroup(q: QuotientGroup, m: Modulus) -> SubgroupHandle:
    """Elements of q congruent to I (homogeneous) or +-I (projective) mod m.

    Reduction onto Q(m) is onto, so there are |Q| / |Q(m)| of them, known
    before any is built (see `_KernelMembers`)."""
    if not m.divides(q.modulus):
        raise ValueError(f"{m} does not divide {q.modulus}")
    size = q.order // quotient_order(m, q.projective)
    return SubgroupHandle(q, _KernelMembers(q, m, size))


class _KernelMembers(Set):
    """A kernel's members, known by their number.  Each iteration walks
    them off the row orbit (`_kernel`); the first `in` keeps them in a
    frozenset, which the later ones read.  The `Set` comparisons test the
    lengths first, so a kernel compared with a set of another size is never
    enumerated, nor refused above the element cap."""

    def __init__(self, q: QuotientGroup, m: Modulus, size: int):
        self._q, self._m, self._size = q, m, size

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Key]:
        return _kernel(self._q, self._m, self._size)

    def __contains__(self, x) -> bool:
        return x in self._set

    @cached_property
    def _set(self) -> frozenset[Key]:
        return frozenset(self)

    @classmethod
    def _from_iterable(cls, it) -> frozenset[Key]:
        # `Set` builds the results of &, |, - and ^ with this; the
        # constructor here takes no iterable
        return frozenset(it)


def refuse_kernel(q: QuotientGroup, m: Modulus, size: int) -> None:
    """Undecided if the kernel of q mod m, of `size` elements, passes the
    element cap."""
    if size > q.element_cap:
        raise UndecidedError(f"the kernel of Q({q.modulus}) mod {m} has "
                             f"{size} elements, above the element cap of "
                             f"{q.element_cap}")


def _kernel(q: QuotientGroup, m: Modulus, size: int) -> Iterator[Key]:
    """The `size` (1 0; u 1) t = (a b; ua+c ub+d) of `_row_orbit` that are
    (+-)I mod m: t's row is (+-)(1, 0) and ua+c = 0, so u = -c/a with
    a = +-1, and ub+d = a by det = 1.  Undecided at the call, before any is
    built, when `size` or `mul` (`QuotientGroup._mul`, read before the
    orbit, which may come from a file) passes the element cap.  Each keeps
    t's row, so its key is already `_signed`, and no two are equal.  The
    orbit is independent of `quotient_order`, which gives `size`: a walk
    that yields a different count ends in an error."""
    refuse_kernel(q, m, size)
    mul = q._mul
    big, small = ring_tables(q.modulus), ring_tables(m)
    red, wide = big.red, big.wide
    down = [small.at(*big.pair(i)) for i in range(q.modulus.ring_size)]
    zero, one = small.at(0, 0), small.at(1, 0)
    ones = {one, small.neg[one]} if q.projective else {one}
    reps, shifts = q._orbit

    def walk() -> Iterator[Key]:
        count = 0
        for a, b, c, d in reps:
            if down[a] in ones and down[b] == zero:
                want = small.neg[down[c]] if down[a] == one else down[c]
                for u in shifts:
                    if down[u] == want:
                        count += 1
                        yield (a, b, red[wide[c] + mul[u][a]],
                               red[wide[d] + mul[u][b]])
        if count != size:
            raise ArithmeticError(f"the kernel of Q({q.modulus}) mod {m} has "
                                  f"{count} members, not {size}")

    return walk()


def check_elementary_abelian(h: SubgroupHandle, p: int) -> bool:
    """True iff h is abelian with every non-identity element of order p.

    Past the order test p is the one prime dividing |h|, so a generator
    has order 1 or p iff its p-th power, p - 1 products, is the identity."""
    if h.order == 1:
        return True
    if set(factor(h.order)) != {p}:
        return False
    q = h.parent
    gens = h.seeds if h.seeds else tuple(h.members)
    for g in gens:
        y = g
        for _ in range(p - 1):
            y = q.mult(y, g)
        if y != q.identity:
            return False
    for i, g in enumerate(gens):
        for k in gens[i + 1:]:
            if q.mult(g, k) != q.mult(k, g):
                return False
    return True


# ---------------------------------------------------------------------------
# Index formula and its enumeration oracle.


def sl_index_formula(a: Modulus) -> int:
    """N(A)^3 prod over prime divisors P of A of (1 - N(P)^-2), in integers.

    Every division is exact.  The P over a rational prime p have norms
    p^f and each divides A, so p^(3 sum f) divides N(A)^3, and the
    divisions take out p^(2 sum f)."""
    value = a.ring_size ** 3
    for p in factor(a.d1):  # d1: the least positive integer in A
        for f in classify_rational_prime(p).factors:
            if a.generator.divisible_by(f):
                np = abs(f.norm())
                value = value // (np * np) * (np * np - 1)
    return value


def quotient_order(modulus: Modulus, projective: bool = True) -> int:
    """|Q(A)| = |SL(2, O/A)| / (c2 c3), halved when projective unless A | (2).

    Here O = Z[L], c2 is 1, 6 or 12 as (2) does not divide A, (2) || A or
    (4) | A, and c3 is 1 or 6 as (3) does not divide A or does.  Qh(A) is
    the homogeneous image, and p the rational prime below a prime P.

    - Projective.  S^2 = -I is in Qh(A), so Q(A) = Qh(A) / {+-I} has half
      its order unless -I = I, that is A | (2).
    - Primes P other than (2) and (3).  Mod P, T = (1 L; 0 1) and
      S T S^-1 = (1 0; -L 1) are transvections whose parameters multiply
      to -L^2, which generates O/P.  So Qh(P) = SL(2, O/P) by Dickson's
      lemma (Gorenstein, Finite Groups, 2.8.4): p is odd, and O/P is not
      F_9, as (3) is the one prime over 3.
    - (2) and (3).  Mod 2, S and T are involutions and ST has order 5:
      Qh(2) is dihedral of order 10, index 6 in SL(2, 4).  Mod 3 the image
      is Dickson's exception, SL(2, 5) of order 120, index 6 in SL(2, 9).
    - Powers.  The kernel of SL(2, O/P^(k+1)) -> SL(2, O/P^k), k >= 1, is
      sl2(O/P) under addition.  For P = (p) the paper's lemma 2.2 puts all
      of it in Qh, except from (2) to (4), where lemma 2.3 at pi = 1 gives
      2^5 of its 2^6 elements: c2 goes from 6 to 12, and c3 stays 6.  For
      a split P, or the ramified (2+L), Qh meets the kernel in an F_p-space
      that SL(2, O/P) conjugates to itself.  That module is irreducible, so
      one element of the meet brings in all of it: T^p = (1 pL; 0 1) at
      k = 1 when p is prime at P, (T^2 S)^3 from (2+L) to (5), and for
      k >= 2 the commutator of lifts of I + x e and I + x^(k-1) f, which
      is I + x^k h (x prime at P; e, f, h the usual basis of sl2).
    - Products, which lemma 2.4 states for rational moduli.  For coprime A
      and B, by Goursat's lemma Qh(AB) is all of Qh(A) x Qh(B) unless both
      map onto one group Y != 1, S to S and T to T.  Take Y simple, A = P^k
      and, by induction, Qh(B) the product of its prime-power parts.
      Y cyclic: Qh(P^k) is perfect for P other than (2) and (3) (SL(2) of
      a local ring whose residue field has more than 3 elements), and
      Qh(2^k) and Qh(3^k) extend Qh(2) (abelianized: C2) and the perfect
      SL(2, 5) by 2- and 3-groups.  So no prime order is common to both
      sides.  Y non-abelian: the Qh(2^k) are solvable, and otherwise Y is
      a Q(P) on each side, PSL(2, O/P) or A5 at (3).  Two of those are
      isomorphic only at (3) and (2+L), where T has orders 3 and 5 in A5,
      or at the two primes over a split p.  There an isomorphism would be
      conjugation in PGL(2, p), which keeps traces up to sign; but
      tr ST = -L is -r at one prime and r - 1 at the other, with
      r^2 = r + 1 mod p, and r - 1 is not +-r for p != 5.

    `orbit_order` counts the same orders independently, and every
    enumeration by `_kernel` checks against them.
    """
    c2 = (1 if not Modulus.rational(2).divides(modulus)
          else 12 if Modulus.rational(4).divides(modulus) else 6)
    c3 = 6 if Modulus.rational(3).divides(modulus) else 1
    order = sl_index_formula(modulus) // (c2 * c3)
    if projective and not modulus.divides(Modulus.rational(2)):
        return order // 2
    return order


def orbit_order(q: QuotientGroup) -> int:
    """|q| as its row orbit counts it: the oracle for `quotient_order`."""
    reps, shifts = q._orbit
    return len(reps) * len(shifts)


def sl2_enumeration_order(m: Modulus) -> int:
    """|SL(2, Z[L]/m)| by direct counting; the oracle for the index formula.
    Its 2 * ring_size**2 steps are refused above the default element cap."""
    _refuse_tables(m, 2 * m.ring_size ** 2, DEFAULT_ELEMENT_CAP)
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
