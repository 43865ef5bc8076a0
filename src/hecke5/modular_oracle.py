"""Classical modular-group analog of the quotient machinery, used as an oracle.

Everything here lives in SL(2, Z/n).  The same closure engine drives both
this module and the Z[L] quotients, so agreement between the two
backends on the parallel lemma instances is a meaningful cross-check.
No element set of SL(2, Z/n) is built: its order, and the order of each
kernel of reduction, come from the index formula, and only the Dimino
closures enumerate elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .closure import DEFAULT_ELEMENT_CAP, UndecidedError
from .closure import normal_closure as _normal_closure
from .golden_ring import factor

Key = tuple[int, int, int, int]


def _make_mult(n: int):
    def mult(x: Key, y: Key) -> Key:
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % n, (a * f + b * h) % n,
                (c * e + d * g) % n, (c * f + d * h) % n)
    return mult


@dataclass(frozen=True)
class IntQuotient:
    """SL(2, Z/n) as its order and its arithmetic, with the generators
    T = (1 1; 0 1) and S = (0 1; -1 0)."""

    n: int
    order: int
    _mult: object = field(repr=False, compare=False)

    @property
    def identity(self) -> Key:
        return (1 % self.n, 0, 0, 1 % self.n)

    def mult(self, x: Key, y: Key) -> Key:
        return self._mult(x, y)

    def mat(self, a: int, b: int, c: int, d: int) -> Key:
        return (a % self.n, b % self.n, c % self.n, d % self.n)

    @property
    def gen_t(self) -> Key:
        return self.mat(1, 1, 0, 1)

    @property
    def gen_s(self) -> Key:
        return self.mat(0, 1, -1, 0)


def build_sl2_quotient(n: int) -> IntQuotient:
    """SL(2, Z/n), the image of SL(2, Z) (onto, so S and T generate it)."""
    if n < 1:
        raise ValueError("modulus must be positive")
    # |SL(2, Z/n)| = n^3 prod over primes p | n of (1 - p^-2) > n^3 / 2, so
    # an n above the cap is refused before it is factored
    if n > DEFAULT_ELEMENT_CAP:
        raise UndecidedError(f"SL(2, Z/{n}) has over {n}^3 / 2 elements, "
                             f"above the element cap of {DEFAULT_ELEMENT_CAP}")
    order = n ** 3
    for p in factor(n):
        order = order // (p * p) * (p * p - 1)
    if order > DEFAULT_ELEMENT_CAP:  # bounds the closures inside it
        raise UndecidedError(f"SL(2, Z/{n}) has {order} elements, above the "
                             f"element cap of {DEFAULT_ELEMENT_CAP}")
    return IntQuotient(n, order, _make_mult(n))


def _subgroup_closure(q: IntQuotient, seeds) -> frozenset[Key]:
    return _normal_closure(q.identity, seeds, q.mult)


def _closure_normal(q: IntQuotient, seeds) -> frozenset[Key]:
    conj = [(g, _inv(q, g)) for g in (q.gen_s, q.gen_t)]
    return _normal_closure(q.identity, seeds, q.mult, conj)


def _inv(q: IntQuotient, x: Key) -> Key:
    a, b, c, d = x
    return (d % q.n, -b % q.n, -c % q.n, a % q.n)


def _pow(q: IntQuotient, x: Key, k: int) -> Key:
    out = q.identity
    for _ in range(k):
        out = q.mult(out, x)
    return out


def reduction_kernel_order(big: int, small: int) -> int:
    """|Gamma(small)/Gamma(big)|, the kernel of SL(2, Z/big) -> SL(2, Z/small):
    reduction is onto, so it is the quotient of the two orders."""
    if big % small:
        raise ValueError("moduli must be nested")
    return build_sl2_quotient(big).order // build_sl2_quotient(small).order


def check_lemma_d1(p: int) -> bool:
    """The two unipotent families generate all of SL(2, p): already their
    members U(1) and L(1) do."""
    q = build_sl2_quotient(p)
    return len(_subgroup_closure(q, [q.gen_t, q.mat(1, 0, 1, 1)])) == q.order


def d2_closure_order(m: int, p: int) -> int:
    """Order of the normal closure of T^m in SL(2, Z/mp)."""
    q = build_sl2_quotient(m * p)
    return len(_closure_normal(q, [_pow(q, q.gen_t, m)]))


def lemma_d2(m: int, p: int) -> tuple[bool, int]:
    """Whether the normal closure of T^m mod mp is the full kernel of
    reduction to mod m, with the closure's order."""
    order = d2_closure_order(m, p)
    return order == reduction_kernel_order(m * p, m), order


def check_wohlfahrt_instance(r: int, s: int) -> bool:
    """Normal closure of T^s together with Gamma(rs) is Gamma(s), mod rs."""
    return lemma_d2(s, r)[0]
