"""Closures over a finite group given by hashable keys.

Both the Hecke-quotient and the modular-oracle backends drive the same
routine: `normal_closure` builds a subgroup one generator at a time by
Dimino's algorithm.  A backend provides `mult`, an identity key, and (for
a normal closure) the designated conjugating generators with their
inverses; with none, the result is the subgroup the seeds generate.
`generated_closure`, the breadth-first orbit of the identity under right
actions, is a test oracle only: the tests check the Hecke quotients' row
orbit x stabilizer build and the modular oracle's order formula against
it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable

Key = Hashable
Mult = Callable[[Key, Key], Key]
Action = Callable[[Key], Key]


# Every enumeration stops at this many elements (about 300 MB of keys), so
# an input whose group is too large ends undecided instead of running on.
DEFAULT_ELEMENT_CAP = 2_000_000


class UndecidedError(RuntimeError):
    """An enumeration reached its cap before the answer was known."""


def _cap_reached(cap: int) -> UndecidedError:
    return UndecidedError(f"closure reached the element cap of {cap}")


def generated_closure(identity: Key, actions: Iterable[Action],
                      cap: int = DEFAULT_ELEMENT_CAP) -> set[Key]:
    """The subgroup generated by the elements whose right multiplications
    are `actions` (finite ambient assumed): the orbit of `identity`."""
    actions = list(actions)
    seen = {identity}
    frontier = deque([identity])
    while frontier:
        x = frontier.popleft()
        for act in actions:
            y = act(x)
            if y not in seen:
                if len(seen) >= cap:
                    raise _cap_reached(cap)
                seen.add(y)
                frontier.append(y)
    return seen


def normal_closure(identity: Key, seeds: Iterable[Key], mult: Mult,
                   conjugators: Iterable[tuple[Key, Key]] = (),
                   cap: int = DEFAULT_ELEMENT_CAP) -> set[Key]:
    """Smallest subgroup containing `seeds` closed under the given
    conjugations, by Dimino's algorithm (Butler, Fundamental Algorithms for
    Permutation Groups, LNCS 559).  `conjugators` is a list of (g, g^-1)
    pairs: the result is the normal closure of the seeds when the g
    generate the ambient group, and the subgroup the seeds generate when
    there are none.

    The members are kept as right cosets H*r of the subgroup H generated so
    far, one block per representative r.  A new generator g outside H adds
    the coset H*g; then each new representative times each generator is
    tested, and a product outside the members adds its whole coset.  The
    conjugates of each generator are queued as further generators: the
    subgroup is closed under the conjugations once every conjugate of every
    generator is a member, so only those are tested.
    """
    conjugators = list(conjugators)
    members = [identity]
    seen = {identity}
    gens: list[Key] = []
    pending = list(dict.fromkeys(seeds))
    while pending:
        g = pending.pop()
        if g in seen:
            continue
        gens.append(g)
        block = members[:]   # the subgroup before g; identity first
        pos = len(members)
        _add_coset(members, seen, block, g, mult, cap)
        while pos < len(members):
            rep = members[pos]
            for s in gens:
                y = mult(rep, s)
                if y not in seen:
                    _add_coset(members, seen, block, y, mult, cap)
            pos += len(block)
        pending.extend(mult(mult(c, g), cinv) for c, cinv in conjugators)
    return seen


def _add_coset(members: list, seen: set, block: list, r: Key, mult: Mult,
               cap: int) -> None:
    if len(seen) + len(block) > cap:
        raise _cap_reached(cap)
    for h in block:
        y = mult(h, r)
        members.append(y)
        seen.add(y)

