"""Spindles and their categories.

An interval [u,v] of height ≥ 2 is a spindle when comparability on the open
interval ]u,v[ is an equivalence relation — equivalently, when any two
distinct maximal chains of [u,v] meet exactly in {u,v}.  The first
criterion, the definition, is the one computed.  For an extreme spindle (u
minimal, v maximal in P) the spindle category replaces the single arrow
[u,v] of Cat(P) by one arrow per maximal chain.  It is built as an edit of
Cat(P)'s composition table, and its presentation as a filter of that table.
Both builders judge a ``Spindle`` from outside once (``_judged``) and then
trust the tables they build, so Cat(P,u,v) skips ``FiniteCategory(...)``.
"""
from __future__ import annotations

from collections import namedtuple

from .category import _category
from .errors import HeightTooSmall, InvalidStructure, NotComparable, NotExtreme
from .interval import _interval_walk, interval_name
from .limits import max_arrows, require
from .poset import Poset, _members, _require_instance
from .presented import MonoidPresentation


class Spindle(namedtuple("Spindle", "u v chains")):
    __slots__ = ()


def chain_arrow_name(chain):
    return "chain:" + ",".join(chain[1:-1])


def detect_spindle(poset, u, v):
    """The spindle at (u,v), or None when comparability restricted to
    ]u,v[ is not transitive (reflexivity and symmetry are automatic).  The
    maximal chains, one per class, are listed only for a spindle.
    """
    _require_instance(poset, Poset, "a poset")
    if not poset.lt(u, v):
        raise NotComparable(f"{u} < {v} does not hold")
    up, dn = poset._up, poset._dn
    ui, vi = poset.index(u), poset.index(v)
    inner = up[ui] & dn[vi] & ~(1 << ui | 1 << vi)
    if not inner:
        raise HeightTooSmall(f"[{u},{v}] has height < 2")
    # Comparability on ]u,v[ is transitive iff each element's comparable set
    # there is also the comparable set of every element in it.
    ids = range(len(up))
    near = {i: (up[i] | dn[i]) & inner for i in _members(inner, ids)}
    if not all(near[j] == mask for mask in near.values()
               for j in _members(mask, ids)):
        return None
    return Spindle(u, v, poset.maximal_chains_in(u, v))


def _read(spindle):
    """A spindle from outside, read as ``(u, v, chains)``."""
    try:
        u, v, chains = spindle
        return Spindle(u, v, tuple(map(tuple, chains)))
    except (TypeError, ValueError):
        raise InvalidStructure(
            f"expected a spindle (u, v, chains), got {spindle!r}") from None


def is_extreme_spindle(poset, spindle):
    _require_instance(poset, Poset, "a poset")
    u, v, _ = _read(spindle)
    return u in poset.minimal_elements() and v in poset.maximal_elements()


def _judged(poset, spindle):
    """The one check of a spindle from outside: it is extreme and is
    ``detect_spindle(poset, u, v)``."""
    judged = _read(spindle)
    u, v, _ = judged
    if not is_extreme_spindle(poset, judged):
        raise NotExtreme(f"{u} not minimal or {v} not maximal")
    if judged != detect_spindle(poset, u, v):
        raise InvalidStructure(f"{spindle!r} is not the spindle at "
                               f"({u},{v})")
    return judged


def spindle_category(poset, spindle):
    """Cat(P,u,v): Cat(P) with [u,v] replaced by one arrow per maximal chain.

    Cat(P)'s table is edited in place.  Extremality makes that enough:
    nothing composes into u or out of v except identities, so [u,v] sits in
    two identity pastings only, chain arrows only ever meet identities, and
    [u,m];[m,v] lands on the chain arrow of m's chain.
    """
    u, v, chains = _judged(poset, spindle)
    arrows, identity, comp = _interval_walk(poset)
    uv = interval_name(u, v)
    del arrows[uv], comp[(identity[u], uv)], comp[(uv, identity[v])]
    for chain in chains:
        name = chain_arrow_name(chain)
        if name in arrows:
            raise InvalidStructure(f"chain arrow name clash at {name}")
        arrows[name] = (u, v)
        for m in chain[1:-1]:
            comp[(interval_name(u, m), interval_name(m, v))] = name
        comp[(identity[u], name)] = name
        comp[(name, identity[v])] = name
    require(len(arrows), "arrows", max_arrows())
    return _category(poset.elements, arrows, identity, comp)


def spindle_presentation(poset, spindle):
    """Monoid presentation of Um(Cat(P,u,v)): generators are the strict
    intervals other than [u,v], relations are the pastings of them that stay
    off [u,v]."""
    u, v, _ = _judged(poset, spindle)
    arrows, identity, comp = _interval_walk(poset)
    skip = {*identity.values(), interval_name(u, v)}
    gens = [f for f in arrows if f not in skip]
    relations = [((h,), (f, g)) for (f, g), h in comp.items()
                 if f not in skip and g not in skip and h not in skip]
    return MonoidPresentation(gens, relations)
