"""Spindles and their categories.

An interval [u,v] of height ≥ 2 is a spindle when comparability on the open
interval ]u,v[ is an equivalence relation — equivalently, when any two
distinct maximal chains of [u,v] meet exactly in {u,v}; both criteria are
computed and compared.  For an extreme spindle (u minimal, v maximal in P)
the spindle category replaces the single arrow [u,v] of Cat(P) by one arrow
per maximal chain.  It is built as an edit of Cat(P)'s composition table,
and its presentation as a filter of that table.
"""
from __future__ import annotations

from collections import Counter, namedtuple

from .category import FiniteCategory
from .errors import HeightTooSmall, InvalidStructure, NotComparable, NotExtreme
from .interval import _interval_walk, interval_name
from .poset import _members
from .presented import MonoidPresentation


class Spindle(namedtuple("Spindle", "u v chains")):
    __slots__ = ()


def chain_arrow_name(chain):
    return "chain:" + ",".join(chain[1:-1])


def detect_spindle(poset, u, v):
    """The spindle at (u,v), or None when the criteria fail.

    Primary criterion: comparability restricted to ]u,v[ is transitive
    (reflexivity and symmetry are automatic).  Cross-checked against the
    chain criterion: distinct maximal chains of [u,v] meet exactly in {u,v}.
    That holds iff every element of ]u,v[ has exactly one upper and one
    lower cover in [u,v], since then one inner element fixes its whole
    chain, and two covers on either side give two chains through it; so it
    is decided from the covers, and the maximal chains, one per class, are
    listed only for a spindle.
    """
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
    equivalence = all(near[j] == mask for mask in near.values()
                      for j in _members(mask, ids))
    inside = inner | 1 << ui | 1 << vi
    covers = {i: [j for j in poset._succ[i] if inside >> j & 1]
              for i in (ui, *near)}
    lower = Counter(j for ups in covers.values() for j in ups)
    chains_ok = all(len(covers[i]) == 1 and lower[i] == 1 for i in near)
    if equivalence != chains_ok:
        raise InvalidStructure(
            "spindle criteria disagree — this is a bug")
    if not equivalence:
        return None
    return Spindle(u, v, poset.maximal_chains_in(u, v))


def is_extreme_spindle(poset, spindle):
    return (spindle.u in poset.minimal_elements()
            and spindle.v in poset.maximal_elements())


def spindle_category(poset, spindle):
    """Cat(P,u,v): Cat(P) with [u,v] replaced by one arrow per maximal chain.

    Cat(P)'s table is edited in place.  Extremality makes that enough:
    nothing composes into u or out of v except identities, so [u,v] sits in
    two identity pastings only, chain arrows only ever meet identities, and
    [u,m];[m,v] lands on the chain arrow of m's chain.
    """
    if not is_extreme_spindle(poset, spindle):
        raise NotExtreme(f"{spindle.u} not minimal or {spindle.v} not maximal")
    u, v = spindle.u, spindle.v
    arrows, identity, comp = _interval_walk(poset)
    uv = interval_name(u, v)
    del arrows[uv], comp[(identity[u], uv)], comp[(uv, identity[v])]
    for chain in spindle.chains:
        name = chain_arrow_name(chain)
        if name in arrows:
            raise InvalidStructure(f"chain arrow name clash at {name}")
        arrows[name] = (u, v)
        for m in chain[1:-1]:
            comp[(interval_name(u, m), interval_name(m, v))] = name
        comp[(identity[u], name)] = name
        comp[(name, identity[v])] = name
    return FiniteCategory(poset.elements, arrows, identity, comp)


def spindle_presentation(poset, spindle):
    """Monoid presentation of Um(Cat(P,u,v)): generators are the strict
    intervals other than [u,v], relations are the pastings of them that stay
    off [u,v]."""
    if not is_extreme_spindle(poset, spindle):
        raise NotExtreme(f"{spindle.u} not minimal or {spindle.v} not maximal")
    arrows, identity, comp = _interval_walk(poset)
    skip = {*identity.values(), interval_name(spindle.u, spindle.v)}
    gens = [f for f in arrows if f not in skip]
    relations = [((h,), (f, g)) for (f, g), h in comp.items()
                 if f not in skip and g not in skip and h not in skip]
    return MonoidPresentation(gens, relations)
