"""Spindles and their categories.

An interval [u,v] of height ≥ 2 is a spindle when comparability on the open
interval ]u,v[ is an equivalence relation — equivalently, when any two
distinct maximal chains of [u,v] meet exactly in {u,v}; both criteria are
computed and compared.  For an extreme spindle (u minimal, v maximal in P)
the spindle category replaces the single arrow [u,v] of Cat(P) by one arrow
per maximal chain.
"""
from __future__ import annotations

from dataclasses import dataclass

from .category import FiniteCategory
from .errors import HeightTooSmall, InvalidStructure, NotComparable, NotExtreme
from .interval import _interval_walk
from .presented import MonoidPresentation


@dataclass(frozen=True)
class Spindle:
    u: str
    v: str
    chains: tuple


def chain_arrow_name(chain):
    return "chain:" + ",".join(chain[1:-1])


def detect_spindle(poset, u, v):
    """The spindle at (u,v), or None when the criteria fail.

    Primary criterion: comparability restricted to ]u,v[ is transitive
    (reflexivity and symmetry are automatic).  Cross-checked against the
    chain criterion: distinct maximal chains of [u,v] meet exactly in {u,v}.
    """
    if not poset.lt(u, v):
        raise NotComparable(f"{u} < {v} does not hold")
    inner = poset.open_interval(u, v)
    if not inner:
        raise HeightTooSmall(f"[{u},{v}] has height < 2")
    equivalence = True
    for x in inner:
        for y in inner:
            if not poset.comparable(x, y):
                continue
            for z in inner:
                if poset.comparable(y, z) and not poset.comparable(x, z):
                    equivalence = False
    chains = poset.maximal_chains_in(u, v)
    ends = {u, v}
    chains_ok = all(set(c1) & set(c2) == ends
                    for i, c1 in enumerate(chains) for c2 in chains[i + 1:])
    if equivalence != chains_ok:
        raise InvalidStructure(
            "spindle criteria disagree — this is a bug")
    if not equivalence:
        return None
    return Spindle(u, v, chains)


def is_extreme_spindle(poset, spindle):
    return (spindle.u in poset.minimal_elements()
            and spindle.v in poset.maximal_elements())


def spindle_category(poset, spindle):
    """Cat(P,u,v): Cat(P) with [u,v] replaced by one arrow per maximal chain.

    Extremality makes the composition total: nothing composes into u or out
    of v except identities, so chain arrows only ever meet identities, and
    [x,y];[y,z] lands on the chain arrow of y's class exactly when (x,z) is
    (u,v).
    """
    if not is_extreme_spindle(poset, spindle):
        raise NotExtreme(f"{spindle.u} not minimal or {spindle.v} not maximal")
    u, v = spindle.u, spindle.v
    ui, vi = poset.index(u), poset.index(v)
    ups, names, arrows = _interval_walk(poset)
    class_of = {}
    for chain in spindle.chains:
        name = chain_arrow_name(chain)
        for m in chain[1:-1]:
            class_of[poset.index(m)] = name
    del arrows[names[ui][vi]]
    for chain in spindle.chains:
        arrows[chain_arrow_name(chain)] = (u, v)
    identity = {x: names[i][i] for i, x in enumerate(poset.elements)}
    comp = {}
    for i, row in enumerate(names):
        for j in ups[i]:
            if i == ui and j == vi:
                continue
            f, after = row[j], names[j]
            for k in ups[j]:
                if j == ui and k == vi:
                    continue
                comp[(f, after[k])] = (class_of[j] if i == ui and k == vi
                                       else row[k])
    for chain in spindle.chains:
        name = chain_arrow_name(chain)
        comp[(identity[u], name)] = name
        comp[(name, identity[v])] = name
    return FiniteCategory(poset.elements, arrows, identity, comp)


def spindle_presentation(poset, spindle):
    """Monoid presentation of Um(Cat(P,u,v)): generators are the strict
    intervals other than [u,v], relations are the pastings that stay off
    [u,v]."""
    if not is_extreme_spindle(poset, spindle):
        raise NotExtreme(f"{spindle.u} not minimal or {spindle.v} not maximal")
    ui, vi = poset.index(spindle.u), poset.index(spindle.v)
    ups, names, _ = _interval_walk(poset)
    gens = [row[j] for i, row in enumerate(names) for j in ups[i]
            if j != i and not (i == ui and j == vi)]
    relations = []
    for i, row in enumerate(names):
        for j in ups[i]:
            if j == i:
                continue
            after = names[j]
            for k in ups[j]:
                if k != j and not (i == ui and k == vi):
                    relations.append(((row[k],), (row[j], after[k])))
    return MonoidPresentation(gens, relations)
