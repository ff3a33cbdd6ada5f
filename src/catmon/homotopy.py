"""Floating homotopy groups of simplicial complexes.

HG(K) is generated by one class per unordered edge, with one relation per
2-simplex identifying a path along two sides with the third.  Collapsing a
spanning tree (a Tietze transformation killing the tree-edge generators)
exhibits HG(K) as the free product of a free group on the tree edges with
π1(K, root); when the remaining presentation simplifies to no relators the
total free rank is certified, otherwise the presentation itself is reported.

The collapse indexes its relators (generator -> relators holding it,
relator -> id, and a heap of the relators with a once-occurring
generator), so each elimination touches only the relators that hold the
generator; it makes the choices a rescan of every relator would make.  The
presentations built here are made with the trusted
``presentations._presentation``: the edge names are checked once, and the
relators are words over them by construction.
"""
from __future__ import annotations

from collections import namedtuple
from heapq import heappop, heappush

from .complexes import SimplicialComplex
from .errors import Disconnected, InvalidStructure
from .interval import interval_name
from .limits import require
from .poset import Poset, _pairs, _require_instance
from .presentations import (GroupPresentation, _generator_ids, _presentation,
                            free_reduce, invert_word, substitute)


def edge_name(x, y):
    return interval_name(x, y) if x <= y else interval_name(y, x)


def floating_presentation(complex_):
    """One generator per unordered edge; for each 2-simplex x<y<z the
    relator [x,z]⁻¹[x,y][y,z] (all other orderings are consequences).
    Faces list their vertices sorted, so they are named as they come.
    Vertex names may hold commas, so two edges can get one name; such a
    complex has no floating presentation here."""
    _require_instance(complex_, SimplicialComplex, "a simplicial complex")
    edges = complex_.edges()
    gens = [interval_name(x, y) for x, y in edges]
    if len(set(gens)) < len(gens):
        named = {}
        for name, e in zip(gens, edges):
            if named.setdefault(name, e) != e:
                raise InvalidStructure(f"edges {named[name]} and {e} would "
                                       f"both be named {name!r}")
    relators = tuple(((interval_name(x, z), -1), (interval_name(x, y), 1),
                      (interval_name(y, z), 1))
                     for x, y, z in complex_.triangles())
    return _presentation(_generator_ids(gens), relators)


class SpanningTree(namedtuple("SpanningTree", "root edges")):
    __slots__ = ()


def spanning_tree(complex_):
    """BFS tree from the lexicographically least vertex."""
    _require_instance(complex_, SimplicialComplex, "a simplicial complex")
    reached, edges = complex_._bfs()
    if len(reached) != len(complex_.vertices):
        raise Disconnected("complex is not connected")
    return SpanningTree(complex_.vertices[0], edges)


def tietze_collapse(pres, tree):
    """Kill the tree-edge generators and simplify: free reduction, relator
    dedup, and repeated elimination of a generator that occurs exactly once
    in some relator.  The result presents π1 at the tree root.  The tree
    is read as ``(root, edges)``, as a ``SpanningTree`` is.

    Each round eliminates the first letter, in the first relator that has
    one, whose generator occurs once in that relator; it substitutes for
    the generator, drops empty relators and keeps the first of equal ones.
    The relators are kept by id, their place in the list, with three
    indexes, so a round touches only the relators that hold the generator:

    - ``holders``: generator -> the ids of the relators that hold it;
    - ``by_word``: relator -> its id, so a repeat keeps the smaller id;
    - ``ready``: a heap of the ids with a once-occurring generator, whose
      first such letter is ``first[id]``.  An id is pushed each time its
      relator is indexed, and a popped id no longer in ``first`` is stale.

    Substitution can lengthen the relators, so their total length is
    counted as it grows and refused with SizeLimitExceeded past
    ``limits.MAX_COUNT`` letters, as a congruence class is past that many
    words."""
    _require_instance(pres, GroupPresentation, "a group presentation")
    try:  # a tree that is not (root, edges), or vertices that do not compare
        _, edges = tree
        killed = {edge_name(x, y) for x, y in _pairs(edges, "tree edges")}
    except (TypeError, ValueError):
        raise InvalidStructure(
            f"expected a spanning tree (root, edges) of pairs of vertices, "
            f"got {tree!r}") from None
    unknown = killed - set(pres.generators)
    if unknown:
        raise InvalidStructure(
            f"tree edges {sorted(unknown)} are not generators")
    gens = [g for g in pres.generators if g not in killed]
    rels, by_word, first, ready = {}, {}, {}, []
    holders = {g: set() for g in gens}
    total = 0

    def index(i, r):
        nonlocal total
        rels[i] = r
        by_word[r] = i
        total += len(r)
        counts = {}
        for g, _ in r:
            counts[g] = counts.get(g, 0) + 1
        for g in counts:
            holders[g].add(i)
        for pos, (g, e) in enumerate(r):
            if counts[g] == 1:
                first[i] = (pos, g, e)
                heappush(ready, i)
                break

    def unindex(i):
        nonlocal total
        r = rels.pop(i)
        del by_word[r]
        total -= len(r)
        for g, _ in r:
            holders[g].discard(i)
        first.pop(i, None)

    for i, r in enumerate(pres.relators):
        r = free_reduce([(g, e) for g, e in r if g not in killed])
        if r and r not in by_word:
            index(i, r)
    eliminated = set()
    while True:
        require(total, "relator letters")
        while ready and ready[0] not in first:
            heappop(ready)
        if not ready:
            break
        ri = heappop(ready)
        pos, g, e = first[ri]
        r = rels[ri]
        u, v = r[:pos], r[pos + 1:]
        # u g^e v = 1  =>  g = (u^-1 v^-1)^e
        w = free_reduce(invert_word(u) + invert_word(v))
        if e == -1:
            w = invert_word(w)
        unindex(ri)
        changed = [(i, substitute(rels[i], g, w)) for i in sorted(holders[g])]
        for i, _ in changed:
            unindex(i)
        del holders[g]
        for i, r2 in changed:
            # An empty relator goes; of equal ones the smaller id stays.
            j = by_word.get(r2, i) if r2 else -1
            if j > i:
                unindex(j)
            if j >= i:
                index(i, r2)
        eliminated.add(g)
    return _presentation(tuple(g for g in gens if g not in eliminated),
                         tuple(rels[i] for i in sorted(rels)))


class FloatingDecomposition(namedtuple(
        "FloatingDecomposition", "tree tree_edge_count pi1 total_free_rank")):
    __slots__ = ()


def floating_decomposition(complex_):
    """HG(K) ≅ Fg(tree edges) * π1(K, root); the total free rank is
    reported only when the collapsed π1 presentation has no relators."""
    tree = spanning_tree(complex_)
    pi1 = tietze_collapse(floating_presentation(complex_), tree)
    total = None
    if pi1.free_rank() is not None:
        total = len(tree.edges) + pi1.free_rank()
    return FloatingDecomposition(tree, len(tree.edges), pi1, total)


def chain_complex(poset):
    """Sim(P): simplices are the nonempty chains of P."""
    _require_instance(poset, Poset, "a poset")
    return SimplicialComplex(poset.maximal_chains())


class CrossCheckReport(namedtuple(
        "CrossCheckReport", "decomposition hg_free_rank abelianization_rank"
        " agree")):
    __slots__ = ()


def cross_check(poset):
    """Compare the homotopy route (floating decomposition of the chain
    complex) with the algebraic route (abelianization rank of the universal
    group of Cat(P)); the two groups are isomorphic, so certified free ranks
    must agree.  Cat(P) is built first, since it is priced before its walk:
    an over-limit poset is refused before the unpriced homotopy route."""
    from .interval import cat_of_poset
    from .universal import universal_group_presentation
    cat = cat_of_poset(poset)
    dec = floating_decomposition(chain_complex(poset))
    ab = universal_group_presentation(cat).abelianization_rank()
    agree = None if dec.total_free_rank is None else dec.total_free_rank == ab
    return CrossCheckReport(dec, dec.total_free_rank, ab, agree)
