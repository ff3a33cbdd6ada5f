"""Finite posets, stored as their Hasse diagram.

The input is the cover relation (x covered-by y edges); the full order is the
reflexive-transitive closure, computed once and cached as per-element bitmasks.
Inputs that are not exactly a Hasse diagram (cycles, or covers already implied
by other covers) are rejected rather than repaired, so files stay canonical.
"""
from __future__ import annotations

from .errors import CyclicCovers, InvalidStructure, RedundantCover


def _is_id(s):
    """Whether ``s`` can name an element, arrow or vertex: nonempty, with no
    whitespace."""
    return s.split() == [s]


def _members(mask, items):
    """The items whose indices are the set bits of ``mask``, in index order."""
    out = []
    while mask:
        out.append(items[(mask & -mask).bit_length() - 1])
        mask &= mask - 1
    return tuple(out)


def _greatest(mask, below):
    """Index of the greatest member of bitmask ``mask``: the i in it with
    ``mask`` inside ``below[i]``.  None if there is none, or if ``mask`` is
    0 or -1 (-1 is the meet of an empty family of masks)."""
    if mask <= 0:
        return None
    m = mask
    while m:
        i = (m & -m).bit_length() - 1
        if mask & ~below[i] == 0:
            return i
        m &= m - 1
    return None


def _pair_without_greatest(idxs, div, below):
    """The first pair (a, b), a before b in ``idxs``, whose common divisors
    ``div[a] & div[b]`` have no greatest member under ``below``; None if
    every pair has one.  Each a must lie in ``div[a]`` and each ``div[a]``
    inside ``below[a]``.  So when one mask holds the other (comparable
    pairs), its owner is the greatest and the search is skipped; the search
    runs once per distinct common mask."""
    have_greatest = set()
    for i, a in enumerate(idxs):
        da = div[a]
        for b in idxs[i + 1:]:
            common = da & div[b]
            if common == da or common == div[b] or common in have_greatest:
                continue
            if _greatest(common, below) is None:
                return a, b
            have_greatest.add(common)
    return None


def _transposed(up):
    """The down-masks of the order whose up-masks are ``up``."""
    dn = [0] * len(up)
    for i, m in enumerate(up):
        while m:
            j = (m & -m).bit_length() - 1
            dn[j] |= 1 << i
            m &= m - 1
    return dn


def _paths_to_tops(starts, ups):
    """Every path that begins at a start, steps along ``ups`` and ends at an
    element with no ups, in sorted order.  Walked with an explicit stack, so
    a chain of any length fits."""
    chains = []
    stack = [(e,) for e in starts]
    while stack:
        chain = stack.pop()
        nxt = ups[chain[-1]]
        if nxt:
            stack.extend(chain + (y,) for y in nxt)
        else:
            chains.append(chain)
    return tuple(sorted(chains))


class Poset:
    def __init__(self, elements, covers):
        elems = tuple(sorted(elements))
        if len(set(elems)) != len(elems):
            raise InvalidStructure("duplicate poset elements")
        for e in elems:
            if not _is_id(e):
                raise InvalidStructure(f"bad element id {e!r}")
        idx = {e: i for i, e in enumerate(elems)}
        seen = set()
        for x, y in covers:
            if x not in idx or y not in idx:
                raise InvalidStructure(f"cover ({x},{y}) uses unknown element")
            if x == y:
                raise InvalidStructure(f"self-cover ({x},{x})")
            if (x, y) in seen:
                raise InvalidStructure(f"duplicate cover ({x},{y})")
            seen.add((x, y))
        self.elements = elems
        self.covers = tuple(sorted(seen))
        self._idx = idx
        self._up = self._closure()
        self._dn = _transposed(self._up)
        self._reject_redundant()

    def _closure(self):
        n = len(self.elements)
        succ = [[] for _ in range(n)]
        indeg = [0] * n
        for x, y in self.covers:
            succ[self._idx[x]].append(self._idx[y])
            indeg[self._idx[y]] += 1
        # Kahn's algorithm; leftovers mean a cycle.
        order, queue = [], [i for i in range(n) if indeg[i] == 0]
        while queue:
            i = queue.pop()
            order.append(i)
            for j in succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        if len(order) != n:
            raise CyclicCovers("cover relation contains a cycle")
        up = [0] * n
        for i in reversed(order):
            m = 1 << i
            for j in succ[i]:
                m |= up[j]
            up[i] = m
        return up

    def _reject_redundant(self):
        for x, y in self.covers:
            i, j = self._idx[x], self._idx[y]
            between = self._up[i] & self._dn[j] & ~(1 << i) & ~(1 << j)
            if between:
                z = self.elements[(between & -between).bit_length() - 1]
                raise RedundantCover(
                    f"cover ({x},{y}) is implied via {z}; input must be the "
                    "Hasse diagram")

    @classmethod
    def from_order(cls, elements, le_pairs):
        """Build from any set of (x,y) meaning x <= y; covers are derived."""
        elems = sorted(set(elements))
        idx = {e: i for i, e in enumerate(elems)}
        ids = range(len(elems))
        up = [1 << i for i in ids]
        for x, y in le_pairs:
            if x not in idx or y not in idx:
                raise InvalidStructure(f"pair ({x},{y}) uses unknown element")
            up[idx[x]] |= 1 << idx[y]
        for k in ids:  # Warshall: close through each k in turn
            for i in ids:
                if up[i] >> k & 1:
                    up[i] |= up[k]
        dn = _transposed(up)
        covers = []
        for i, x in enumerate(elems):
            above = up[i] & ~(1 << i)
            if above & dn[i]:
                y = elems[(above & dn[i]).bit_length() - 1]
                raise CyclicCovers(f"{x} and {y} are mutually below each other")
            for j in _members(above, ids):
                if up[i] & dn[j] == (1 << i) | (1 << j):
                    covers.append((x, elems[j]))
        return cls(elems, covers)

    # -- order queries ------------------------------------------------------

    def index(self, e):
        try:
            return self._idx[e]
        except KeyError:
            raise InvalidStructure(f"unknown poset element {e!r}") from None

    def leq(self, x, y):
        return bool(self._up[self.index(x)] >> self.index(y) & 1)

    def lt(self, x, y):
        return x != y and self.leq(x, y)

    def comparable(self, x, y):
        return self.leq(x, y) or self.leq(y, x)

    def up_set(self, a):
        return _members(self._up[self.index(a)], self.elements)

    def down_set(self, a):
        return _members(self._dn[self.index(a)], self.elements)

    def closed_interval(self, u, v):
        return _members(self._up[self.index(u)] & self._dn[self.index(v)],
                        self.elements)

    def open_interval(self, u, v):
        m = self._up[self.index(u)] & self._dn[self.index(v)]
        m &= ~(1 << self.index(u)) & ~(1 << self.index(v))
        return _members(m, self.elements)

    def minimal_elements(self):
        cov_tgt = {y for _, y in self.covers}
        return tuple(e for e in self.elements if e not in cov_tgt)

    def maximal_elements(self):
        cov_src = {x for x, _ in self.covers}
        return tuple(e for e in self.elements if e not in cov_src)

    def least_element(self):
        full = (1 << len(self.elements)) - 1
        for i, e in enumerate(self.elements):
            if self._up[i] == full:
                return e
        return None

    def upper_covers(self, x):
        return tuple(y for a, y in self.covers if a == x)

    def sort_by_order(self, xs):
        """Sort a chain (pairwise comparable set) into ascending order."""
        return tuple(sorted(xs, key=lambda e: len(self.down_set(e))))

    def linear_extension(self):
        """Kahn's topological sort, lexicographic smallest-first tie-break."""
        import heapq
        indeg = {e: 0 for e in self.elements}
        for _, y in self.covers:
            indeg[y] += 1
        heap = [e for e in self.elements if indeg[e] == 0]
        heapq.heapify(heap)
        out = []
        while heap:
            e = heapq.heappop(heap)
            out.append(e)
            for y in self.upper_covers(e):
                indeg[y] -= 1
                if indeg[y] == 0:
                    heapq.heappush(heap, y)
        return tuple(out)

    def maximal_chains(self):
        """All maximal chains of P, each ascending, in sorted order."""
        ups = {e: [] for e in self.elements}
        for x, y in self.covers:
            ups[x].append(y)
        return _paths_to_tops(sorted(self.minimal_elements()), ups)

    def maximal_chains_in(self, u, v):
        """Maximal chains of the closed interval [u,v], ascending."""
        inside = set(self.closed_interval(u, v))
        ups = {e: [] for e in inside}
        for x, y in self.covers:
            if x in inside and y in inside:
                ups[x].append(y)
        return _paths_to_tops([u] if u in inside else [], ups)

    def meet_within(self, y1, y2, lo=None):
        """Greatest common lower bound of y1,y2 inside up_set(lo), if any."""
        cand = self._dn[self.index(y1)] & self._dn[self.index(y2)]
        if lo is not None:
            cand &= self._up[self.index(lo)]
        i = _greatest(cand, self._dn)
        return None if i is None else self.elements[i]

    def join_within(self, y1, y2, hi=None):
        """Least common upper bound of y1,y2 inside down_set(hi), if any."""
        cand = self._up[self.index(y1)] & self._up[self.index(y2)]
        if hi is not None:
            cand &= self._dn[self.index(hi)]
        i = _greatest(cand, self._up)  # greatest in the reversed order
        return None if i is None else self.elements[i]

    def __eq__(self, other):
        return (isinstance(other, Poset) and self.elements == other.elements
                and self.covers == other.covers)

    def __hash__(self):
        return hash((self.elements, self.covers))

    def __repr__(self):
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"
