"""Finite posets, stored as their Hasse diagram.

The input is the cover relation (x covered-by y edges); the full order is the
reflexive-transitive closure, computed once and cached as per-element bitmasks.
Inputs that are not exactly a Hasse diagram (cycles, or covers already implied
by other covers) are rejected rather than repaired, so files stay canonical.
A poset scans for its gcd criterion once (``Poset._gcd_witnesses``, on the
pair kernels ``_pair_without_meet`` and ``_pair_without_greatest``), and
every reader of the criterion shares that scan.

The readers of values from outside live here too, and every constructor
uses them: ``_items`` (any iterable), ``_ids`` (a list of names),
``_pairs`` (a list of pairs), ``_table`` (a dict or a list of pairs),
``_has`` (membership, where an unhashable value is not a member) and
``_require_instance`` (a structure argument, such as a poset or a
presentation, that its own constructor has already checked).  The one
cache of state an instance derives on first use, ``_lazy``, is here too.
"""
from __future__ import annotations

import heapq

from .errors import CyclicCovers, InvalidStructure, RedundantCover
from .limits import require


def _is_id(s):
    """Whether ``s`` can name an element, object, arrow, vertex or
    generator: a nonempty string with no whitespace and no ``#``, which
    starts a comment in every file format."""
    return isinstance(s, str) and "#" not in s and s.split() == [s]


def _items(value, plural):
    """``value`` from outside as a tuple (a string as its letters)."""
    try:
        return tuple(value)
    except TypeError:
        raise InvalidStructure(f"expected a sequence of {plural}, got "
                               f"{type(value).__name__}") from None


def _ids(value, what, plural):
    """The one check of a list of names from outside, before anything
    sorts them: ``_items(value)``, every member an id and none repeated."""
    ids = _items(value, plural)
    seen = set()
    for x in ids:
        if not _is_id(x):
            raise InvalidStructure(f"bad {what} id {x!r}")
        if x in seen:
            raise InvalidStructure(f"duplicate {plural}")
        seen.add(x)
    return ids


def _pairs(value, plural):
    """The one check of the shape of a list of pairs from outside:
    ``_items(value)``, each member as a 2-tuple."""
    out = []
    for p in _items(value, plural):
        try:
            x, y = p
        except (TypeError, ValueError):
            raise InvalidStructure(f"expected pairs in {plural}, got "
                                   f"{p!r}") from None
        out.append((x, y))
    return tuple(out)


def _table(value, plural):
    """A table from outside, a dict or a list of pairs, as a dict."""
    if isinstance(value, dict):
        return value
    try:
        return dict(_pairs(value, plural))
    except TypeError:
        raise InvalidStructure(f"unhashable key in {plural}") from None


def _has(table, key):
    """Whether key is in table; an unhashable key is not."""
    try:
        return key in table
    except TypeError:
        return False


def _require_instance(value, cls, what):
    """Refuse a structure argument that is not a ``cls``; one built by
    ``cls`` was checked when it was built, so nothing else is judged."""
    if not isinstance(value, cls):
        raise InvalidStructure(
            f"expected {what}, got {type(value).__name__}")


class _lazy:
    """An attribute worked out on first read and stored on the instance
    under the function's name, where every later read finds it first.  If
    the function raises, nothing is stored.  It stores with ``setattr``, as
    ``functools.cached_property`` writes ``obj.__dict__``, which on Python
    3.11 moves the inline attributes into a dict: that slowed ``gcd_pair``
    with ``multiply`` on c6 from 1.92 to 2.15 µs (+12%, 2-vCPU Xeon)."""

    def __init__(self, func):
        self.func = func

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.func(obj)
        setattr(obj, self.func.__name__, value)
        return value


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


def _pair_without_greatest(items, mask, below, later):
    """The first pair (y, z) of ``items``, the members of bitmask ``mask``
    in some order, z after y, whose common mask ``div[y] & div[z]`` has no
    greatest member; None if every pair has one.  Here ``div[y]`` is
    ``below[y] & mask``, and a greatest member of a mask is a member g
    with the whole mask inside ``div[g]``.

    Preconditions: ``below`` is reflexive (y is in ``below[y]``) and
    transitive (z in ``below[y]`` puts ``below[z]`` inside ``below[y]``) on
    the items.  Then a common mask has a greatest member g iff it equals
    g's own mask ``div[g]``: g lies in ``div[y]`` and ``div[z]``, so
    ``div[g]`` lies inside their AND, and that AND inside ``div[g]``.  So
    each row (one y, every z after it) is decided by one set of ANDs,
    checked with ``<=`` against the set of the items' own masks, and no
    greatest member is searched for.

    ``later[y]`` holds every item after y that is incomparable to y (it
    may hold more).  A row whose ``later`` mask misses ``mask`` is
    skipped, since a comparable pair's AND is the smaller one's own mask.
    The first failing row is rescanned in order for its first failing z,
    and the scan stops there.
    """
    masks = [below[y] & mask for y in items]
    own = set(masks)
    for k, y in enumerate(items):
        if not later[y] & mask:
            continue
        dy, rest = masks[k], masks[k + 1:]
        if {dy & m for m in rest} <= own:
            continue
        for j, m in enumerate(rest, k + 1):
            if dy & m not in own:
                return y, items[j]
    return None


def _pair_without_meet(a, above, below, later, key=None):
    """The first pair (y1, y2) of members of ``above[a]``, in index order
    or ordered by ``key``, whose common lower bounds in ``above[a]`` have
    no greatest member; None if there is none, as when ``above[a]`` is a
    meet-semilattice (with ``above`` and ``below`` swapped, a
    join-semilattice).  ``later`` is as ``_pair_without_greatest`` takes
    it, for that order."""
    mask = above[a]
    ys = _members(mask, range(len(above)))
    if key is not None:
        ys = sorted(ys, key=key)
    return _pair_without_greatest(ys, mask, below, later)


def _walk_chains(starts, ups):
    """The maximal paths up ``ups`` (element -> its upper covers) from each
    of ``starts``, in sorted order.  Walked with an explicit stack, so a
    chain of any length fits."""
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


def _close(n, edges):
    """Kahn's algorithm on indices 0..n-1 with ``edges`` (i, j) meaning i
    below j, taking the least free index first.  Returns the successors of
    each index, that order (the lexicographically least linear extension
    when indices follow the sorted elements), and the up- and down-masks,
    closed along it.  Leftover indices mean a cycle."""
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for i, j in edges:
        succ[i].append(j)
        indeg[j] += 1
    heap = [i for i in range(n) if indeg[i] == 0]  # ascending, so a heap
    order = []
    while heap:
        i = heapq.heappop(heap)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, j)
    if len(order) != n:
        raise CyclicCovers("cover relation contains a cycle")
    up = [1 << i for i in range(n)]
    dn = up[:]
    for i in order:
        for j in succ[i]:
            dn[j] |= dn[i]
    for i in reversed(order):
        for j in succ[i]:
            up[i] |= up[j]
    return succ, order, up, dn


class Poset:
    def __init__(self, elements, covers):
        elems = tuple(sorted(_ids(elements, "element", "poset elements")))
        idx = {e: i for i, e in enumerate(elems)}
        seen = set()
        for x, y in _pairs(covers, "covers"):
            try:
                idx[x], idx[y]
            except (KeyError, TypeError):  # an unhashable x or y too
                raise InvalidStructure(
                    f"cover ({x},{y}) uses unknown element") from None
            if x == y:
                raise InvalidStructure(f"self-cover ({x},{x})")
            if (x, y) in seen:
                raise InvalidStructure(f"duplicate cover ({x},{y})")
            seen.add((x, y))
        self.elements = elems
        self.covers = tuple(sorted(seen))
        self._idx = idx
        self._succ, self._order, self._up, self._dn = _close(
            len(elems), [(idx[x], idx[y]) for x, y in self.covers])
        self._reject_redundant()

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
        elems = sorted(_ids(elements, "element", "poset elements"))
        idx = {e: i for i, e in enumerate(elems)}
        edges = []
        for x, y in _pairs(le_pairs, "pairs"):
            if not (_has(idx, x) and _has(idx, y)):
                raise InvalidStructure(f"pair ({x},{y}) uses unknown element")
            if x != y:
                edges.append((idx[x], idx[y]))
        _, _, up, dn = _close(len(elems), edges)
        covers = []
        for i, x in enumerate(elems):
            for j in _members(up[i] & ~(1 << i), range(len(elems))):
                if up[i] & dn[j] == (1 << i) | (1 << j):
                    covers.append((x, elems[j]))
        return cls(elems, covers)

    # -- order queries ------------------------------------------------------

    def index(self, e):
        try:
            return self._idx[e]
        except (KeyError, TypeError):  # an unhashable e is unknown too
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

    def open_interval(self, u, v):
        m = self._up[self.index(u)] & self._dn[self.index(v)]
        m &= ~(1 << self.index(u)) & ~(1 << self.index(v))
        return _members(m, self.elements)

    def minimal_elements(self):
        return tuple(e for i, e in enumerate(self.elements)
                     if self._dn[i] == 1 << i)

    def maximal_elements(self):
        return tuple(e for i, e in enumerate(self.elements)
                     if self._up[i] == 1 << i)

    def least_element(self):
        full = (1 << len(self.elements)) - 1
        for i, e in enumerate(self.elements):
            if self._up[i] == full:
                return e
        return None

    def linear_extension(self):
        """The lexicographically least linear extension."""
        return tuple(self.elements[i] for i in self._order)

    def _chains(self, starts, inside):
        """Maximal chains of the elements in bitmask ``inside`` that begin
        at an element of ``starts``, ascending, in sorted order.

        Refused with SizeLimitExceeded, before any is listed, when there
        are more than ``limits.MAX_COUNT`` of them.  The count is exact: one
        pass down the linear extension gives each element the number of
        maximal chains from it, the sum over its upper covers inside, or 1
        at the top.
        """
        els, succ = self.elements, self._succ
        ups = {}
        count = {}
        for i in reversed(self._order):
            if inside >> i & 1:
                nxt = [j for j in succ[i] if inside >> j & 1]
                ups[els[i]] = [els[j] for j in nxt]
                count[i] = sum(count[j] for j in nxt) or 1
        require(sum(count[self._idx[e]] for e in starts), "maximal chains")
        return _walk_chains(starts, ups)

    def maximal_chains(self):
        """All maximal chains of P, each ascending, in sorted order."""
        return self._chains(self.minimal_elements(),
                            (1 << len(self.elements)) - 1)

    def maximal_chains_in(self, u, v):
        """Maximal chains of the closed interval [u,v], ascending."""
        inside = self._up[self.index(u)] & self._dn[self.index(v)]
        return self._chains([u] if inside else [], inside)

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

    @_lazy
    def _gcd_witnesses(self):
        """The one scan of the gcd criterion (``interval.gcd_criterion``):
        {side: (a, y1, y2)} as indices, for "left" when y1, y2 have no meet
        in up(a) and "right" when they have no join in down(a); a side that
        holds is absent.  The witness is the first failing a in index
        order, with its first pair.

        If up(a) is a meet-semilattice, so is up(b) for every b above a:
        the meet in up(a) of y1, y2 in up(b) is above b, so it is their meet
        in up(b).  So a side is decided on its minimal elements (maximal
        ones for down-sets) alone.  Only a side that fails is then scanned
        in index order for its witness, skipping the elements above one
        that passed.
        """
        witnesses = {}
        ids = range(len(self.elements))
        up, dn = self._up, self._dn
        # In an up-set a comparable pair has a meet, the smaller one (a join
        # in a down-set, the larger), so a row of the pair scan runs only
        # when y has an incomparable element after it in the up-set:
        # later[y] is the elements after y, in index order, incomparable to
        # y.
        full = (1 << len(ids)) - 1
        later = [full >> y + 1 << y + 1 & ~(up[y] | dn[y]) for y in ids]
        # The meet of y1, y2 in up(a) is the greatest member of
        # down(y1) & down(y2) & up(a); a join in down(a) is the same search
        # in the reversed order.
        for side, above, below in (("left", up, dn), ("right", dn, up)):
            passed = 0
            for a in ids:
                if below[a] == 1 << a:
                    pair = _pair_without_meet(a, above, below, later)
                    if pair is not None:
                        break
                    passed |= 1 << a
            else:
                continue
            for b in range(a):
                if not below[b] & passed:
                    found = _pair_without_meet(b, above, below, later)
                    if found is not None:
                        a, pair = b, found
                        break
                    passed |= 1 << b
            witnesses[side] = (a, *pair)
        return witnesses

    def __eq__(self, other):
        return (isinstance(other, Poset) and self.elements == other.elements
                and self.covers == other.covers)

    def __hash__(self):
        return hash((self.elements, self.covers))

    def __repr__(self):
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"
