"""Reference answers for the benchmark's output checks.

Nothing here calls catmon's algorithms.  A category is read only through its
public composition table (``comp``), identity map and arrow list; posets,
complexes and presentations are handled as plain Python data.  Every answer
comes from exhaustive search or from a separate implementation, so a check
can fail when the library is wrong.
"""
from __future__ import annotations

from collections import deque
from itertools import combinations


class CategoryTable:
    """Endpoints, identities and one-sided multiples read off ``cat.comp``."""

    def __init__(self, cat):
        self.comp = dict(cat.comp)
        idobj = {e: o for o, e in cat.identity.items()}
        self.ids = frozenset(idobj)
        self.arrows = tuple(cat.arrows)
        self.non_ids = tuple(f for f in self.arrows if f not in self.ids)
        self.src, self.tgt = {}, {}
        for f, g in self.comp:
            if f in idobj:
                self.src[g] = idobj[f]
            if g in idobj:
                self.tgt[f] = idobj[g]
        # right_mult[a]: every a;x.  left_mult[a]: every x;a.
        self.right_mult = {f: set() for f in self.arrows}
        self.left_mult = {f: set() for f in self.arrows}
        for (f, g), h in self.comp.items():
            self.right_mult[f].add(h)
            self.left_mult[g].add(h)
        self._tables = {}

    def cancellative(self, side):
        """Left: a;x = a;y forces x = y.  Right: x;a = y;a forces x = y."""
        seen = set()
        for (f, g), h in self.comp.items():
            key = (f, h) if side == "left" else (g, h)
            if key in seen:
                return False
            seen.add(key)
        return True

    def divisor_table(self, max_len):
        if max_len not in self._tables:
            self._tables[max_len] = DivisorTable(self, max_len)
        return self._tables[max_len]


def reduce_stack(table, raw):
    """Normal form of a raw arrow sequence by one left-to-right stack pass.

    The stack always holds a reduced sequence; a new arrow is composed into
    the top while the pair is composable, and identities vanish.  The library
    instead rewrites the leftmost redex of the whole sequence repeatedly;
    confluence makes both give the same normal form.
    """
    out = []
    comp, ids = table.comp, table.ids
    for f in raw:
        while True:
            if f in ids:
                break
            if out and (out[-1], f) in comp:
                f = comp[(out.pop(), f)]
                continue
            out.append(f)
            break
    return tuple(out)


def reduced_up_to(table, max_len):
    """Every reduced sequence of at most max_len arrows, shortest first."""
    out, layer = [()], [()]
    for _ in range(max_len):
        layer = [s + (f,) for s in layer for f in table.non_ids
                 if not (s and (s[-1], f) in table.comp)]
        out.extend(layer)
    return out


class DivisorTable:
    """Left and right divisor sets of every element up to a length bound,
    found by multiplying every pair of pool elements.

    In a conical category a divisor of y and its cofactor are no longer than
    y, so the pool is closed under taking divisors and the table is exact.
    """

    def __init__(self, table, max_len):
        self.table = table
        self.pool = reduced_up_to(table, max_len)
        self.index = {x: i for i, x in enumerate(self.pool)}
        n = len(self.pool)
        self.masks = {"left": [0] * n, "right": [0] * n}
        left, right = self.masks["left"], self.masks["right"]
        for i, d in enumerate(self.pool):
            for j, z in enumerate(self.pool):
                k = self.index.get(reduce_stack(table, d + z))
                if k is not None:
                    left[k] |= 1 << i
                    right[k] |= 1 << j

    def divides(self, side, x, y):
        return bool(self.masks[side][self.index[y]] >> self.index[x] & 1)

    def gcd(self, side, x, y):
        """The common divisor that every common divisor divides, or None."""
        masks = self.masks[side]
        common = masks[self.index[x]] & masks[self.index[y]]
        rest = common
        while rest:
            i = (rest & -rest).bit_length() - 1
            if common & ~masks[i] == 0:
                return self.pool[i]
            rest &= rest - 1
        return None


def lcm_arrow(table, side, a, b):
    """Least common multiple of arrows a, b in S on the given side."""
    mult = table.right_mult if side == "left" else table.left_mult
    common = mult[a] & mult[b]
    for m in sorted(common):
        if common <= mult[m]:
            return m
    return None


def sigma_syllables(table, vectors, arrows):
    """Free-product normal form of σ(x) for a functor into Z^n whose images
    of non-identity arrows are all nonzero.

    Entry f maps to src(f)^-1 · ψ(f) · tgt(f).  Adjacent entries of a
    reduced sequence are not composable, so tgt(f_i) · src(f_{i+1})^-1 never
    cancels.
    """
    if not arrows:
        return ()
    out = [(0, ((table.src[arrows[0]], -1),))]
    for i, f in enumerate(arrows):
        out.append((1, vectors[f]))
        tail = ((table.tgt[f], 1),)
        if i + 1 < len(arrows):
            tail += ((table.src[arrows[i + 1]], -1),)
        out.append((0, tail))
    return tuple(out)


# -- posets as plain data -----------------------------------------------------

def up_sets(elements, covers):
    """Reflexive up-set of every element, as Python sets."""
    succ = {e: [] for e in elements}
    for x, y in covers:
        succ[x].append(y)
    up = {}

    def visit(e):
        if e not in up:
            s = {e}
            for y in succ[e]:
                s |= visit(y)
            up[e] = s
        return up[e]

    for e in elements:
        visit(e)
    return up


def interval_counts(elements, covers):
    """(comparable pairs x <= y, strict triples x < y < z)."""
    up = up_sets(elements, covers)
    pairs = sum(len(s) for s in up.values())
    triples = sum(len(up[y]) - 1 for x in elements for y in up[x] if y != x)
    return pairs, triples


def gcd_criterion_holds(elements, covers):
    """Every up-set is a meet-semilattice and every down-set a
    join-semilattice, tested by brute force over pairs."""
    up = up_sets(elements, covers)
    down = {e: {x for x in elements if e in up[x]} for e in elements}

    def has_extreme(cands, order):
        best = max(cands, key=lambda m: len(order[m] & cands))
        return cands <= order[best]

    for a in elements:
        for y1, y2 in combinations(sorted(up[a]), 2):
            lower = down[y1] & down[y2] & up[a]
            if not has_extreme(lower, down):
                return False
        for y1, y2 in combinations(sorted(down[a]), 2):
            upper = up[y1] & up[y2] & down[a]
            if not has_extreme(upper, up):
                return False
    return True


def simplex_faces(facets):
    """All nonempty faces of the complex with the given facets."""
    out = set()
    for f in facets:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            out.update(combinations(f, k))
    return out


# -- monoid presentations as plain data ---------------------------------------

def congruence_closure(relations, word):
    """Every word reachable by one-step rewrites in either direction,
    explored breadth first."""
    rules = [(l, r) for l, r in relations] + [(r, l) for l, r in relations]
    start = tuple(word)
    cls = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for lhs, rhs in rules:
            k = len(lhs)
            for i in range(len(w) - k + 1):
                if w[i:i + k] == lhs:
                    w2 = w[:i] + rhs + w[i + k:]
                    if w2 not in cls:
                        cls.add(w2)
                        queue.append(w2)
    return cls


def identified_generators(generators, relations):
    """Groups of generators equal in the monoid, in generator order."""
    groups, done = [], set()
    for g in generators:
        if g in done:
            continue
        cls = congruence_closure(relations, (g,))
        mates = tuple(h for h in generators if (h,) in cls)
        done.update(mates)
        if len(mates) > 1:
            groups.append(mates)
    return tuple(groups)
