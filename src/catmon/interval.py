"""Interval monoids HM(P) = Um(Cat(P)).

Cat(P) has one arrow [x,y] per comparable pair x ≤ y, composed by pasting at
the shared endpoint.  It is a ``FiniteCategory`` of its own class,
``_IntervalCategory``, trusted as built from a validated poset.  Most
questions about HM(P) (the arrow count, the gcd report) never read the
pasting table, so Cat(P) pastes it on the first read of ``comp`` and reads
its gcd report off the order.  The gcd criterion decides whether the
interval monoid has left/right gcds purely order-theoretically: every
up-set must be a meet-semilattice (left) and every down-set a
join-semilattice (right).  Two explicit embeddings are provided: into the
free group on the elements of P, and into a free monoid on the consecutive
steps of a linear extension.
"""
from __future__ import annotations

from collections import namedtuple

from .category import FiniteCategory, GcdCategoryReport
from .errors import CategoryMismatch, InvalidStructure, NotIsotone
from .groups import FreeGroupWord, GroupSpec
from .limits import max_arrows, require
from .poset import (Poset, _has, _lazy, _members, _pair_without_greatest,
                    _require_instance, _table)
from .universal import _not_an_element, _reduce


def interval_name(x, y):
    return f"[{x},{y}]"


def _interval_names(poset):
    """Cat(P)'s arrows and identities, named: ``(ups, names, arrows,
    identity)``, where ``ups[i]`` is the up-set of element i as indices and
    ``names[i][j]`` is the name of [x_i, x_j] for each j in it.

    Cat(P) has one arrow per comparable pair, which ``poset._up`` counts;
    that count is checked against the arrow limit before any interval is
    named, since the pastings grow as the cube of the elements.  Each
    interval [x,y] is named once, by x then y in index order, so every
    pasting reuses strings whose hashes are cached.
    """
    require(sum(m.bit_count() for m in poset._up), "arrows", max_arrows())
    els = poset.elements
    ids = range(len(els))
    ups = [_members(mask, ids) for mask in poset._up]
    names = []
    arrows = {}
    for i, x in enumerate(els):
        row = [None] * len(els)
        for j in ups[i]:
            name = interval_name(x, els[j])
            if name in arrows:
                raise InvalidStructure(f"interval name clash at {name}")
            arrows[name] = (x, els[j])
            row[j] = name
        names.append(row)
    identity = {x: names[i][i] for i, x in enumerate(els)}
    return ups, names, arrows, identity


def _interval_pastings(ups, names):
    """Cat(P)'s composition table from ``_interval_names``' up-sets and
    names: [x,y];[y,z] = [x,z] for every x <= y <= z, listed by x, then y,
    then z.  The one pasting loop."""
    comp = {}
    for i, row in enumerate(names):
        for j in ups[i]:
            f, after = row[j], names[j]
            for k in ups[j]:
                comp[(f, after[k])] = row[k]
    return comp


def _interval_walk(poset):
    """Cat(P)'s tables ``(arrows, identity, comp)``, as ``FiniteCategory``
    takes them: the intervals named, then pasted."""
    ups, names, arrows, identity = _interval_names(poset)
    return arrows, identity, _interval_pastings(ups, names)


class _IntervalCategory(FiniteCategory):
    """Cat(P) of a validated ``Poset``, trusted: one arrow [x,y] per
    x <= y, with endpoints (x, y), named by ``_interval_names`` (distinct,
    and free of whitespace since the elements are), which counts them
    against the arrow limit first; [x,x] is x's identity.  Each hom-set
    has one arrow, so the pastings [x,y];[y,z] = [x,z], one per composable
    pair, are associative and neutral on the identities.  ``comp`` pastes
    them on first read and then drops the up-sets it pasted from, and the
    gcd report is ``_interval_report``'s, read off the order with no
    analysis and no table."""

    def __init__(self, poset):
        self._poset = poset
        self._ups, self._names, arrows, identity = _interval_names(poset)
        self._set_up(poset.elements, arrows, identity)

    @_lazy
    def comp(self):
        comp = _interval_pastings(self._ups, self._names)
        del self._ups
        return comp

    @_lazy
    def _gcd_report(self):
        return _interval_report(self._poset, self._names)


def cat_of_poset(poset):
    """The category of closed intervals of a poset."""
    _require_instance(poset, Poset, "a poset")
    return _IntervalCategory(poset)


class GcdCriterionReport(namedtuple(
        "GcdCriterionReport", "left_ok right_ok witnesses")):
    __slots__ = ()

    @property
    def holds(self):
        return self.left_ok and self.right_ok


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


def gcd_criterion(poset):
    """Order-theoretic test for HM(P) being a (left/right) gcd-monoid.

    Left gcds exist iff every up-set is a meet-semilattice; right gcds exist
    iff every down-set is a join-semilattice.  A failure witness is a triple
    (a, y1, y2) with no meet above a (resp. no join below a): the first
    such a in index order, with its first pair.

    If up(a) is a meet-semilattice, so is up(b) for every b above a: the
    meet in up(a) of y1, y2 in up(b) is above b, so it is their meet in
    up(b).  So a side is decided on its minimal elements (maximal ones for
    down-sets) alone.  Only a side that fails is then scanned in index
    order for its witness, skipping the elements above one that passed.
    """
    _require_instance(poset, Poset, "a poset")
    witnesses = {}
    els = poset.elements
    ids = range(len(els))
    up, dn = poset._up, poset._dn
    # In an up-set a comparable pair has a meet, the smaller one (a join in
    # a down-set, the larger), so a row of the pair scan runs only when y
    # has an incomparable element after it in the up-set: later[y] is the
    # elements after y, in index order, incomparable to y.
    full = (1 << len(els)) - 1
    later = [full >> y + 1 << y + 1 & ~(up[y] | dn[y]) for y in ids]
    # The meet of y1, y2 in up(a) is the greatest member of
    # down(y1) & down(y2) & up(a); a join in down(a) is the same search in
    # the reversed order.
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
        witnesses[side] = (els[a], els[pair[0]], els[pair[1]])
    return GcdCriterionReport("left" not in witnesses,
                              "right" not in witnesses, witnesses)


def _interval_report(poset, names):
    """Cat(P)'s gcd report, read off the order; ``names`` is
    ``_interval_names``' grid.  Cat(P) is thin and an order is
    antisymmetric, so it is conical and cancellative.  [x,y1] and [x,y2]
    have a greatest common left divisor iff y1 and y2 have a meet in up(x),
    and [y1,z] and [y2,z] a right one iff they have a join in down(z); so
    the gcd verdicts and the failing objects are ``gcd_criterion``'s.  Each
    witness is the first pair of its object's fibre, in arrow order (by
    name), that has no meet (left) or join (right), and the witnesses are
    keyed by the failing object's index, left before right: what the fibre
    scan of ``FiniteCategory.gcd_category_report`` finds."""
    up, dn = poset._up, poset._dn
    failing = gcd_criterion(poset).witnesses
    # Ordered by name, a row's later elements are not the index-later ones,
    # so every element incomparable to y stands in for them.
    apart = [~(u | d) for u, d in zip(up, dn)]
    found = []
    for side, above, below in (("left", up, dn), ("right", dn, up)):
        if side not in failing:
            continue
        a = poset._idx[failing[side][0]]
        name = (names[a].__getitem__ if side == "left"
                else lambda y: names[y][a])
        pair = _pair_without_meet(a, above, below, apart, key=name)
        found.append((a, side, (name(pair[0]), name(pair[1]))))
    witnesses = {f"{side}_gcds": pair for _, side, pair in sorted(found)}
    return GcdCategoryReport(True, True, True, "left_gcds" not in witnesses,
                             "right_gcds" not in witnesses, witnesses)


class IsotoneMap:
    def __init__(self, source, target, mapping):
        _require_instance(source, Poset, "a poset")
        _require_instance(target, Poset, "a poset")
        self.source = source
        self.target = target
        self.mapping = dict(_table(mapping, "images"))
        for x in source.elements:
            if x not in self.mapping:
                raise NotIsotone(f"no image for {x}")
            if not _has(target._idx, self.mapping[x]):
                raise NotIsotone(f"image {self.mapping[x]} of {x} is not in "
                                 "the target poset")
        for x in self.mapping:
            if not _has(source._idx, x):
                raise NotIsotone(f"image given for unknown element {x!r}")
        for x, y in source.covers:
            if not target.leq(self.mapping[x], self.mapping[y]):
                raise NotIsotone(f"{x} ≤ {y} but images are not ordered")

    def __call__(self, x):
        self.source.index(x)  # the one check of x
        return self.mapping[x]


class IntervalFunctor:
    """HM(f): the map of interval monoids induced by an isotone map."""

    def __init__(self, isotone_map):
        _require_instance(isotone_map, IsotoneMap, "an isotone map")
        self.map = isotone_map
        self.source_category = cat_of_poset(isotone_map.source)
        self.target_category = cat_of_poset(isotone_map.target)

    def __call__(self, x):
        try:
            cat, arrows = x.category, x.arrows
        except AttributeError:
            raise _not_an_element(x) from None
        if cat is not self.source_category:
            raise CategoryMismatch(
                "element does not live over this functor's source category")
        # An isotone map sends an arrow [x,y] of Cat(P) to the arrow
        # [f(x),f(y)] of Cat(Q), so the images are rewritten unchecked.
        f, ends = self.map.mapping, cat._endpoints
        images = [interval_name(f[x], f[y])
                  for x, y in map(ends.get, arrows)]
        return _reduce(self.target_category, images)[0]


def embed_free_group(x):
    """μ̄: HM(P) → Fg(P), sending [x1,y1]···[xn,yn] to x1⁻¹y1···xn⁻¹yn."""
    try:
        cat, arrows = x.category, x.arrows
    except AttributeError:
        raise _not_an_element(x) from None
    spec = GroupSpec.free(cat.objects)
    letters = []
    for lo, hi in map(cat._endpoints.get, arrows):
        letters.append((lo, -1))
        letters.append((hi, 1))
    return FreeGroupWord(spec, letters)


def embed_free_monoid(poset):
    """A linear extension x1 < ... < xn and the induced embedding of HM(P)
    into the free monoid on the consecutive steps s_i = [x_i, x_{i+1}].
    The mapper takes an element over any category whose arrows run up P,
    and refuses an entry from lo to hi unless lo <= hi in P."""
    _require_instance(poset, Poset, "a poset")
    ext = poset.linear_extension()
    pos = {x: i for i, x in enumerate(ext)}
    steps = tuple(f"s{i}{i + 1}" for i in range(len(ext) - 1))

    def mapper(x):
        try:
            cat, arrows = x.category, x.arrows
        except AttributeError:
            raise _not_an_element(x) from None
        word = []
        for f in arrows:
            lo, hi = cat._endpoints[f]
            if not (lo in pos and hi in pos and poset.leq(lo, hi)):
                raise CategoryMismatch(
                    f"entry {f} runs from {lo} to {hi}, not up this poset")
            word.extend(steps[pos[lo]:pos[hi]])
        return tuple(word)

    return ext, mapper
