"""Finite categories presented arrow-only: a set of arrows with endpoints,
one identity arrow per object, and an explicit composition table.

Composition is written diagrammatically: ``compose(f, g)`` is "f then g" and
is defined exactly when ``tgt(f) == src(g)``.  Validation checks that the
table is total on composable pairs, associative, and neutral on identities.

Divisibility is arrow-level: ``a`` left-divides ``b`` when ``b = a;x`` for
some ``x``, and right-divides when ``b = x;a``.  Each divisibility method
(``divides``, ``divisors``, ``quotient``, ``gcd``, ``lcm``) takes the side
first, ``"left"`` or ``"right"``, and runs one algorithm on that side's
per-arrow divisor bitmasks and fibres.  ``quotient`` and ``lcm`` check their
arrows and then run a private scan, ``_quotient`` or ``_lcm``, which the
Um(S) kernels call directly on arrows they already hold.

Validation runs once, at the API boundary: ``FiniteCategory(...)`` judges
the raw tables it is given with ``_validate`` before it stores anything,
and serves tables from outside only: files (``formats.load_category``) and
API callers.  It checks the arrow limit (``limits.max_arrows``) and the
cost of validating (composites plus associativity triples, against
``limits.MAX_COUNT``): a thin category, at most one arrow per hom-set,
costs no triple, and any other every composable triple.  Tables catmon
builds itself are not judged again; they go through the private
``_category``, or through a subclass with a builder of its own.  Every
builder stores its tables with the one ``_set_up``, which keeps them as
handed over.  The boundary copies: ``FiniteCategory(...)`` hands over
copies of its arguments, so a later change to the caller's dicts does not
reach the category; the other builders hand over tables of their own.
Each builder then gives the category its ``comp``.  State derived from the
tables (the indexes ``_index``, ``_by_src`` and ``_by_tgt``, the analysis,
the gcd report, the opposite) is a ``poset._lazy`` attribute, worked out on
first read; a subclass may derive ``comp`` and the gcd report the same way.
"""
from __future__ import annotations

from collections import Counter, namedtuple

from .errors import (AssociativityViolation, BadComposability, BadIdentity,
                     EmptyFamily, InvalidStructure, MissingComposite,
                     UnknownArrow)
from .limits import max_arrows, require
from .poset import (_greatest, _has, _ids, _items, _lazy, _members,
                    _pair_without_greatest, _table)

IDENTITY_PREFIX = "id:"  # "id:o" names o's identity in a category file


def _endpoint_of(side):
    """The endpoint a side reads: 0 (source) for "left", 1 (target) for
    "right".  The one check of a ``side`` argument."""
    if side == "left":
        return 0
    if side == "right":
        return 1
    raise InvalidStructure(f"side must be 'left' or 'right', got {side!r}")


class GcdCategoryReport(namedtuple(
        "GcdCategoryReport", "conical left_cancellative right_cancellative"
        " left_gcds right_gcds witnesses")):
    __slots__ = ()

    @property
    def holds(self):
        return (self.conical and self.left_cancellative
                and self.right_cancellative and self.left_gcds
                and self.right_gcds)


class FiniteCategory:
    def __init__(self, objects, arrows, identity, comp):
        arrows = _table(arrows, "arrows")
        require(len(arrows), "arrows", max_arrows())
        _ids(arrows, "arrow", "arrows")
        objects = _ids(objects, "object", "objects")
        identity = _table(identity, "identities")
        comp = _table(comp, "composites")
        _validate(objects, arrows, identity, comp)
        self._set_up(objects, dict(arrows), dict(identity))
        self.comp = dict(comp)

    def _set_up(self, objects, arrows, identity):
        """The one set-up of every builder: store the tables, judged or
        built by the caller, as they are handed over, not copied.  The
        boundary, ``FiniteCategory(...)``, hands over copies of what it was
        given; every other builder hands over tables of its own.  Each
        builder then gives the category its ``comp``.  The indexes
        ``_index``, ``_by_src`` and ``_by_tgt`` are worked out on first
        read."""
        self.objects = tuple(sorted(objects))
        self._endpoints = arrows
        self.arrows = tuple(sorted(arrows))
        self.identity = identity
        self._identities = frozenset(identity.values())

    @_lazy
    def _index(self):
        """{arrow: its index in ``arrows``}."""
        return {f: i for i, f in enumerate(self.arrows)}

    @_lazy
    def _by_src(self):
        """{object: the arrows out of it, in arrow order}."""
        return self._fibres(0)

    @_lazy
    def _by_tgt(self):
        """{object: the arrows into it, in arrow order}."""
        return self._fibres(1)

    def _fibres(self, end):
        """{object: the arrows whose source (end 0) or target (end 1) it
        is, in arrow order}."""
        fibres = {o: [] for o in self.objects}
        ends = self._endpoints
        for f in self.arrows:
            fibres[ends[f][end]].append(f)
        return fibres

    # -- basic queries ------------------------------------------------------

    def has_arrow(self, f):
        return f in self._endpoints

    def _check(self, f):
        """The one check of an arrow from outside: anything that is not an
        arrow of this category, unhashable values too, is UnknownArrow."""
        try:
            if f in self._endpoints:
                return
        except TypeError:
            pass
        raise UnknownArrow(f"unknown arrow {f!r}")

    def src(self, f):
        self._check(f)
        return self._endpoints[f][0]

    def tgt(self, f):
        self._check(f)
        return self._endpoints[f][1]

    def is_identity(self, f):
        self._check(f)
        return f in self._identities

    def identity_of(self, obj):
        if not _has(self.identity, obj):
            raise UnknownArrow(f"unknown object {obj!r}")
        return self.identity[obj]

    def composable(self, f, g):
        self._check(f)
        self._check(g)
        return self._endpoints[f][1] == self._endpoints[g][0]

    def compose(self, f, g):
        if not self.composable(f, g):
            raise BadComposability(f"tgt({f}) != src({g})")
        return self.comp[(f, g)]

    def hom(self, x, y):
        return tuple(f for f in self.arrows_from(x)
                     if self._endpoints[f][1] == y)

    def arrows_from(self, x):
        """The arrows out of x; none when x is not an object."""
        return tuple(self._by_src[x]) if _has(self._by_src, x) else ()

    def non_identities(self):
        return tuple(f for f in self.arrows if f not in self._identities)

    @property
    def size(self):
        return len(self.arrows)

    # -- conicality, cancellativity, divisibility ---------------------------

    @_lazy
    def _analysis(self):
        """(conical witness, per-side (divisor masks, endpoint index,
        fibres, cancellation witness)).  ``ldiv[b]`` holds the arrows a
        with b = a;x, ``rdiv[b]`` those with b = x;a, ORed from the
        composition table."""
        n = len(self.arrows)
        idx = self._index
        ldiv = [0] * n
        rdiv = [0] * n
        for (f, g), h in self.comp.items():
            hi = idx[h]
            ldiv[hi] |= 1 << idx[f]
            rdiv[hi] |= 1 << idx[g]
        # The flags are decided by counting; the ordered scans below run only
        # to name the first witness once a count says that one exists.
        # Conical iff ldiv[e] is e alone for every identity e: a pair f;g = e,
        # not both identities, has f != e (f = e forces g = e), which puts a
        # second bit into ldiv[e]; and any a;x = e with a != e is such a pair.
        # Left-cancellative iff the masks hold one bit per composite: the
        # table has one entry per composable pair (a, x), and (a, x) -> the
        # bit a of ldiv[a;x] is onto, and one-to-one iff a;x = a;y forces
        # x = y.  Right-cancellative is the same count on rdiv.
        ids = self._identities
        conical_witness = None
        if any(ldiv[idx[e]] != 1 << idx[e] for e in ids):
            conical_witness = next(
                (f, g) for (f, g), h in self.comp.items()
                if h in ids and (f not in ids or g not in ids))
        sides = []
        for div, end, fibres in ((ldiv, 0, self._by_src),
                                 (rdiv, 1, self._by_tgt)):
            # (a, x, y) with x != y and a;x = a;y (left) or x;a = y;a (right)
            witness = None
            if sum(m.bit_count() for m in div) != len(self.comp):
                for a in self.arrows:
                    seen = {}
                    for x in fibres[self._endpoints[a][1 - end]]:
                        p = self.comp[(x, a) if end else (a, x)]
                        if p in seen:
                            witness = (a, seen[p], x)
                            break
                        seen[p] = x
                    if witness is not None:
                        break
            sides.append((div, end, fibres, witness))
        return conical_witness, tuple(sides)

    def _side(self, side):
        """How ``side`` reads the category: (divisor masks, endpoint index,
        fibres over that endpoint, cancellation witness or None).  Left reads
        sources (``ldiv``, ``_by_src``), right reads targets (``rdiv``,
        ``_by_tgt``)."""
        return self._analysis[1][_endpoint_of(side)]

    def conical_witness(self):
        """A composable pair of arrows, not both identities, whose composite
        is an identity; None if the category is conical."""
        return self._analysis[0]

    def is_conical(self):
        return self.conical_witness() is None

    def left_cancellation_witness(self):
        """(a, x, y) with a;x = a;y and x != y, or None."""
        return self._side("left")[3]

    def is_left_cancellative(self):
        return self.left_cancellation_witness() is None

    def right_cancellation_witness(self):
        """(a, x, y) with x;a = y;a and x != y, or None."""
        return self._side("right")[3]

    def is_right_cancellative(self):
        return self.right_cancellation_witness() is None

    def is_cancellative(self):
        return self.is_left_cancellative() and self.is_right_cancellative()

    def divides(self, side, a, b):
        """Whether a left-divides b (b = a;x) or right-divides it (b = x;a)."""
        div = self._side(side)[0]
        self._check(a)
        self._check(b)
        return bool(div[self._index[b]] >> self._index[a] & 1)

    def divisors(self, side, b):
        div = self._side(side)[0]
        self._check(b)
        return _members(div[self._index[b]], self.arrows)

    def quotient(self, side, a, b):
        """Some x with b = a;x (left) or b = x;a (right), or None; unique
        when the category is cancellative on that side.  Checks both arrows,
        then runs ``_quotient``."""
        _, end, fibres, _ = self._side(side)
        self._check(a)
        self._check(b)
        return self._quotient(end, fibres, a, b)

    def _quotient(self, end, fibres, a, b):
        """``quotient``'s scan on trusted arrows, given the side's endpoint
        index and fibres: the first x, in arrow order, of the fibre a meets
        (over tgt a for left, src a for right) with a;x = b (left) or
        x;a = b (right), or None."""
        comp = self.comp
        for x in fibres[self._endpoints[a][1 - end]]:
            if comp[(x, a) if end else (a, x)] == b:
                return x
        return None

    def gcd(self, side, fam):
        """Greatest common left- or right-divisor of a nonempty family, or
        None."""
        div = self._side(side)[0]
        fam = _items(fam, "arrows")
        if not fam:
            raise EmptyFamily("gcd of an empty family")
        common = -1
        for f in fam:
            self._check(f)
            common &= div[self._index[f]]
        i = _greatest(common, div)
        return None if i is None else self.arrows[i]

    def lcm(self, side, a, b):
        """Least common multiple under side divisibility (for left, the least
        common right-multiple): the first dividing all the others, or None.
        Checks both arrows, then runs ``_lcm``."""
        div, end, fibres, _ = self._side(side)
        self._check(a)
        self._check(b)
        return self._lcm(div, end, fibres, a, b)

    def _lcm(self, div, end, fibres, a, b):
        """``lcm``'s scan on trusted arrows, given the side's divisor masks,
        endpoint index and fibres.  Every multiple of a shares a's source
        (left) or target (right), so only that fibre is scanned; it is in
        arrow order, so the lowest bit of the AND of the candidates' masks
        is the first candidate dividing all the others.  With b off that
        fibre there is no candidate and the answer is None."""
        idx = self._index
        both = 1 << idx[a] | 1 << idx[b]
        cand, least = 0, -1
        for f in fibres[self._endpoints[a][end]]:
            i = idx[f]
            d = div[i]
            if d & both == both:
                cand, least = cand | 1 << i, least & d
        least &= cand
        i = (least & -least).bit_length() - 1
        return self.arrows[i] if least else None

    def opposite(self):
        """The opposite category (arrows reversed); built once, involutive."""
        return self._opposite

    @_lazy
    def _opposite(self):
        op = _category(
            self.objects,
            {f: (t, s) for f, (s, t) in self._endpoints.items()},
            self.identity,
            {(g, f): h for (f, g), h in self.comp.items()})
        op._opposite = self
        return op

    def gcd_category_report(self):
        """Check conicality, two-sided cancellativity, and existence of all
        pairwise same-source left gcds and same-target right gcds."""
        return self._gcd_report

    @_lazy
    def _gcd_report(self):
        witnesses = {}
        cw = self.conical_witness()
        if cw:
            witnesses["conical"] = cw
        for side in ("left", "right"):
            w = self._side(side)[3]
            if w:
                witnesses[f"{side}_cancellative"] = w
        idx = self._index
        # A divisor of y is comparable to y, so ~div[y] holds every arrow
        # incomparable to y: the kernel's later masks, for any order.
        apart = {side: [~d for d in self._side(side)[0]]
                 for side in ("left", "right")}
        for o in self.objects:
            for side in ("left", "right"):
                key = f"{side}_gcds"
                if key in witnesses:
                    continue
                div, _, fibres, _ = self._side(side)
                fibre = [idx[f] for f in fibres[o]]
                pair = _pair_without_greatest(
                    fibre, sum(1 << i for i in fibre), div, apart[side])
                if pair is not None:
                    witnesses[key] = tuple(self.arrows[i] for i in pair)
        return GcdCategoryReport(
            cw is None, "left_cancellative" not in witnesses,
            "right_cancellative" not in witnesses,
            "left_gcds" not in witnesses, "right_gcds" not in witnesses,
            witnesses)

    def __repr__(self):
        return (f"FiniteCategory({len(self.objects)} objects, "
                f"{len(self.arrows)} arrows)")


def _validate(objects, ends, identity, comp):
    """The one check of a category's raw tables from outside, made before
    anything is stored: ``objects`` as ``_ids`` returns them, ``ends`` the
    endpoints {arrow: (src, tgt)}, ``identity`` {object: arrow} and
    ``comp`` {(f, g): f;g}, each a dict."""
    # The keys of comp and the endpoints are looked up and compared as
    # tuples, so each must be a tuple of two, not any pair.
    objset = set(objects)
    for f, e in ends.items():
        if type(e) is not tuple or len(e) != 2:
            raise InvalidStructure(f"arrow {f} has endpoints {e!r}, "
                                   "not a pair")
        s, t = e
        try:
            known = s in objset and t in objset
        except TypeError:  # an unhashable endpoint
            known = False
        if not known:
            raise InvalidStructure(f"arrow {f} has unknown endpoint")
    if set(identity) != objset:
        missing = sorted(objset - set(identity))
        extra = sorted(set(identity) - objset, key=str)
        raise BadIdentity(f"identity map mismatch: missing {missing}, "
                          f"extra {extra}")
    for o, e in identity.items():
        if not _has(ends, e):
            raise BadIdentity(f"identity {e} of {o} is not an arrow")
        if ends[e] != (o, o):
            raise BadIdentity(f"identity {e} of {o} has wrong endpoints")
    # No two objects share an identity, as its endpoints name its object;
    # and no other arrow may take a file's name for one.
    identities = set(identity.values())
    for f in ends:
        if f.startswith(IDENTITY_PREFIX) and f not in identities:
            raise InvalidStructure(f"bad arrow id {f!r}")

    triples = _triples(Counter(ends.values()))
    require(len(comp) + triples, "composites and associativity triples")
    get = ends.get
    for key, h in comp.items():
        if type(key) is not tuple or len(key) != 2:
            raise InvalidStructure(f"composition key {key!r} is not a pair")
        f, g = key
        ef, eg = get(f), get(g)
        if ef is None or eg is None:
            raise UnknownArrow(f"composition entry ({f},{g}) uses an "
                               "unknown arrow")
        if ef[1] != eg[0]:
            raise BadComposability(
                f"table defines {f};{g} but tgt({f}) != src({g})")
        try:
            eh = get(h)
        except TypeError:  # an unhashable composite
            eh = None
        if eh is None:
            raise UnknownArrow(f"composite {f};{g} = {h} is unknown")
        if eh != (ef[0], eg[1]):
            raise InvalidStructure(
                f"composite {f};{g} = {h} has wrong endpoints")
    by_src = {o: [] for o in objects}
    for f, (s, _) in ends.items():
        by_src[s].append(f)
    # Every key is a composable pair by now, and keys are distinct, so the
    # table is total iff it has one entry per composable pair; the pairs
    # are walked only to name the first one missing.
    if len(comp) != sum(len(by_src[t]) for _, t in ends.values()):
        for f, (_, t) in ends.items():
            for g in by_src[t]:
                if (f, g) not in comp:
                    raise MissingComposite(f"no composite for {f};{g}")
    for o, e in identity.items():
        for f in by_src[o]:
            if comp[(e, f)] != f:
                raise BadIdentity(f"{e};{f} != {f}")
    for f, (_, t) in ends.items():
        e = identity[t]
        if comp[(f, e)] != f:
            raise BadIdentity(f"{f};{e} != {f}")
    # A thin category (no triple to walk) is associative once its
    # composites have the right endpoints: (f;g);h and f;(g;h) both lie in
    # hom(src f, tgt h).  Any other is walked on every triple.
    if not triples:
        return
    for f, (_, tf) in ends.items():
        for g in by_src[tf]:
            fg = comp[(f, g)]
            for h in by_src[ends[g][1]]:
                if comp[(fg, h)] != comp[(f, comp[(g, h)])]:
                    raise AssociativityViolation(
                        f"({f};{g});{h} != {f};({g};{h})")


def _triples(homs):
    """How many triples ``_validate`` checks for associativity, from the
    hom-set sizes ``homs`` {(s, t): count}, without listing them: none for
    a thin category, else every composable (f, g, h), which is each g
    counted once per arrow into its source and arrow out of its target."""
    if max(homs.values(), default=0) < 2:
        return 0
    into, out = Counter(), Counter()
    for (s, t), k in homs.items():
        out[s] += k
        into[t] += k
    return sum(k * into[s] * out[t] for (s, t), k in homs.items())


def _category(objects, arrows, identity, comp):
    """A ``FiniteCategory`` on tables catmon built itself, not validated.

    Use only where the tables are valid by construction and their size
    was priced; every table is kept as it is handed over, not copied.  The
    callers:

    - ``spindle.spindle_category``: Cat(P)'s tables edited for a spindle
      judged equal to ``detect_spindle``'s (``spindle._judged``), with its
      arrows counted against the arrow limit after the edit.
    - ``FiniteCategory.opposite``: a valid category's tables with every
      arrow and composite reversed, which is valid again, with its
      source's count of arrows; the identity table is its source's own.

    Input from outside goes through ``FiniteCategory(...)``, which checks
    all of it.
    """
    cat = object.__new__(FiniteCategory)
    cat._set_up(objects, arrows, identity)
    cat.comp = comp
    return cat
