"""The universal monoid Um(S) of a finite category S.

Elements are reduced sequences of arrows: no entry is an identity and no two
consecutive entries are composable.  Any raw sequence rewrites to a unique
reduced one by dropping identities and composing adjacent composable pairs
(the rewriting system is confluent).  ``reduce_sequence`` still rescans the
whole sequence for redexes after every step, in either order (leftmost, or
uniform under an rng), so it is quadratic in the length.  The entries of a
sequence from outside are checked once, where it comes in: by
``_arrow_list``, which ``reduce_sequence``, ``ReducedSeq(...)`` and
``RewriteTrace.replay`` read their entries through, or by ``generator``
for its one arrow.  The rewriting after that reads S's identity and
endpoint tables directly; ``_reduce``, the rewriting loop of
``reduce_sequence``, also serves callers that built their arrows from an
element they hold (``interval.IntervalFunctor``).  Element operands are
not tested: each kernel reads their category and entries, and only when
that read fails is the operand judged and named (``_not_an_element``).
A product of reduced operands rewrites only at their seam.  Divisibility,
gcds, lcms of generators, and the greedy normal form are computed by
structural criteria on the sequences plus arrow-level divisibility in S.
The right-hand versions read each sequence from its end, so one prefix
criterion serves both sides, with S read on the side the caller names.

The two-operand kernels ``gcd_pair``, ``divides`` and ``lcm_pair`` are the
hot path.  Each reads ``S._analyze()`` once, makes the checks of its public
contract in their order, and then works on the entry tuples and the side's
divisor masks and fibres alone: the entries of a ReducedSeq are arrows of S
already, so none is checked again.  Each shares its arrow-level step with
the general version: ``_boundary_step`` with ``gcd_family``,
``FiniteCategory._quotient`` with ``FiniteCategory.quotient``, and
``FiniteCategory._lcm`` with ``FiniteCategory.lcm``.
"""
from __future__ import annotations

from collections import namedtuple
from functools import reduce

from .category import FiniteCategory, _endpoint_of
from .errors import (CategoryMismatch, EmptyElement, EmptyFamily,
                     InvalidStructure, NotCancellative, NotConical,
                     NotAGenerator, SourceMismatch, TargetMismatch)
from .limits import require, require_bound
from .poset import _greatest, _items, _require_instance

DROP = "dropIdentity"
COMPOSE = "compose"


class ReducedSeq:
    """An element of Um(S): a reduced sequence of arrows of S."""

    __slots__ = ("category", "arrows")

    def __init__(self, category, arrows):
        arrows = tuple(_arrow_list(category, arrows))
        _require_reduced(category, arrows)
        _set_category(self, category)
        _set_arrows(self, arrows)

    def __setattr__(self, *_):
        raise AttributeError("ReducedSeq is immutable")

    @property
    def length(self):
        return len(self.arrows)

    @property
    def is_unit(self):
        return not self.arrows

    def __eq__(self, other):
        return (isinstance(other, ReducedSeq)
                and self.category is other.category
                and self.arrows == other.arrows)

    def __hash__(self):
        # Equal elements share a category, so the arrows alone decide.
        return hash(self.arrows)

    def __repr__(self):
        return f"ReducedSeq({' '.join(self.arrows) or '1'})"

    def __str__(self):
        return " ".join(self.arrows) if self.arrows else "1"


# Slot setters: they get past ReducedSeq.__setattr__, which forbids mutation.
_set_category = ReducedSeq.category.__set__
_set_arrows = ReducedSeq.arrows.__set__


def _reduced(category, arrows):
    """Wrap a tuple of arrows as an element of Um(category), unchecked.

    Use only where ``arrows`` is reduced by construction: every entry is a
    non-identity arrow of ``category`` and no two neighbours are composable.
    That holds for pieces of elements already over ``category`` (prefixes,
    suffixes), for their joins at a boundary the caller has shown cannot
    compose, and for a rewriting with no redex left.  Input from outside
    goes through ``ReducedSeq(...)``, which checks all of it.
    """
    seq = object.__new__(ReducedSeq)
    _set_category(seq, category)
    _set_arrows(seq, arrows)
    return seq


def _entries(value, what):
    """A sequence from outside as a tuple (``poset._items``), except that
    a string is refused, not read letter by letter, since arrow names need
    not be one letter."""
    if isinstance(value, str):
        raise InvalidStructure(
            f"expected a sequence of {what}, got the string {value!r}")
    return _items(value, what)


def _arrow_list(category, raw):
    """The boundary of rewriting: a raw sequence from outside as a new
    list, its category judged and each entry checked once.  Past it,
    rewriting reads S's tables directly: every entry is an arrow of S."""
    _require_instance(category, FiniteCategory, "a category")
    seq = list(_entries(raw, "arrows"))
    for f in seq:
        category._check(f)
    return seq


def _not_an_element(*operands):
    """The error for operands that lack a category or entries, naming the
    first that is not a ReducedSeq.  Built only once an attribute read has
    failed, so the kernels make no test of a good operand."""
    bad = next(x for x in operands if not isinstance(x, ReducedSeq))
    return InvalidStructure(f"expected an element of Um(S), got {bad!r}")


def _require_reduced(category, arrows):
    """Refuse known arrows that are not reduced, naming the first identity
    entry, or else the first composable pair."""
    ids, ends = category._identities, category._endpoints
    for f in arrows:
        if f in ids:
            raise InvalidStructure(f"entry {f} is an identity; not reduced")
    for f, g in zip(arrows, arrows[1:]):
        if ends[f][1] == ends[g][0]:
            raise InvalidStructure(
                f"entries {f},{g} are composable; not reduced")


class RewriteTrace(namedtuple("RewriteTrace", "steps")):
    __slots__ = ()

    def replay(self, category, raw):
        """Re-apply the recorded steps to a raw sequence.

        Each step must be a rewrite of the sequence it meets: a
        (position, kind) pair whose position is an index into it, naming an
        identity to drop or an entry that composes with the next.  Any other
        step is refused with InvalidStructure naming it, and so is a
        sequence the steps leave unreduced.
        """
        seq = _arrow_list(category, raw)
        for k, step in enumerate(_entries(self.steps, "steps")):
            if not _is_rewrite(category, seq, step):
                raise InvalidStructure(
                    f"step {k} {step!r} is not a rewrite of "
                    f"{' '.join(seq) or '1'}")
            _rewrite(category, seq, *step)
        _require_reduced(category, seq)
        return _reduced(category, tuple(seq))


def _is_rewrite(category, seq, step):
    try:
        pos, kind = step
    except (TypeError, ValueError):
        return False
    if type(pos) is not int or not 0 <= pos < len(seq):
        return False
    if kind == DROP:
        return seq[pos] in category._identities
    ends = category._endpoints
    return (kind == COMPOSE and pos + 1 < len(seq)
            and ends[seq[pos]][1] == ends[seq[pos + 1]][0])


def _rewrite(category, seq, pos, kind):
    """Apply one rewrite step, known to be a redex, to the list seq."""
    if kind == DROP:
        del seq[pos]
    else:
        seq[pos:pos + 2] = [category.comp[(seq[pos], seq[pos + 1])]]


def _redexes(category, seq):
    """Every redex of seq, a list of known arrows, left to right: (i, DROP)
    for an identity, else (i, COMPOSE) when entry i composes with the next.
    The tables are read directly; the entries were checked at the
    boundary."""
    ids, ends = category._identities, category._endpoints
    last = len(seq) - 1
    out = []
    for i, f in enumerate(seq):
        if f in ids:
            out.append((i, DROP))
        elif i < last and ends[f][1] == ends[seq[i + 1]][0]:
            out.append((i, COMPOSE))
    return out


def reduce_sequence(category, raw, rng=None):
    """Rewrite a raw arrow sequence to its reduced normal form.

    Deterministic order is leftmost redex, identity-drop before composition;
    pass an rng to pick uniformly among the available redexes instead (the
    normal form is the same either way).  Both orders share one scan, a
    full rescan of the sequence after every step, so a reduction costs up
    to quadratic time in its length.  Each entry of raw is checked once, on
    entry; raw must be a sequence of arrows (a list or tuple), not a string.
    """
    return _reduce(category, _arrow_list(category, raw), rng)


def _reduce(category, seq, rng=None):
    """``reduce_sequence``'s rewriting loop on ``seq``, a list of arrows of
    category that it rewrites in place.  Callers that built the list from
    arrows they hold call it directly."""
    steps = []
    while True:
        redexes = _redexes(category, seq)
        if not redexes:
            break
        step = redexes[0] if rng is None else rng.choice(redexes)
        _rewrite(category, seq, *step)
        steps.append(step)
    return _reduced(category, tuple(seq)), RewriteTrace(tuple(steps))


def unit(category):
    _require_instance(category, FiniteCategory, "a category")
    return _reduced(category, ())


def generator(category, arrow):
    """The canonical image of an arrow of S in Um(S)."""
    _require_instance(category, FiniteCategory, "a category")
    category._check(arrow)
    if arrow in category._identities:
        return _reduced(category, ())
    return _reduced(category, (arrow,))


def multiply(x, y):
    """x · y in Um(S): facing entries across the seam are composed while they
    compose.  An identity composite vanishes and exposes the next pair; any
    other ends the seam, since its ends are the pair's outer ends, which
    compose with neither neighbour in a reduced operand."""
    try:
        cat, ycat = x.category, y.category
        xs, ys = x.arrows, y.arrows
    except AttributeError:
        raise _not_an_element(x, y) from None
    if ycat is not cat:
        raise CategoryMismatch("operands live over different categories")
    ends, comp, ids = cat._endpoints, cat.comp, cat._identities
    i, j = len(xs), 0
    while i and j < len(ys) and ends[xs[i - 1]][1] == ends[ys[j]][0]:
        h = comp[(xs[i - 1], ys[j])]
        i, j = i - 1, j + 1
        if h not in ids:
            return _reduced(cat, xs[:i] + (h,) + ys[j:])
    return _reduced(cat, xs[:i] + ys[j:])


def product(factors, category=None):
    factors = _items(factors, "elements")
    if factors:
        return reduce(multiply, factors)
    if category is None:
        raise EmptyFamily("empty product needs an explicit category")
    return unit(category)


def components(x):
    """(first entry, last entry) of a nonunit element."""
    try:
        _, xs = x.category, x.arrows  # a category has arrows too
    except AttributeError:
        raise _not_an_element(x) from None
    if not xs:
        raise EmptyElement("the unit has no first or last component")
    return xs[0], xs[-1]


def _require_conical(cat):
    witness = cat._analyze()[0]
    if witness is not None:
        raise NotConical(f"witness pair {witness}")


def divides(side, x, y):
    """Test x | y in Um(S) and return the quotient when it is canonical.

    Left: some z with y = x·z; right: some z with y = z·x.  Returns None when
    x does not divide y; the quotient ReducedSeq when S is cancellative on
    that side (making it unique); True otherwise.

    A nonunit x divides y exactly when y agrees with x on every entry but
    x's inner boundary one u (its last for left, first for right), and u
    divides the entry v of y in its place in S: one bit of v's divisor mask.
    Only when S cancels is v's fibre scanned for the quotient w of v by u.
    The analysis is read once; the operands are trusted ReducedSeqs.
    """
    try:
        cat, ycat = x.category, y.category
        xs, ys = x.arrows, y.arrows
    except AttributeError:
        raise _not_an_element(x, y) from None
    conical_witness, sides = cat._analyze()
    div, end, fibres, witness = sides[_endpoint_of(side)]
    if ycat is not cat:
        raise CategoryMismatch("operands live over different categories")
    if conical_witness is not None:
        raise NotConical(f"witness pair {conical_witness}")
    m = len(xs)
    if not m:
        return True if witness is not None else y
    k = len(ys) - m
    if k < 0:
        return None
    if end:
        if xs[1:] != ys[k + 1:]:
            return None
        u, v, rest = xs[0], ys[k], ys[:k]
    else:
        if xs[:-1] != ys[:m - 1]:
            return None
        u, v, rest = xs[-1], ys[m - 1], ys[m:]
    if u == v:
        return True if witness is not None else _reduced(cat, rest)
    idx = cat._index
    if not div[idx[v]] >> idx[u] & 1:
        return None
    if witness is not None:
        return True
    # v = u;w or v = w;u with u != v makes w no identity, and w meets the
    # rest of y where v did, so the quotient stays reduced.
    w = cat._quotient(end, fibres, u, v)
    return _reduced(cat, rest + (w,) if end else (w,) + rest)


def _boundary_step(cat, div, end, entries):
    """How a gcd goes on past its common stem, given the entries that
    follow the stem, one per operand, none of them absent.

    If the entries share their start (left) or end (right), their
    arrow-level gcd c extends the stem: (c,), or () when c is an identity,
    or None when they have no gcd, and then neither has the family.  If
    they do not, the stem is the gcd: ().  The stem's boundary entry
    composes with none of the entries, so not with c either: the result
    is reduced.
    """
    endpoints, index = cat._endpoints, cat._index
    shared = endpoints[entries[0]][end]
    common = -1
    for f in entries:
        if endpoints[f][end] != shared:
            return ()
        common &= div[index[f]]
    i = _greatest(common, div)
    if i is None:
        return None
    c = cat.arrows[i]
    return () if c in cat._identities else (c,)


def gcd_family(side, xs):
    """Greatest common divisor of a nonempty family, or None if absent."""
    xs = _entries(xs, "elements")
    if not xs:
        _endpoint_of(side)  # a bad side is named before an empty family
        raise EmptyFamily("gcd of an empty family")
    for x in xs:
        if not isinstance(x, ReducedSeq):
            raise InvalidStructure(f"expected elements of Um(S), got {x!r}")
    cat = xs[0].category
    conical_witness, sides = cat._analyze()
    div, end, _, witness = sides[_endpoint_of(side)]
    # Orient the entry tuples so the common part is always a prefix.
    words = []
    for x in xs:
        if x.category is not cat:
            raise CategoryMismatch("family members live over different "
                                   "categories")
        words.append(x.arrows[::-1] if end else x.arrows)
    if conical_witness is not None:
        raise NotConical(f"witness pair {conical_witness}")
    if witness is not None:
        raise NotCancellative(f"witness {witness}")
    # The common prefix of all words is that of the least and the greatest.
    lo, hi = min(words), max(words)
    m = 0
    while m < len(lo) and lo[m] == hi[m]:
        m += 1
    stem = lo[:m]
    if m < len(lo):
        # No word ends at the stem (it would be least).
        step = _boundary_step(cat, div, end, [w[m] for w in words])
        if step is None:
            return None
        stem += step
    return _reduced(cat, stem[::-1] if end else stem)


def gcd_pair(side, x, y):
    """gcd_family(side, (x, y)), on a path of its own: the same checks in
    the same order and the same boundary step, with one read of the
    analysis.  The common prefix (left) or suffix (right, by indexing from
    the end) is found in place, with no reversed copies, and an operand
    that is itself the common part is returned as it is."""
    try:
        cat, ycat = x.category, y.category
        xs, ys = x.arrows, y.arrows
    except AttributeError:
        raise _not_an_element(x, y) from None
    conical_witness, sides = cat._analyze()
    div, end, _, witness = sides[_endpoint_of(side)]
    if ycat is not cat:
        raise CategoryMismatch("family members live over different "
                               "categories")
    if conical_witness is not None:
        raise NotConical(f"witness pair {conical_witness}")
    if witness is not None:
        raise NotCancellative(f"witness {witness}")
    lx, ly = len(xs), len(ys)
    n = min(lx, ly)
    m = 0
    if end:
        while m < n and xs[-1 - m] == ys[-1 - m]:
            m += 1
    else:
        while m < n and xs[m] == ys[m]:
            m += 1
    if m == lx:
        return x
    if m == ly:
        return y
    if end:
        step = _boundary_step(cat, div, end, (xs[-1 - m], ys[-1 - m]))
        return None if step is None else _reduced(cat, step + xs[lx - m:])
    step = _boundary_step(cat, div, end, (xs[m], ys[m]))
    return None if step is None else _reduced(cat, xs[:m] + step)


def lcm_pair(side, x, y):
    """Least common multiple of two standard generators ε(a), ε(b).

    It is ε(m) for the arrow-level lcm m of a and b, from the same scan as
    ``FiniteCategory.lcm`` with one read of the analysis and no re-check of
    a, b or m, which are arrows of the category already."""
    try:
        cat, ycat = x.category, y.category
        xs, ys = x.arrows, y.arrows
    except AttributeError:
        raise _not_an_element(x, y) from None
    div, end, fibres, _ = cat._analyze()[1][_endpoint_of(side)]
    if ycat is not cat:
        raise CategoryMismatch("operands live over different categories")
    if len(xs) != 1 or len(ys) != 1:
        raise NotAGenerator("lcm is defined for standard generators only")
    a, b = xs[0], ys[0]
    if cat._endpoints[a][end] != cat._endpoints[b][end]:
        if end:
            raise TargetMismatch(f"{a} and {b} have different targets")
        raise SourceMismatch(f"{a} and {b} have different sources")
    m = cat._lcm(div, end, fibres, a, b)
    if m is None:
        return None
    return _reduced(cat, () if m in cat._identities else (m,))


def greedy_normal_form(x):
    """The greedy normal form of x, which is the tuple of its entries.

    Head i must be the largest arrow of S left-dividing the suffix y that
    starts at i.  A generator ε(a) divides a nonunit reduced y exactly when a
    left-divides y's first entry in S (``divides``' one-letter case), and
    that entry is the head; so every head is greedy already.  Only the
    condition ``divides`` rests on, a conical S, is checked.
    """
    try:
        cat, xs = x.category, x.arrows
    except AttributeError:
        raise _not_an_element(x) from None
    _require_conical(cat)
    return xs


def universal_group_presentation(cat):
    """Presentation of the universal group: one generator per non-identity
    arrow, one relator per composable pair of non-identity arrows."""
    _require_instance(cat, FiniteCategory, "a category")
    from .presentations import _generator_ids, _presentation
    ids = cat._identities
    relators = []
    for (f, g), h in sorted(cat.comp.items()):
        if f in ids or g in ids:
            continue
        word = [(f, 1), (g, 1)]
        if h not in ids:
            word.append((h, -1))
        relators.append(tuple(word))
    return _presentation(_generator_ids(cat.non_identities()),
                         tuple(relators))


def _guard_elements(cat, max_len):
    """Price the elements of Um(cat) of length at most max_len against
    ``limits.MAX_COUNT``.

    The count is exact and builds nothing: the reduced sequences of length
    k ending in f number the sum, over the e not composable with f (tgt e
    != src f), of those of length k - 1 ending in e.  It stops at an empty
    layer or once the total passes the limit.
    """
    ends = cat._endpoints
    count = dict.fromkeys(cat.non_identities(), 1)
    total = 1
    for k in range(1, max_len + 1):
        layer = sum(count.values())
        if not layer:
            return
        total += layer
        require(total, f"elements of Um(S) of length at most {k} "
                       f"(max_len {max_len})")
        into = {}
        for e, c in count.items():
            t = ends[e][1]
            into[t] = into.get(t, 0) + c
        count = {f: layer - into.get(ends[f][0], 0) for f in count}


def elements_up_to(cat, max_len):
    """All elements of Um(S) of length at most max_len, shortest first: the
    unit, then each layer in the order of the elements one shorter, each
    followed in turn by every non-identity f that does not compose with its
    last entry (tgt of it != src f).

    Refused with SizeLimitExceeded, before any is built, when there are
    more than ``limits.MAX_COUNT`` of them.
    """
    _require_instance(cat, FiniteCategory, "a category")
    require_bound(max_len, 0)
    _guard_elements(cat, max_len)
    ends = cat._endpoints
    gens = [(f, *ends[f]) for f in cat.non_identities()]
    seqs = [()]
    layer = [((), object())]  # the unit's end meets no src
    for _ in range(max_len):
        layer = [(seq + (f,), tgt) for seq, end in layer
                 for f, src, tgt in gens if src != end]
        seqs += [seq for seq, _ in layer]
    return [_reduced(cat, arrows) for arrows in seqs]
