"""Bounded word-problem engine for monoid presentations.

Only homogeneous presentations (every relation's sides have equal length)
get word-problem operations: homogeneity makes every congruence class finite,
so the class of a word is computed by closing under single relation rewrites
in both directions at every position.  Common right multiples are found by a
breadth-first search over representative words up to a length bound; absence
within the bound is reported as bounded, never as a theorem.

Words enter through ``_word``, the one check that every letter is a
generator, and are then coded as ints.  Each generator's digit is its index
in ``generators``; with base B = max(#generators, 2), the word d₁…dₙ is
Σ dᵢ·B^(n−i).  A code does not hold its length: every word of a class, or
of a layer of a walk, has the same length n, which travels beside the codes.
Appending g is w·B + g, the k letters that end p letters before the end of
w are w // B^p % B^k, and a rewrite of that window adds (rhs − side)·B^p,
so the rewrite tables hold these deltas keyed by the side's code.  x of k
letters left-divides w when w // B^(n−k) is x.  A code is decoded to a
tuple only where a public result is returned.

The searches over all classes of a length (``crm`` and the m6 check) grow
each class one letter at a time with ``_grow``: a class is a list whose
first word, ``cls[0]``, is its representative u, and the class of u·g
starts from the seeds u'·g, u' in cls.  A rewrite of a seed at a window
inside u' gives u''·g with u'' in cls, another seed, so only the windows
that end at the new letter are scanned on seeds; the words they add get a
full scan.  Most letters need not even that: a letter g is hot for a class
when some rule side is a suffix of some u'·g, and quiet otherwise.  Every
window of u'·g either ends at g or lies inside u', so the class of u·g for a
quiet g is exactly its seeds.  Another (class, letter) pair of the layer
whose class held a seed u'·g would have that seed, u'·g with u' in cls, as
its first word, and so be this same pair; so a quiet class is disjoint from
every other class of the layer, and is taken with no rewrite scan and no
dedup bookkeeping.  On the last layer a quiet class is not even listed:
nothing grows it further, so the walk hands its caller the shorter class
and the run of quiet letters, a fan, and the caller reads what it needs of
each u·g off cls and g.  What a search carries along a class is monotone as
the seeds are (a left divisor of u divides u·g, and the image of u·g under a
substitution is the image of u followed by that of g), so only the added
words are tested.  Every class of a layer is held at once, so each layer is
priced by ``limits.require`` before any of its classes is grown.  A single
class cannot be priced before it is built, so a closure counts its words as
it grows and is refused once they pass ``limits.MAX_COUNT``.
"""
from __future__ import annotations

from collections import namedtuple

from . import limits
from .errors import EmptyFamily, InvalidStructure, NotHomogeneous
from .poset import _has, _ids, _items, _pairs, _require_instance


class MonoidPresentation:
    def __init__(self, generators, relations):
        self.generators = _ids(generators, "generator", "generators")
        # "=" splits a relation into its two sides in a monoid file.
        if "=" in self.generators:
            raise InvalidStructure("bad generator id '='")
        self._gens = gens = frozenset(self.generators)
        rels = []
        for lhs, rhs in _pairs(relations, "relations"):
            lhs, rhs = _items(lhs, "letters"), _items(rhs, "letters")
            for g in lhs + rhs:
                if not _has(gens, g):
                    raise InvalidStructure(
                        f"relation uses unknown generator {g!r}")
            rels.append((lhs, rhs))
        self.relations = tuple(rels)
        self._homogeneous = all(len(l) == len(r) for l, r in rels)
        self._digit = {g: i for i, g in enumerate(self.generators)}
        self._base = max(len(self.generators), 2)
        # Only the word-problem operations read the rewrite tables, and they
        # need homogeneous relations.  Per side length k, with B**k:
        # - rewrites, {side: the deltas rhs - side of the sides it may be
        #   rewritten to}, relations read both ways; empty and unchanged
        #   rewrites do nothing, so skipped;
        # - fires, with k - 1 and B**(k - 1), {side[:-1]: {side[-1]}}: a word
        #   u whose last k - 1 letters are a key gets a rewrite window at the
        #   end of u·g exactly for the digits g in that key's set.
        self._rewrites = []
        self._fires = []
        if not self._homogeneous:
            return
        base = self._base
        rewrites, fires = {}, {}
        for lhs, rhs in rels:
            if lhs == rhs or not lhs:
                continue
            lc, rc = _encode(self, lhs), _encode(self, rhs)
            k = len(lhs)
            rules = rewrites.setdefault(k, {})
            rules.setdefault(lc, set()).add(rc - lc)
            rules.setdefault(rc, set()).add(lc - rc)
            tails = fires.setdefault(k, {})
            for side in (lc, rc):
                tails.setdefault(side // base, set()).add(side % base)
        self._rewrites = [(k, base ** k, rules)
                          for k, rules in rewrites.items()]
        self._fires = [(k - 1, base ** (k - 1), tails)
                       for k, tails in fires.items()]

    def is_homogeneous(self):
        return self._homogeneous

    def __repr__(self):
        return (f"MonoidPresentation({len(self.generators)} generators, "
                f"{len(self.relations)} relations)")


def _require_homogeneous(pres):
    """The judge of the presentation of every entry point that takes a
    closure: a ``MonoidPresentation`` whose relations keep length."""
    _require_instance(pres, MonoidPresentation, "a monoid presentation")
    if not pres._homogeneous:
        raise NotHomogeneous(
            "word-problem operations need length-preserving relations")


def _word(pres, w):
    """w as a tuple word, checked to use only generators of pres."""
    w = _items(w, "letters")
    try:
        known = pres._gens.issuperset(w)
    except TypeError:  # an unhashable letter
        known = False
    if not known:
        bad = next(g for g in w if not _has(pres._gens, g))
        raise InvalidStructure(f"word uses unknown generator {bad!r}")
    return w


def _encode(pres, w):
    """The code of a checked tuple word."""
    base, digit = pres._base, pres._digit
    code = 0
    for g in w:
        code = code * base + digit[g]
    return code


def _decode(pres, code, n):
    """The tuple word of n letters whose code is code."""
    base, gens = pres._base, pres.generators
    out = []
    for _ in range(n):
        out.append(gens[code % base])
        code //= base
    out.reverse()
    return tuple(out)


def _spread(pres, n, seen, out, start):
    """Scan every window of the words out[start:], and of each word this
    appends, for rewrites; a word not yet in seen is added to seen and
    appended to out.  Returns out.  The caller has checked that pres is
    homogeneous, so every word found has length n; a rule longer than n
    has no window.  Refuses the class once out holds more than
    ``limits.MAX_COUNT`` words, checked once per scanned word."""
    base = pres._base
    limit = limits.MAX_COUNT
    i = start
    while i < len(out):
        if len(out) > limit:
            limits.require(len(out), "words of a congruence class")
        w = out[i]
        i += 1
        for k, mod, rules in pres._rewrites:
            v = w
            shift = 1
            for _ in range(n - k + 1):
                deltas = rules.get(v % mod)
                if deltas:
                    for d in deltas:
                        w2 = w + d * shift
                        if w2 not in seen:
                            seen.add(w2)
                            out.append(w2)
                v //= base
                shift *= base
    return out


def _closure(pres, code, n):
    """The congruence class of the word of n letters with this code, as a
    new set of codes."""
    seen = {code}
    _spread(pres, n, seen, [code], 0)
    return seen


def _grow(pres, cls, n, g):
    """The class of u·g, given the whole class cls of u with u = cls[0],
    its words of n letters, and the digit g.

    The result is a list: first the seeds u'·g for u' in cls, in cls's order
    (so u·g comes first), then the words that rewrites add.  A seed's
    windows inside u' rewrite it to another seed, so seeds are scanned only
    at the window of each rule length that ends at g.  ``_class_walk``
    calls it only for letters hot for cls: for a quiet g no such window is
    a rule side, and the class of u·g is the seeds alone."""
    base = pres._base
    n += 1
    out = [u * base + g for u in cls]
    seen = set(out)
    start = len(out)
    for k, mod, rules in pres._rewrites:
        if k > n:
            continue
        for w in out[:start]:
            for d in rules.get(w % mod, ()):
                w2 = w + d
                if w2 not in seen:
                    seen.add(w2)
                    out.append(w2)
    return _spread(pres, n, seen, out, start) if len(out) > start else out


def _guard_layer(n_gens, depth):
    """Price one layer of a class walk against ``limits.MAX_COUNT``: every
    class of a layer is held at once, and the n_gens ** depth words of
    depth letters bound its classes.  The power is passed as a pair, so a
    depth past the limit's bit length never takes it."""
    limits.require((n_gens, depth), f"classes a layer of {depth} letters "
                                    f"over {n_gens} generators may hold")


def _class_walk(pres, digits, cls, n, state, carry, layers):
    """Walk the classes of the words cls[0]·w, w of 1 to layers letters over
    digits, once per length, shortest first; cls's words have n letters.
    Yields (class, its length, state, None) for a class, and (cls, its
    length, state, letters) for a fan: the class of each cls[0]·g, g in
    letters, is [u'·g for u' in cls], where cls and state are the shorter
    class and its state.

    Each layer grows every class of the one before by each g in digits, in
    order, and skips u·g when it lies in a class already met in this layer,
    so each class is met first at its first word in that order, which is
    the class's cls[0].  A grown class's state is carry(state, grown,
    start, length), where state is the shorter class's, grown[start:] are
    the words that rewrites added and length is that of grown's words.

    Once per class, the letters hot for it are read off ``pres._fires``: g
    is hot when the last k - 1 letters of some word of cls and g make a
    rule side of length k.  A hot letter is grown by ``_grow`` and checked
    against the classes met so far.  A quiet letter's class is its seeds,
    [u'·g for u' in cls], with no scan.  It needs no check and is not
    recorded: a class met earlier in the layer that held some u'·g would
    be the class of that same (cls, g) pair, and the words u'·g, each
    ending in g after a word of cls, lie in no class grown from another
    pair.  On the last layer nothing grows a quiet class further, so it is
    neither built nor carried: each run of consecutive quiet letters of a
    class is yielded as one fan, in its place among the hot letters, so the
    (class, letter) order is kept.  A caller that needs a fan class's state
    builds its seeds and calls carry(state, seeds, len(cls), n + 1) itself.

    Each layer is checked with ``_guard_layer`` before any of its classes
    is grown, so a caller that stops at an early layer is never refused."""
    base = pres._base
    fires = pres._fires
    layer = [(cls, state)]
    for depth in range(1, layers + 1):
        _guard_layer(len(digits), depth)
        last = depth == layers
        seen = set()
        grown_layer = []
        for cls, state in layer:
            hot = set()
            for before, mod, tails in fires:
                if before <= n:
                    for w in cls:
                        tail = tails.get(w % mod)
                        if tail:
                            hot |= tail
            fan = []
            for g in digits:
                if g not in hot:
                    if last:
                        fan.append(g)
                        continue
                    grown = [w * base + g for w in cls]
                else:
                    if fan:
                        yield cls, n, state, fan
                        fan = []
                    if cls[0] * base + g in seen:
                        continue
                    grown = _grow(pres, cls, n, g)
                    seen.update(grown)
                grown_state = carry(state, grown, len(cls), n + 1)
                yield grown, n + 1, grown_state, None
                if not last:
                    grown_layer.append((grown, grown_state))
            if fan:
                yield cls, n, state, fan
        layer = grown_layer
        n += 1


def congruence_class(pres, word):
    """All words equal to the given one modulo the relations (finite orbit).

    Each code is popped from the closure as it is decoded, so the codes
    and the decoded words are never both held in full."""
    _require_homogeneous(pres)
    w = _word(pres, word)
    n = len(w)
    codes = _closure(pres, _encode(pres, w), n)
    return frozenset(_decode(pres, codes.pop(), n) for _ in range(len(codes)))


def equal_in_monoid(pres, u, v):
    """Whether u and v are equal modulo the relations.  Homogeneous
    relations keep a word's length, so words of different lengths are
    unequal without a closure."""
    _require_homogeneous(pres)
    v = _word(pres, v)
    u = _word(pres, u)
    return len(u) == len(v) and (
        _encode(pres, v) in _closure(pres, _encode(pres, u), len(u)))


class AtomsReport(namedtuple("AtomsReport", "atoms identified_classes")):
    __slots__ = ()


def atoms(pres):
    """Every generator of a homogeneous presentation is an atom: its
    relations keep a word's length, so its class has only length-1 words,
    never a product of two nonempty ones.  Reports which generators are
    identified with others.

    A one-letter word has only one-letter windows, so only the length-one
    rules rewrite it: the generators identified with g are those that a
    chain of length-one rules joins to g.  Their rule table is symmetric,
    so each class is the component of its least digit in the graph
    d -> d + delta, and a presentation with none has no merges."""
    _require_homogeneous(pres)
    gens = pres.generators
    rules = next((rules for k, _, rules in pres._rewrites if k == 1), {})
    merged = []
    seen = set()
    for d in sorted(rules):
        if d not in seen:
            seen.add(d)
            mates = [d]
            for e in mates:  # grows as the component is reached
                new = {e + delta for delta in rules[e]} - seen
                seen |= new
                mates += new
            merged.append(tuple(gens[h] for h in sorted(mates)))
    return AtomsReport(gens, tuple(merged))


def left_divides_mod(pres, x, w_class):
    """Does x left-divide w modulo the congruence (w given by its class)?
    No closure is taken, so pres need not be homogeneous.  Every member of
    the class is checked as a word before any is compared."""
    _require_instance(pres, MonoidPresentation, "a monoid presentation")
    x = _word(pres, x)
    _require_instance(w_class, (set, frozenset), "a congruence class")
    members = [_word(pres, member) for member in w_class]
    return any(member[:len(x)] == x for member in members)


def common_right_multiple(pres, xs, max_len=8):
    """Shortest word (then lexicographically first) that every x left-divides
    modulo the congruence, or None if none exists up to max_len letters.

    Only words starting with xs[0] are enumerated: any common right multiple
    has a representative of that shape, and divisibility is tested against
    the whole congruence class anyway.  Each layer keeps only the first word
    met of each class: u ~ v implies ug ~ vg, and the first word of a class
    precedes its other words in every later layer, so the lexicographically
    first word of each class of each layer is still reached.  The walk
    takes the generators in sorted order, whatever their digits.

    The layers are walked by ``_class_walk``, and each class carries a
    mask whose bit i says that xs[i] left-divides some word of the class.
    x | u implies x | u·g, so a grown class keeps its mask and only the
    words that rewrites added are tested, except that an x as long as the
    class's words divides a seed u'·g only by being it, so it is tested on
    the whole class.  A class that rewrites added nothing to, with no x as
    long as its words, keeps its mask untested.  So a fan's classes keep
    the shorter class's mask, which is not full, unless some x is as long
    as their words; then only their seeds are tested.
    """
    _require_homogeneous(pres)
    xs = [_word(pres, x) for x in _items(xs, "words")]
    if not xs:
        raise EmptyFamily("common right multiple of an empty family")
    limits.require_bound(max_len, 0)
    full = (1 << len(xs)) - 1
    head = xs[0]
    if len(head) > max_len:
        return None

    base = pres._base
    coded = [(_encode(pres, x), len(x)) for x in xs]
    lengths = {k for _, k in coded}

    def mask(m, cls, start, n):
        if start == len(cls) and n not in lengths:
            return m
        for i, (x, k) in enumerate(coded):
            if not m >> i & 1 and k <= n:
                words = cls if k == n else cls[start:]
                shift = base ** (n - k)
                if any(w // shift == x for w in words):
                    m |= 1 << i
        return m

    h, n = coded[0]
    cls = [h, *(_closure(pres, h, n) - {h})]
    m = mask(0, cls, 0, n)
    if m == full:
        return head
    digits = [pres._digit[g] for g in sorted(pres.generators)]
    for cls, n, m, fan in _class_walk(pres, digits, cls, n, m, mask,
                                      max_len - len(head)):
        if fan is None:
            if m == full:
                return _decode(pres, cls[0], n)
        elif n + 1 in lengths:
            for g in fan:
                seeds = [w * base + g for w in cls]
                if mask(m, seeds, len(seeds), n + 1) == full:
                    return _decode(pres, seeds[0], n + 1)
    return None


class M6Report(namedtuple(
        "M6Report", "relation_checks relations_hold checked_length"
        " class_count injective")):
    __slots__ = ()


M6_SUBSTITUTION = {
    "a": ("a",), "b": ("b",), "c": ("a", "x"),
    "d": ("b", "y"), "e": ("x", "b"), "f": ("y", "a"),
}


def m6_presentation():
    return MonoidPresentation(
        "abcdef", [(("a", "e"), ("c", "b")), (("d", "a"), ("b", "f"))])


def c6_presentation():
    return MonoidPresentation(
        ("a", "b", "c", "a'", "b'", "c'"),
        [(("a", "b'"), ("b", "a'")),
         (("b", "c'"), ("c", "b'")),
         (("a", "c'"), ("c", "a'"))])


def braid3_presentation():
    return MonoidPresentation(
        ("a", "b"), [(("a", "b", "a"), ("b", "a", "b"))])


def _m6_image(word):
    out = []
    for g in word:
        out.extend(M6_SUBSTITUTION[g])
    return tuple(out)


def verify_m6_embedding(max_len=5):
    """Check the substitution a↦a, b↦b, c↦ax, d↦by, e↦xb, f↦ya: both defining
    relations must become word identities in the free monoid on {a,b,x,y},
    and distinct congruence classes up to max_len must have distinct images.

    The classes are walked by ``_class_walk`` from the empty word, and each
    carries the image of its words as a string over {a,b,x,y}.  The image
    of u·g is the image of u followed by that of g, so a grown class's
    image is its shorter class's extended by the image of its first word's
    last letter.  No word of a class is decoded: the substitution is a
    monoid map, so when ``relations_hold`` it is constant on every
    congruence class.  A fan's classes are only counted, and their images
    taken as the shorter class's extended by each letter's.  The
    substitution is injective on the classes when the set of images is as
    large as the class count."""
    limits.require_bound(max_len, 1)
    pres = m6_presentation()
    checks = []
    for lhs, rhs in pres.relations:
        li, ri = _m6_image(lhs), _m6_image(rhs)
        checks.append((lhs, rhs, li, ri, li == ri))
    relations_hold = all(ok for *_, ok in checks)

    base = pres._base
    letter = ["".join(M6_SUBSTITUTION[g]) for g in pres.generators]
    _guard_layer(len(pres.generators), max_len)  # every layer is walked
    images = set()
    count = 0
    for _, _, img, fan in _class_walk(
            pres, range(len(pres.generators)), [0], 0, "",
            lambda img, cls, start, n: img + letter[cls[0] % base], max_len):
        if fan is None:
            count += 1
            images.add(img)
        else:
            count += len(fan)
            images.update([img + letter[g] for g in fan])
    return M6Report(tuple(checks), relations_hold, max_len, count,
                    len(images) == count)
