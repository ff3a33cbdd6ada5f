"""Bounded word-problem engine for monoid presentations.

Only homogeneous presentations (every relation's sides have equal length)
get word-problem operations: homogeneity makes every congruence class finite,
so the class of a word is computed by closing under single relation rewrites
in both directions at every position.  Common right multiples are found by a
breadth-first search over representative words up to a length bound; absence
within the bound is reported as bounded, never as a theorem.

Words enter through ``_word``, the one check that every letter is a
generator.  The searches over all classes of a length (``crm`` and the m6
check) grow each class one letter at a time with ``_grow``: a class is a list
whose first word, ``cls[0]``, is its representative u, and the class of u·g
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
dedup bookkeeping.  What a search carries along a class is monotone as
the seeds are (a left divisor of u divides u·g, and the image of u·g under a
substitution is the image of u followed by that of g), so only the added
words are tested.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidStructure, NotHomogeneous, SizeLimitExceeded

# The most classes one layer of a class walk may hold: len(gens) ** depth
# bounds the classes of a layer, and every class of a layer is held at once.
MAX_LAYER_CLASSES = 1_000_000


class MonoidPresentation:
    def __init__(self, generators, relations):
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise InvalidStructure("duplicate generators")
        self._gens = gens = frozenset(self.generators)
        rels = []
        for lhs, rhs in relations:
            lhs, rhs = tuple(lhs), tuple(rhs)
            for g in lhs + rhs:
                if g not in gens:
                    raise InvalidStructure(
                        f"relation uses unknown generator {g!r}")
            rels.append((lhs, rhs))
        self.relations = tuple(rels)
        self._homogeneous = all(len(l) == len(r) for l, r in rels)
        # side length -> {side: the sides it may be rewritten to}, relations
        # read both ways; empty and unchanged rewrites do nothing, so skipped
        self._rewrites = {}
        for lhs, rhs in rels:
            for side, other in ((lhs, rhs), (rhs, lhs)):
                if side and side != other:
                    self._rewrites.setdefault(len(side), {}).setdefault(
                        side, set()).add(other)
        # side length k -> {side[:-1]: {side[-1]}}: a word u whose last k - 1
        # letters are a key gets a rewrite window at the end of u·g exactly
        # for the g in that key's set
        self._fires = {}
        for k, rules in self._rewrites.items():
            fires = self._fires[k] = {}
            for side in rules:
                fires.setdefault(side[:-1], set()).add(side[-1])

    def is_homogeneous(self):
        return self._homogeneous

    def __repr__(self):
        return (f"MonoidPresentation({len(self.generators)} generators, "
                f"{len(self.relations)} relations)")


def _require_homogeneous(pres):
    if not pres.is_homogeneous():
        raise NotHomogeneous(
            "word-problem operations need length-preserving relations")


def _word(pres, w):
    """w as a tuple word, checked to use only generators of pres."""
    w = tuple(w)
    if not pres._gens.issuperset(w):
        bad = next(g for g in w if g not in pres._gens)
        raise InvalidStructure(f"word uses unknown generator {bad!r}")
    return w


def _spread(pres, n, seen, out, start):
    """Scan every window of the words out[start:], and of each word this
    appends, for rewrites; a word not yet in seen is added to seen and
    appended to out.  Returns out.  The caller has checked that pres is
    homogeneous, so every word found has length n; a rule longer than n
    has no window."""
    rewrites = pres._rewrites.items()
    i = start
    while i < len(out):
        w = out[i]
        i += 1
        for k, rules in rewrites:
            for j in range(n - k + 1):
                for rhs in rules.get(w[j:j + k], ()):
                    w2 = w[:j] + rhs + w[j + k:]
                    if w2 not in seen:
                        seen.add(w2)
                        out.append(w2)
    return out


def _closure(pres, word):
    """The congruence class of a tuple word, as a new set."""
    seen = {word}
    _spread(pres, len(word), seen, [word], 0)
    return seen


def _grow(pres, cls, g):
    """The class of u·g, given the whole class cls of u with u = cls[0].

    The result is a list: first the seeds u'·g for u' in cls, in cls's order
    (so u·g comes first), then the words that rewrites add.  A seed's
    windows inside u' rewrite it to another seed, so seeds are scanned only
    at the window of each rule length that ends at g.  ``_class_walk``
    calls it only for letters hot for cls: for a quiet g no such window is
    a rule side, and the class of u·g is the seeds alone."""
    n = len(cls[0]) + 1
    tail = (g,)
    out = [u + tail for u in cls]
    seen = set(out)
    start = len(out)
    for k, rules in pres._rewrites.items():
        if k > n:
            continue
        i = n - k
        for w in out[:start]:
            for rhs in rules.get(w[i:], ()):
                w2 = w[:i] + rhs
                if w2 not in seen:
                    seen.add(w2)
                    out.append(w2)
    return _spread(pres, n, seen, out, start) if len(out) > start else out


def _guard_layer(n_gens, depth):
    """Raise SizeLimitExceeded when the words of depth letters over n_gens
    generators, n_gens ** depth of them, may fall into more than
    MAX_LAYER_CLASSES classes.  With two or more generators a depth past
    the limit's bit length is over it, so the power is never taken there."""
    if n_gens > 1 and (depth > MAX_LAYER_CLASSES.bit_length()
                       or n_gens ** depth > MAX_LAYER_CLASSES):
        raise SizeLimitExceeded(
            f"a layer of {depth} letters over {n_gens} generators may hold "
            f"{n_gens}**{depth} classes, over the limit of "
            f"{MAX_LAYER_CLASSES}")


def _class_walk(pres, gens, cls, state, carry, layers):
    """Yield (class, state) for each class of the words cls[0]·w, w of 1 to
    layers letters over gens, once per length, shortest first.

    Each layer grows every class of the one before by each g in gens, in
    order, and skips u·g when it lies in a class already met in this layer,
    so each class is met first at its first word in that order, which is
    the class's cls[0].  A grown class's state is carry(state, grown,
    start), where state is the shorter class's and grown[start:] are the
    words that rewrites added.

    Once per class, the letters hot for it are read off ``pres._fires``: g
    is hot when the last k - 1 letters of some word of cls and g make a
    rule side of length k.  A hot letter is grown by ``_grow`` and checked
    against the classes met so far.  A quiet letter's class is its seeds,
    [u'·g for u' in cls], with no scan.  It needs no check and is not
    recorded: a class met earlier in the layer that held some u'·g would
    be the class of that same (cls, g) pair, and the words u'·g, each
    ending in g after a word of cls, lie in no class grown from another
    pair.

    Each layer is checked with ``_guard_layer`` before any of its classes
    is grown, so a caller that stops at an early layer is never refused."""
    # (letters before the last, {those letters: last letters}) per length
    fires = [(k - 1, tails) for k, tails in pres._fires.items()]
    layer = [(cls, state)]
    for depth in range(1, layers + 1):
        _guard_layer(len(gens), depth)
        seen = set()
        grown_layer = []
        for cls, state in layer:
            n = len(cls[0])
            hot = set()
            for k, tails in fires:
                if k <= n:
                    for w in cls:
                        last = tails.get(w[n - k:])
                        if last:
                            hot |= last
            for g in gens:
                if g in hot:
                    if cls[0] + (g,) in seen:
                        continue
                    grown = _grow(pres, cls, g)
                    seen.update(grown)
                else:
                    grown = [w + (g,) for w in cls]
                grown_state = carry(state, grown, len(cls))
                yield grown, grown_state
                if depth < layers:
                    grown_layer.append((grown, grown_state))
        layer = grown_layer


def congruence_class(pres, word):
    """All words equal to the given one modulo the relations (finite orbit)."""
    _require_homogeneous(pres)
    return frozenset(_closure(pres, _word(pres, word)))


def equal_in_monoid(pres, u, v):
    """Whether u and v are equal modulo the relations.  Homogeneous
    relations keep a word's length, so words of different lengths are
    unequal without a closure."""
    _require_homogeneous(pres)
    v = _word(pres, v)
    u = _word(pres, u)
    return len(u) == len(v) and v in _closure(pres, u)


@dataclass(frozen=True)
class AtomsReport:
    atoms: tuple
    identified_classes: tuple

    @property
    def all_distinct(self):
        return not self.identified_classes


def atoms(pres):
    """Every generator of a homogeneous presentation is an atom: its
    relations keep a word's length, so its class has only length-1 words,
    never a product of two nonempty ones.  Reports which generators are
    identified with others."""
    _require_homogeneous(pres)
    classes = {g: _closure(pres, (g,)) for g in pres.generators}
    merged = []
    done = set()
    for g in pres.generators:
        if g in done:
            continue
        mates = tuple(h for h in pres.generators if (h,) in classes[g])
        done.update(mates)
        if len(mates) > 1:
            merged.append(mates)
    return AtomsReport(pres.generators, tuple(merged))


def left_divides_mod(pres, x, w_class):
    """Does x left-divide w modulo the congruence (w given by its class)?"""
    x = _word(pres, x)
    return any(member[:len(x)] == x for member in w_class)


def common_right_multiple(pres, xs, max_len=8):
    """Shortest word (then lexicographically first) that every x left-divides
    modulo the congruence, or None if none exists up to max_len letters.

    Only words starting with xs[0] are enumerated: any common right multiple
    has a representative of that shape, and divisibility is tested against
    the whole congruence class anyway.  Each layer keeps only the first word
    met of each class: u ~ v implies ug ~ vg, and the first word of a class
    precedes its other words in every later layer, so the lexicographically
    first word of each class of each layer is still reached.

    The layers are walked by ``_class_walk``, and each class carries a
    mask whose bit i says that xs[i] left-divides some word of the class.
    x | u implies x | u·g, so a grown class keeps its mask and only the
    words that rewrites added are tested, except that an x as long as the
    class's words divides a seed u'·g only by being it, so it is tested on
    the whole class.  A class that rewrites added nothing to, with no x as
    long as its words, keeps its mask untested.
    """
    _require_homogeneous(pres)
    xs = [_word(pres, x) for x in xs]
    if not xs:
        raise InvalidStructure("empty family")
    full = (1 << len(xs)) - 1
    head = xs[0]
    if len(head) > max_len:
        return None

    lengths = {len(x) for x in xs}

    def mask(m, cls, start):
        length = len(cls[0])
        if start == len(cls) and length not in lengths:
            return m
        for i, x in enumerate(xs):
            k = len(x)
            if not m >> i & 1 and k <= length:
                words = cls if k == length else cls[start:]
                if any(w[:k] == x for w in words):
                    m |= 1 << i
        return m

    cls = [head, *(_closure(pres, head) - {head})]
    m = mask(0, cls, 0)
    if m == full:
        return head
    for cls, m in _class_walk(pres, sorted(pres.generators), cls, m, mask,
                              max_len - len(head)):
        if m == full:
            return cls[0]
    return None


@dataclass(frozen=True)
class M6Report:
    relation_checks: tuple
    relations_hold: bool
    checked_length: int
    class_count: int
    injective: bool


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
    carries the image of its words.  The image of u·g is the image of u
    followed by that of g, so a grown class's image is its shorter class's
    extended by one letter's, and only the words that rewrites added have
    their image taken, to check that it is constant on the class."""
    pres = m6_presentation()
    checks = []
    for lhs, rhs in pres.relations:
        li, ri = _m6_image(lhs), _m6_image(rhs)
        checks.append((lhs, rhs, li, ri, li == ri))
    relations_hold = all(ok for *_, ok in checks)

    def image(img, cls, start):
        img += M6_SUBSTITUTION[cls[0][-1]]
        if start < len(cls) and any(_m6_image(w) != img
                                    for w in cls[start:]):
            raise InvalidStructure(
                "substitution is not constant on a congruence class")
        return img

    _guard_layer(len(pres.generators), max_len)  # every layer is walked
    images = set()
    injective = True
    count = 0
    for _, img in _class_walk(pres, pres.generators, [()], (), image,
                              max_len):
        count += 1
        if img in images:
            injective = False
        images.add(img)
    return M6Report(tuple(checks), relations_hold, max_len, count, injective)
