"""Bounded word-problem engine for monoid presentations.

Only homogeneous presentations (every relation's sides have equal length)
get word-problem operations: homogeneity makes every congruence class finite,
so the class of a word is computed by closing under single relation rewrites
in both directions at every position.  Common right multiples are found by a
breadth-first search over representative words up to a length bound; absence
within the bound is reported as bounded, never as a theorem.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidStructure, NotHomogeneous


class MonoidPresentation:
    def __init__(self, generators, relations):
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise InvalidStructure("duplicate generators")
        gens = set(self.generators)
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

    def is_homogeneous(self):
        return self._homogeneous

    def __repr__(self):
        return (f"MonoidPresentation({len(self.generators)} generators, "
                f"{len(self.relations)} relations)")


def _require_homogeneous(pres):
    if not pres.is_homogeneous():
        raise NotHomogeneous(
            "word-problem operations need length-preserving relations")


def _word(w):
    return tuple(w)


def _closure(pres, word):
    """The congruence class of a tuple word, as a new set.  The caller has
    checked that pres is homogeneous, so every member has len(word)."""
    n = len(word)
    rewrites = [(k, rules) for k, rules in pres._rewrites.items() if k <= n]
    seen = {word}
    frontier = [word]
    while frontier:
        w = frontier.pop()
        for k, rules in rewrites:
            for i in range(n - k + 1):
                for rhs in rules.get(w[i:i + k], ()):
                    w2 = w[:i] + rhs + w[i + k:]
                    if w2 not in seen:
                        seen.add(w2)
                        frontier.append(w2)
    return seen


def congruence_class(pres, word):
    """All words equal to the given one modulo the relations (finite orbit)."""
    _require_homogeneous(pres)
    return frozenset(_closure(pres, _word(word)))


def equal_in_monoid(pres, u, v):
    _require_homogeneous(pres)
    return _word(v) in _closure(pres, _word(u))


@dataclass(frozen=True)
class AtomsReport:
    atoms: tuple
    identified_classes: tuple

    @property
    def all_distinct(self):
        return not self.identified_classes


def atoms(pres):
    """Every generator of a homogeneous presentation is an atom (its class
    has only length-1 words, never a product of two nonempty ones); this
    verifies that and reports which generators are identified with others."""
    _require_homogeneous(pres)
    classes = {}
    for g in pres.generators:
        cls = _closure(pres, (g,))
        if any(len(w) != 1 for w in cls):
            raise InvalidStructure(
                f"class of {g} has a word of length != 1; presentation is "
                "not homogeneous")
        classes[g] = cls
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
    x = _word(x)
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
    """
    _require_homogeneous(pres)
    xs = [_word(x) for x in xs]
    if not xs:
        raise InvalidStructure("empty family")
    gens = sorted(pres.generators)
    layer = [xs[0]]
    length = len(xs[0])
    while length <= max_len:
        seen = set()
        firsts = []
        for w in layer:
            if w in seen:
                continue
            cls = _closure(pres, w)
            if all(left_divides_mod(pres, x, cls) for x in xs):
                return w
            seen |= cls
            firsts.append(w)
        layer = [w + (g,) for w in firsts for g in gens]
        length += 1
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
    and distinct congruence classes up to max_len must have distinct images."""
    pres = m6_presentation()
    checks = []
    for lhs, rhs in pres.relations:
        li, ri = _m6_image(lhs), _m6_image(rhs)
        checks.append((lhs, rhs, li, ri, li == ri))
    relations_hold = all(ok for *_, ok in checks)

    seen = set()
    image_of_class = {}
    injective = True
    count = 0
    words = [()]
    for _ in range(max_len):
        words = [w + (g,) for w in words for g in pres.generators]
        for w in words:
            if w in seen:
                continue
            cls = _closure(pres, w)
            seen.update(cls)
            count += 1
            images = {_m6_image(m) for m in cls}
            if len(images) != 1:
                raise InvalidStructure(
                    "substitution is not constant on a congruence class")
            img = images.pop()
            if img in image_of_class:
                injective = False
            image_of_class[img] = cls
    return M6Report(tuple(checks), relations_hold, max_len, count, injective)
