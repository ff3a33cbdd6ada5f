"""Concrete groups with a solvable word problem — free groups, free abelian
groups, and free products — plus group-valued functors on finite categories
and the hom-set-separation criterion for embedding Um(S) into a group.

The embedding works through the highlighting expansion: given a functor ψ
into G, each arrow x is sent to sr(x)⁻¹·ψ(x)·tg(x) inside Fg(objects) * G.
When ψ is injective on every hom-set, the expanded images multiply to
distinct free-product normal forms on distinct reduced sequences, so the
word map σ is injective on all of Um(S), and Um(S) embeds into a group.
``embeddability_verdict`` answers from this theorem: it checks the
criterion and walks no element.

A word is its group and a payload, its normal form as plain data: a free
word's ``letters`` tuple of (letter, ±1), a ``zn`` word's ``vector``, and
for a free product a tuple of (factor index, factor payload) pairs, one per
syllable, nested for products of products.  Words are checked once, by the
public constructors ``FreeGroupWord``, ``FreeAbelianWord`` and
``FreeProductWord``: input from outside (files, ``inject``, the tests) goes
through them.  One kernel, ``_times``, multiplies two payloads (``_fold``
runs it along a sequence), and ``_invert`` inverts one.  Products and
inverses of valid words of one group are valid, so ``group_product`` (the
identity is its empty product) and ``inverse`` wrap their results with
``_word`` and check nothing again.  A word hashes as its payload and
compares as its group and payload: these hold only tuples, strings and
ints, so neither calls back into a factor word.
"""
from __future__ import annotations

from collections import namedtuple
from operator import add

from .category import FiniteCategory
from .errors import (GroupMismatch, InvalidStructure, MissingImage,
                     SeparationRequired)
from .limits import require
from .poset import (_has, _ids, _items, _lazy, _pairs, _require_instance,
                    _table)
from .presentations import format_word, free_reduce, invert_word
from .universal import _not_an_element


class GroupSpec(namedtuple(
        "GroupSpec", "kind letters n factors", defaults=((), 0, ()))):
    __slots__ = ()

    @classmethod
    def free(cls, letters):
        return cls("free", letters=_ids(letters, "letter", "letters"))

    @classmethod
    def zn(cls, n):
        """Z^n, for an int n from 0 to ``limits.MAX_COUNT``."""
        if type(n) is not int:
            raise InvalidStructure(f"dimension {n!r} for zn is not an int")
        if n < 0:
            raise InvalidStructure(f"negative dimension {n} for zn")
        require(n, "dimensions of target zn")
        return cls("zn", n=n)

    @classmethod
    def product(cls, *factors):
        for spec in factors:
            _require_instance(spec, GroupSpec, "a group spec")
        return cls("product", factors=tuple(factors))

    def identity(self):
        return group_product(self, ())


class _Word:
    """A word of the group ``spec``, held as its payload."""

    __slots__ = ("spec", "payload")

    def __setattr__(self, *_):
        raise AttributeError("immutable")

    def is_identity(self):
        return not self.payload

    def inverse(self):
        return _word(self.spec, _invert(self.spec, self.payload))

    def __eq__(self, other):
        return (isinstance(other, _Word) and self.spec == other.spec
                and self.payload == other.payload)

    def __hash__(self):
        return hash(self.payload)


# Slot setters: they get past _Word.__setattr__, which forbids mutation.
_set_spec = _Word.spec.__set__
_set_payload = _Word.payload.__set__


class FreeGroupWord(_Word):
    """A reduced word in a free group: tuple of (letter, ±1)."""

    __slots__ = ()
    letters = _Word.payload  # the payload slot, under its own name

    def __init__(self, spec, letters):
        _require_instance(spec, GroupSpec, "a group spec")
        if spec.kind != "free":
            raise GroupMismatch("FreeGroupWord needs a free group spec")
        letters = _pairs(letters, "letters")
        alphabet = set(spec.letters)
        for g, _ in letters:
            if not _has(alphabet, g):
                raise InvalidStructure(f"letter {g!r} not in the alphabet")
        _set_spec(self, spec)
        _set_payload(self, free_reduce(letters))

    def __str__(self):
        return format_word(self.payload)

    __repr__ = __str__


class FreeAbelianWord(_Word):
    """An element of Z^n as an integer vector."""

    __slots__ = ()
    vector = _Word.payload  # the payload slot, under its own name

    def __init__(self, spec, vector):
        _require_instance(spec, GroupSpec, "a group spec")
        if spec.kind != "zn":
            raise GroupMismatch("FreeAbelianWord needs a zn spec")
        vector = _items(vector, "integers")
        if any(type(v) is not int for v in vector):
            raise InvalidStructure(f"vector {vector!r} holds a non-int")
        if len(vector) != spec.n:
            raise InvalidStructure(f"vector length {len(vector)} != {spec.n}")
        _set_spec(self, spec)
        _set_payload(self, vector)

    def is_identity(self):
        return not any(self.payload)

    def __str__(self):
        return "(" + ",".join(str(v) for v in self.payload) + ")"

    __repr__ = __str__


class FreeProductWord(_Word):
    """Normal form in a free product: alternating nontrivial syllables,
    each a word of one factor, tagged with the factor index.  The payload
    holds each syllable as (factor index, factor payload)."""

    __slots__ = ()

    def __init__(self, spec, syllables):
        _require_instance(spec, GroupSpec, "a group spec")
        if spec.kind != "product":
            raise GroupMismatch("FreeProductWord needs a product spec")
        sylls = _pairs(syllables, "syllables")
        prev = None
        for i, w in sylls:
            if not (type(i) is int and 0 <= i < len(spec.factors)):
                raise InvalidStructure(f"no factor {i!r}")
            if not isinstance(w, _Word) or w.spec != spec.factors[i]:
                raise GroupMismatch(f"syllable in factor {i} has wrong spec")
            if w.is_identity():
                raise InvalidStructure("trivial syllable")
            if prev == i:
                raise InvalidStructure("adjacent syllables in one factor")
            prev = i
        _set_spec(self, spec)
        _set_payload(self, tuple((i, w.payload) for i, w in sylls))

    @property
    def syllables(self):
        """The syllables as (factor index, factor word) pairs, read off
        the payload."""
        factors = self.spec.factors
        return tuple((i, _word(factors[i], s)) for i, s in self.payload)

    def __str__(self):
        if not self.payload:
            return "1"
        return " ".join(str(w) for _, w in self.syllables)

    __repr__ = __str__


_WORD_CLASS = {"free": FreeGroupWord, "zn": FreeAbelianWord,
               "product": FreeProductWord}


def _word(spec, payload):
    """The word of ``spec`` with this payload, unchecked.

    Use only where ``payload`` is built from payloads of valid words of
    ``spec``: a product or inverse of such words is valid.  Input from
    outside goes through the class's constructor, which checks all of it.
    """
    word = object.__new__(_WORD_CLASS[spec.kind])
    _set_spec(word, spec)
    _set_payload(word, payload)
    return word


def _times(spec, a, b):
    """The payload of the normal-form product of payloads a and b of
    ``spec``.

    The one product kernel.  Vectors add.  A free word or a free-product
    word in normal form never reduces inside itself, so only the seam
    between a and b is worked: inverse letters that meet there cancel, and
    syllables of one factor that meet there merge by that factor's product.
    A cancelled letter, or a merged syllable that vanishes, exposes the next
    pair, so the seam works inwards until a pair neither cancels nor
    vanishes.
    """
    kind = spec.kind
    if kind == "zn":
        return tuple(map(add, a, b))
    k, j = len(a), 0
    if kind == "free":
        while k and j < len(b) and a[k - 1] == (b[j][0], -b[j][1]):
            k -= 1
            j += 1
        return a[:k] + b[j:]
    factors = spec.factors
    while k and j < len(b) and a[k - 1][0] == b[j][0]:
        i = b[j][0]
        factor = factors[i]
        merged = _times(factor, a[k - 1][1], b[j][1])
        k -= 1
        j += 1
        if merged and (factor.kind != "zn" or any(merged)):  # not trivial
            return a[:k] + ((i, merged),) + b[j:]
    return a[:k] + b[j:]


def _fold(spec, payloads):
    """The payload of the product of a sequence of payloads of ``spec``:
    ``_times`` folded left from the identity."""
    kind = spec.kind
    if not _has(_WORD_CLASS, kind):
        raise InvalidStructure(f"unknown group kind {kind!r}")
    out = (0,) * spec.n if kind == "zn" else ()
    for p in payloads:
        out = _times(spec, out, p)
    return out


def _invert(spec, payload):
    """The payload of the inverse of a payload of ``spec``."""
    kind = spec.kind
    if kind == "free":
        return invert_word(payload)
    if kind == "zn":
        return tuple(-v for v in payload)
    factors = spec.factors
    return tuple((i, _invert(factors[i], s)) for i, s in reversed(payload))


def group_multiply(a, b):
    """Normal-form product of two words of the same group."""
    _require_instance(a, _Word, "a group word")
    return group_product(a.spec, (a, b))


def group_product(spec, words):
    """Normal-form product of a sequence of words of the group ``spec``.

    Words are checked once, by the public constructors; a product of valid
    words of one group is valid, so it is built without re-checking.  Only
    each operand's group is checked here.  Then ``_fold`` multiplies the
    payloads in one pass, and the word is built once, at the end.
    """
    _require_instance(spec, GroupSpec, "a group spec")
    payloads = []
    for w in _items(words, "words"):
        _require_instance(w, _Word, "a group word")
        if w.spec is not spec and w.spec != spec:
            raise GroupMismatch("operands live in different groups")
        payloads.append(w.payload)
    return _word(spec, _fold(spec, payloads))


def inject(product_spec, factor_index, word):
    """Embed a factor word into the free product."""
    _require_instance(word, _Word, "a group word")
    if word.is_identity():
        return FreeProductWord(product_spec, ())
    return FreeProductWord(product_spec, ((factor_index, word),))


class CategoryFunctor:
    """A functor from a finite category to a group: one image per arrow.

    Identity arrows default to the group identity; every other arrow must be
    given an image.  Functoriality is not enforced here — check_separation
    reports it, so violations can be exhibited rather than rejected.  The
    separation report and the highlighting expansion that σ needs are
    ``poset._lazy`` attributes, worked out on first use.
    """

    def __init__(self, category, target, images):
        _require_instance(category, FiniteCategory, "a category")
        _require_instance(target, GroupSpec, "a group spec")
        self.category = category
        self.target = target
        imgs = dict(_table(images, "images"))
        for obj in category.objects:
            imgs.setdefault(category.identity_of(obj), target.identity())
        for f in category.arrows:
            if f not in imgs:
                raise MissingImage(f"no image for arrow {f}")
            if not isinstance(imgs[f], _Word) or imgs[f].spec != target:
                raise GroupMismatch(f"image of {f} is not in the target group")
        for f in imgs:
            if not category.has_arrow(f):
                raise InvalidStructure(f"image given for unknown arrow {f!r}")
        self.images = imgs

    def image(self, arrow):
        self.category._check(arrow)
        return self.images[arrow]

    @_lazy
    def _separation(self):
        return check_separation(self)

    @_lazy
    def _expansion(self):
        return highlighting_expansion(self)


class SeparationReport(namedtuple(
        "SeparationReport", "functorial separating violating_pair")):
    __slots__ = ()

    @property
    def holds(self):
        return self.functorial and self.separating


def check_separation(functor):
    """Verify the functor laws and injectivity on every hom-set.

    The images were checked when the functor was built, so their payloads
    are read directly.  The laws are checked in (f, g) order, the hom-sets
    in one pass over the arrows sorted by endpoints, which names the first
    colliding pair of a scan of each hom(x, y) in object order."""
    _require_instance(functor, CategoryFunctor, "a functor")
    cat, spec, images = functor.category, functor.target, functor.images
    for (f, g), h in sorted(cat.comp.items()):
        if images[h].payload != _times(spec, images[f].payload,
                                       images[g].payload):
            return SeparationReport(False, False, (f, g))
    ends = cat._endpoints
    seen = {}
    for f in sorted(cat.arrows, key=ends.__getitem__):
        key = (ends[f], images[f].payload)
        if key in seen:
            return SeparationReport(True, False, (seen[key], f))
        seen[key] = f
    return SeparationReport(True, True, None)


def highlighting_expansion(functor):
    """ψ'(x) = sr(x)⁻¹ · ψ(x) · tg(x) in Fg(objects) * G."""
    _require_instance(functor, CategoryFunctor, "a functor")
    cat = functor.category
    obj_spec = GroupSpec.free(cat.objects)
    prod = GroupSpec.product(obj_spec, functor.target)
    images = {}
    for f in cat.arrows:
        s = FreeGroupWord(obj_spec, ((cat.src(f), -1),))
        t = FreeGroupWord(obj_spec, ((cat.tgt(f), 1),))
        images[f] = group_product(prod, [inject(prod, 0, s),
                                         inject(prod, 1, functor.image(f)),
                                         inject(prod, 0, t)])
    return CategoryFunctor(cat, prod, images)


def sigma_image(x, functor):
    """σ(x): the free-product normal form of the expanded images of the
    entries of x.  Requires the separation criterion to hold."""
    _require_instance(functor, CategoryFunctor, "a functor")
    try:
        cat, arrows = x.category, x.arrows
    except AttributeError:
        raise _not_an_element(x) from None
    if cat is not functor.category:
        raise SeparationRequired("element and functor categories differ")
    report = functor._separation
    if not report.holds:
        raise SeparationRequired(
            f"functor does not separate hom-sets: {report.violating_pair}")
    expanded = functor._expansion
    spec, images = expanded.target, expanded.images
    return _word(spec, _fold(spec, [images[f].payload for f in arrows]))


class EmbeddabilityReport(namedtuple(
        "EmbeddabilityReport", "separation embeds verdict sigma_injective")):
    __slots__ = ()


def embeddability_verdict(functor):
    """Whether this functor's separation criterion shows that Um(S) embeds
    into a group.

    Um(S) embeds into a group exactly when some functor into a group is
    injective on every hom-set.  When this functor is functorial and
    separates every hom-set, σ is injective on all of Um(S), so
    ``sigma_injective`` is True, by the theorem: no element is built or
    walked.  Otherwise the criterion says nothing about this functor, and
    ``sigma_injective`` is None.
    """
    _require_instance(functor, CategoryFunctor, "a functor")
    report = functor._separation
    if not report.holds:
        return EmbeddabilityReport(report, False,
                                   "criterion not satisfied by this functor",
                                   None)
    return EmbeddabilityReport(report, True, "Um(S) embeds into a group",
                               True)
