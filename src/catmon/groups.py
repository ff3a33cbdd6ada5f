"""Concrete groups with a solvable word problem — free groups, free abelian
groups, and free products — plus group-valued functors on finite categories
and the hom-set-separation criterion for embedding Um(S) into a group.

The embedding works through the highlighting expansion: given a functor ψ
into G, each arrow x is sent to sr(x)⁻¹·ψ(x)·tg(x) inside Fg(objects) * G.
When ψ is injective on every hom-set, the expanded images multiply to
distinct free-product normal forms on distinct reduced sequences, so the
word map σ is injective.

Words are checked once, by the public constructors ``FreeGroupWord``,
``FreeAbelianWord`` and ``FreeProductWord``: input from outside (files,
``inject``, the tests) goes through them.  Products and inverses of valid
words of one group are valid, so ``group_product`` (the identity is its
empty product) and ``inverse`` build their results with ``_word`` and
check nothing again.  A word hashes only its payload, on first use, and
keeps the hash in a slot: a product shares its operands' factor words, so
hashing it hashes only the syllables it made.  Equality also compares the
group.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .errors import (GroupMismatch, InvalidStructure, MissingImage,
                     SeparationRequired)
from .limits import require, require_bound
from .presentations import format_word, free_reduce, invert_word


class GroupSpec(namedtuple(
        "GroupSpec", "kind letters n factors", defaults=((), 0, ()))):
    __slots__ = ()

    @classmethod
    def free(cls, letters):
        return cls("free", letters=tuple(letters))

    @classmethod
    def zn(cls, n):
        """Z^n, for an int n from 0 to ``limits.MAX_COUNT``."""
        if n < 0:
            raise InvalidStructure(f"negative dimension {n} for zn")
        require(n, "dimensions of target zn")
        return cls("zn", n=n)

    @classmethod
    def product(cls, *factors):
        return cls("product", factors=tuple(factors))

    def identity(self):
        return group_product(self, ())


class FreeGroupWord:
    """A reduced word in a free group: tuple of (letter, ±1)."""

    __slots__ = ("spec", "letters", "_hash")

    def __init__(self, spec, letters):
        if spec.kind != "free":
            raise GroupMismatch("FreeGroupWord needs a free group spec")
        letters = tuple(letters)
        alphabet = set(spec.letters)
        for g, _ in letters:
            if g not in alphabet:
                raise InvalidStructure(f"letter {g!r} not in the alphabet")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "letters", free_reduce(letters))

    def __setattr__(self, *_):
        raise AttributeError("immutable")

    def is_identity(self):
        return not self.letters

    def inverse(self):
        return _word(FreeGroupWord, self.spec, "letters",
                     invert_word(self.letters))

    def __eq__(self, other):
        return (isinstance(other, FreeGroupWord) and self.spec == other.spec
                and self.letters == other.letters)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            return _keep_hash(self, self.letters)

    def __str__(self):
        return format_word(self.letters)

    __repr__ = __str__


class FreeAbelianWord:
    """An element of Z^n as an integer vector."""

    __slots__ = ("spec", "vector", "_hash")

    def __init__(self, spec, vector):
        if spec.kind != "zn":
            raise GroupMismatch("FreeAbelianWord needs a zn spec")
        vector = tuple(int(v) for v in vector)
        if len(vector) != spec.n:
            raise InvalidStructure(f"vector length {len(vector)} != {spec.n}")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "vector", vector)

    def __setattr__(self, *_):
        raise AttributeError("immutable")

    def is_identity(self):
        return not any(self.vector)

    def inverse(self):
        return _word(FreeAbelianWord, self.spec, "vector",
                     tuple(-v for v in self.vector))

    def __eq__(self, other):
        return (isinstance(other, FreeAbelianWord) and self.spec == other.spec
                and self.vector == other.vector)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            return _keep_hash(self, self.vector)

    def __str__(self):
        return "(" + ",".join(str(v) for v in self.vector) + ")"

    __repr__ = __str__


class FreeProductWord:
    """Normal form in a free product: alternating nontrivial syllables,
    each a word of one factor, tagged with the factor index."""

    __slots__ = ("spec", "syllables", "_hash")

    def __init__(self, spec, syllables):
        if spec.kind != "product":
            raise GroupMismatch("FreeProductWord needs a product spec")
        sylls = tuple(syllables)
        prev = None
        for i, w in sylls:
            if not 0 <= i < len(spec.factors):
                raise InvalidStructure(f"no factor {i}")
            if w.spec != spec.factors[i]:
                raise GroupMismatch(f"syllable in factor {i} has wrong spec")
            if w.is_identity():
                raise InvalidStructure("trivial syllable")
            if prev == i:
                raise InvalidStructure("adjacent syllables in one factor")
            prev = i
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "syllables", sylls)

    def __setattr__(self, *_):
        raise AttributeError("immutable")

    def is_identity(self):
        return not self.syllables

    def inverse(self):
        sylls = tuple((i, w.inverse()) for i, w in reversed(self.syllables))
        return _word(FreeProductWord, self.spec, "syllables", sylls)

    def __eq__(self, other):
        return (isinstance(other, FreeProductWord) and self.spec == other.spec
                and self.syllables == other.syllables)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            return _keep_hash(self, self.syllables)

    def __str__(self):
        if not self.syllables:
            return "1"
        return " ".join(str(w) for _, w in self.syllables)

    __repr__ = __str__


def _keep_hash(word, payload):
    """Hash payload and keep the hash in word's slot."""
    h = hash(payload)
    object.__setattr__(word, "_hash", h)
    return h


def _word(cls, spec, field, value):
    """A word of class ``cls`` over ``spec`` with payload ``field = value``,
    unchecked.

    Use only where ``value`` is built from parts of valid words of ``spec``:
    a product or inverse of such words is valid.  Input from outside goes
    through the class's constructor, which checks all of it.
    """
    word = object.__new__(cls)
    object.__setattr__(word, "spec", spec)
    object.__setattr__(word, field, value)
    return word


def group_multiply(a, b):
    """Normal-form product of two words of the same group."""
    return group_product(a.spec, (a, b))


def group_product(spec, words):
    """Normal-form product of a sequence of words of the group ``spec``.

    The one product kernel.  Words are checked once, by the public
    constructors; a product of valid words of one group is valid, so it is
    built without re-checking.  Only each operand's group is checked here.
    Then the product is folded in one pass: one free reduction of the
    joined letters, one vector sum, or one syllable list in which
    neighbours of one factor merge by that factor's product (a trivial
    merge is dropped).  The word is built once, at the end.
    """
    words = tuple(words)
    for w in words:
        if w.spec is not spec and w.spec != spec:
            raise GroupMismatch("operands live in different groups")
    kind = spec.kind
    if kind == "free":
        return _word(FreeGroupWord, spec, "letters",
                     free_reduce([g for w in words for g in w.letters]))
    if kind == "zn":
        vector = (tuple(map(sum, zip(*(w.vector for w in words))))
                  if words else (0,) * spec.n)
        return _word(FreeAbelianWord, spec, "vector", vector)
    if kind == "product":
        factors = spec.factors
        sylls = []
        for w in words:
            for i, s in w.syllables:
                if sylls and sylls[-1][0] == i:
                    merged = group_product(factors[i], (sylls.pop()[1], s))
                    if not merged.is_identity():
                        sylls.append((i, merged))
                else:
                    sylls.append((i, s))
        return _word(FreeProductWord, spec, "syllables", tuple(sylls))
    raise InvalidStructure(f"unknown group kind {kind!r}")


def inject(product_spec, factor_index, word):
    """Embed a factor word into the free product."""
    if word.is_identity():
        return FreeProductWord(product_spec, ())
    return FreeProductWord(product_spec, ((factor_index, word),))


class CategoryFunctor:
    """A functor from a finite category to a group: one image per arrow.

    Identity arrows default to the group identity; every other arrow must be
    given an image.  Functoriality is not enforced here — check_separation
    reports it, so violations can be exhibited rather than rejected.  The
    separation report and the highlighting expansion that σ needs are worked
    out once, on first use.
    """

    def __init__(self, category, target, images):
        self.category = category
        self.target = target
        imgs = dict(images)
        for obj in category.objects:
            imgs.setdefault(category.identity_of(obj), target.identity())
        for f in category.arrows:
            if f not in imgs:
                raise MissingImage(f"no image for arrow {f}")
            if imgs[f].spec != target:
                raise GroupMismatch(f"image of {f} is not in the target group")
        for f in imgs:
            if not category.has_arrow(f):
                raise InvalidStructure(f"image given for unknown arrow {f!r}")
        self.images = imgs

    def image(self, arrow):
        self.category._check(arrow)
        return self.images[arrow]

    @cached_property
    def _separation(self):
        return check_separation(self)

    @cached_property
    def _expansion(self):
        return highlighting_expansion(self)


class SeparationReport(namedtuple(
        "SeparationReport", "functorial separating violating_pair")):
    __slots__ = ()

    @property
    def holds(self):
        return self.functorial and self.separating


def check_separation(functor):
    """Verify the functor laws and injectivity on every hom-set."""
    cat = functor.category
    for f in cat.arrows:
        for g in cat.arrows_from(cat.tgt(f)):
            h = cat.compose(f, g)
            if functor.image(h) != group_multiply(functor.image(f),
                                                  functor.image(g)):
                return SeparationReport(False, False, (f, g))
    for x in cat.objects:
        for y in cat.objects:
            seen = {}
            for f in cat.hom(x, y):
                w = functor.image(f)
                if w in seen:
                    return SeparationReport(True, False, (seen[w], f))
                seen[w] = f
    return SeparationReport(True, True, None)


def highlighting_expansion(functor):
    """ψ'(x) = sr(x)⁻¹ · ψ(x) · tg(x) in Fg(objects) * G."""
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


def _sigma(functor, arrows):
    """σ of the element with these arrows, for a functor whose separation
    criterion holds."""
    expanded = functor._expansion
    images = expanded.images
    return group_product(expanded.target, [images[f] for f in arrows])


def sigma_image(x, functor):
    """σ(x): the free-product normal form of the expanded images of the
    entries of x.  Requires the separation criterion to hold."""
    if x.category is not functor.category:
        raise SeparationRequired("element and functor categories differ")
    report = functor._separation
    if not report.holds:
        raise SeparationRequired(
            f"functor does not separate hom-sets: {report.violating_pair}")
    return _sigma(functor, x.arrows)


class EmbeddabilityReport(namedtuple(
        "EmbeddabilityReport", "separation embeds verdict checked_length"
        " sigma_injective")):
    __slots__ = ()


# The key of a σ word in the verdict's walk; a module name so that a test can
# make every key collide.
_sigma_key = hash


def embeddability_verdict(functor, max_len=3):
    """Run the separation criterion; on success, confirm σ-injectivity on
    all elements up to the length bound (a sampled check — the criterion
    itself guarantees injectivity everywhere).

    The elements are counted before any is built: past the size guard of
    ``universal._element_walk`` this raises ``SizeLimitExceeded``.  Then
    they are walked one letter at a time, each carrying its σ word:
    σ(x·f) is the product of σ(x) and ψ'(f), so no image is multiplied out
    from its letters, and only the layer being extended keeps its words.
    ``seen`` maps the hash of each σ word to the arrows of its element.  On
    a hit, σ of the stored element is rebuilt and compared exactly: equal
    words of distinct elements answer no, and a word that only shares a
    hash is kept whole in ``spilled``, which later words also probe.
    """
    from .universal import _element_walk
    require_bound(max_len, 1)
    report = functor._separation
    if not report.holds:
        return EmbeddabilityReport(report, False,
                                   "criterion not satisfied by this functor",
                                   max_len, None)
    expanded = functor._expansion
    prod, images = expanded.target, expanded.images

    def times(w, f):
        return group_product(prod, (w, images[f]))

    key = _sigma_key
    seen = {}
    spilled = set()
    injective = True
    for arrows, w in _element_walk(functor.category, max_len,
                                   prod.identity(), times):
        k = key(w)
        first = seen.get(k)
        if first is None:
            seen[k] = arrows
        elif w in spilled or _sigma(functor, first) == w:
            injective = False
            break
        else:
            spilled.add(w)
    return EmbeddabilityReport(report, True, "Um(S) embeds into a group",
                               max_len, injective)
