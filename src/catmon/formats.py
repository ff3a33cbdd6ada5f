"""Line-oriented text formats (UTF-8, '#' comments).

Each file starts with a header naming its kind.  Category files list only
non-identity arrows and compositions: every object gets an implicit identity
arrow with the reserved id "id:<obj>", and the compositions forced by the
identity laws are filled in on load.  Every dumper's output loads back to an
equal structure.
"""
from __future__ import annotations

from .category import IDENTITY_PREFIX, FiniteCategory
from .complexes import SimplicialComplex
from .errors import ParseError
from .groups import (CategoryFunctor, FreeAbelianWord, FreeGroupWord,
                     GroupSpec)
from .poset import Poset, _require_instance
from .presentations import GroupPresentation, format_word, parse_word
from .presented import MonoidPresentation


def _rows(text, name):
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line.split()))
    if not rows:
        raise ParseError(f"{name}:1: empty file")
    return rows


def _fail(name, lineno, msg):
    raise ParseError(f"{name}:{lineno}: {msg}")


def _header(rows, expected, name):
    lineno, tokens = rows[0]
    if tokens != [expected]:
        _fail(name, lineno, f"expected header {expected!r}")
    return rows[1:]


# -- poset ----------------------------------------------------------------

def load_poset(text, name="<poset>"):
    rows = _header(_rows(text, name), "poset", name)
    elements, covers = [], []
    for lineno, tokens in rows:
        if tokens[0] == "elem" and len(tokens) > 1:
            elements.extend(tokens[1:])
        elif tokens[0] == "cover" and len(tokens) == 3:
            covers.append((tokens[1], tokens[2]))
        else:
            _fail(name, lineno, f"expected 'elem <id>...' or 'cover <x> <y>', "
                                f"got {' '.join(tokens)!r}")
    return Poset(elements, covers)


def dump_poset(poset):
    _require_instance(poset, Poset, "a poset")
    lines = ["poset"]
    if poset.elements:
        lines.append("elem " + " ".join(poset.elements))
    lines.extend(f"cover {x} {y}" for x, y in poset.covers)
    return "\n".join(lines) + "\n"


# -- simplicial complex -----------------------------------------------------

def load_complex(text, name="<complex>"):
    rows = _header(_rows(text, name), "complex", name)
    facets = []
    for lineno, tokens in rows:
        if tokens[0] == "simplex" and len(tokens) > 1:
            facets.append(tokens[1:])
        else:
            _fail(name, lineno, f"expected 'simplex <v>...', got "
                                f"{' '.join(tokens)!r}")
    return SimplicialComplex(facets)


def dump_complex(complex_):
    _require_instance(complex_, SimplicialComplex, "a simplicial complex")
    lines = ["complex"]
    lines.extend("simplex " + " ".join(f) for f in complex_.facets)
    return "\n".join(lines) + "\n"


# -- category ---------------------------------------------------------------

def load_category(text, name="<category>"):
    rows = _header(_rows(text, name), "category", name)
    objects = []
    arrows = {}
    comp_lines = []
    for lineno, tokens in rows:
        if tokens[0] == "obj" and len(tokens) > 1:
            objects.extend(tokens[1:])
        elif tokens[0] == "arrow" and len(tokens) == 4:
            aid = tokens[1]
            if aid.startswith(IDENTITY_PREFIX):
                _fail(name, lineno, f"arrow id {aid!r} is reserved for "
                                    "identities")
            if aid in arrows:
                _fail(name, lineno, f"duplicate arrow {aid!r}")
            arrows[aid] = (tokens[2], tokens[3])
        elif tokens[0] == "comp" and len(tokens) == 4:
            comp_lines.append((lineno, tokens[1], tokens[2], tokens[3]))
        else:
            _fail(name, lineno, "expected 'obj <id>...', "
                                "'arrow <id> <src> <tgt>' or "
                                "'comp <f> <g> <h>'")
    identity = {o: IDENTITY_PREFIX + o for o in objects}
    for o, e in identity.items():
        arrows[e] = (o, o)
    comp = {}
    for f, (s, t) in arrows.items():
        if s in identity:
            comp[(identity[s], f)] = f
        if t in identity:
            comp[(f, identity[t])] = f
    for lineno, f, g, h in comp_lines:
        if comp.get((f, g), h) != h:
            _fail(name, lineno, f"conflicting composite for {f};{g}")
        comp[(f, g)] = h
    return FiniteCategory(objects, arrows, identity, comp)


def dump_category(cat):
    _require_instance(cat, FiniteCategory, "a category")
    lines = ["category"]
    if cat.objects:
        lines.append("obj " + " ".join(cat.objects))
    for f in cat.non_identities():
        lines.append(f"arrow {f} {cat.src(f)} {cat.tgt(f)}")
    for (f, g) in sorted(cat.comp):
        if not cat.is_identity(f) and not cat.is_identity(g):
            lines.append(f"comp {f} {g} {cat.comp[(f, g)]}")
    return "\n".join(lines) + "\n"


# -- group presentation -------------------------------------------------------

def load_presentation(text, name="<presentation>"):
    rows = _header(_rows(text, name), "presentation", name)
    gens, relators = [], []
    for lineno, tokens in rows:
        if tokens[0] == "gen":
            gens.extend(tokens[1:])
        elif tokens[0] == "rel":
            relators.append(parse_word(tokens[1:]))
        else:
            _fail(name, lineno, "expected 'gen <id>...' or 'rel <word>'")
    return GroupPresentation(gens, relators)


def dump_presentation(pres):
    _require_instance(pres, GroupPresentation, "a group presentation")
    lines = ["presentation"]
    if pres.generators:
        lines.append("gen " + " ".join(pres.generators))
    for r in pres.relators:
        lines.append("rel " + format_word(r) if r else "rel")
    return "\n".join(lines) + "\n"


# -- monoid presentation -------------------------------------------------------

def load_monoid(text, name="<monoid>"):
    rows = _header(_rows(text, name), "monoid", name)
    gens, relations = [], []
    for lineno, tokens in rows:
        if tokens[0] == "gen":
            gens.extend(tokens[1:])
        elif tokens[0] == "rel":
            if tokens.count("=") != 1:
                _fail(name, lineno, "relation needs exactly one '='")
            k = tokens.index("=")
            relations.append((tuple(tokens[1:k]), tuple(tokens[k + 1:])))
        else:
            _fail(name, lineno, "expected 'gen <id>...' or "
                                "'rel <word> = <word>'")
    return MonoidPresentation(gens, relations)


def dump_monoid(pres):
    _require_instance(pres, MonoidPresentation, "a monoid presentation")
    lines = ["monoid"]
    if pres.generators:
        lines.append("gen " + " ".join(pres.generators))
    for lhs, rhs in pres.relations:
        lines.append(" ".join(["rel", *lhs, "=", *rhs]))
    return "\n".join(lines) + "\n"


# -- functor -------------------------------------------------------------------

def parse_functor(text, name="<functor>"):
    """Raw parse: (target GroupSpec, [(lineno, arrow, value tokens)]),
    with at most one image per arrow.  A ``zn`` dimension is a nonnegative
    integer, priced against ``limits.MAX_COUNT`` by ``GroupSpec.zn``."""
    rows = _header(_rows(text, name), "functor", name)
    target = None
    images = []
    imaged = set()
    for lineno, tokens in rows:
        if tokens[0] == "target":
            if target is not None:
                _fail(name, lineno, "duplicate target line")
            if tokens[1:2] == ["zn"] and len(tokens) == 3:
                try:
                    n = int(tokens[2])
                except ValueError:
                    n = -1  # refused below, as a negative one is
                if n < 0:
                    _fail(name, lineno, f"bad dimension {tokens[2]!r}")
                target = GroupSpec.zn(n)
            elif tokens[1:2] == ["free"]:
                target = GroupSpec.free(tokens[2:])
            else:
                _fail(name, lineno, "expected 'target zn <n>' or "
                                    "'target free <letters>'")
        elif tokens[0] == "image" and len(tokens) >= 2:
            if tokens[1] in imaged:
                _fail(name, lineno, f"duplicate image for {tokens[1]!r}")
            imaged.add(tokens[1])
            images.append((lineno, tokens[1], tokens[2:]))
        else:
            _fail(name, lineno, "expected 'target ...' or "
                                "'image <arrow> <value>'")
    if target is None:
        _fail(name, rows[0][0] if rows else 1, "missing target line")
    return target, images


def load_functor(text, category, name="<functor>"):
    spec, image_rows = parse_functor(text, name)
    images = {}
    for lineno, arrow, tokens in image_rows:
        if spec.kind == "zn":
            try:
                vec = [int(t) for t in tokens]
            except ValueError:
                _fail(name, lineno, f"expected {spec.n} integers")
            if len(vec) != spec.n:
                _fail(name, lineno, f"expected {spec.n} integers, got "
                                    f"{len(vec)}")
            images[arrow] = FreeAbelianWord(spec, vec)
        else:
            if tokens == ["1"]:
                images[arrow] = spec.identity()
            else:
                images[arrow] = FreeGroupWord(spec, parse_word(tokens))
    return CategoryFunctor(category, spec, images)


# -- dispatch ---------------------------------------------------------------------

LOADERS = {
    "poset": load_poset,
    "complex": load_complex,
    "category": load_category,
    "presentation": load_presentation,
    "monoid": load_monoid,
}


def sniff_kind(text, name="<file>"):
    return _rows(text, name)[0][1][0]


def load_any(text, name="<file>"):
    kind = sniff_kind(text, name)
    if kind not in LOADERS:
        raise ParseError(f"{name}:1: unknown or context-dependent format "
                         f"{kind!r}")
    return kind, LOADERS[kind](text, name)
