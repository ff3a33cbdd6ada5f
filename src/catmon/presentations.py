"""Group presentations and word plumbing shared by the universal-group and
homotopy constructions.

Words are flat tuples of (generator, exponent) with exponent +1 or -1; free
reduction cancels adjacent inverse pairs.  The abelianization rank is the
number of generators minus the rank of the relator exponent matrix,
computed exactly by fraction-free elimination over the integers (rank over Z
equals rank over Q).

``GroupPresentation(...)`` checks everything it is given.  Presentations
catmon builds itself go through the private ``_presentation``, which
checks nothing, as ``category._category`` does for categories; their
generator names still pass ``_generator_ids`` once, since names built from
vertex or arrow names can repeat or end in "^-1".
"""
from __future__ import annotations

from math import gcd

from .errors import InvalidStructure
from .poset import _has, _ids, _items, _pairs


def free_reduce(word):
    out = []
    for g, e in word:
        if e not in (1, -1):
            raise InvalidStructure(f"exponent must be ±1, got {e!r}")
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def invert_word(word):
    return tuple((g, -e) for g, e in reversed(word))


def substitute(word, gen, replacement):
    """Replace every occurrence of gen by the given word (or its inverse)."""
    out = []
    inv = invert_word(replacement)
    for g, e in word:
        if g == gen:
            out.extend(replacement if e == 1 else inv)
        else:
            out.append((g, e))
    return free_reduce(out)


def parse_word(tokens):
    """Tokens are "g" or "g^-1"."""
    out = []
    for t in tokens:
        if t.endswith("^-1"):
            out.append((t[:-3], -1))
        else:
            out.append((t, 1))
    return tuple(out)


def format_word(word):
    return " ".join(g if e == 1 else f"{g}^-1" for g, e in word) or "1"


def _generator_ids(value):
    """The one check of a presentation's generators: ``_ids(value)``, and
    none ending in "^-1", which is read back as the inverse of a
    generator."""
    gens = _ids(value, "generator", "generators")
    for g in gens:
        if g.endswith("^-1"):
            raise InvalidStructure(f"bad generator id {g!r}")
    return gens


def _presentation(generators, relators):
    """A ``GroupPresentation`` catmon built itself, not checked again.

    ``generators`` is a tuple that passed ``_generator_ids`` (or a part of
    one), and ``relators`` a tuple of tuples of (generator, ±1) pairs over
    them.  The callers: ``homotopy.floating_presentation`` (edge names;
    one relator per triangle), ``homotopy.tietze_collapse`` (the surviving
    generators, and relators substituted from checked ones) and
    ``universal.universal_group_presentation`` (arrow names; one relator
    per composable pair).  Input from outside goes through
    ``GroupPresentation(...)``, which checks all of it.
    """
    pres = object.__new__(GroupPresentation)
    pres.generators, pres.relators = generators, relators
    return pres


class GroupPresentation:
    def __init__(self, generators, relators):
        self.generators = _generator_ids(generators)
        gens = set(self.generators)
        rels = []
        for r in _items(relators, "relators"):
            r = _pairs(r, "relator letters")
            for g, e in r:
                if not _has(gens, g):
                    raise InvalidStructure(f"relator uses unknown generator "
                                           f"{g!r}")
                if e not in (1, -1):
                    raise InvalidStructure(f"exponent must be ±1, got {e!r}")
            rels.append(r)
        self.relators = tuple(rels)

    def abelianization_rank(self):
        """Rank of the abelianized group (free part only)."""
        return len(self.generators) - self.relator_matrix_rank()

    def relator_matrix_rank(self):
        """Rank of the relator exponent matrix.

        Rows are sparse ``{column: int}`` dicts with no zero entries.  The
        basis holds one row per leading (least) column; a new row is reduced
        against it with ``row·a − top·b``, which clears the leading column,
        and divided by the gcd of its entries.  A row that reaches zero is
        dependent; every other row adds one to the rank.
        """
        idx = {g: i for i, g in enumerate(self.generators)}
        basis = {}
        for r in self.relators:
            row = {}
            for g, e in r:
                c = idx[g]
                row[c] = row.get(c, 0) + e
            row = {c: v for c, v in row.items() if v}
            while row:
                lead = min(row)
                top = basis.get(lead)
                if top is None:
                    basis[lead] = row
                    break
                a, b = top[lead], row[lead]
                out = {c: v * a for c, v in row.items()}
                for c, v in top.items():
                    out[c] = out.get(c, 0) - v * b
                d = gcd(*out.values())
                row = {c: v // d for c, v in out.items() if v}
        return len(basis)

    def free_rank(self):
        """Number of generators when there are no relators, else None."""
        if self.relators:
            return None
        return len(self.generators)

    def __eq__(self, other):
        return (isinstance(other, GroupPresentation)
                and self.generators == other.generators
                and self.relators == other.relators)

    def __repr__(self):
        return (f"GroupPresentation({len(self.generators)} generators, "
                f"{len(self.relators)} relators)")
