"""Abstract simplicial complexes, given by their maximal simplices.

A complex is stored as facets (maximal simplices); faces are generated on
demand.  Inputs where one listed simplex contains another are rejected so
that files stay canonical.  The barycentric subdivision is returned as the
poset of all nonempty faces ordered by inclusion, with each face named by
joining its sorted vertices with commas; a complex in which two faces would
get the same name (vertices ``a``, ``b`` and ``a,b`` with the edge ``{a, b}``)
has no barycentric subdivision here.
"""
from __future__ import annotations

from itertools import combinations

from .errors import InvalidStructure
from .poset import Poset, _is_id


class SimplicialComplex:
    def __init__(self, facets):
        fs = []
        for s in facets:
            t = tuple(sorted(set(s)))
            if not t:
                raise InvalidStructure("empty simplex")
            for v in t:
                if not _is_id(v):
                    raise InvalidStructure(f"bad vertex id {v!r}")
            fs.append(t)
        fs = sorted(set(fs))
        for a in fs:
            for b in fs:
                if a != b and set(a) <= set(b):
                    raise InvalidStructure(
                        f"simplex {a} is a face of {b}; list only maximal "
                        "simplices")
        if not fs:
            raise InvalidStructure("complex has no simplices")
        self.facets = tuple(fs)
        self.vertices = tuple(sorted({v for f in fs for v in f}))

    def faces(self, dim=None):
        """All nonempty faces, or just those of the given dimension."""
        out = set()
        for f in self.facets:
            sizes = range(1, len(f) + 1) if dim is None else [dim + 1]
            for k in sizes:
                if k <= len(f):
                    out.update(combinations(f, k))
        return tuple(sorted(out))

    def edges(self):
        return self.faces(dim=1)

    def triangles(self):
        return self.faces(dim=2)

    def dimension(self):
        return max(len(f) for f in self.facets) - 1

    def is_connected(self):
        if len(self.vertices) <= 1:
            return True
        parent = {v: v for v in self.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for f in self.facets:
            for v in f[1:]:
                parent[find(v)] = find(f[0])
        roots = {find(v) for v in self.vertices}
        return len(roots) == 1

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.facets == other.facets)

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        return (f"SimplicialComplex({len(self.vertices)} vertices, "
                f"{len(self.facets)} facets)")


def face_name(face):
    return ",".join(face)


def barycentric(complex_):
    """Poset of nonempty faces of the complex, ordered by inclusion."""
    faces = complex_.faces()
    names = {f: face_name(f) for f in faces}
    named = {}
    for f, name in names.items():
        if named.setdefault(name, f) != f:
            raise InvalidStructure(
                f"faces {named[name]} and {f} would both be named {name!r}")
    # A face covers exactly the faces one vertex smaller.
    covers = [(names[f[:i] + f[i + 1:]], name) for f, name in names.items()
              if len(f) > 1 for i in range(len(f))]
    return Poset(names.values(), covers)
