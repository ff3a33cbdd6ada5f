"""Abstract simplicial complexes, given by their maximal simplices.

A complex is stored as facets (maximal simplices); faces are generated on
demand.  Inputs where a simplex is listed twice, or where one listed
simplex contains another, are rejected so that files stay canonical.  The
barycentric subdivision is returned as the poset of all nonempty faces
ordered by inclusion, with each face named by joining its sorted vertices
with commas; a complex in which two faces would get the same name
(vertices ``a``, ``b`` and ``a,b`` with the edge ``{a, b}``) has no
barycentric subdivision here.
"""
from __future__ import annotations

from collections import deque
from itertools import combinations
from math import comb

from .errors import InvalidStructure
from .limits import require
from .poset import Poset, _is_id, _items, _require_instance


class SimplicialComplex:
    def __init__(self, facets):
        fs = set()
        for s in _items(facets, "simplices"):
            s = _items(s, "vertices")
            for v in s:
                if not _is_id(v):
                    raise InvalidStructure(f"bad vertex id {v!r}")
            if not s:
                raise InvalidStructure("empty simplex")
            if len(set(s)) != len(s):
                raise InvalidStructure(f"simplex {s} repeats a vertex")
            s = tuple(sorted(s))
            if s in fs:
                raise InvalidStructure(f"simplex {s} is listed twice")
            fs.add(s)
        fs = sorted(fs)
        self.vertices = tuple(sorted({v for f in fs for v in f}))
        # holders[v]: the facets holding v, as a bitmask in facet order.
        # The facets holding a are the AND of its vertices' holders, within
        # those of its rarest vertex; the lowest one other than a is the
        # first that testing every pair of facets would find.
        holders = dict.fromkeys(self.vertices, 0)
        for i, f in enumerate(fs):
            for v in f:
                holders[v] |= 1 << i
        for i, a in enumerate(fs):
            over = -1
            for v in a:
                over &= holders[v]
            over &= ~(1 << i)
            if over:
                b = fs[(over & -over).bit_length() - 1]
                raise InvalidStructure(
                    f"simplex {a} is a face of {b}; list only maximal "
                    "simplices")
        if not fs:
            raise InvalidStructure("complex has no simplices")
        self.facets = tuple(fs)

    def faces(self, dim=None):
        """All nonempty faces, or just those of the given dimension.

        Refused with SizeLimitExceeded, before any is listed, when the
        facets have more than ``limits.MAX_COUNT`` of them, counting a face
        once per facet that holds it: the sum over facets F of 2^|F| - 1,
        or of C(|F|, dim + 1) for one dimension.
        """
        if dim is None:
            count = sum((1 << len(f)) - 1 for f in self.facets)
        elif type(dim) is not int or dim < 0:
            raise InvalidStructure(f"dimension {dim!r} is not an int of 0 "
                                   "or more")
        else:
            count = sum(comb(len(f), dim + 1) for f in self.facets)
        require(count, "faces" if dim is None else f"faces of dimension {dim}")
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

    def _bfs(self):
        """Breadth-first search from the least vertex, visiting neighbours
        in sorted order: the set of vertices reached and the tree edges,
        each a sorted pair, in sorted order."""
        adj = {v: set() for v in self.vertices}
        for x, y in self.edges():
            adj[x].add(y)
            adj[y].add(x)
        root = self.vertices[0]
        seen = {root}
        tree = []
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in sorted(adj[x]):
                if y not in seen:
                    seen.add(y)
                    tree.append((x, y) if x < y else (y, x))
                    queue.append(y)
        return seen, tuple(sorted(tree))

    def is_connected(self):
        return len(self._bfs()[0]) == len(self.vertices)

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
    _require_instance(complex_, SimplicialComplex, "a simplicial complex")
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
