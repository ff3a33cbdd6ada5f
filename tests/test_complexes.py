import random

import pytest

from catmon import (
    InvalidStructure,
    Poset,
    SimplicialComplex,
    barycentric,
    cat_of_poset,
    face_name,
    gcd_criterion,
)


def test_facets_are_sorted_and_a_repeat_is_refused():
    k = SimplicialComplex([["z", "x"], ["y"]])
    assert k.facets == (("x", "z"), ("y",))
    assert k.vertices == ("x", "y", "z")
    with pytest.raises(InvalidStructure,
                       match=r"^simplex \('x', 'z'\) is listed twice$"):
        SimplicialComplex([["z", "x"], ["x", "z"], ["y"]])


def test_equal_complexes_hash_equal():
    k = SimplicialComplex([["a", "b"], ["c", "b"]])
    listed_backwards = SimplicialComplex([["b", "c"], ["b", "a"]])
    assert k == listed_backwards and hash(k) == hash(listed_backwards)
    assert len({k, listed_backwards}) == 1
    assert k != SimplicialComplex([["a", "b"], ["c"]])


def test_faces_refuse_a_dimension_that_is_not_a_natural_number():
    k = SimplicialComplex([["x", "y", "z"]])
    assert k.faces(2) == (("x", "y", "z"),)
    assert k.faces(3) == ()
    for dim in (-2, -1, "1", 1.0, True):
        with pytest.raises(InvalidStructure, match="is not an int of 0"):
            k.faces(dim)


def test_facet_contained_in_another_rejected():
    with pytest.raises(InvalidStructure):
        SimplicialComplex([["x", "y", "z"], ["x", "y"]])


def test_bad_vertex_names_rejected():
    with pytest.raises(InvalidStructure):
        SimplicialComplex([["a b"]])
    with pytest.raises(InvalidStructure):
        SimplicialComplex([[]])
    # a vertex repeated inside one simplex is refused, not merged
    with pytest.raises(InvalidStructure,
                       match=r"^simplex \('a', 'a', 'b'\) repeats a vertex$"):
        SimplicialComplex([["a", "a", "b"]])


def test_vertex_ids_may_contain_commas():
    # the vertices of a chain complex of a barycentric subdivision are
    # face names such as "x,y"
    k = SimplicialComplex([["x", "x,y", "x,y,z"]])
    assert k.vertices == ("x", "x,y", "x,y,z")


def test_barycentric_rejects_faces_with_one_name():
    k = SimplicialComplex([["a", "b"], ["a,b"]])
    with pytest.raises(InvalidStructure, match="both be named 'a,b'"):
        barycentric(k)


def test_faces_edges_triangles_dimension():
    k = SimplicialComplex([["x", "y", "z"], ["w", "x"]])
    assert k.faces(0) == (("w",), ("x",), ("y",), ("z",))
    assert k.edges() == (("w", "x"), ("x", "y"), ("x", "z"), ("y", "z"))
    assert k.triangles() == (("x", "y", "z"),)
    assert k.dimension() == 2
    assert set(k.faces()) == set(k.faces(0) + k.edges() + k.triangles())


def test_connectivity():
    assert SimplicialComplex([["x", "y"], ["y", "z"]]).is_connected()
    assert not SimplicialComplex([["x", "y"], ["u", "v"]]).is_connected()
    assert SimplicialComplex([["x"]]).is_connected()


def test_face_name():
    assert face_name(("x", "y")) == "x,y"
    assert face_name(("x",)) == "x"


def test_barycentric_triangle_is_the_face_poset():
    k = SimplicialComplex([["x", "y", "z"]])
    p = barycentric(k)
    assert len(p.elements) == 7
    assert p.leq("x", "x,y") and p.leq("x,y", "x,y,z")
    assert not p.comparable("x,y", "z")
    # codimension-one inclusions are exactly the covers
    assert sorted(p.covers) == sorted(
        [("x", "x,y"), ("x", "x,z"), ("y", "x,y"), ("y", "y,z"),
         ("z", "x,z"), ("z", "y,z"), ("x,y", "x,y,z"), ("x,z", "x,y,z"),
         ("y,z", "x,y,z")])
    cat_of_poset(p)  # validates
    assert gcd_criterion(p).holds


def _all_pairs_facet_check(facets):
    """The facet check by testing every ordered pair of distinct facets in
    sorted order: the message of the first contained one, or None.  A
    simplex listed twice is refused before that, naming the first repeat
    in the order listed."""
    listed = [tuple(sorted(set(f))) for f in facets]
    for i, a in enumerate(listed):
        if a in listed[:i]:
            return f"simplex {a} is listed twice"
    fs = sorted(set(listed))
    for a in fs:
        for b in fs:
            if a != b and set(a) <= set(b):
                return (f"simplex {a} is a face of {b}; list only maximal "
                        "simplices")
    return None


def test_facet_check_names_the_pair_an_all_pairs_check_names():
    """The facets holding a facet are found from its vertices, not by
    testing every pair; the first offending pair, and so the message, is
    the one the all-pairs loop finds.  Each complex gets sub-facets of
    random facets injected, one or several."""
    rng = random.Random(71)
    names = [f"v{i}" for i in range(12)]
    seen = 0
    for _ in range(400):
        facets = [rng.sample(names, rng.randint(1, 5))
                  for _ in range(rng.randint(1, 8))]
        for _ in range(rng.randint(0, 3)):
            f = rng.choice(facets)
            facets.append(rng.sample(f, rng.randint(1, len(f))))
        want = _all_pairs_facet_check(facets)
        if want is None:
            assert SimplicialComplex(facets).facets
            continue
        seen += 1
        with pytest.raises(InvalidStructure) as got:
            SimplicialComplex(facets)
        assert str(got.value) == want
    assert seen >= 200
