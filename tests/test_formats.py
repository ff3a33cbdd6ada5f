from pathlib import Path

import pytest

from catmon import (
    FiniteCategory,
    GroupPresentation,
    InvalidStructure,
    MonoidPresentation,
    ParseError,
    Poset,
    SimplicialComplex,
    SizeLimitExceeded,
)
from catmon.formats import (
    dump_category,
    dump_complex,
    dump_monoid,
    dump_poset,
    dump_presentation,
    load_any,
    load_category,
    load_complex,
    load_functor,
    load_monoid,
    load_poset,
    load_presentation,
    sniff_kind,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def read(fname):
    return (DATA / fname).read_text()


def test_poset_round_trip():
    poset = load_poset(read("diamond.poset"), "diamond.poset")
    text = dump_poset(poset)
    again = load_poset(text)
    assert again.elements == poset.elements
    assert again.covers == poset.covers
    assert dump_poset(again) == text


def test_complex_round_trip():
    complex_ = load_complex(read("square.complex"), "square.complex")
    text = dump_complex(complex_)
    assert load_complex(text).facets == complex_.facets
    assert dump_complex(load_complex(text)) == text


def test_category_round_trip():
    cat = load_category(read("c6.category"), "c6.category")
    text = dump_category(cat)
    again = load_category(text)
    assert again.objects == cat.objects
    assert again.arrows == cat.arrows
    assert again.comp == cat.comp
    assert dump_category(again) == text


def test_presentation_round_trip():
    pres = GroupPresentation(
        ("x", "y"), [(("x", 1), ("y", -1), ("x", 1))])
    text = dump_presentation(pres)
    assert load_presentation(text) == pres
    assert dump_presentation(load_presentation(text)) == text


def test_presentation_loader_refuses_other_lines():
    with pytest.raises(ParseError, match=r"^p:3: expected 'gen <id>\.\.\.' "
                                         r"or 'rel <word>'$"):
        load_presentation("presentation\ngen x\nrelator x\n", "p")


def test_monoid_round_trip():
    for fname in ("c6.monoid", "m6.monoid", "b3.monoid"):
        pres = load_monoid(read(fname), fname)
        text = dump_monoid(pres)
        again = load_monoid(text)
        assert again.generators == pres.generators
        assert again.relations == pres.relations
        assert dump_monoid(again) == text


DUMPERS = {"poset": dump_poset, "complex": dump_complex,
           "category": dump_category, "presentation": dump_presentation,
           "monoid": dump_monoid}


def assert_round_trip(kind, value):
    """The dump loads back to a structure that dumps to the same text."""
    text = DUMPERS[kind](value)
    again_kind, again = load_any(text)
    assert again_kind == kind
    assert DUMPERS[kind](again) == text
    return again


def test_every_dump_loads_back():
    for path in sorted(DATA.iterdir()):
        text = path.read_text()
        kind = sniff_kind(text, path.name)
        if kind in DUMPERS:
            assert_round_trip(kind, load_any(text, path.name)[1])
    assert assert_round_trip("poset", Poset([], [])).elements == ()
    assert assert_round_trip("category",
                             FiniteCategory([], {}, {}, {})).arrows == ()
    monoid = MonoidPresentation([], [])
    assert assert_round_trip("monoid", monoid).relations == ()
    pres = GroupPresentation(("x",), [(), (("x", 1),)])
    assert assert_round_trip("presentation", pres) == pres
    # An empty relator is not the one-letter relator of a generator "1".
    one = GroupPresentation(("1",), [(), (("1", 1),), (("1", -1),)])
    assert assert_round_trip("presentation", one) == one
    assert assert_round_trip("presentation",
                             GroupPresentation([], [()])).relators == ((),)
    # Names next to the reserved ones are plain names.
    near = GroupPresentation(("x^-1y", "^-1x", "x^-2"),
                             [(("x^-1y", -1), ("^-1x", 1), ("x^-2", -1))])
    assert assert_round_trip("presentation", near) == near
    eqs = MonoidPresentation(("==", "a=b"), [(("==",), ("a=b",))])
    assert assert_round_trip("monoid", eqs).relations == eqs.relations


@pytest.mark.parametrize("build", [
    lambda: Poset(["#a", "b"], [("#a", "b")]),           # starts a comment
    lambda: Poset(["a#b"], []),
    lambda: SimplicialComplex([("v#",)]),
    lambda: FiniteCategory(["x"], {"id:x": ("x", "x"), "f#": ("x", "x")},
                           {"x": "id:x"}, {}),
    lambda: FiniteCategory(["#x"], {"i": ("#x", "#x")}, {"#x": "i"},
                           {("i", "i"): "i"}),
    # "id:x" names x's identity in a file, so no other arrow may take it
    lambda: FiniteCategory(["x", "y"], {"i": ("x", "x"), "id:y": ("y", "y"),
                                        "id:x": ("x", "y")},
                           {"x": "i", "y": "id:y"}, {}),
    lambda: GroupPresentation(["x^-1"], [(("x^-1", 1),)]),  # an inverse
    lambda: GroupPresentation(["x", "#"], []),
    lambda: GroupPresentation(["a b"], []),
    lambda: GroupPresentation([1], []),
    lambda: MonoidPresentation(["=", "a"], [(("=",), ("a",))]),  # a split
    lambda: MonoidPresentation(["a", "b#"], []),
    lambda: MonoidPresentation([""], []),
], ids=["poset-hash", "poset-inner-hash", "vertex-hash", "arrow-hash",
        "object-hash", "arrow-identity-prefix", "group-inverse",
        "group-hash", "group-space", "group-int", "monoid-equals",
        "monoid-hash", "monoid-empty"])
def test_constructors_refuse_names_the_formats_reserve(build):
    with pytest.raises(InvalidStructure, match="^bad .* id "):
        build()


def test_category_loader_fills_identity_laws():
    cat = load_category("category\nobj x y\narrow f x y\n")
    assert set(cat.arrows) == {"f", "id:x", "id:y"}
    assert cat.compose("id:x", "f") == "f"
    assert cat.compose("f", "id:y") == "f"


def test_category_loader_rejections():
    with pytest.raises(ParseError, match=r"bad\.category:2: .*reserved"):
        load_category("category\narrow id:x x x\nobj x\n", "bad.category")
    with pytest.raises(ParseError, match="duplicate arrow"):
        load_category("category\nobj x y\narrow f x y\narrow f y x\n")
    with pytest.raises(ParseError, match="conflicting composite"):
        load_category("category\nobj x\narrow f x x\narrow g x x\n"
                      "comp f f g\ncomp f f f\n")


def test_parse_error_carries_name_and_line():
    with pytest.raises(ParseError, match=r"^foo:1: expected header 'poset'"):
        load_poset("complex\nsimplex a b\n", "foo")
    with pytest.raises(ParseError, match=r"^empty:1: empty file"):
        load_poset("   \n# only a comment\n", "empty")
    with pytest.raises(ParseError, match=r"^p:3: expected 'elem"):
        load_poset("poset\nelem a b\nkover a b\n", "p")


def test_comments_and_blank_lines_are_ignored():
    poset = load_poset("# leading comment\nposet\n\nelem a b  # trailing\n"
                       "cover a b\n")
    assert poset.elements == ("a", "b")
    assert poset.covers == (("a", "b"),)


def test_functor_loading():
    cat = load_category(read("c6.category"))
    functor = load_functor(read("c6_z3.functor"), cat, "c6_z3.functor")
    assert functor.image("bb'").vector == (0, 2, 0)
    with pytest.raises(ParseError, match=r"^f:3: expected 3 integers"):
        load_functor("functor\ntarget zn 3\nimage a 1 0\n", cat, "f")
    with pytest.raises(ParseError, match="duplicate target"):
        load_functor("functor\ntarget zn 3\ntarget zn 3\n", cat, "f")
    # a second image for an arrow is refused at its line, not kept
    with pytest.raises(ParseError, match=r"^f:16: duplicate image for 'a'$"):
        load_functor(read("c6_z3.functor") + "image a 5 5 5\n", cat, "f")
    with pytest.raises(ParseError, match="missing target"):
        load_functor("functor\nimage a 1\n", cat, "f")


def test_functor_target_dimension_is_checked():
    cat = load_category("category\nobj x\n")
    assert load_functor("functor\ntarget zn 0\n", cat).target.n == 0
    for bad in ("-3", "three", "-10000000000000000000"):
        with pytest.raises(ParseError, match=rf"^f:2: bad dimension '{bad}'"):
            load_functor(f"functor\ntarget zn {bad}\n", cat, "f")
    # priced before any group word is built
    with pytest.raises(SizeLimitExceeded,
                       match="^10000000000000000000 dimensions of target zn"):
        load_functor("functor\ntarget zn 10000000000000000000\n", cat, "f")


def test_functor_free_target_and_identity_image():
    cat = load_category("category\nobj x y\narrow f x y\n")
    functor = load_functor(
        "functor\ntarget free u v\nimage f u v^-1\n", cat)
    assert functor.image("f").letters == (("u", 1), ("v", -1))
    functor = load_functor("functor\ntarget free u\nimage f 1\n", cat)
    assert functor.image("f").is_identity()


def test_sniff_and_load_any():
    kind, poset = load_any(read("diamond.poset"), "diamond.poset")
    assert kind == "poset" and isinstance(poset, Poset)
    kind, complex_ = load_any(read("triangle.complex"))
    assert kind == "complex" and isinstance(complex_, SimplicialComplex)
    kind, monoid = load_any(read("b3.monoid"))
    assert kind == "monoid" and isinstance(monoid, MonoidPresentation)
    assert sniff_kind(read("c6.category")) == "category"
    with pytest.raises(ParseError, match="context-dependent"):
        load_any(read("c6_z3.functor"), "c6_z3.functor")
    with pytest.raises(ParseError, match="context-dependent"):
        load_any("map\nsend a b\n", "m")


def test_every_data_file_loads():
    for path in sorted(DATA.iterdir()):
        text = path.read_text()
        kind = sniff_kind(text, path.name)
        if kind == "functor":
            cat = load_category(read("c6.category"))
            load_functor(text, cat, path.name)
        else:
            load_any(text, path.name)
