import random

import pytest

from catmon import (
    AssociativityViolation,
    BadComposability,
    BadIdentity,
    EmptyFamily,
    FiniteCategory,
    MissingComposite,
    Poset,
    SizeLimitExceeded,
    UnknownArrow,
    cat_of_poset,
)

from helpers import (
    labeled_posets,
    make_category,
    pair_groupoid,
    poset_classes,
    posets_up_to,
    random_category,
)

DIAMOND_CAT = cat_of_poset(
    Poset("oabi", [("o", "a"), ("o", "b"), ("a", "i"), ("b", "i")]))


def parallel_pair_category():
    """Two parallel arrows merged by a third: a;c = b;c = d."""
    arrows = {"a": ("e0", "e1"), "b": ("e0", "e1"),
              "c": ("e1", "e2"), "d": ("e0", "e2")}
    comp = {("a", "c"): "d", ("b", "c"): "d"}
    return make_category(["e0", "e1", "e2"], arrows, comp)


def test_parallel_pair_flags_and_witness():
    cat = parallel_pair_category()
    assert cat.is_conical()
    assert cat.is_left_cancellative()
    assert not cat.is_right_cancellative()
    a, x, y = cat.right_cancellation_witness()
    assert cat.compose(x, a) == cat.compose(y, a) and x != y
    assert (a, {x, y}) == ("c", {"a", "b"})


def test_accessors_on_diamond():
    cat = DIAMOND_CAT
    assert cat.identity_of("o") == "[o,o]"
    assert cat.src("[o,a]") == "o" and cat.tgt("[o,a]") == "a"
    assert cat.compose("[o,a]", "[a,i]") == "[o,i]"
    assert cat.hom("o", "i") == ("[o,i]",)
    assert set(cat.arrows_from("o")) == {"[o,o]", "[o,a]", "[o,b]", "[o,i]"}
    assert set(cat.arrows_to("i")) == {"[i,i]", "[o,i]", "[a,i]", "[b,i]"}
    assert len(cat.non_identities()) == 5
    assert cat.size == 9
    with pytest.raises(UnknownArrow):
        cat.src("[x,y]")


def test_validation_missing_composite():
    arrows = {"f": ("x", "y"), "g": ("y", "z")}
    with pytest.raises(MissingComposite):
        make_category(["x", "y", "z"], arrows, {})


def test_validation_bad_composability_and_unknown():
    arrows = {"f": ("x", "y"), "g": ("y", "z")}
    with pytest.raises(BadComposability):
        make_category(["x", "y", "z"], arrows, {("g", "f"): "g"})
    with pytest.raises(UnknownArrow):
        make_category(["x", "y", "z"], arrows, {("f", "g"): "h"})


def test_validation_bad_identity():
    with pytest.raises(BadIdentity):
        FiniteCategory(["x"], {"e": ("x", "x")}, {}, {})
    with pytest.raises(BadIdentity):  # broken unit law e;u = e
        FiniteCategory(["x"], {"e": ("x", "x"), "u": ("x", "x")},
                       {"x": "e"},
                       {("e", "e"): "e", ("e", "u"): "e", ("u", "e"): "u",
                        ("u", "u"): "e"})


def test_validation_associativity():
    # two parallel w->z arrows let (f;g);h and f;(g;h) disagree
    arrows = {"f": ("w", "x"), "g": ("x", "y"), "h": ("y", "z"),
              "fg": ("w", "y"), "gh": ("x", "z"),
              "q1": ("w", "z"), "q2": ("w", "z")}
    comp = {("f", "g"): "fg", ("g", "h"): "gh",
            ("fg", "h"): "q1", ("f", "gh"): "q2"}
    with pytest.raises(AssociativityViolation):
        make_category(["w", "x", "y", "z"], arrows, comp)


def test_size_guard(monkeypatch):
    monkeypatch.setenv("CATMON_MAX_ARROWS", "2")
    with pytest.raises(SizeLimitExceeded):
        cat_of_poset(Poset("ab", [("a", "b")]))
    monkeypatch.setenv("CATMON_MAX_ARROWS", "100")
    assert cat_of_poset(Poset("ab", [("a", "b")])).size == 3
    monkeypatch.setenv("CATMON_MAX_ARROWS", "abc")
    with pytest.raises(SizeLimitExceeded, match="CATMON_MAX_ARROWS='abc'"):
        cat_of_poset(Poset("ab", [("a", "b")]))


def test_poset_categories_validate_conical_cancellative():
    for p in posets_up_to(4, labeled_posets):
        cat = cat_of_poset(p)
        assert cat.is_conical()
        assert cat.is_left_cancellative() and cat.is_right_cancellative()
    for p in poset_classes(5):
        cat = cat_of_poset(p)
        assert cat.is_conical() and cat.is_cancellative()


def test_divides_matches_brute_scan():
    rng = random.Random(11)
    for _ in range(40):
        cat = random_category(rng)
        for a in cat.arrows:
            for b in cat.arrows:
                witnesses = [x for x in cat.arrows
                             if cat.composable(a, x)
                             and cat.compose(a, x) == b]
                assert cat.left_divides(a, b) == bool(witnesses)
                if witnesses:
                    x = cat.left_quotient(a, b)
                    assert cat.compose(a, x) == b
                witnesses = [x for x in cat.arrows
                             if cat.composable(x, a)
                             and cat.compose(x, a) == b]
                assert cat.right_divides(a, b) == bool(witnesses)
                if witnesses:
                    x = cat.right_quotient(a, b)
                    assert cat.compose(x, a) == b


def test_divisor_sets_match_brute_scan():
    rng = random.Random(5)
    for _ in range(25):
        cat = random_category(rng)
        for b in cat.arrows:
            brute = {a for a in cat.arrows if any(
                cat.composable(a, x) and cat.compose(a, x) == b
                for x in cat.arrows)}
            assert set(cat.left_divisors(b)) == brute
            brute = {a for a in cat.arrows if any(
                cat.composable(x, a) and cat.compose(x, a) == b
                for x in cat.arrows)}
            assert set(cat.right_divisors(b)) == brute


def test_left_divisibility_antisymmetric_on_source_fibers():
    # conical + left-cancellative forces antisymmetry within a fiber
    rng = random.Random(23)
    cats = [random_category(rng) for _ in range(40)]
    cats.append(DIAMOND_CAT)
    for cat in cats:
        if not (cat.is_conical() and cat.is_left_cancellative()):
            continue
        for a in cat.arrows:
            for b in cat.arrows:
                if cat.src(a) != cat.src(b):
                    continue
                if cat.left_divides(a, b) and cat.left_divides(b, a):
                    assert a == b


def test_gcd_is_a_greatest_common_divisor():
    rng = random.Random(31)
    cats = [random_category(rng) for _ in range(30)] + [DIAMOND_CAT]
    for cat in cats:
        for a in cat.arrows:
            for b in cat.arrows:
                common = set(cat.left_divisors(a)) & set(cat.left_divisors(b))
                greatest = [m for m in common
                            if all(cat.left_divides(d, m) for d in common)]
                g = cat.left_gcd(a, b)
                if g is None:
                    assert not greatest
                else:
                    assert g in greatest
                    assert all(cat.left_divides(d, g) for d in common)


def test_gcd_family_reduces_to_pairs_and_rejects_empty():
    cat = DIAMOND_CAT
    assert cat.left_gcd_family(["[o,a]", "[o,i]"]) == "[o,a]"
    assert cat.left_gcd_family(["[o,a]", "[o,b]", "[o,i]"]) == "[o,o]"
    with pytest.raises(EmptyFamily):
        cat.left_gcd_family([])


def test_left_lcm_matches_brute_force():
    cats = [cat_of_poset(p) for p in poset_classes(4)] + [DIAMOND_CAT]
    for cat in cats:
        for a in cat.arrows:
            for b in cat.arrows:
                if cat.src(a) != cat.src(b):
                    continue
                common = [m for m in cat.arrows
                          if cat.left_divides(a, m) and cat.left_divides(b, m)]
                least = [m for m in common
                         if all(cat.left_divides(m, c) for c in common)]
                m = cat.left_lcm(a, b)
                if m is None:
                    assert not least
                else:
                    assert m in least


def test_gcd_category_report_on_examples():
    assert DIAMOND_CAT.gcd_category_report().holds
    nonlattice = cat_of_poset(Poset(
        "opqrs", [("o", "p"), ("o", "q"), ("p", "r"), ("p", "s"),
                  ("q", "r"), ("q", "s")]))
    report = nonlattice.gcd_category_report()
    assert report.conical and report.left_cancellative
    assert not report.left_gcds
    assert not report.holds
    groupoid = pair_groupoid(2).gcd_category_report()
    assert not groupoid.conical and groupoid.left_cancellative


def test_opposite_is_involutive_and_swaps_sides():
    cat = parallel_pair_category()
    op = cat.opposite()
    assert op.opposite() is cat
    assert op.src("a") == "e1" and op.tgt("a") == "e0"
    assert op.compose("c", "a") == "d"
    assert not op.is_left_cancellative()
    assert op.is_right_cancellative()
