import random

import pytest

from catmon import (
    CatmonError,
    FiniteCategory,
    HeightTooSmall,
    InvalidStructure,
    NotComparable,
    NotExtreme,
    Poset,
    Spindle,
    chain_arrow_name,
    detect_spindle,
    gcd_criterion,
    interval_name,
    is_extreme_spindle,
    reduce_sequence,
    spindle_category,
    spindle_presentation,
)

from helpers import (assert_record, natural_posets, posets_up_to,
                     random_poset, reference_spindle_category,
                     reference_spindle_presentation)

DIAMOND = Poset("oabi", [("o", "a"), ("o", "b"), ("a", "i"), ("b", "i")])
CHAIN3 = Poset("012", [("0", "1"), ("1", "2")])
CHAIN4 = Poset("opqi", [("o", "p"), ("p", "q"), ("q", "i")])
# ]o,i[ = {w, x, y} with x < y and w incomparable to both: two classes
TWO_CLASS = Poset("owxyi", [("o", "w"), ("o", "x"), ("x", "y"),
                            ("w", "i"), ("y", "i")])
# ]u,v[ = {x, y, z} where x,z and y,z are comparable but x,y are not
NON_SPINDLE = Poset("uxyzv", [("u", "x"), ("u", "y"), ("x", "z"),
                              ("y", "z"), ("z", "v")])
# u < a < b < v and u < "a,b" < v: both chains would be named chain:a,b
CHAIN_CLASH = Poset(["u", "a", "b", "a,b", "v"],
                    [("u", "a"), ("a", "b"), ("b", "v"),
                     ("u", "a,b"), ("a,b", "v")])


def brute_spindle_criteria(poset, u, v):
    inner = poset.open_interval(u, v)
    comparable = all(
        poset.comparable(x, z)
        for x in inner for y in inner for z in inner
        if poset.comparable(x, y) and poset.comparable(y, z))
    chains = poset.maximal_chains_in(u, v)
    meets = all(set(c1) & set(c2) == {u, v}
                for i, c1 in enumerate(chains) for c2 in chains[i + 1:])
    return comparable, meets


def poset_max(poset, candidates):
    best = None
    for e in candidates:
        if best is None or poset.leq(best, e):
            best = e
    return best


def test_detect_spindle_on_examples():
    sp = detect_spindle(DIAMOND, "o", "i")
    assert sp.u == "o" and sp.v == "i"
    assert sp.chains == (("o", "a", "i"), ("o", "b", "i"))
    assert detect_spindle(CHAIN3, "0", "2").chains == (("0", "1", "2"),)
    sp = detect_spindle(TWO_CLASS, "o", "i")
    assert sp.chains == (("o", "w", "i"), ("o", "x", "y", "i"))
    assert detect_spindle(NON_SPINDLE, "u", "v") is None


def test_detect_spindle_preconditions():
    with pytest.raises(NotComparable):
        detect_spindle(DIAMOND, "a", "b")
    with pytest.raises(NotComparable):
        detect_spindle(DIAMOND, "i", "o")
    with pytest.raises(HeightTooSmall):
        detect_spindle(DIAMOND, "o", "a")


def test_both_criteria_agree_on_small_posets():
    for p in posets_up_to(5, natural_posets):
        for u in p.elements:
            for v in p.elements:
                if not p.lt(u, v) or not p.open_interval(u, v):
                    continue
                comparable, meets = brute_spindle_criteria(p, u, v)
                assert comparable == meets
                assert (detect_spindle(p, u, v) is not None) == comparable
    # Larger posets, so that ]u,v[ often has four or more elements.
    rng = random.Random(7)
    wide = {True: 0, False: 0}
    for _ in range(100):
        p = random_poset(rng, max_n=10)
        while len(p.elements) < 6:
            p = random_poset(rng, max_n=10)
        for u in p.elements:
            for v in p.elements:
                inner = p.open_interval(u, v) if p.lt(u, v) else ()
                if not inner:
                    continue
                comparable, _ = brute_spindle_criteria(p, u, v)
                assert (detect_spindle(p, u, v) is not None) == comparable
                if len(inner) >= 4:
                    wide[comparable] += 1
    assert wide[True] >= 20 and wide[False] >= 50


def test_detect_spindle_lists_chains_only_for_a_spindle(monkeypatch):
    # a ladder of 30 ranks of two elements, every cover between ranks, with
    # a bottom and a top: [bot,top] has 2**30 maximal chains
    ranks = [("bot",)] + [(f"x{r}", f"y{r}") for r in range(30)] + [("top",)]
    ladder = Poset([e for rank in ranks for e in rank],
                   [(x, y) for lo, hi in zip(ranks, ranks[1:])
                    for x in lo for y in hi])
    chains = Poset._chains

    def no_chains(*args):
        raise AssertionError("maximal chains listed")

    monkeypatch.setattr(Poset, "_chains", no_chains)
    assert detect_spindle(ladder, "bot", "top") is None
    assert detect_spindle(NON_SPINDLE, "u", "v") is None
    monkeypatch.setattr(Poset, "_chains", chains)
    assert detect_spindle(TWO_CLASS, "o", "i").chains == \
        (("o", "w", "i"), ("o", "x", "y", "i"))


def test_is_extreme_spindle():
    assert is_extreme_spindle(DIAMOND, detect_spindle(DIAMOND, "o", "i"))
    assert is_extreme_spindle(CHAIN3, detect_spindle(CHAIN3, "0", "2"))
    below = Poset("zoabi", [("z", "o"), ("o", "a"), ("o", "b"),
                            ("a", "i"), ("b", "i")])
    sp = detect_spindle(below, "o", "i")
    assert not is_extreme_spindle(below, sp)
    with pytest.raises(NotExtreme):
        spindle_category(below, sp)
    with pytest.raises(NotExtreme):
        spindle_presentation(below, sp)


def test_spindle_category_diamond():
    sp = detect_spindle(DIAMOND, "o", "i")
    cat = spindle_category(DIAMOND, sp)
    za = chain_arrow_name(("o", "a", "i"))
    zb = chain_arrow_name(("o", "b", "i"))
    assert za == "chain:a" and zb == "chain:b"
    assert "[o,i]" not in cat.arrows
    assert set(cat.hom("o", "i")) == {za, zb}
    assert cat.compose("[o,a]", "[a,i]") == za
    assert cat.compose("[o,b]", "[b,i]") == zb
    assert cat.divides("left", "[o,a]", za)
    assert not cat.divides("left", "[o,a]", zb)
    assert cat.gcd_category_report().holds


def test_spindle_category_gcd_formula():
    for poset in [DIAMOND, CHAIN4, TWO_CLASS]:
        assert gcd_criterion(poset).holds
        u, = poset.minimal_elements()
        v, = poset.maximal_elements()
        sp = detect_spindle(poset, u, v)
        cat = spindle_category(poset, sp)
        assert cat.gcd_category_report().holds
        for chain in sp.chains:
            z = chain_arrow_name(chain)
            for x in poset.up_set(u):
                if x == v:
                    continue
                m = poset_max(poset, [e for e in chain if poset.leq(e, x)])
                assert cat.gcd("left", (interval_name(u, x), z)) == \
                    interval_name(u, m)


def test_spindle_category_rejects_chain_name_clash():
    sp = detect_spindle(CHAIN_CLASH, "u", "v")
    assert [chain_arrow_name(c) for c in sp.chains] == ["chain:a,b"] * 2
    with pytest.raises(InvalidStructure,
                       match="^chain arrow name clash at chain:a,b$"):
        spindle_category(CHAIN_CLASH, sp)


def test_builders_refuse_forged_spindles():
    diamond = Poset("01ab", [("0", "a"), ("0", "b"), ("a", "1"),
                             ("b", "1")])
    sp = detect_spindle(diamond, "0", "1")
    chains = sp.chains
    non_spindle = Spindle("u", "v", NON_SPINDLE.maximal_chains_in("u", "v"))
    forged = [
        (diamond, Spindle("0", "1", chains + (("0", "1"),))),  # extra chain
        (diamond, Spindle("0", "1", chains[:1])),  # a chain missing
        (NON_SPINDLE, non_spindle),  # (u, v) is not a spindle
        (diamond, ("0", "1")),  # not a triple
        (diamond, None),
        (diamond, Spindle("0", "1", [5])),  # a chain that is not a sequence
    ]
    for poset, spindle in forged:
        for build in (spindle_category, spindle_presentation):
            with pytest.raises(CatmonError):
                build(poset, spindle)
    with pytest.raises(InvalidStructure, match="is not the spindle at"):
        spindle_category(diamond, Spindle("0", "1", chains + (("0", "1"),)))
    # chains given as lists that equal the real ones are the spindle
    as_lists = ("0", "1", [list(c) for c in chains])
    assert spindle_category(diamond, as_lists).comp == \
        spindle_category(diamond, sp).comp
    pres = spindle_presentation(diamond, as_lists)
    assert (pres.generators, pres.relations) == \
        reference_spindle_presentation(diamond, sp)


def extreme_spindles(poset):
    for u in poset.minimal_elements():
        for v in poset.maximal_elements():
            if poset.lt(u, v) and poset.open_interval(u, v):
                sp = detect_spindle(poset, u, v)
                if sp is not None:
                    yield sp


def test_spindle_categories_of_gcd_posets_are_gcd_categories():
    checked = 0
    for p in posets_up_to(5, natural_posets):
        for sp in extreme_spindles(p):
            cat = spindle_category(p, sp)
            if gcd_criterion(p).holds:
                assert cat.gcd_category_report().holds
                checked += 1
    assert checked > 100


def test_spindle_builders_match_references():
    fixtures = [DIAMOND, CHAIN3, CHAIN4, TWO_CLASS]
    checked = 0
    for poset in fixtures + list(posets_up_to(5, natural_posets)):
        for sp in extreme_spindles(poset):
            cat = spindle_category(poset, sp)
            arrows, identity, comp = reference_spindle_category(poset, sp)
            assert cat._endpoints == arrows
            assert cat.identity == identity
            assert cat.comp == comp
            # the tables the trusted build matches are a valid category
            FiniteCategory(poset.elements, arrows, identity, comp)
            pres = spindle_presentation(poset, sp)
            assert (pres.generators, pres.relations) == \
                reference_spindle_presentation(poset, sp)
            checked += 1
    assert checked > 100


def test_spindle_presentation_diamond():
    sp = detect_spindle(DIAMOND, "o", "i")
    pres = spindle_presentation(DIAMOND, sp)
    assert set(pres.generators) == {"[o,a]", "[o,b]", "[a,i]", "[b,i]"}
    assert pres.relations == ()


def test_spindle_presentation_chain4():
    sp = detect_spindle(CHAIN4, "o", "i")
    pres = spindle_presentation(CHAIN4, sp)
    assert set(pres.generators) == {"[o,p]", "[o,q]", "[p,q]", "[p,i]",
                                    "[q,i]"}
    assert set(pres.relations) == {
        (("[o,q]",), ("[o,p]", "[p,q]")),
        (("[p,i]",), ("[p,q]", "[q,i]")),
    }


def test_presentation_relations_hold_in_spindle_monoid():
    for poset in [DIAMOND, CHAIN4, TWO_CLASS]:
        u, = poset.minimal_elements()
        v, = poset.maximal_elements()
        sp = detect_spindle(poset, u, v)
        cat = spindle_category(poset, sp)
        pres = spindle_presentation(poset, sp)
        for lhs, rhs in pres.relations:
            assert reduce_sequence(cat, list(lhs))[0] == \
                reduce_sequence(cat, list(rhs))[0]
    assert len(spindle_presentation(
        CHAIN4, detect_spindle(CHAIN4, "o", "i")).relations) == 2


def test_spindle_is_a_record_and_a_key():
    chains = (("o", "a", "i"), ("o", "b", "i"))
    spindle = assert_record(Spindle, u="o", v="i", chains=chains)
    assert detect_spindle(DIAMOND, "o", "i") == spindle
    assert {spindle: "diamond"}[Spindle("o", "i", chains)] == "diamond"
