import itertools
import random

import pytest

from catmon import CyclicCovers, InvalidStructure, Poset, RedundantCover

from helpers import (labeled_posets, natural_posets, poset_classes,
                     posets_up_to, random_poset)

DIAMOND = Poset("oabi", [("o", "a"), ("o", "b"), ("a", "i"), ("b", "i")])


def test_order_queries_on_diamond():
    p = DIAMOND
    assert p.leq("o", "i") and p.lt("o", "i")
    assert p.leq("a", "a") and not p.lt("a", "a")
    assert not p.comparable("a", "b")
    assert p.up_set("o") == ("a", "b", "i", "o")
    assert p.down_set("i") == ("a", "b", "i", "o")
    assert p.open_interval("o", "i") == ("a", "b")
    assert p.minimal_elements() == ("o",)
    assert p.maximal_elements() == ("i",)
    assert p.least_element() == "o"
    with pytest.raises(InvalidStructure, match="unknown poset element"):
        p.up_set("ghost")


def test_from_order_recovers_covers():
    le = [(x, y) for x in "oabi" for y in "oabi" if DIAMOND.leq(x, y)]
    rebuilt = Poset.from_order("oabi", le)
    assert rebuilt == DIAMOND
    assert sorted(rebuilt.covers) == sorted(DIAMOND.covers)


def test_equal_posets_hash_equal():
    listed_backwards = Poset("iboa", [("b", "i"), ("a", "i"), ("o", "b"),
                                      ("o", "a")])
    assert listed_backwards == DIAMOND
    assert hash(listed_backwards) == hash(DIAMOND)
    assert len({DIAMOND, listed_backwards}) == 1
    assert Poset("oabi", [("o", "a"), ("o", "b")]) != DIAMOND


def test_from_order_matches_the_hasse_diagram_on_random_posets():
    rng = random.Random(17)
    for _ in range(150):
        p = random_poset(rng, max_n=8)
        le = [(x, y) for x in p.elements for y in p.elements if p.leq(x, y)]
        rng.shuffle(le)
        # a cover: x < y with nothing strictly between, read off the pairs
        lt = {(x, y) for x, y in le if x != y}
        covers = sorted((x, y) for x, y in lt if not any(
            (x, z) in lt and (z, y) in lt for z in p.elements))
        rebuilt = Poset.from_order(p.elements, le)
        assert list(rebuilt.covers) == covers
        checked = Poset(p.elements, covers)
        assert rebuilt == checked
        assert (rebuilt._up, rebuilt._dn) == (checked._up, checked._dn)
        # covers plus some implied pairs: only a closure recovers the rest
        some = rng.sample(sorted(lt), len(lt) // 2)
        assert Poset.from_order(p.elements, covers + some) == rebuilt


def test_redundant_cover_rejected():
    with pytest.raises(RedundantCover):
        Poset("oai", [("o", "a"), ("a", "i"), ("o", "i")])


def test_self_covers_and_unknown_pairs_rejected():
    with pytest.raises(InvalidStructure, match=r"^self-cover \(a,a\)$"):
        Poset("ab", [("a", "a")])
    with pytest.raises(InvalidStructure,
                       match=r"^pair \(a,z\) uses unknown element$"):
        Poset.from_order("ab", [("a", "z")])


def test_cyclic_covers_rejected():
    with pytest.raises(CyclicCovers,
                       match="^cover relation contains a cycle$"):
        Poset("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(CyclicCovers, match="^order pairs contain a cycle$"):
        Poset.from_order("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(CyclicCovers, match="^order pairs contain a cycle$"):
        Poset.from_order("abc", [("a", "a"), ("a", "b"), ("b", "a")])


def test_linear_extension_is_lex_least():
    for p in posets_up_to(4, labeled_posets):
        ext = p.linear_extension()
        assert sorted(ext) == sorted(p.elements)
        valid = [perm for perm in itertools.permutations(p.elements)
                 if all(perm.index(x) < perm.index(y)
                        for x in p.elements for y in p.elements
                        if p.lt(x, y))]
        assert list(ext) == list(min(valid))


def test_maximal_chains_match_brute_force():
    for p in posets_up_to(4, labeled_posets):
        chains = []
        for r in range(1, len(p.elements) + 1):
            for sub in itertools.combinations(p.elements, r):
                if all(p.comparable(x, y)
                       for x, y in itertools.combinations(sub, 2)):
                    chains.append(tuple(sorted(
                        sub, key=lambda e: len(p.down_set(e)))))
        maximal = [c for c in chains
                   if not any(set(c) < set(d) for d in chains)]
        assert sorted(p.maximal_chains()) == sorted(maximal)
        assert list(p.maximal_chains()) == sorted(p.maximal_chains())


def test_maximal_chains_in_interval():
    p = DIAMOND
    assert p.maximal_chains_in("o", "i") == (("o", "a", "i"), ("o", "b", "i"))
    assert p.maximal_chains_in("o", "a") == (("o", "a"),)


def test_maximal_chains_of_a_long_chain():
    names = [f"x{i:04d}" for i in range(1100)]
    p = Poset(names, list(zip(names, names[1:])))
    assert p.maximal_chains() == (tuple(names),)
    assert p.maximal_chains_in(names[5], names[-5]) == (tuple(names[5:-4]),)


def test_meet_join_within_match_brute_force():
    for p in posets_up_to(4, labeled_posets):
        for a in p.elements:
            up = p.up_set(a)
            for y1, y2 in itertools.combinations_with_replacement(up, 2):
                lower = [z for z in up if p.leq(z, y1) and p.leq(z, y2)]
                best = [z for z in lower
                        if all(p.leq(w, z) for w in lower)]
                expect = best[0] if best else None
                assert p.meet_within(y1, y2, a) == expect
        for a in p.elements:
            down = p.down_set(a)
            for y1, y2 in itertools.combinations_with_replacement(down, 2):
                upper = [z for z in down if p.leq(y1, z) and p.leq(y2, z)]
                best = [z for z in upper
                        if all(p.leq(z, w) for w in upper)]
                expect = best[0] if best else None
                assert p.join_within(y1, y2, a) == expect


def test_enumerator_counts():
    assert [len(labeled_posets(n)) for n in range(1, 6)] == \
        [1, 3, 19, 219, 4231]
    assert [len(natural_posets(n)) for n in range(1, 6)] == \
        [1, 2, 7, 40, 357]
    assert [len(poset_classes(n)) for n in range(1, 6)] == \
        [1, 2, 5, 16, 63]
