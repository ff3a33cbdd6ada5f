import random

import pytest

from catmon import (
    CrossCheckReport,
    Disconnected,
    FloatingDecomposition,
    InvalidStructure,
    Poset,
    SizeLimitExceeded,
    SimplicialComplex,
    SpanningTree,
    chain_complex,
    cross_check,
    edge_name,
    floating_decomposition,
    floating_presentation,
    spanning_tree,
    tietze_collapse,
)

from helpers import (assert_record, brute_bfs_tree, brute_connected,
                     labeled_complexes, labeled_posets, posets_up_to,
                     random_complex)

SQUARE = SimplicialComplex([("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")])
TRIANGLE = SimplicialComplex([("x", "y", "z")])
DIAMOND = Poset("oabi", [("o", "a"), ("o", "b"), ("a", "i"), ("b", "i")])
P7 = Poset("pqrstuv", [("p", "q"), ("q", "r"), ("r", "s"),
                       ("p", "t"), ("t", "u"), ("p", "v")])


def test_edge_name_sorts_endpoints():
    assert edge_name("a", "b") == "[a,b]"
    assert edge_name("b", "a") == "[a,b]"
    assert edge_name("10", "2") == "[10,2]"


def test_floating_presentation_square_is_free_rank_4():
    pres = floating_presentation(SQUARE)
    assert pres.generators == ("[1,2]", "[1,4]", "[2,3]", "[3,4]")
    assert pres.relators == ()
    assert pres.free_rank() == 4


def test_floating_presentation_triangle():
    pres = floating_presentation(TRIANGLE)
    assert pres.generators == ("[x,y]", "[x,z]", "[y,z]")
    assert pres.relators == (
        (("[x,z]", -1), ("[x,y]", 1), ("[y,z]", 1)),)
    assert pres.free_rank() is None
    assert pres.abelianization_rank() == 2


def test_one_dimensional_complexes_are_free():
    for k in labeled_complexes(4):
        if k.dimension() <= 1:
            pres = floating_presentation(k)
            assert pres.relators == ()
            assert pres.free_rank() == len(k.edges())


def test_spanning_tree_square():
    tree = spanning_tree(SQUARE)
    assert tree.root == "1"
    assert tree.edges == (("1", "2"), ("1", "4"), ("2", "3"))


def test_spanning_tree_small_cases():
    assert spanning_tree(SimplicialComplex([("v",)])).edges == ()
    path = SimplicialComplex([("a", "b"), ("b", "c")])
    assert spanning_tree(path).edges == (("a", "b"), ("b", "c"))
    with pytest.raises(Disconnected):
        spanning_tree(SimplicialComplex([("a", "b"), ("c", "d")]))


def test_tietze_collapse_square_gives_z():
    pi1 = tietze_collapse(floating_presentation(SQUARE),
                          spanning_tree(SQUARE))
    assert pi1.generators == ("[3,4]",)
    assert pi1.relators == ()
    assert pi1.free_rank() == 1


def test_tietze_collapse_triangle_is_trivial():
    pi1 = tietze_collapse(floating_presentation(TRIANGLE),
                          spanning_tree(TRIANGLE))
    assert pi1.generators == ()
    assert pi1.relators == ()
    assert pi1.free_rank() == 0


def test_tietze_collapse_rejects_foreign_tree_edges():
    with pytest.raises(InvalidStructure):
        tietze_collapse(floating_presentation(SQUARE),
                        SpanningTree("1", (("1", "9"),)))


def test_one_search_matches_the_oracles_on_random_complexes():
    rng = random.Random(11)
    seen = set()
    for _ in range(400):
        k = random_complex(rng)
        tree = brute_bfs_tree(k)
        connected = k.is_connected()
        assert connected == brute_connected(k) == (tree is not None)
        seen.add((len(k.vertices) == 1, connected))
        if connected:
            assert spanning_tree(k) == SpanningTree(k.vertices[0], tree)
        else:
            with pytest.raises(Disconnected,
                               match="^complex is not connected$"):
                spanning_tree(k)
    assert seen == {(True, True), (False, True), (False, False)}


def test_floating_decomposition_square():
    dec = floating_decomposition(SQUARE)
    assert dec.tree_edge_count == 3
    assert dec.pi1.free_rank() == 1
    assert dec.total_free_rank == 4


def test_collapse_preserves_abelianization_bookkeeping():
    for k in labeled_complexes(4):
        if not k.is_connected():
            continue
        pres = floating_presentation(k)
        tree = spanning_tree(k)
        pi1 = tietze_collapse(pres, tree)
        assert pres.abelianization_rank() == \
            len(tree.edges) + pi1.abelianization_rank()


def test_bounded_below_posets_give_free_groups():
    for n in range(1, 5):
        for p in labeled_posets(n):
            least = [m for m in p.elements
                     if all(p.leq(m, x) for x in p.elements)]
            if not least:
                continue
            dec = floating_decomposition(chain_complex(p))
            assert dec.pi1.generators == ()
            assert dec.pi1.relators == ()
            assert dec.total_free_rank == n - 1
    dec = floating_decomposition(chain_complex(P7))
    assert dec.tree_edge_count == 6
    assert dec.pi1.free_rank() == 0
    assert dec.total_free_rank == 6


def test_chain_complex_examples():
    k = chain_complex(DIAMOND)
    assert k.facets == (("a", "i", "o"), ("b", "i", "o"))
    chain = chain_complex(Poset("012", [("0", "1"), ("1", "2")]))
    assert chain.facets == (("0", "1", "2"),)
    anti = chain_complex(Poset("ab", []))
    assert anti.facets == (("a",), ("b",))
    assert not anti.is_connected()


def test_cross_check_routes_agree():
    report = cross_check(DIAMOND)
    assert report.hg_free_rank == 3
    assert report.abelianization_rank == 3
    assert report.agree is True
    report = cross_check(Poset("012", [("0", "1"), ("1", "2")]))
    assert report.hg_free_rank == 2 and report.agree is True
    report = cross_check(P7)
    assert report.hg_free_rank == 6
    assert report.abelianization_rank == 6
    assert report.agree is True
    with pytest.raises(Disconnected):
        cross_check(Poset("ab", []))


def test_cross_check_prices_cat_of_p_before_the_homotopy_route(monkeypatch):
    from catmon import homotopy

    def unpriced(*args):
        raise AssertionError("the homotopy route ran before Cat(P) was priced")

    monkeypatch.setattr(homotopy, "floating_decomposition", unpriced)
    monkeypatch.setenv("CATMON_MAX_ARROWS", "8")  # Cat(diamond) has 9
    with pytest.raises(SizeLimitExceeded, match="^9 arrows"):
        cross_check(DIAMOND)


def test_homotopy_records_keep_their_contract():
    tree = assert_record(SpanningTree, root="1", edges=(("1", "2"),))
    dec = assert_record(FloatingDecomposition, tree=tree, tree_edge_count=1,
                        pi1=floating_presentation(TRIANGLE),
                        total_free_rank=None)
    assert_record(CrossCheckReport, decomposition=dec, hg_free_rank=None,
                  abelianization_rank=2, agree=None)
    report = cross_check(DIAMOND)
    assert report.decomposition == floating_decomposition(
        chain_complex(DIAMOND))
    assert report.agree
