import random
from pathlib import Path

import pytest

import catmon.homotopy
import helpers
from catmon import (
    CrossCheckReport,
    Disconnected,
    FloatingDecomposition,
    InvalidStructure,
    GroupPresentation,
    Poset,
    SizeLimitExceeded,
    SimplicialComplex,
    SpanningTree,
    barycentric,
    chain_complex,
    cross_check,
    edge_name,
    floating_decomposition,
    floating_presentation,
    spanning_tree,
    tietze_collapse,
)
from catmon import limits
from catmon.formats import load_complex

from helpers import (assert_record, brute_bfs_tree, brute_connected,
                     labeled_complexes, labeled_posets, layered_poset,
                     posets_up_to, random_complex, random_poset,
                     reference_tietze_collapse)

SQUARE = SimplicialComplex([("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")])
TRIANGLE = SimplicialComplex([("x", "y", "z")])
DIAMOND = Poset("oabi", [("o", "a"), ("o", "b"), ("a", "i"), ("b", "i")])
P7 = Poset("pqrstuv", [("p", "q"), ("q", "r"), ("r", "s"),
                       ("p", "t"), ("t", "u"), ("p", "v")])
RP2 = load_complex((Path(__file__).resolve().parent.parent / "data"
                    / "rp2.complex").read_text(encoding="utf-8"))


def _torus():
    """The 9-vertex torus: a 3 x 3 grid of squares, opposite sides glued,
    each square cut along one diagonal into two triangles."""
    def v(i, j):
        return "abcdefghi"[3 * (i % 3) + j % 3]
    return SimplicialComplex(
        [t for i in range(3) for j in range(3)
         for t in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                   (v(i, j), v(i, j + 1), v(i + 1, j + 1)))])


TORUS = _torus()


def subdivide(k):
    """sd K: the chain complex of K's face poset."""
    return chain_complex(barycentric(k))


def test_edge_name_sorts_endpoints():
    assert edge_name("a", "b") == "[a,b]"
    assert edge_name("b", "a") == "[a,b]"
    assert edge_name("10", "2") == "[10,2]"


# a connected path whose edges a,b-c and a-b,c are both named [a,b,c]
COMMA_PATH = [("a,b", "c"), ("a", "b,c"), ("c", "b,c")]


def test_edge_name_clash_is_refused():
    with pytest.raises(InvalidStructure,
                       match=r"^edges \('a', 'b,c'\) and \('a,b', 'c'\) "
                             r"would both be named '\[a,b,c\]'$"):
        floating_decomposition(SimplicialComplex(COMMA_PATH))


def test_edge_name_clash_exits_2(tmp_path, capsys):
    from catmon.cli import main

    f = tmp_path / "comma.complex"
    f.write_text("complex\n" + "".join(f"simplex {x} {y}\n"
                                       for x, y in COMMA_PATH))
    assert main(["homotopy", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: InvalidStructure: edges ('a', 'b,c') and ('a,b', 'c') "
        "would both be named '[a,b,c]'"), captured.err


def test_tietze_collapse_refuses_malformed_tree_edges():
    pres = floating_presentation(TRIANGLE)
    for edges in ((("x",),), (("x", "y", "z"),), ((1, "x"),), None):
        with pytest.raises(InvalidStructure):
            tietze_collapse(pres, SpanningTree("x", edges))


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


def _with_bottom(p):
    """p with a new least element below its minimal elements."""
    return Poset(p.elements + ("bottom",),
                 p.covers + tuple(("bottom", m)
                                  for m in p.minimal_elements()))


def _floating_cases():
    """Connected complexes whose floating presentations the collapse oracle
    runs on: chain complexes of graded (layered) and bounded-below posets,
    sd K of random complexes, and the surfaces whose π1 keeps a relator."""
    rng = random.Random(71)
    out = [TORUS, subdivide(TORUS), RP2, subdivide(RP2)]
    for _ in range(200):
        widths = [rng.randint(1, 4) for _ in range(rng.randint(2, 5))]
        out.append(chain_complex(layered_poset(rng, widths,
                                               rng.choice((0.3, 0.5, 0.7)))))
    for _ in range(100):
        out.append(chain_complex(_with_bottom(random_poset(rng, max_n=8))))
    for _ in range(100):
        widths = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        out.append(chain_complex(_with_bottom(layered_poset(rng, widths))))
    for _ in range(250):
        out.append(subdivide(random_complex(rng, max_vertices=7)))
    return [k for k in out if k.is_connected()]


def test_indexed_collapse_matches_the_rescanning_loop(monkeypatch):
    """The indexed collapse gives the presentation the loop that rescans
    every relator each round gives, and prices the same relator letters
    round by round; so with the limit lowered to one below the peak, both
    refuse at that count."""
    priced = {"indexed": [], "rescan": []}

    def pricer(which):
        def price(count, what, limit=None):
            priced[which].append(count)
            return limits.require(count, what, limit)
        return price

    monkeypatch.setattr(catmon.homotopy, "require", pricer("indexed"))
    monkeypatch.setattr(helpers, "require", pricer("rescan"))
    cases = [(floating_presentation(k), spanning_tree(k))
             for k in _floating_cases()]
    floating = len(cases)
    # Random relators, where substitution lengthens words, with no tree.
    rng = random.Random(72)
    for _ in range(300):
        relators = [[(rng.choice("abcde"), rng.choice((1, -1)))
                     for _ in range(rng.randint(1, 7))]
                    for _ in range(rng.randint(1, 5))]
        cases.append((GroupPresentation("abcde", relators),
                      SpanningTree("a", ())))
    kept, peaks, grown = 0, [], []
    for pres, tree in cases:
        priced["indexed"].clear()
        priced["rescan"].clear()
        pi1 = tietze_collapse(pres, tree)
        assert pi1 == reference_tietze_collapse(pres, tree), pres.relators
        assert priced["indexed"] == priced["rescan"], pres.relators
        kept += bool(pi1.relators)
        peaks.append((pres, tree, max(priced["indexed"])))
        if peaks[-1][2] > priced["indexed"][0]:
            grown.append(peaks[-1])
    assert floating >= 500 and kept >= 100, (floating, kept)
    assert len(grown) >= 30, len(grown)
    # The surfaces first in the list refuse at their first count.
    for pres, tree, peak in peaks[:4] + grown:
        monkeypatch.setattr(limits, "MAX_COUNT", peak - 1)
        refusal = f"^{peak} relator letters, over the limit of {peak - 1}$"
        with pytest.raises(SizeLimitExceeded, match=refusal):
            tietze_collapse(pres, tree)
        with pytest.raises(SizeLimitExceeded, match=refusal):
            reference_tietze_collapse(pres, tree)


def test_torus_subdivisions_give_one_commutator():
    """π1 of the torus is Z², presented by two generators and their
    commutator, however finely the torus is subdivided."""
    k = TORUS
    for _ in range(2):
        k = subdivide(k)
        pi1 = floating_decomposition(k).pi1
        assert len(pi1.generators) == 2 and len(pi1.relators) == 1
        (x, s), (y, t), *rest = pi1.relators[0]
        assert x != y and rest == [(x, -s), (y, -t)]
        assert pi1.abelianization_rank() == 2
    assert len(k.vertices) == 324


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
