import random
from collections import Counter
from itertools import combinations

import pytest

import catmon.category
import catmon.interval
import catmon.poset
from catmon import (
    CategoryMismatch,
    FiniteCategory,
    FreeGroupWord,
    GcdCriterionReport,
    GroupSpec,
    IntervalFunctor,
    InvalidStructure,
    IsotoneMap,
    NotIsotone,
    Poset,
    SimplicialComplex,
    barycentric,
    cat_of_poset,
    elements_up_to,
    embed_free_group,
    embed_free_monoid,
    gcd_criterion,
    generator,
    group_multiply,
    interval_name,
    multiply,
    reduce_sequence,
    unit,
)

from helpers import (assert_record, cyclic_category, idempotent_category,
                     labeled_posets, layered_poset, nilpotent_category,
                     pair_groupoid, poset_classes, posets_up_to,
                     random_category, random_complex, random_element,
                     random_poset, reference_gcd_criterion,
                     reference_interval_category,
                     reference_pair_without_greatest)

DIAMOND = Poset("oabi", [("o", "a"), ("o", "b"), ("a", "i"), ("b", "i")])
NONLATTICE = Poset("opqrs", [("o", "p"), ("o", "q"), ("p", "r"), ("p", "s"),
                             ("q", "r"), ("q", "s")])
VEE = Poset("opq", [("o", "p"), ("o", "q")])
CHAIN3 = Poset("omi", [("o", "m"), ("m", "i")])
CHAIN32 = Poset([f"c{i:02d}" for i in range(32)],
                [(f"c{i:02d}", f"c{i + 1:02d}") for i in range(31)])


def test_cat_of_poset_structure():
    cat = cat_of_poset(DIAMOND)
    assert cat.size == 9
    assert cat.identity_of("o") == "[o,o]"
    assert cat.src("[o,i]") == "o" and cat.tgt("[o,i]") == "i"
    assert cat.compose("[o,a]", "[a,i]") == "[o,i]"
    for x in DIAMOND.elements:  # thin: at most one arrow per hom-set
        for y in DIAMOND.elements:
            assert len(cat.hom(x, y)) == (1 if DIAMOND.leq(x, y) else 0)


def test_interval_name_and_endpoint_recovery():
    assert interval_name("o", "a") == "[o,a]"
    cat = cat_of_poset(DIAMOND)
    for f in cat.arrows:
        assert f == interval_name(cat.src(f), cat.tgt(f))


def test_cat_of_poset_matches_a_reference_built_from_leq():
    rng = random.Random(21)
    for _ in range(300):
        q = random_poset(rng, max_n=7)
        # relabel, so that index order and the order disagree
        new = dict(zip(q.elements, rng.sample(q.elements, len(q.elements))))
        p = Poset(q.elements, [(new[x], new[y]) for x, y in q.covers])
        cat = cat_of_poset(p)
        arrows, identity, comp = reference_interval_category(p)
        assert cat._endpoints == arrows
        assert cat.identity == identity
        assert cat.comp == comp


def test_interval_name_clash_is_rejected():
    # [a,b,c] names both the interval from a to b,c and from a,b to c
    p = Poset(["a", "b,c", "a,b", "c"], [("a", "b,c"), ("a,b", "c")])
    with pytest.raises(InvalidStructure, match=r"interval name clash at "
                       r"\[a,b,c\]"):
        cat_of_poset(p)


def test_gcd_criterion_on_examples():
    assert gcd_criterion(DIAMOND).holds
    assert gcd_criterion(VEE).holds
    assert gcd_criterion(CHAIN3).holds
    report = gcd_criterion(NONLATTICE)
    assert not report.left_ok and report.right_ok and not report.holds
    a, y1, y2 = report.witnesses["left"]
    assert a == "o" and {y1, y2} == {"r", "s"}
    assert NONLATTICE.meet_within(y1, y2, lo=a) is None


def test_criterion_agrees_with_category_report():
    for p in posets_up_to(4, labeled_posets):
        assert gcd_criterion(p).holds == \
            cat_of_poset(p).gcd_category_report().holds
    for p in poset_classes(5):
        assert gcd_criterion(p).holds == \
            cat_of_poset(p).gcd_category_report().holds


def spindle_posets():
    """u < chains < v for a few chain shapes, with and without a cover
    that crosses two chains."""
    out = []
    for lengths in ((1, 2), (2, 1, 3), (2, 2, 2), (3, 3, 3, 3)):
        chains = [[f"m{j}{t}" for t in range(k)]
                  for j, k in enumerate(lengths)]
        covers = []
        for ch in chains:
            covers += [("u", ch[0])] + list(zip(ch, ch[1:])) + [(ch[-1], "v")]
        elements = ["u", "v"] + [m for ch in chains for m in ch]
        out.append(Poset(elements, covers))
        if lengths[0] > 1 and lengths[-1] > 1:
            out.append(Poset(elements, covers + [(chains[-1][0],
                                                  chains[0][-1])]))
    return out


def test_gcd_criterion_matches_a_pairwise_meet_search():
    posets = list(posets_up_to(5, labeled_posets))
    rng = random.Random(61)
    posets += [random_poset(rng, max_n=8) for _ in range(300)]
    posets += spindle_posets() + [CHAIN32]
    posets += [barycentric(SimplicialComplex([tuple("abcdef"[:n])]))
               for n in (3, 4, 5, 6)]
    rng = random.Random(62)
    posets += [barycentric(random_complex(rng, max_vertices=7))
               for _ in range(30)]
    sides = set()
    for p in posets:
        report = gcd_criterion(p)
        assert report == reference_gcd_criterion(p)
        sides.add((report.left_ok, report.right_ok))
    assert sides == {(True, True), (True, False), (False, True),
                     (False, False)}


def test_comparable_pairs_skip_the_greatest_member_search(monkeypatch):
    """No pair scan calls ``_greatest``.  In ``gcd_criterion`` a row runs
    iff y has an incomparable element after it in the up-set (down-set),
    so on a chain every row is skipped.  A poset makes its criterion scan
    once, so each poset here is built afresh and has not scanned yet."""
    chain32, nonlattice, diamond = (Poset(p.elements, p.covers)
                                    for p in (CHAIN32, NONLATTICE, DIAMOND))
    calls = []
    scans = []

    def counted(mask, below):
        calls.append(mask)
        return greatest(mask, below)

    def recorded(items, mask, below, later):
        scans.append([(y, items[k + 1:], bool(later[y] & mask))
                      for k, y in enumerate(items)])
        return kernel(items, mask, below, later)

    greatest = catmon.poset._greatest
    kernel = catmon.poset._pair_without_greatest
    for module in (catmon.poset, catmon.category, catmon.interval):
        if hasattr(module, "_greatest"):
            monkeypatch.setattr(module, "_greatest", counted)
        if hasattr(module, "_pair_without_greatest"):
            monkeypatch.setattr(module, "_pair_without_greatest", recorded)
    assert cat_of_poset(chain32).gcd_category_report().holds
    assert gcd_criterion(chain32).holds
    assert scans and not any(runs for rows in scans for *_, runs in rows)
    assert not gcd_criterion(nonlattice).holds
    assert not cat_of_poset(nonlattice).gcd_category_report().holds
    assert not FiniteCategory(
        nonlattice.elements,
        *reference_interval_category(nonlattice)).gcd_category_report().holds
    assert calls == []
    assert diamond.meet_within("a", "b") == "o"
    assert calls  # the counter does count
    nonlattice, diamond = (Poset(p.elements, p.covers)
                           for p in (NONLATTICE, DIAMOND))
    for p in (nonlattice, diamond, *spindle_posets()):
        scans.clear()
        gcd_criterion(p)
        els = p.elements
        assert any(runs for rows in scans for *_, runs in rows), p
        for rows in scans:
            for y, after, runs in rows:
                assert runs == any(not p.comparable(els[y], els[z])
                                   for z in after), p


def _criterion_posets():
    """Seeded posets on which the criterion holds, fails on the left only,
    fails on the right only, and fails on both sides."""
    rng = random.Random(64)
    posets = [Poset(p.elements, p.covers)
              for p in (DIAMOND, NONLATTICE, CHAIN32)]
    posets += [layered_poset(rng, [rng.randint(1, 4) for _ in range(4)])
               for _ in range(60)]
    posets += [_planted(rng) for _ in range(20)]
    return posets


def test_a_poset_scans_its_gcd_criterion_once(monkeypatch):
    """``gcd_criterion`` and Cat(P)'s gcd report read the poset's one
    scan.  After ``gcd_criterion(p)``, the report makes no pair scan when
    the criterion holds; when it fails, its only scans are one per failing
    side, over the failing object's fibre in interval-name order, to name
    the witness by arrow name."""
    scans = []
    kernel = catmon.poset._pair_without_greatest

    def recorded(items, mask, below, later):
        scans.append(tuple(items))
        return kernel(items, mask, below, later)

    monkeypatch.setattr(catmon.poset, "_pair_without_greatest", recorded)
    sides = Counter()
    for p in _criterion_posets():
        els = p.elements
        report = gcd_criterion(p)
        assert scans or report.holds
        scans.clear()
        assert gcd_criterion(p) == report and not scans
        gcd = cat_of_poset(p).gcd_category_report()
        assert gcd.holds == report.holds
        fibres = []
        for side, (a, _, _) in report.witnesses.items():
            if side == "left":
                fibre = {interval_name(a, y): y for y in p.up_set(a)}
            else:
                fibre = {interval_name(y, a): y for y in p.down_set(a)}
            fibres.append(tuple(p.index(fibre[f]) for f in sorted(fibre)))
        assert scans == fibres, p
        sides[tuple(report.witnesses)] += 1
        scans.clear()
        assert cat_of_poset(p).gcd_category_report() == gcd
        assert scans == fibres, p
    assert set(sides) == {(), ("left",), ("right",), ("left", "right")}, \
        sides


def test_cat_of_poset_indexes_nothing_for_its_size_and_report():
    """The arrow count and the gcd report of Cat(P) read neither the arrow
    index, the fibres nor the table; each is worked out on its first
    read."""
    for p in _criterion_posets():
        cat = cat_of_poset(p)
        assert len(cat.arrows) == sum(len(p.up_set(x)) for x in p.elements)
        cat.gcd_category_report()
        lazy = ("_index", "_by_src", "_by_tgt", "comp")
        assert not set(lazy) & set(vars(cat)), p
        x = p.elements[0]
        assert cat.arrows_from(x) == tuple(sorted(interval_name(x, y)
                                                  for y in p.up_set(x)))
        assert cat.divides("left", cat.identity_of(x), cat.arrows_from(x)[-1])
        assert set(lazy) <= set(vars(cat))


def test_gcd_criterion_matches_the_meet_search_where_it_fails():
    """Posets of 6 or 7 elements, and layered posets whose index order is
    no linear extension, fail the criterion often.  On each side the
    witness is the first failure of the all-pairs search: the first failing
    element in index order, with its first pair."""
    rng = random.Random(63)
    posets = [random_poset(rng, max_n=7, min_n=6) for _ in range(3000)]
    for _ in range(400):
        widths = [rng.randint(1, 4) for _ in range(rng.randint(2, 5))]
        posets.append(layered_poset(rng, widths,
                                    rng.choice((0.3, 0.5, 0.7))))
    failed = Counter()
    for p in posets:
        report = gcd_criterion(p)
        assert report == reference_gcd_criterion(p), p
        failed.update(report.witnesses.keys())
    assert failed["left"] >= 100 and failed["right"] >= 100, failed


def _planted(rng):
    """A layered poset with a bowtie (two elements both below two others,
    with no element between) planted above a new least element or below a
    new greatest one, so that the left or the right criterion fails."""
    p = layered_poset(rng, [rng.randint(1, 3) for _ in range(3)])
    low, high = ("b0", "b1"), ("b2", "b3")
    elements = p.elements + low + high
    covers = list(p.covers) + [(x, y) for x in low for y in high]
    if rng.random() < 0.5:
        return Poset(elements + ("bottom",), covers + [
            ("bottom", x) for x in low + p.minimal_elements()])
    return Poset(elements + ("top",), covers + [
        (y, "top") for y in high + p.maximal_elements()])


def test_pair_kernel_matches_the_greatest_member_search():
    """``_pair_without_greatest`` finds the pair that the old pair loop,
    one ``_greatest`` search per distinct common mask, finds first: on the
    up- and down-sets of seeded posets in index order (``gcd_criterion``)
    and in interval-name order (Cat(P)'s report), and on the fibres of
    seeded categories, in arrow order and shuffled."""
    kernel = catmon.poset._pair_without_greatest
    rng = random.Random(83)
    posets = [random_poset(rng, max_n=7, min_n=5) for _ in range(600)]
    posets += [_planted(rng) for _ in range(300)]
    failed = Counter()
    checked = 0
    for p in posets:
        els, up, dn = p.elements, p._up, p._dn
        n = len(els)
        full = (1 << n) - 1
        later = [full >> y + 1 << y + 1 & ~(up[y] | dn[y]) for y in range(n)]
        apart = [~(u | d) for u, d in zip(up, dn)]
        for side, above, below in (("left", up, dn), ("right", dn, up)):
            for a in range(n):
                mask = above[a]
                ys = [y for y in range(n) if mask >> y & 1]
                div = {y: below[y] & mask for y in ys}
                named = sorted(ys, key=lambda y: interval_name(
                    *((els[a], els[y]) if side == "left" else
                      (els[y], els[a]))))
                for items, lat in ((ys, later), (named, apart)):
                    want = reference_pair_without_greatest(
                        combinations(items, 2), div, below)
                    assert kernel(items, mask, below, lat) == want, p
                    failed[("poset", side)] += want is not None
                    checked += 1
    cats = [random_category(rng) for _ in range(300)]
    cats += [cyclic_category(k) for k in (2, 3, 4, 5)]
    cats += [pair_groupoid(k) for k in (2, 3, 4)]
    cats += [idempotent_category(), nilpotent_category()]
    cats += [FiniteCategory(p.elements, *reference_interval_category(p))
             for p in posets[600:700]]
    for cat in cats:
        idx = cat._index
        for side in ("left", "right"):
            div, _, fibres, _ = cat._side(side)
            apart = [~d for d in div]
            for o in cat.objects:
                fibre = [idx[f] for f in fibres[o]]
                shuffled = rng.sample(fibre, len(fibre))
                for items in (fibre, shuffled):
                    want = reference_pair_without_greatest(
                        combinations(items, 2), div, div)
                    got = kernel(items, sum(1 << i for i in items), div,
                                 apart)
                    assert got == want, cat
                    failed[("category", side)] += want is not None
                    checked += 1
    assert checked >= 20000, checked
    assert min(failed.values()) >= 30 and len(failed) == 4, failed


def test_embed_free_group_is_a_homomorphism():
    for p in poset_classes(4) + [DIAMOND, NONLATTICE]:
        cat = cat_of_poset(p)
        spec = GroupSpec.free(cat.objects)
        assert embed_free_group(unit(cat)) == FreeGroupWord(spec, ())
        for x in p.elements:
            for y in p.up_set(x):
                for z in p.up_set(y):
                    xy = generator(cat, interval_name(x, y))
                    yz = generator(cat, interval_name(y, z))
                    assert embed_free_group(multiply(xy, yz)) == \
                        group_multiply(embed_free_group(xy),
                                       embed_free_group(yz))


def test_embed_free_group_injective_on_short_elements():
    for p in [DIAMOND, NONLATTICE, CHAIN3]:
        cat = cat_of_poset(p)
        pool = elements_up_to(cat, 3)
        images = {embed_free_group(x) for x in pool}
        assert len(images) == len(pool)


def test_embed_free_monoid_steps():
    ext, mapper = embed_free_monoid(DIAMOND)
    assert list(ext) == ["o", "a", "b", "i"]
    cat = cat_of_poset(DIAMOND)
    assert mapper(generator(cat, "[o,a]")) == ("s01",)
    assert mapper(generator(cat, "[o,i]")) == ("s01", "s12", "s23")
    assert mapper(generator(cat, "[a,i]")) == ("s12", "s23")
    assert mapper(unit(cat)) == ()


def test_embed_free_monoid_judges_its_operands():
    _, mapper = embed_free_monoid(DIAMOND)
    for bad in ("a", None, ("[o,a]",)):
        with pytest.raises(InvalidStructure, match="expected an element"):
            mapper(bad)
    # over a category of another poset, or of the reversed order
    xy = cat_of_poset(Poset("xy", [("x", "y")]))
    with pytest.raises(CategoryMismatch, match=r"^entry \[x,y\] runs"):
        mapper(generator(xy, "[x,y]"))
    ab = generator(cat_of_poset(Poset("ab", [("a", "b")])), "[a,b]")
    _, reversed_mapper = embed_free_monoid(Poset("ab", [("b", "a")]))
    with pytest.raises(CategoryMismatch,
                       match=r"^entry \[a,b\] runs from a to b, not up "
                             r"this poset$"):
        reversed_mapper(ab)
    assert embed_free_monoid(Poset("ab", [("a", "b")]))[1](ab) == ("s01",)


def test_isotone_map_refuses_an_element_outside_its_source():
    f = IsotoneMap(CHAIN3, CHAIN3, {e: e for e in CHAIN3.elements})
    assert [f(e) for e in CHAIN3.elements] == list(CHAIN3.elements)
    for bad in ("z", ["0"], None):
        with pytest.raises(InvalidStructure,
                           match=r"^unknown poset element "):
            f(bad)


def test_embed_free_monoid_is_an_injective_homomorphism():
    rng = random.Random(12)
    for p in poset_classes(4) + [DIAMOND, NONLATTICE]:
        cat = cat_of_poset(p)
        _, mapper = embed_free_monoid(p)
        pool = elements_up_to(cat, 3)
        images = {mapper(x) for x in pool}
        assert len(images) == len(pool)
        for _ in range(20):
            x = random_element(cat, rng)
            y = random_element(cat, rng)
            assert mapper(multiply(x, y)) == mapper(x) + mapper(y)


def test_interval_functor_maps_and_reduces():
    chain = Poset("012", [("0", "1"), ("1", "2")])
    func = IntervalFunctor(IsotoneMap(
        DIAMOND, chain, {"o": "0", "a": "1", "b": "1", "i": "2"}))
    cat = func.source_category
    x = reduce_sequence(cat, ["[o,a]", "[b,i]"])[0]
    assert x.arrows == ("[o,a]", "[b,i]")
    # images [0,1], [1,2] are composable in the chain, so they paste
    assert func(x).arrows == ("[0,2]",)
    rng = random.Random(13)
    for _ in range(30):
        x = random_element(cat, rng)
        y = random_element(cat, rng)
        assert func(multiply(x, y)) == multiply(func(x), func(y))


def test_interval_functor_refuses_elements_of_another_category():
    func = IntervalFunctor(IsotoneMap(DIAMOND, DIAMOND,
                                      {e: e for e in DIAMOND.elements}))
    stranger = generator(cat_of_poset(DIAMOND), "[o,a]")
    with pytest.raises(CategoryMismatch, match="source category"):
        func(stranger)


def test_interval_functor_collapse_drops_identities():
    point = Poset("p", [])
    func = IntervalFunctor(IsotoneMap(
        DIAMOND, point, {"o": "p", "a": "p", "b": "p", "i": "p"}))
    x = reduce_sequence(func.source_category, ["[o,i]", "[a,i]"])[0]
    assert func(x).is_unit


def test_interval_maps_read_trusted_elements_without_checks(monkeypatch):
    """``IntervalFunctor.__call__`` and ``embed_free_group`` read the
    endpoints of an element's entries off its category, and the functor
    rewrites the images, arrows of Cat(Q) by construction, unchecked."""
    chain = Poset("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    func = IntervalFunctor(IsotoneMap(
        chain, chain, {"a": "a", "b": "b", "c": "c", "d": "d"}))
    collapse = IntervalFunctor(IsotoneMap(
        chain, VEE, {"a": "o", "b": "o", "c": "p", "d": "p"}))
    entries = ["[a,b]", "[a,c]", "[b,d]", "[a,b]", "[a,d]",
               "[c,d]", "[b,c]", "[a,c]", "[b,d]", "[c,d]"]
    x = reduce_sequence(func.source_category, entries)[0]
    y = reduce_sequence(collapse.source_category, entries)[0]
    assert x.length == y.length == 10
    checks = []
    check = catmon.category.FiniteCategory._check

    def counted(self, arrow):
        checks.append(arrow)
        return check(self, arrow)

    monkeypatch.setattr(catmon.category.FiniteCategory, "_check", counted)
    assert func(x).arrows == x.arrows
    assert collapse(y).arrows == ("[o,p]",) * 6
    word = embed_free_group(x)
    assert checks == []
    assert word == FreeGroupWord(GroupSpec.free(chain.elements),
                                 [(e, k) for f in x.arrows
                                  for e, k in ((f[1], -1), (f[3], 1))])


def test_isotone_map_rejects_bad_maps():
    chain = Poset("012", [("0", "1"), ("1", "2")])
    with pytest.raises(NotIsotone):
        IsotoneMap(DIAMOND, chain,
                   {"o": "2", "a": "1", "b": "1", "i": "0"})
    with pytest.raises(NotIsotone):
        IsotoneMap(DIAMOND, chain, {"o": "0"})
    with pytest.raises(NotIsotone):
        IsotoneMap(DIAMOND, chain,
                   {"o": "0", "a": "1", "b": "zzz", "i": "2"})


def test_gcd_criterion_report_is_a_record():
    report = assert_record(GcdCriterionReport, left_ok=True, right_ok=False,
                           witnesses={"right": ("s", "p", "q")})
    assert not report.holds
    assert GcdCriterionReport(True, True, {}).holds
    assert gcd_criterion(DIAMOND).holds
