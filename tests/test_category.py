import gc
import random
import weakref

import pytest

import catmon.category
import catmon.interval
from catmon import (
    AssociativityViolation,
    BadComposability,
    BadIdentity,
    CatmonError,
    EmptyFamily,
    FiniteCategory,
    GcdCategoryReport,
    IntervalFunctor,
    InvalidStructure,
    IsotoneMap,
    MissingComposite,
    Poset,
    SizeLimitExceeded,
    UnknownArrow,
    cat_of_poset,
    cross_check,
    detect_spindle,
    generator,
    lcm_pair,
    multiply,
    spindle_category,
)
from catmon.formats import dump_category, load_category, load_poset
from catmon.interval import _interval_walk
from catmon.poset import _lazy

from helpers import (
    assert_record,
    brute_cancellation_witness,
    brute_conical_witness,
    cyclic_category,
    idempotent_category,
    labeled_posets,
    layered_poset,
    make_category,
    nilpotent_category,
    pair_groupoid,
    poset_classes,
    posets_up_to,
    random_category,
    random_poset,
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
    assert len(cat.non_identities()) == 5
    assert cat.size == 9
    with pytest.raises(UnknownArrow):
        cat.src("[x,y]")


def test_validation_missing_composite():
    arrows = {"f": ("x", "y"), "g": ("y", "z")}
    with pytest.raises(MissingComposite):
        make_category(["x", "y", "z"], arrows, {})


def test_missing_composite_names_the_first_missing_pair():
    """With composites deleted from seeded random categories, the error
    names the first missing pair of a full scan over the pairs in arrow
    order; arrow order is shuffled so that the first pair varies."""
    rng = random.Random(21)
    for _ in range(150):
        cat = random_category(rng)
        names = list(cat.arrows)
        rng.shuffle(names)
        arrows = {f: (cat.src(f), cat.tgt(f)) for f in names}
        comp = dict(cat.comp)
        for pair in rng.sample(sorted(comp), min(len(comp),
                                                 rng.randint(1, 2))):
            del comp[pair]
        first = next((f, g) for f, (_, t) in arrows.items()
                     for g, (s, _) in arrows.items()
                     if s == t and (f, g) not in comp)
        with pytest.raises(MissingComposite) as exc:
            FiniteCategory(cat.objects, arrows, cat.identity, comp)
        assert str(exc.value) == f"no composite for {first[0]};{first[1]}"


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


def test_validation_names_each_broken_identity_and_composite():
    unit_laws = {("e", "e"): "e", ("e", "u"): "u", ("u", "u"): "u"}
    for objects, arrows, identity, comp, error, message in (
            (["x"], {"e": ("x", "x")}, {"x": "u"}, {}, BadIdentity,
             "identity u of x is not an arrow"),
            (["x", "y"], {"e": ("x", "y"), "i": ("y", "y")},
             {"x": "e", "y": "i"}, {}, BadIdentity,
             "identity e of x has wrong endpoints"),
            # the left unit law holds, the right one fails at u;e
            (["x"], {"e": ("x", "x"), "u": ("x", "x")}, {"x": "e"},
             {**unit_laws, ("u", "e"): "e"}, BadIdentity, "u;e != u"),
            (["x", "y", "z"], {"i": ("x", "x"), "j": ("y", "y"),
                               "k": ("z", "z"), "f": ("x", "y"),
                               "g": ("y", "z")},
             {"x": "i", "y": "j", "z": "k"}, {("f", "g"): "f"},
             InvalidStructure, "composite f;g = f has wrong endpoints")):
        with pytest.raises(error, match=f"^{message}$"):
            FiniteCategory(objects, arrows, identity, comp)


def test_identity_of_and_compose_refuse_what_is_not_there():
    cat = make_category(["x", "y"], {"f": ("x", "y")}, {})
    assert cat.identity_of("x") == "id:x"
    with pytest.raises(UnknownArrow, match="unknown object 'z'"):
        cat.identity_of("z")
    assert cat.compose("id:x", "f") == "f"
    with pytest.raises(BadComposability, match=r"tgt\(f\) != src\(id:x\)"):
        cat.compose("f", "id:x")


def test_validation_associativity():
    # two parallel w->z arrows let (f;g);h and f;(g;h) disagree
    arrows = {"f": ("w", "x"), "g": ("x", "y"), "h": ("y", "z"),
              "fg": ("w", "y"), "gh": ("x", "z"),
              "q1": ("w", "z"), "q2": ("w", "z")}
    comp = {("f", "g"): "fg", ("g", "h"): "gh",
            ("fg", "h"): "q1", ("f", "gh"): "q2"}
    with pytest.raises(AssociativityViolation):
        make_category(["w", "x", "y", "z"], arrows, comp)


def first_associativity_failure(ends, comp):
    """The message for the first failing triple of a scan over every
    composable triple, in the order the validator walks them; None if the
    table is associative."""
    for f, (_, tf) in ends.items():
        for g, (sg, tg) in ends.items():
            if sg != tf:
                continue
            for h, (sh, _) in ends.items():
                if sh == tg and (comp[(comp[(f, g)], h)]
                                 != comp[(f, comp[(g, h)])]):
                    return f"({f};{g});{h} != {f};({g};{h})"
    return None


def test_validation_reports_the_first_failing_triple_of_a_full_scan():
    rng = random.Random(47)
    cats = [random_category(rng) for _ in range(120)]
    cats += [pair_groupoid(3), cyclic_category(3), cyclic_category(4),
             idempotent_category(), nilpotent_category()]
    failures = 0
    for cat in cats:
        ends = {f: (cat.src(f), cat.tgt(f)) for f in cat.arrows}
        # Only a composite between non-identities can be changed without
        # breaking a unit law, and only to an arrow parallel to it.
        entries = [(pair, [x for x in cat.hom(*ends[h]) if x != h])
                   for pair, h in cat.comp.items()
                   if not any(cat.is_identity(f) for f in pair)]
        entries = [(pair, alts) for pair, alts in entries if alts]
        for pair, alts in rng.sample(entries, min(4, len(entries))):
            comp = dict(cat.comp)
            comp[pair] = rng.choice(alts)
            expected = first_associativity_failure(ends, comp)
            try:
                FiniteCategory(cat.objects, ends, cat.identity, comp)
            except CatmonError as exc:
                assert (type(exc), str(exc)) == \
                    (AssociativityViolation, expected)
                failures += 1
            else:
                assert expected is None
    assert failures >= 30


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


def unit_idempotent_category():
    """The monoid {1, s, e, se} with ss = 1, ee = e and se = es: not conical
    (s;s = 1) and not cancellative (e;1 = e;e), a flag combination that
    random_category never draws."""
    o = ("o", "o")
    comp = {("s", "s"): "id:o", ("s", "e"): "se", ("s", "se"): "e",
            ("e", "s"): "se", ("e", "e"): "e", ("e", "se"): "se",
            ("se", "s"): "e", ("se", "e"): "se", ("se", "se"): "e"}
    return make_category(["o"], {"s": o, "e": o, "se": o}, comp)


def test_witnesses_are_the_first_of_an_ordered_scan():
    rng = random.Random(61)
    cats = [random_category(rng) for _ in range(300)]
    cats.append(unit_idempotent_category())
    keys = ("conical", "left_cancellative", "right_cancellative")
    seen = set()
    for cat in cats:
        expected = {}
        for key, w in zip(keys, (
                brute_conical_witness(cat),
                brute_cancellation_witness(cat, "left"),
                brute_cancellation_witness(cat, "right"))):
            if w is not None:
                expected[key] = w
        assert cat.conical_witness() == expected.get("conical")
        assert cat.left_cancellation_witness() == \
            expected.get("left_cancellative")
        assert cat.right_cancellation_witness() == \
            expected.get("right_cancellative")
        witnesses = cat.gcd_category_report().witnesses
        assert [(k, w) for k, w in witnesses.items() if k in keys] == \
            list(expected.items())
        seen.update(expected)
    assert seen == set(keys)
    assert cats[-1].gcd_category_report().witnesses == {
        "conical": ("s", "s"), "left_cancellative": ("e", "e", "id:o"),
        "right_cancellative": ("e", "e", "id:o")}


class CountingDict(dict):
    """A dict that counts its item reads."""
    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_analysis_of_a_conical_cancellative_category_reads_no_composite():
    with open("data/diamond.poset") as fh:
        diamond = load_poset(fh.read(), "data/diamond.poset")
    chain = Poset([f"p{i}" for i in range(10)],
                  [(f"p{i}", f"p{i + 1}") for i in range(9)])
    for poset in (diamond, chain):
        cat = cat_of_poset(poset)
        cat.comp = CountingDict(cat.comp)
        assert "_analysis" not in vars(cat)
        cat._analysis
        assert cat.comp.reads == 0
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
                assert cat.divides("left", a, b) == bool(witnesses)
                x = cat.quotient("left", a, b)
                if witnesses:
                    assert cat.compose(a, x) == b
                else:
                    assert x is None
                witnesses = [x for x in cat.arrows
                             if cat.composable(x, a)
                             and cat.compose(x, a) == b]
                assert cat.divides("right", a, b) == bool(witnesses)
                x = cat.quotient("right", a, b)
                if witnesses:
                    assert cat.compose(x, a) == b
                else:
                    assert x is None


def test_divisor_sets_match_brute_scan():
    rng = random.Random(5)
    for _ in range(25):
        cat = random_category(rng)
        for b in cat.arrows:
            brute = {a for a in cat.arrows if any(
                cat.composable(a, x) and cat.compose(a, x) == b
                for x in cat.arrows)}
            assert set(cat.divisors("left", b)) == brute
            brute = {a for a in cat.arrows if any(
                cat.composable(x, a) and cat.compose(x, a) == b
                for x in cat.arrows)}
            assert set(cat.divisors("right", b)) == brute


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
                if cat.divides("left", a, b) and cat.divides("left", b, a):
                    assert a == b


def test_gcd_is_a_greatest_common_divisor():
    rng = random.Random(31)
    cats = [random_category(rng) for _ in range(30)] + [DIAMOND_CAT]
    for cat in cats:
        for a in cat.arrows:
            for b in cat.arrows:
                common = (set(cat.divisors("left", a))
                          & set(cat.divisors("left", b)))
                greatest = [m for m in common
                            if all(cat.divides("left", d, m) for d in common)]
                g = cat.gcd("left", (a, b))
                if g is None:
                    assert not greatest
                else:
                    assert g in greatest
                    assert all(cat.divides("left", d, g) for d in common)


def test_gcd_family_reduces_to_pairs_and_rejects_empty():
    cat = DIAMOND_CAT
    assert cat.gcd("left", ["[o,a]", "[o,i]"]) == "[o,a]"
    assert cat.gcd("left", ["[o,a]", "[o,b]", "[o,i]"]) == "[o,o]"
    with pytest.raises(EmptyFamily):
        cat.gcd("left", [])


def check_lcm_against_brute_force(side, cats):
    """cat.lcm(side, ...) on every pair sharing the side's endpoint: the
    first common multiple, in arrow order, that divides every common
    multiple, when one exists.  On non-identity pairs, lcm_pair of their
    generators is the generator of that arrow (the unit when it is an
    identity), or None."""
    for cat in cats:
        cat_endpoint = cat.src if side == "left" else cat.tgt
        for a in cat.arrows:
            for b in cat.arrows:
                if cat_endpoint(a) != cat_endpoint(b):
                    continue
                common = [m for m in cat.arrows if cat.divides(side, a, m)
                          and cat.divides(side, b, m)]
                least = [m for m in common
                         if all(cat.divides(side, m, c) for c in common)]
                m = cat.lcm(side, a, b)
                if m is None:
                    assert not least
                else:
                    assert m == least[0]
                if cat.is_identity(a) or cat.is_identity(b):
                    continue
                assert lcm_pair(side, generator(cat, a),
                                generator(cat, b)) == (
                    None if m is None else generator(cat, m))


def test_left_lcm_matches_brute_force():
    cats = [cat_of_poset(p) for p in poset_classes(4)] + [DIAMOND_CAT]
    check_lcm_against_brute_force("left", cats)


def test_lcm_on_random_categories_and_their_opposites():
    # Both sides, on draws of every shape (non-conical, non-cancellative,
    # pair groupoids) and on their opposites.
    rng = random.Random(67)
    cats = [pair_groupoid(2), pair_groupoid(3), idempotent_category(),
            nilpotent_category(), cyclic_category(3)]
    cats += [random_category(rng) for _ in range(40)]
    cats += [cat.opposite() for cat in cats]
    for side in ("left", "right"):
        check_lcm_against_brute_force(side, cats)


def test_right_lcm_matches_brute_force():
    rng = random.Random(61)
    cats = [cat_of_poset(p) for p in poset_classes(4)] + [DIAMOND_CAT]
    cats += [random_category(rng) for _ in range(40)]
    check_lcm_against_brute_force("right", cats)
    # Right lcms in S are left lcms in the opposite category.
    for cat in cats:
        op = cat.opposite()
        assert [cat.lcm("right", a, b) for a in cat.arrows
                for b in cat.arrows] == [op.lcm("left", a, b)
                                         for a in cat.arrows
                                         for b in cat.arrows]


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


def pairwise_gcd_report(cat):
    """The report from a cat.gcd call on every pair of arrows with a common
    source (left) or target (right)."""
    witnesses = {}
    for key, f in (("conical", cat.conical_witness),
                   ("left_cancellative", cat.left_cancellation_witness),
                   ("right_cancellative", cat.right_cancellation_witness)):
        if f():
            witnesses[key] = f()
    for o in cat.objects:
        into = tuple(f for f in cat.arrows if cat.tgt(f) == o)
        for side, fibre in (("left", cat.arrows_from(o)), ("right", into)):
            for i, a in enumerate(fibre):
                for b in fibre[i + 1:]:
                    if cat.gcd(side, (a, b)) is None:
                        witnesses.setdefault(f"{side}_gcds", (a, b))
    return GcdCategoryReport(
        "conical" not in witnesses, "left_cancellative" not in witnesses,
        "right_cancellative" not in witnesses, "left_gcds" not in witnesses,
        "right_gcds" not in witnesses, witnesses)


def test_gcd_category_report_matches_a_pairwise_gcd_scan():
    """Every report, key order included, against ``cat.gcd`` on every pair.
    Cat(P)'s report is read off the order, so on Cat(P) it is also held to
    the validating build's, which scans the fibres: on every labelled
    poset with at most 5 elements and on 4,000 seeded draws.  Layered
    posets have names in no linear order, so their fibres' arrow order (by
    name) is not index order."""
    rng = random.Random(59)
    cats = [random_category(rng) for _ in range(300)]
    cats += [cat.opposite() for cat in cats]
    posets = list(posets_up_to(5, labeled_posets))
    # Right gcds fail at object a, before left gcds fail at object z.
    posets.append(Poset("apqrsmnuvz", [
        ("p", "r"), ("p", "s"), ("q", "r"), ("q", "s"), ("r", "a"),
        ("s", "a"), ("z", "m"), ("z", "n"), ("m", "u"), ("m", "v"),
        ("n", "u"), ("n", "v")]))
    cats += [cat_of_poset(p) for p in posets]
    flags = set()
    for cat in cats:
        expected = pairwise_gcd_report(cat)
        report = cat.gcd_category_report()
        assert report == expected
        assert list(report.witnesses) == list(expected.witnesses)
        flags.add((report.conical, report.left_cancellative,
                   report.right_cancellative, report.left_gcds,
                   report.right_gcds))
    for i in range(5):  # every flag is seen failing and holding
        assert {f[i] for f in flags} == {True, False}
    rng = random.Random(60)
    posets += [random_poset(rng, max_n=9, min_n=5) for _ in range(3000)]
    posets += [layered_poset(rng, [rng.randint(1, 4) for _ in range(4)])
               for _ in range(1000)]
    failing = 0
    for p in posets:
        report = cat_of_poset(p).gcd_category_report()
        expected = FiniteCategory(
            p.elements, *_interval_walk(p)).gcd_category_report()
        assert report == expected
        assert list(report.witnesses) == list(expected.witnesses)
        failing += not report.holds
    assert failing >= 600, failing


def test_opposite_is_involutive_and_swaps_sides():
    cat = parallel_pair_category()
    op = cat.opposite()
    assert op.opposite() is cat
    assert op.src("a") == "e1" and op.tgt("a") == "e0"
    assert op.compose("c", "a") == "d"
    assert not op.is_left_cancellative()
    assert op.is_right_cancellative()


def test_trusted_builds_match_the_validating_build():
    rng = random.Random(15)
    posets = list(posets_up_to(5, labeled_posets))
    posets += [random_poset(rng) for _ in range(300)]
    cats = []
    for p in posets:
        trusted = cat_of_poset(p)
        checked = FiniteCategory(p.elements, *_interval_walk(p))
        cats.append((trusted, checked))
    rng = random.Random(16)
    for _ in range(100):
        cat = random_category(rng)
        ends = {f: (t, s) for f, (s, t) in cat._endpoints.items()}
        comp = {(g, f): h for (f, g), h in cat.comp.items()}
        cats.append((cat.opposite(),
                     FiniteCategory(cat.objects, ends, cat.identity, comp)))
    for trusted, checked in cats:
        assert trusted.objects == checked.objects
        assert trusted._endpoints == checked._endpoints
        assert trusted.arrows == checked.arrows
        assert trusted.identity == checked.identity
        assert trusted.comp == checked.comp
        assert trusted._analysis == checked._analysis


def test_the_boundary_copies_the_callers_tables():
    """``FiniteCategory(...)`` keeps copies of the tables it is handed, so
    changing the caller's containers afterwards changes nothing in it."""
    def tables():
        arrows = {"id:e0": ("e0", "e0"), "id:e1": ("e1", "e1"),
                  "id:e2": ("e2", "e2"), "a": ("e0", "e1"),
                  "b": ("e0", "e1"), "c": ("e1", "e2"), "d": ("e0", "e2")}
        identity = {o: f"id:{o}" for o in ("e0", "e1", "e2")}
        comp = {("a", "c"): "d", ("b", "c"): "d"}
        for f, (s, t) in arrows.items():
            comp[(identity[s], f)] = comp[(f, identity[t])] = f
        return ["e0", "e1", "e2"], arrows, identity, comp

    def state(cat):
        return (cat.objects, cat.arrows, cat._endpoints, cat.identity,
                cat.comp, cat._index, cat._by_src, cat._by_tgt,
                cat._identities, cat.gcd_category_report(),
                dump_category(cat))

    objects, arrows, identity, comp = tables()
    cat = FiniteCategory(objects, arrows, identity, comp)
    objects.append("e3")
    arrows["a"] = ("e1", "e0")
    del arrows["d"]
    arrows["z"] = ("e2", "e2")
    identity["e0"] = "a"
    del identity["e2"]
    comp[("a", "c")] = "b"
    comp.clear()
    assert state(cat) == state(FiniteCategory(*tables()))


def test_cat_of_poset_pastes_only_when_its_table_is_read(monkeypatch):
    """A gcd report on Cat(P), passing or failing, is read off the order:
    it runs neither the analysis nor the pasting loop.  Every reader of the
    table (``comp``, ``in``, ``_analysis``, ``opposite``, ``dump_category``,
    ``multiply``) gets the walk's, which then stays a plain attribute."""
    def refuse(*args):
        raise AssertionError("pasted")

    def no_analysis(self):
        raise AssertionError("analysed")

    paste = catmon.interval._interval_pastings
    analysis = FiniteCategory._analysis
    rng = random.Random(17)
    posets = [Poset("oabi", [("o", "a"), ("o", "b"), ("a", "i"),
                             ("b", "i")])]
    posets += [layered_poset(rng, [rng.randint(1, 4) for _ in range(4)])
               for _ in range(40)]
    verdicts = set()
    for p in posets:
        arrows, identity, comp = _interval_walk(p)
        checked = FiniteCategory(p.elements, arrows, identity, comp)
        expected = checked.gcd_category_report()
        verdicts.add(expected.holds)
        monkeypatch.setattr(catmon.interval, "_interval_pastings", refuse)
        monkeypatch.setattr(FiniteCategory, "_analysis", _lazy(no_analysis))
        cat = cat_of_poset(p)
        assert cat.gcd_category_report() == expected
        monkeypatch.setattr(FiniteCategory, "_analysis", analysis)
        for read in (lambda: len(cat.comp),
                     lambda: next(iter(comp)) in cat.comp,
                     lambda: cat._analysis):
            with pytest.raises(AssertionError, match="pasted"):
                read()
        monkeypatch.setattr(catmon.interval, "_interval_pastings", paste)
        assert cat._analysis == checked._analysis
        assert cat.comp == comp
        assert type(cat.comp) is dict
        assert cat_of_poset(p).opposite().comp == checked.opposite().comp
        assert dump_category(cat_of_poset(p)) == dump_category(checked)
        fresh = cat_of_poset(p)
        for f, g in comp:
            assert multiply(generator(fresh, f), generator(fresh, g)).arrows \
                == multiply(generator(checked, f),
                            generator(checked, g)).arrows
    assert verdicts == {True, False}


def test_cat_of_poset_is_freed_when_dropped_unpasted():
    """Cat(P)'s lazy table and report read state it holds, not a closure
    over it, so a Cat(P) used only for a gcd report is freed by reference
    counting, with no cycle left for the collector."""
    p = Poset("oabi", [("o", "a"), ("o", "b"), ("a", "i"), ("b", "i")])
    gc.disable()
    try:
        for read in (False, True):
            cat = cat_of_poset(p)
            assert cat.gcd_category_report().holds
            if read:
                assert len(cat.comp) == 16
            alive = weakref.ref(cat)
            del cat
            assert alive() is None, read
    finally:
        gc.enable()


def test_cat_of_poset_alone_pastes_its_table_and_only_once(monkeypatch):
    """Every builder but Cat(P) stores its table in ``comp`` at set-up.
    Cat(P) stores it on the first read, from one run of the pasting loop,
    however often and however the table is read after that, and then lets
    go of the up-sets only the pasting reads."""
    diamond = Poset("oabi", [("o", "a"), ("o", "b"), ("a", "i"),
                             ("b", "i")])
    arrows, identity, comp = _interval_walk(diamond)
    checked = FiniteCategory(diamond.elements, arrows, identity, comp)
    spindle = spindle_category(diamond, detect_spindle(diamond, "o", "i"))
    for cat in (checked, load_category(dump_category(checked)),
                checked.opposite(), spindle):
        assert "comp" in vars(cat)

    pasted = []
    paste = catmon.interval._interval_pastings

    def counted(*args):
        pasted.append(args)
        return paste(*args)

    monkeypatch.setattr(catmon.interval, "_interval_pastings", counted)
    cat = cat_of_poset(diamond)
    assert "comp" not in vars(cat) and not pasted
    for _ in range(20):
        assert cat.comp == comp
        assert len(cat.comp) == len(comp)
        assert ("[o,a]", "[a,i]") in cat.comp
        assert cat._analysis == checked._analysis
    assert "comp" in vars(cat) and "_ups" not in vars(cat)
    assert len(pasted) == 1


def test_validation_is_priced_at_the_triples_it_walks():
    """``_triples`` counts, from hom-set sizes alone, the triples the
    associativity check walks: none for a thin category, and every
    composable triple for any other."""
    from collections import Counter

    from catmon.category import _triples

    rng = random.Random(19)
    cats = [random_category(rng) for _ in range(150)]
    cats += [pair_groupoid(3), cyclic_category(5), parallel_pair_category()]
    nonzero = thin = 0
    for cat in cats:
        ends = cat._endpoints
        homs = Counter(ends.values())
        every = sum(1 for s, t in ends.values() for t2, u in ends.values()
                    if t2 == t for u2, v in ends.values() if u2 == u)
        want = every if max(homs.values()) >= 2 else 0
        assert _triples(homs) == want
        nonzero += want > 0
        thin += want == 0
    assert nonzero >= 40 and thin >= 1


def test_internal_builders_trust_their_tables(monkeypatch):
    def no_validate(*tables):
        raise AssertionError("validated")

    diamond = Poset("oabi", [("o", "a"), ("o", "b"), ("a", "i"), ("b", "i")])
    text = dump_category(cat_of_poset(diamond))
    monkeypatch.setattr(catmon.category, "_validate", no_validate)
    cat = cat_of_poset(diamond)
    assert cat.gcd_category_report().holds
    assert cat.opposite().opposite() is cat
    assert cross_check(diamond).agree
    functor = IntervalFunctor(IsotoneMap(diamond, diamond, {
        "o": "o", "a": "a", "b": "a", "i": "i"}))
    assert functor.target_category.size == cat.size
    # a Spindle is judged against detect_spindle, not its tables
    spindle = spindle_category(diamond, detect_spindle(diamond, "o", "i"))
    assert spindle.gcd_category_report().holds
    # input from outside is checked
    with pytest.raises(AssertionError, match="validated"):
        load_category(text)
    with pytest.raises(AssertionError, match="validated"):
        FiniteCategory(cat.objects, cat._endpoints, cat.identity, cat.comp)


def test_gcd_category_report_is_a_record():
    report = assert_record(GcdCategoryReport, conical=True,
                           left_cancellative=True, right_cancellative=True,
                           left_gcds=True, right_gcds=True, witnesses={})
    assert report.holds
    assert not GcdCategoryReport(True, True, True, False, True,
                                 {"left_gcds": ("a", "b")}).holds
    assert make_category(["x"], [], {}).gcd_category_report().holds
