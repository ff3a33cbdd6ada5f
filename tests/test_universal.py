import itertools
import random
import re
from pathlib import Path

import pytest

from catmon import (
    CatmonError,
    CategoryMismatch,
    EmptyFamily,
    FiniteCategory,
    InvalidStructure,
    NotAGenerator,
    NotCancellative,
    NotConical,
    Poset,
    ReducedSeq,
    RewriteTrace,
    SizeLimitExceeded,
    SourceMismatch,
    TargetMismatch,
    UnknownArrow,
    cat_of_poset,
    components,
    divides,
    elements_up_to,
    gcd_family,
    gcd_pair,
    generator,
    greedy_normal_form,
    lcm_pair,
    multiply,
    product,
    reduce_sequence,
    unit,
    universal_group_presentation,
)
from catmon.cli import main
from catmon.formats import load_category

from helpers import (
    assert_record,
    brute_divides,
    brute_gcd,
    cyclic_category,
    disjoint_union,
    divisibility_tables,
    idempotent_category,
    pair_groupoid,
    poset_classes,
    random_category,
    random_category_bounded,
    random_raw_sequence,
    reference_reduce_sequence,
    reference_universal_group_presentation,
)

DIAMOND = Poset("oabi", [("o", "a"), ("o", "b"), ("a", "i"), ("b", "i")])
DCAT = cat_of_poset(DIAMOND)
C6 = load_category(
    (Path(__file__).resolve().parent.parent / "data" / "c6.category")
    .read_text())
NONLATTICE = Poset("opqrs", [("o", "p"), ("o", "q"), ("p", "r"), ("p", "s"),
                             ("q", "r"), ("q", "s")])


def test_reduce_drops_identities_and_composes():
    nf, _ = reduce_sequence(DCAT, ["[o,o]"])
    assert nf.is_unit and str(nf) == "1"
    nf, _ = reduce_sequence(DCAT, ["[o,a]", "[a,a]", "[a,i]"])
    assert nf.arrows == ("[o,i]",)
    nf, _ = reduce_sequence(DCAT, ["[o,a]", "[b,i]"])
    assert nf.arrows == ("[o,a]", "[b,i]")
    assert str(nf) == "[o,a] [b,i]"


def test_reduced_seq_rejects_unreduced_input():
    with pytest.raises(InvalidStructure, match="composable"):
        ReducedSeq(DCAT, ("[o,a]", "[a,i]"))
    with pytest.raises(InvalidStructure, match="identity"):
        ReducedSeq(DCAT, ("[o,o]",))
    with pytest.raises(UnknownArrow):
        ReducedSeq(DCAT, ("[o,z]",))


def test_trace_replays_to_the_normal_form():
    rng = random.Random(2)
    for _ in range(50):
        cat = random_category(rng)
        raw = random_raw_sequence(cat, rng)
        nf, trace = reduce_sequence(cat, raw)
        assert trace.replay(cat, raw) == nf


def test_confluence_under_random_strategies():
    rng = random.Random(3)
    for _ in range(60):
        cat = random_category(rng)
        for _ in range(5):
            raw = random_raw_sequence(cat, rng)
            nf, _ = reduce_sequence(cat, raw)
            for seed in (1, 2):
                alt, _ = reduce_sequence(cat, raw, random.Random(seed))
                assert alt == nf


def _long_raw_sequence(cat, rng, length):
    raw = []
    while len(raw) < length:
        raw += random_raw_sequence(cat, rng, 20)
    return raw[:length]


def test_reduce_sequence_matches_the_reference_loop():
    rng = random.Random(24)
    cases = []
    for _ in range(80):
        cat = random_category(rng)
        cases += [(cat, random_raw_sequence(cat, rng, 12)) for _ in range(4)]
    assert any(not cat.is_conical() for cat, _ in cases)
    for cat in (C6, cyclic_category(5), pair_groupoid(3)):
        cases.append((cat, _long_raw_sequence(cat, rng, 400)))
    for k, (cat, raw) in enumerate(cases):
        nf, trace = reduce_sequence(cat, raw)
        assert (nf.arrows, trace.steps) == reference_reduce_sequence(cat, raw)
        nf, trace = reduce_sequence(cat, raw, random.Random(k))
        assert (nf.arrows, trace.steps) == reference_reduce_sequence(
            cat, raw, random.Random(k))


def test_rewriting_checks_each_entry_once_then_reads_the_tables(
        monkeypatch):
    raw = ["id:0", "a", "id:1", "a'", "b", "b'", "c", "id:1", "c'", "id:2",
           "abar", "a", "a'"]
    nf, trace = reduce_sequence(C6, raw)
    checked = []
    check = FiniteCategory._check

    def counted(self, f):
        checked.append(f)
        return check(self, f)

    def refuse(*args):
        raise AssertionError("a public arrow query re-checked an entry")

    monkeypatch.setattr(FiniteCategory, "_check", counted)
    monkeypatch.setattr(FiniteCategory, "is_identity", refuse)
    monkeypatch.setattr(FiniteCategory, "composable", refuse)
    calls = [
        (lambda: reduce_sequence(C6, raw)[0], nf, raw),
        (lambda: reduce_sequence(C6, raw, random.Random(5))[0], nf, raw),
        (lambda: trace.replay(C6, raw), nf, raw),
        (lambda: ReducedSeq(C6, nf.arrows), nf, list(nf.arrows)),
        (lambda: generator(C6, "id:2"), unit(C6), ["id:2"]),
        (lambda: generator(C6, "abar"), ReducedSeq(C6, ("abar",)), ["abar"]),
    ]
    for call, want, entries in calls:
        checked.clear()
        assert call() == want
        assert checked == entries
    # Every entry is checked before reducedness is judged, so an unknown
    # arrow is named before an identity.
    with pytest.raises(UnknownArrow, match="'nope'"):
        ReducedSeq(C6, ("a", "id:0", "nope"))
    with pytest.raises(InvalidStructure, match="entry id:0 is an identity"):
        ReducedSeq(C6, ("a", "id:0", "b"))
    with pytest.raises(UnknownArrow):
        ReducedSeq(C6, ("a", "nope", "id:0"))
    with pytest.raises(InvalidStructure, match="entries a,a' are composable"):
        RewriteTrace(((0, "dropIdentity"),)).replay(C6, ["id:0", "a", "a'"])


@pytest.mark.parametrize("call", [
    lambda bad: reduce_sequence(DCAT, bad),
    lambda bad: reduce_sequence(DCAT, bad, random.Random(1)),
    lambda bad: ReducedSeq(DCAT, bad),
    lambda bad: RewriteTrace(()).replay(DCAT, bad),
    lambda bad: RewriteTrace(bad).replay(DCAT, ["[o,a]"]),
], ids=["reduce", "reduce-rng", "reduced-seq", "replay-raw", "replay-steps"])
@pytest.mark.parametrize("bad", ["ab", "", None, 5])
def test_a_string_or_non_iterable_is_not_a_sequence(call, bad):
    with pytest.raises(InvalidStructure, match="^expected a sequence of "):
        call(bad)


def test_multiply_is_associative_with_unit():
    rng = random.Random(4)
    for _ in range(40):
        cat = random_category(rng)
        xs = [reduce_sequence(cat, random_raw_sequence(cat, rng, 5))[0]
              for _ in range(3)]
        x, y, z = xs
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
        e = unit(cat)
        assert multiply(x, e) == x and multiply(e, x) == x
        assert product([x, y, z]) == multiply(multiply(x, y), z)
        assert product([], cat) == e


def test_multiply_rejects_mixed_categories():
    other = cat_of_poset(Poset("xy", [("x", "y")]))
    with pytest.raises(CategoryMismatch):
        multiply(unit(DCAT), unit(other))


def test_kernels_refuse_operands_over_other_categories():
    other = cat_of_poset(Poset("xy", [("x", "y")]))
    x, y = generator(DCAT, "[o,a]"), generator(other, "[x,y]")
    for kernel in (divides, lcm_pair):
        with pytest.raises(CategoryMismatch, match="different categories"):
            kernel("left", x, y)
    with pytest.raises(EmptyFamily, match="explicit category"):
        product([])


def test_multiply_is_the_reduced_concatenation():
    # Every conical / cancellative combination, and seams whose identity
    # composites cascade: r20;r02 and then r01;r10 vanish in pair_groupoid.
    rng = random.Random(41)
    cats = [random_category(rng) for _ in range(150)]
    cats += [pair_groupoid(3), pair_groupoid(4), cyclic_category(4),
             disjoint_union(cyclic_category(3), idempotent_category())]
    flags, deepest = set(), 0
    for cat in cats:
        flags.add((cat.is_conical(), cat.is_cancellative()))
        elements = [reduce_sequence(cat, random_raw_sequence(cat, rng, 6))[0]
                    for _ in range(12)]
        for x in elements:
            for y in elements:
                xy = multiply(x, y)
                assert xy == reduce_sequence(cat, x.arrows + y.arrows)[0]
                vanished = (x.length + y.length - xy.length) // 2
                deepest = max(deepest, vanished)
    assert flags == {(a, b) for a in (True, False) for b in (True, False)}
    assert deepest >= 2
    pg = pair_groupoid(3)
    x, y = ReducedSeq(pg, ("r01", "r20")), ReducedSeq(pg, ("r02", "r10"))
    assert multiply(x, y).is_unit
    z = ReducedSeq(pg, ("r02", "r12"))
    assert multiply(x, z).arrows == ("r02",)


def test_multiply_needs_no_analysis(monkeypatch):
    from catmon import FiniteCategory, universal

    def refuse(*args):
        raise AssertionError("multiply must not analyse or rescan")

    chain = cat_of_poset(Poset("012345", [(str(i), str(i + 1))
                                          for i in range(5)]))
    pg = pair_groupoid(3)
    monkeypatch.setattr(FiniteCategory, "_analysis", property(refuse))
    monkeypatch.setattr(universal, "reduce_sequence", refuse)
    x = ReducedSeq(chain, ("[0,2]",))
    assert multiply(x, ReducedSeq(chain, ("[2,5]",))).arrows == ("[0,5]",)
    assert multiply(x, ReducedSeq(chain, ("[3,5]",))).length == 2
    assert multiply(ReducedSeq(pg, ("r01",)),
                    ReducedSeq(pg, ("r10",))).is_unit
    assert "_analysis" not in vars(chain) and "_analysis" not in vars(pg)


def test_elements_are_immutable():
    x = ReducedSeq(DCAT, ("[o,a]",))
    for attr, value in (("arrows", ()), ("category", C6), ("extra", 1)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(x, attr, value)
    assert x.category is DCAT and x.arrows == ("[o,a]",)


def test_length_laws_for_conical_categories():
    rng = random.Random(5)
    seen = 0
    while seen < 30:
        cat = random_category(rng)
        if not cat.is_conical():
            continue
        seen += 1
        for _ in range(10):
            x = reduce_sequence(cat, random_raw_sequence(cat, rng, 5))[0]
            y = reduce_sequence(cat, random_raw_sequence(cat, rng, 5))[0]
            xy = multiply(x, y)
            assert x.length <= xy.length and y.length <= xy.length
            assert xy.length in (x.length + y.length - 1,
                                 x.length + y.length) or \
                (x.is_unit or y.is_unit)


def test_generator_kernel_is_the_identities():
    rng = random.Random(6)
    for _ in range(25):
        cat = random_category(rng)
        images = {}
        for a in cat.arrows:
            images.setdefault(generator(cat, a), []).append(a)
        for x, arrows in images.items():
            if x.is_unit:
                assert all(cat.is_identity(a) for a in arrows)
            else:
                assert len(arrows) == 1


def test_conicality_transfers_to_bounded_words():
    rng = random.Random(7)
    for _ in range(60):
        cat = random_category_bounded(rng)
        pool = [x for x in elements_up_to(cat, 3) if not x.is_unit]
        collapse = [(x, y) for x in pool for y in pool
                    if multiply(x, y).is_unit]
        assert cat.is_conical() == (not collapse)
        if not cat.is_conical():
            f, g = cat.conical_witness()
            assert multiply(generator(cat, f), generator(cat, g)).is_unit


def test_cancellativity_transfers_to_bounded_words():
    rng = random.Random(8)
    for _ in range(60):
        cat = random_category_bounded(rng)
        pool = elements_up_to(cat, 3)
        found = None
        for a in cat.non_identities():
            ea = generator(cat, a)
            images = {}
            for x in pool:
                p = multiply(ea, x)
                if p in images and images[p] != x:
                    found = (a, images[p], x)
                    break
                images[p] = x
            if found:
                break
        assert cat.is_left_cancellative() == (found is None)
        if not cat.is_left_cancellative():
            a, u, v = cat.left_cancellation_witness()
            assert u != v
            assert multiply(generator(cat, a), generator(cat, u)) == \
                multiply(generator(cat, a), generator(cat, v))
        found = None
        for a in cat.non_identities():
            ea = generator(cat, a)
            images = {}
            for x in pool:
                p = multiply(x, ea)
                if p in images and images[p] != x:
                    found = (a, images[p], x)
                    break
                images[p] = x
            if found:
                break
        assert cat.is_right_cancellative() == (found is None)


def test_divides_quotient_is_exact():
    for p in poset_classes(4):
        cat = cat_of_poset(p)
        pool = elements_up_to(cat, 3)
        small = [x for x in pool if x.length <= 2]
        for x in small:
            for y in small:
                res = divides("left", x, y)
                assert (res is not None) == \
                    brute_divides("left", x, y, pool)
                if isinstance(res, ReducedSeq):
                    assert multiply(x, res) == y
                res = divides("right", x, y)
                assert (res is not None) == \
                    brute_divides("right", x, y, pool)
                if isinstance(res, ReducedSeq):
                    assert multiply(res, x) == y


def test_divides_without_cancellation_returns_flag():
    cat = idempotent_category()
    e = generator(cat, "e")
    assert divides("left", e, e) is True
    assert divides("left", multiply(e, e), e) is True


def test_divides_requires_conical():
    cat = pair_groupoid(2)
    with pytest.raises(NotConical):
        divides("left", unit(cat), unit(cat))


def test_gcd_family_matches_brute_force_oracle():
    for p in poset_classes(4):
        cat = cat_of_poset(p)
        pool, left, right = divisibility_tables(cat, 3)
        small = [x for x in pool if x.length <= 2]
        for xs in itertools.combinations(small, 2):
            expect = brute_gcd(left, xs[0], xs[1])
            assert gcd_family("left", xs) == expect
            expect = brute_gcd(right, xs[0], xs[1])
            assert gcd_family("right", xs) == expect
        if len(small) < 3:
            continue
        rng = random.Random(len(p.elements))
        for _ in range(30):
            xs = tuple(rng.sample(small, 3))
            common = left[xs[0]] & left[xs[1]] & left[xs[2]]
            best = [m for m in common if common <= left[m]]
            expect = best[0] if best else None
            assert gcd_family("left", xs) == expect


def pair_kernel_categories(seed, draws):
    """random_category draws small enough for exhaustive pair sweeps, each
    with its opposite, plus two non-conical pair groupoids, the conical
    but non-cancellative idempotent and a Cat(P) lacking some gcds."""
    rng = random.Random(seed)
    cats = [pair_groupoid(2), pair_groupoid(3), idempotent_category(),
            cat_of_poset(NONLATTICE)]
    for _ in range(draws):
        cat = random_category_bounded(rng, max_elements=40, max_len=2)
        cats += [cat, cat.opposite()]
    return cats


def test_gcd_pair_is_gcd_family_of_two():
    seen = set()
    for cat in pair_kernel_categories(71, 15):
        els = elements_up_to(cat, 2)
        for x in els:
            for y in els:
                for side in ("left", "right", "up"):
                    got = outcome(gcd_pair, side, x, y)
                    assert got == outcome(gcd_family, side, (x, y))
                    seen.add(tuple if isinstance(got, tuple) else got)
    assert {None, tuple, NotConical, NotCancellative,
            InvalidStructure} <= seen
    # Mixed categories are named before the side's conditions, after a bad
    # side, for either operand order.
    for x, y in itertools.permutations(
            (unit(pair_groupoid(2)), generator(DCAT, "[o,a]"))):
        for side in ("left", "right", "up"):
            got = outcome(gcd_pair, side, x, y)
            assert got == outcome(gcd_family, side, (x, y))
            assert got is (InvalidStructure if side == "up"
                           else CategoryMismatch)


def quotient_table(cat, max_len):
    """The elements of length at most max_len and, from an exhaustive
    product scan over them, {(side, x, y): the z with y = x·z (left) or
    y = z·x (right)}."""
    pool = elements_up_to(cat, max_len)
    table = {}
    for d in pool:
        for e in pool:
            p = multiply(d, e)
            table.setdefault(("left", d, p), set()).add(e)
            table.setdefault(("right", e, p), set()).add(d)
    return pool, table


def test_divides_matches_brute_force_on_random_categories():
    # In a conical category a quotient of y is no longer than y, so the
    # table over the pool holds every quotient of a pool element.
    seen = set()
    for cat in pair_kernel_categories(73, 15):
        pool, table = quotient_table(cat, 2)
        conical = cat.is_conical()
        for x in pool:
            for y in pool:
                for side in ("left", "right"):
                    if not conical:
                        assert outcome(divides, side, x, y) is NotConical
                        seen.add(NotConical)
                        continue
                    got = divides(side, x, y)
                    seen.add(got if got in (None, True) else ReducedSeq)
                    quotients = table.get((side, x, y))
                    if not quotients:
                        assert got is None
                    elif cat._side(side)[3] is not None:
                        assert got is True
                    else:
                        assert quotients == {got}
    assert seen == {None, True, ReducedSeq, NotConical}


def test_pair_kernels_read_the_analysis_once(monkeypatch):
    from catmon import universal

    def refuse(*args):
        raise AssertionError("gcd_pair went through gcd_family")

    reads = []
    analysis = FiniteCategory._analysis.func

    def counted(self):
        reads.append(self)
        return analysis(self)

    monkeypatch.setattr(universal, "gcd_family", refuse)
    monkeypatch.setattr(FiniteCategory, "_analysis", property(counted))
    oa, ob, ai, oi = (generator(DCAT, f) for f in
                      ("[o,a]", "[o,b]", "[a,i]", "[o,i]"))
    bi = generator(DCAT, "[b,i]")
    calls = [
        (gcd_pair, ("left", oa, ob), unit(DCAT)),
        (gcd_pair, ("left", oa, oi), oa),
        (gcd_pair, ("right", ai, oi), ai),
        (gcd_pair, ("right", ai, bi), unit(DCAT)),
        (divides, ("left", oa, oi), ai),
        (divides, ("right", ai, oi), oa),
        (divides, ("left", ai, oi), None),
        (lcm_pair, ("left", oa, ob), oi),
        (lcm_pair, ("right", ai, bi), oi),
    ]
    for f, args, want in calls:
        reads.clear()
        assert f(*args) == want
        assert reads == [DCAT]
    # An operand that is the common part comes back as it is.
    x = ReducedSeq(DCAT, ("[o,a]", "[b,i]"))
    assert gcd_pair("left", oa, x) is oa
    assert gcd_pair("right", x, bi) is bi


def test_unhashable_arrows_are_unknown_arrows():
    for call in (lambda: reduce_sequence(DCAT, [["x"]]),
                 lambda: ReducedSeq(DCAT, [{}]),
                 lambda: generator(DCAT, ["x"]),
                 lambda: DCAT.quotient("left", "[o,a]", {})):
        with pytest.raises(UnknownArrow, match="unknown arrow"):
            call()


def test_gcd_family_preconditions():
    groupoid = pair_groupoid(2)
    with pytest.raises(NotConical):
        gcd_family("left", [unit(groupoid), unit(groupoid)])
    flat = idempotent_category()
    with pytest.raises(NotCancellative):
        gcd_family("left", [generator(flat, "e"), generator(flat, "e")])
    other = cat_of_poset(DIAMOND)
    with pytest.raises(CategoryMismatch):
        gcd_family("left", [generator(DCAT, "[o,a]"),
                            generator(other, "[o,a]")])
    with pytest.raises(InvalidStructure):
        gcd_family("up", [generator(DCAT, "[o,a]")])
    with pytest.raises(EmptyFamily):
        gcd_family("right", [])


def test_gcd_monoid_theorem_on_generator_pairs():
    for p in poset_classes(4) + poset_classes(5):
        cat = cat_of_poset(p)
        gens = cat.non_identities()
        ok = True
        for a in gens:
            for b in gens:
                if cat.src(a) == cat.src(b) and \
                        gcd_family("left", [generator(cat, a),
                                            generator(cat, b)]) is None:
                    ok = False
                if cat.tgt(a) == cat.tgt(b) and \
                        gcd_family("right", [generator(cat, a),
                                             generator(cat, b)]) is None:
                    ok = False
        assert cat.gcd_category_report().holds == ok


def test_arrow_gcd_lifts_through_generators():
    for p in poset_classes(4):
        cat = cat_of_poset(p)
        for a in cat.arrows:
            for b in cat.arrows:
                g = cat.gcd("left", (a, b))
                lifted = gcd_family("left", [generator(cat, a),
                                             generator(cat, b)])
                if g is not None and lifted is not None:
                    assert generator(cat, g) == lifted


def test_adjunction_between_generators_and_first_entries():
    for p in poset_classes(4):
        cat = cat_of_poset(p)
        pool = [x for x in elements_up_to(cat, 3) if not x.is_unit]
        for a in cat.non_identities():
            ea = generator(cat, a)
            for b in pool:
                lhs = divides("left", ea, b) is not None
                rhs = cat.divides("left", a, components(b)[0])
                assert lhs == rhs


def test_components_are_the_boundary_entries():
    x = reduce_sequence(DCAT, ["[o,a]", "[b,i]"])[0]
    assert components(x) == ("[o,a]", "[b,i]")
    y = generator(DCAT, "[o,i]")
    assert components(y) == ("[o,i]", "[o,i]")
    from catmon import EmptyElement
    with pytest.raises(EmptyElement):
        components(unit(DCAT))


def test_lcm_pair_matches_bounded_search():
    for p in poset_classes(4):
        cat = cat_of_poset(p)
        pool = elements_up_to(cat, 3)
        for a in cat.non_identities():
            for b in cat.non_identities():
                if cat.src(a) != cat.src(b):
                    continue
                ea, eb = generator(cat, a), generator(cat, b)
                m = lcm_pair("left", ea, eb)
                crms = [w for w in pool
                        if brute_divides("left", ea, w, pool)
                        and brute_divides("left", eb, w, pool)]
                if m is None:
                    assert not crms
                else:
                    assert m in crms
                    assert all(brute_divides("left", m, w, pool)
                               for w in crms)


def test_lcm_pair_preconditions():
    with pytest.raises(NotAGenerator):
        lcm_pair("left", unit(DCAT), generator(DCAT, "[o,a]"))
    with pytest.raises(SourceMismatch):
        lcm_pair("left", generator(DCAT, "[o,a]"), generator(DCAT, "[a,i]"))


def test_greedy_normal_form_heads_are_maximal():
    # left[y] comes from an exhaustive product scan, not from divides: every
    # generator dividing a suffix must left-divide its head in S.
    rng = random.Random(17)
    cats = [DCAT]
    while len(cats) < 8:
        cat = random_category_bounded(rng, max_elements=120)
        if cat.is_conical():
            cats.append(cat)
    for cat in cats:
        pool, left, _ = divisibility_tables(cat, 3)
        for x in pool:
            factors = greedy_normal_form(x)
            assert factors == x.arrows
            assert product([generator(cat, f) for f in factors], cat) == x
            for i, head in enumerate(factors):
                y = ReducedSeq(cat, factors[i:])
                gens = [d.arrows[0] for d in left[y] if d.length == 1]
                assert head in gens
                assert all(cat.divides("left", a, head) for a in gens)
    with pytest.raises(NotConical):
        greedy_normal_form(unit(pair_groupoid(2)))


def outcome(f, *args):
    """The entries of a ReducedSeq result, any other result, or the class of
    the CatmonError raised."""
    try:
        res = f(*args)
    except CatmonError as e:
        return type(e)
    return res.arrows if isinstance(res, ReducedSeq) else res


def mirrored(f, *xs):
    """outcome of the left side of f, with a result read back to front."""
    res = outcome(f, "left", *xs)
    return res[::-1] if isinstance(res, tuple) else res


def test_right_side_matches_the_left_side_of_the_opposite():
    # Reference: reverse the operands into cat.opposite(), run the left-side
    # operation there, and reverse the result back.
    rng = random.Random(13)
    seen = set()
    for _ in range(40):
        cat = random_category_bounded(rng, max_elements=60, max_len=2)
        op = cat.opposite()
        els = elements_up_to(cat, 2)
        rev = {x: ReducedSeq(op, x.arrows[::-1]) for x in els}
        for x in els:
            for y in els:
                got = outcome(divides, "right", x, y)
                assert got == mirrored(divides, rev[x], rev[y])
                seen.add(tuple if isinstance(got, tuple) else got)
                got = outcome(gcd_family, "right", (x, y))
                assert got == mirrored(gcd_family, (rev[x], rev[y]))
                seen.add(tuple if isinstance(got, tuple) else got)
                if x.length != 1 or y.length != 1:
                    continue
                got = outcome(lcm_pair, "right", x, y)
                a, b = x.arrows[0], y.arrows[0]
                if cat.tgt(a) != cat.tgt(b):
                    assert got is TargetMismatch
                else:
                    assert got == mirrored(lcm_pair, rev[x], rev[y])
    # Conical and not, cancellative on the right and not, gcds found.
    assert {None, True, tuple, NotConical, NotCancellative} <= seen


def test_um_operations_never_build_the_opposite(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("opposite() was built")

    monkeypatch.setattr(FiniteCategory, "opposite", refuse)
    cat = cat_of_poset(NONLATTICE)
    els = elements_up_to(cat, 2)
    for x in els:
        for y in els:
            divides("right", x, y)
            gcd_family("right", (x, y))
            if x.length == y.length == 1 and \
                    cat.tgt(x.arrows[0]) == cat.tgt(y.arrows[0]):
                lcm_pair("right", x, y)
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    assert main(["lcm", "--side", "right", "data/c6.category",
                 "a'", "b'"]) == 0
    assert capsys.readouterr().out == "lcm: cbar\n"
    # A bad side is named before mismatched categories or an empty family.
    x, other = generator(DCAT, "[o,a]"), generator(cat, "[o,p]")
    bad_side = "side must be 'left' or 'right', got 'up'"
    for f, args in ((divides, (x, other)), (gcd_family, ((x, other),)),
                    (lcm_pair, (x, other)), (gcd_family, ((),))):
        with pytest.raises(InvalidStructure, match=bad_side):
            f("up", *args)


def test_universal_group_presentation_of_the_diamond():
    pres = universal_group_presentation(DCAT)
    assert sorted(pres.generators) == \
        ["[a,i]", "[b,i]", "[o,a]", "[o,b]", "[o,i]"]
    assert sorted(pres.relators) == sorted([
        (("[o,a]", 1), ("[a,i]", 1), ("[o,i]", -1)),
        (("[o,b]", 1), ("[b,i]", 1), ("[o,i]", -1)),
    ])
    assert pres.abelianization_rank() == 3


def test_universal_group_presentation_matches_reference():
    rng = random.Random(20171207)
    non_conical = 0
    for _ in range(300):
        cat = random_category(rng)
        pres = universal_group_presentation(cat)
        assert (pres.generators, tuple(pres.relators)) == \
            reference_universal_group_presentation(cat)
        non_conical += cat._analysis[0] is not None
    assert non_conical >= 30


def test_universal_group_presentation_trusts_the_category(monkeypatch):
    cats = [DCAT, pair_groupoid(3), idempotent_category()]

    def refuse(self, f):
        raise AssertionError(f"_check({f!r}) called")

    monkeypatch.setattr(FiniteCategory, "_check", refuse)
    for cat in cats:
        assert universal_group_presentation(cat).relators


def test_elements_up_to_matches_filtered_tuples():
    for p in poset_classes(3):
        cat = cat_of_poset(p)
        gens = cat.non_identities()
        expect = {()}
        for k in (1, 2, 3):
            for tup in itertools.product(gens, repeat=k):
                if all(not cat.composable(tup[i], tup[i + 1])
                       for i in range(k - 1)):
                    expect.add(tup)
        got = elements_up_to(cat, 3)
        assert {x.arrows for x in got} == expect
        assert len(got) == len(expect)
        assert [x.length for x in got] == sorted(x.length for x in got)


def test_element_guard_counts_exactly(monkeypatch):
    from catmon import limits
    rng = random.Random(14)
    cats = [random_category(rng) for _ in range(60)]
    cats += [idempotent_category(), pair_groupoid(3)]
    for cat in cats:
        for n in range(4):
            size = len(elements_up_to(cat, n))
            # a limit equal to the count admits the walk, one below refuses
            monkeypatch.setattr(limits, "MAX_COUNT", size)
            assert len(elements_up_to(cat, n)) == size
            if size > 1:
                monkeypatch.setattr(limits, "MAX_COUNT", size - 1)
                with pytest.raises(SizeLimitExceeded,
                                   match=f"^{size} elements "):
                    elements_up_to(cat, n)
            monkeypatch.undo()


def test_rewrite_trace_is_a_record():
    trace = assert_record(RewriteTrace, steps=((0, "compose"),))
    _, made = reduce_sequence(DCAT, ["[o,a]", "[a,i]"])
    assert made == trace
    assert trace.replay(DCAT, ["[o,a]", "[a,i]"]) == ReducedSeq(
        DCAT, ("[o,i]",))


def test_elements_up_to_refuses_a_negative_bound():
    for max_len in (-1, -2):
        with pytest.raises(InvalidStructure, match=f"max_len {max_len} "):
            elements_up_to(DCAT, max_len)
    assert [str(x) for x in elements_up_to(DCAT, 0)] == ["1"]


@pytest.mark.parametrize("step,raw", [
    ((0, "dropIdentity"), ["[o,a]"]),            # not an identity
    ((1, "dropIdentity"), ["[o,o]"]),            # past the end
    ((-1, "dropIdentity"), ["[o,o]"]),           # a negative position
    ((0, "compose"), ["[o,a]"]),                 # compose at the last entry
    ((0, "compose"), ["[o,a]", "[b,i]"]),        # not composable
    ((0, "swap"), ["[o,o]"]),                    # unknown kind
    (("0", "dropIdentity"), ["[o,o]"]),          # position not an int
    ((True, "dropIdentity"), ["[o,a]", "[a,a]"]),  # a bool, not an int
    ((0,), ["[o,o]"]),                           # not a pair
    (None, ["[o,o]"]),
], ids=["not-identity", "past-end", "negative", "compose-last",
        "not-composable", "unknown-kind", "str-position", "bool-position",
        "short-step", "none-step"])
def test_replay_refuses_a_step_that_is_not_a_rewrite(step, raw):
    named = re.escape(f"step 0 {step!r} is not a rewrite of {' '.join(raw)}")
    with pytest.raises(InvalidStructure, match=f"^{named}$"):
        RewriteTrace((step,)).replay(DCAT, raw)
