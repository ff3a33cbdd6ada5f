import itertools
import random
from pathlib import Path

import pytest

from catmon import (
    InvalidStructure,
    MonoidPresentation,
    NotHomogeneous,
    SizeLimitExceeded,
    atoms,
    braid3_presentation,
    c6_presentation,
    common_right_multiple,
    congruence_class,
    equal_in_monoid,
    left_divides_mod,
    m6_presentation,
    presented,
    verify_m6_embedding,
)
from catmon.formats import load_monoid
from catmon.presented import MAX_LAYER_CLASSES, _grow, _m6_image
from helpers import (
    reference_class_walk,
    reference_common_right_multiple,
    reference_m6_classes,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def closure_oracle(pres, word):
    """Independent fixpoint closure under one-step rewrites."""
    rules = [(l, r) for l, r in pres.relations] + \
            [(r, l) for l, r in pres.relations]
    out = {tuple(word)}
    while True:
        new = set()
        for w in out:
            for lhs, rhs in rules:
                k = len(lhs)
                for i in range(len(w) - k + 1):
                    if w[i:i + k] == lhs:
                        new.add(w[:i] + rhs + w[i + k:])
        if new <= out:
            return out
        out |= new


def crm_oracle(pres, xs, max_len):
    """Every word that starts with xs[0], shortest then lexicographically
    first, tested against its whole class; no word or class is skipped."""
    head = tuple(xs[0])
    for n in range(len(head), max_len + 1):
        for tail in itertools.product(sorted(pres.generators),
                                      repeat=n - len(head)):
            cls = closure_oracle(pres, head + tail)
            if all(any(w[:len(x)] == tuple(x) for w in cls) for x in xs):
                return head + tail
    return None


def random_homogeneous_presentation(rng):
    gens = "abc"[:rng.randint(2, 3)]
    relations = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(1, 3)
        relations.append((tuple(rng.choice(gens) for _ in range(k)),
                          tuple(rng.choice(gens) for _ in range(k))))
    return MonoidPresentation(gens, relations)


def test_presentation_validation():
    with pytest.raises(InvalidStructure):
        MonoidPresentation("aa", [])
    with pytest.raises(InvalidStructure):
        MonoidPresentation("ab", [(("a",), ("z",))])
    pres = MonoidPresentation("ab", [(("a", "b"), ("b", "a"))])
    assert pres.is_homogeneous()
    assert not MonoidPresentation(
        "ab", [(("a", "b"), ("a",))]).is_homogeneous()


def test_word_problem_requires_homogeneous():
    for relations in ([(("a", "b"), ("a",))],
                      [(("a", "b"), ("b", "a")), ((), ("a",))],
                      [(("a",), ("a",)), ((), ()), (("b",), ())]):
        pres = MonoidPresentation("ab", relations)
        assert not pres.is_homogeneous()
        calls = [
            lambda: congruence_class(pres, ("a",)),
            lambda: congruence_class(pres, ()),
            lambda: equal_in_monoid(pres, ("a",), ("b",)),
            lambda: equal_in_monoid(pres, ("a", "b"), ("b",)),
            lambda: common_right_multiple(pres, [("a",)]),
            lambda: common_right_multiple(pres, [("a",), ("b",)], 0),
            lambda: atoms(pres),
        ]
        for call in calls:
            with pytest.raises(NotHomogeneous):
                call()


def test_redundant_relations_change_nothing():
    base = [(("a", "b"), ("b", "a")), (("a", "b", "a"), ("b", "a", "b"))]
    padded = MonoidPresentation("abc", base + [
        (("b", "a"), ("a", "b")),            # duplicate, read the other way
        (("a", "b"), ("b", "a")),            # duplicate
        (("c",), ("c",)),                    # both sides equal
        (("a", "b", "a"), ("a", "b", "a")),
        ((), ()),
    ])
    plain = MonoidPresentation("abc", base)
    assert padded.is_homogeneous()
    for n in range(5):
        for w in itertools.product("abc", repeat=n):
            cls = congruence_class(padded, w)
            assert cls == congruence_class(plain, w)
            assert cls == closure_oracle(padded, w)
    for xs in ([("a",), ("b",)], [("c",), ("a",)], [("b", "a"), ("c",)]):
        assert (common_right_multiple(padded, xs, 4)
                == common_right_multiple(plain, xs, 4)
                == crm_oracle(plain, xs, 4))
    assert atoms(padded) == atoms(plain)


def test_only_trivial_relations_give_singleton_classes():
    pres = MonoidPresentation("ab", [((), ()), (("a",), ("a",))])
    assert pres.is_homogeneous()
    for n in range(4):
        for w in itertools.product("ab", repeat=n):
            assert congruence_class(pres, w) == {w}
    assert equal_in_monoid(pres, (), ())
    assert not equal_in_monoid(pres, ("a", "b"), ("b", "a"))
    assert common_right_multiple(pres, [("a",), ("b",)], 4) is None
    assert atoms(pres).all_distinct


def test_common_right_multiple_matches_search_without_dedup():
    rng = random.Random(11)
    outcomes = set()
    for _ in range(150):
        pres = random_homogeneous_presentation(rng)
        xs = [tuple(rng.choice(pres.generators)
                    for _ in range(rng.randint(1, 2)))
              for _ in range(rng.randint(1, 3))]
        max_len = rng.randint(2, 5)
        got = common_right_multiple(pres, xs, max_len)
        assert got == crm_oracle(pres, xs, max_len), (pres.relations, xs)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_congruence_class_matches_closure_oracle():
    rng = random.Random(5)
    for pres in (c6_presentation(), m6_presentation(), braid3_presentation()):
        for _ in range(40):
            word = tuple(rng.choice(pres.generators)
                         for _ in range(rng.randint(0, 5)))
            cls = congruence_class(pres, word)
            assert cls == closure_oracle(pres, word)
            assert all(len(w) == len(word) for w in cls)


def test_congruence_is_multiplicative():
    rng = random.Random(6)
    for pres in (c6_presentation(), braid3_presentation()):
        for _ in range(20):
            u = tuple(rng.choice(pres.generators)
                      for _ in range(rng.randint(0, 3)))
            v = tuple(rng.choice(pres.generators)
                      for _ in range(rng.randint(0, 3)))
            target = congruence_class(pres, u + v)
            for m1 in congruence_class(pres, u):
                for m2 in congruence_class(pres, v):
                    assert m1 + m2 in target


def test_c6_classes_and_equalities():
    pres = c6_presentation()
    assert congruence_class(pres, ("a", "b'")) == {("a", "b'"), ("b", "a'")}
    assert congruence_class(pres, ("b", "c'")) == {("b", "c'"), ("c", "b'")}
    assert congruence_class(pres, ("a", "c'")) == {("a", "c'"), ("c", "a'")}
    assert equal_in_monoid(pres, ("a", "b'"), ("b", "a'"))
    assert not equal_in_monoid(pres, ("a", "b'"), ("a", "c'"))
    assert not equal_in_monoid(pres, ("a",), ("b",))


def test_braid3_word_problem():
    pres = braid3_presentation()
    assert equal_in_monoid(pres, "aba", "bab")
    assert not equal_in_monoid(pres, "ab", "ba")
    assert congruence_class(pres, tuple("abab")) == \
        {tuple("abab"), tuple("babb"), tuple("aaba")}


def test_atoms_reports():
    for pres in (c6_presentation(), m6_presentation(), braid3_presentation()):
        report = atoms(pres)
        assert report.atoms == pres.generators
        assert report.all_distinct
    glued = MonoidPresentation("xy", [(("x",), ("y",))])
    report = atoms(glued)
    assert not report.all_distinct
    assert report.identified_classes == (("x", "y"),)


def test_left_divides_mod():
    pres = c6_presentation()
    cls = congruence_class(pres, ("a", "b'"))
    assert left_divides_mod(pres, ("a",), cls)
    assert left_divides_mod(pres, ("b",), cls)
    assert not left_divides_mod(pres, ("c",), cls)
    assert left_divides_mod(pres, (), cls)


def test_common_right_multiples_in_c6():
    pres = c6_presentation()
    assert common_right_multiple(pres, [("a",)]) == ("a",)
    assert common_right_multiple(pres, [("a",), ("b",)]) == ("a", "b'")
    assert common_right_multiple(pres, [("b",), ("c",)]) == ("b", "c'")
    assert common_right_multiple(pres, [("a",), ("c",)]) == ("a", "c'")
    assert common_right_multiple(
        pres, [("a",), ("b",), ("c",)], max_len=4) is None
    with pytest.raises(InvalidStructure):
        common_right_multiple(pres, [])


def test_common_right_multiple_in_braid3():
    pres = braid3_presentation()
    assert common_right_multiple(pres, [("a",), ("b",)]) == ("a", "b", "a")


def test_crm_result_is_divisible_by_all():
    pres = c6_presentation()
    for xs in itertools.combinations([("a",), ("b",), ("c",)], 2):
        w = common_right_multiple(pres, list(xs))
        cls = congruence_class(pres, w)
        assert all(left_divides_mod(pres, x, cls) for x in xs)


def test_m6_embedding_report():
    report = verify_m6_embedding(2)
    assert report.relations_hold
    assert report.checked_length == 2
    # 6 singleton classes of length 1; the relations identify exactly two
    # pairs of length-2 words, so 36 - 2 classes of length 2
    assert report.class_count == 40
    assert report.injective
    for lhs, rhs, li, ri, ok in report.relation_checks:
        assert ok and li == ri


def test_m6_substituted_relations():
    report = verify_m6_embedding(1)
    images = {tuple(l): li for l, r, li, ri, ok in report.relation_checks}
    assert images[("a", "e")] == ("a", "x", "b")
    report_rels = dict((tuple(l), (li, ri))
                       for l, r, li, ri, ok in report.relation_checks)
    assert report_rels[("d", "a")] == (("b", "y", "a"), ("b", "y", "a"))


def test_builtin_presentations_match_data_files():
    pairs = [
        (c6_presentation(), "c6.monoid"),
        (m6_presentation(), "m6.monoid"),
        (braid3_presentation(), "b3.monoid"),
    ]
    for built, fname in pairs:
        loaded = load_monoid((DATA / fname).read_text(), fname)
        assert loaded.generators == built.generators
        assert loaded.relations == built.relations


def test_words_with_unknown_letters_are_rejected():
    pres = c6_presentation()
    calls = [
        lambda: congruence_class(pres, ("z",)),
        lambda: congruence_class(pres, ("a", "b'", "x")),
        lambda: equal_in_monoid(pres, ("z",), ("z",)),
        lambda: equal_in_monoid(pres, ("a",), ("z",)),
        lambda: common_right_multiple(pres, [("a",), ("z",)]),
        lambda: common_right_multiple(pres, [("z",)], 0),
        lambda: left_divides_mod(pres, ("z",), {("a",)}),
    ]
    for call in calls:
        with pytest.raises(InvalidStructure, match="unknown generator"):
            call()
    # a letter is checked as one token, not as the characters of a string
    with pytest.raises(InvalidStructure, match="'ab'"):
        congruence_class(pres, ["ab"])


def test_equal_in_monoid_compares_lengths_before_any_closure(monkeypatch):
    pres = c6_presentation()

    def no_closure(*args):
        raise AssertionError("a closure was taken")

    monkeypatch.setattr(presented, "_closure", no_closure)
    assert equal_in_monoid(pres, ("a", "b'"), ("b",)) is False
    assert equal_in_monoid(pres, (), ("b", "a'")) is False
    # both words are still checked first, v before u
    with pytest.raises(InvalidStructure, match="'z'"):
        equal_in_monoid(pres, ("y",), ("z", "a"))
    with pytest.raises(InvalidStructure, match="'y'"):
        equal_in_monoid(pres, ("y",), ("a", "b"))


def _classes_up_to(pres, n):
    """Every class of words of length <= n, once each, as sets."""
    out = {}
    for k in range(n + 1):
        for w in itertools.product(pres.generators, repeat=k):
            if w not in out:
                cls = frozenset(closure_oracle(pres, w))
                out.update(dict.fromkeys(cls, cls))
    return set(out.values())


def test_grow_matches_closure_oracle():
    """_grow(cls, g) is the class of cls[0]·g for every class up to length
    4 and every generator g, with a random member as representative; the
    seeds come first, in cls's order.  b3's relation has length 3 and the
    random presentations mix lengths 1, 2 and 3, so the windows that end at
    the new letter are taken at every rule length."""
    rng = random.Random(8)
    presentations = [c6_presentation(), m6_presentation(),
                     braid3_presentation()]
    presentations += [random_homogeneous_presentation(rng)
                      for _ in range(12)]
    assert {len(l) for p in presentations for l, _ in p.relations} == \
        {1, 2, 3}
    for pres in presentations:
        for cls in _classes_up_to(pres, 4):
            members = sorted(cls)
            rep = members[rng.randrange(len(members))]
            listed = [rep] + [w for w in members if w != rep]
            for g in pres.generators:
                grown = _grow(pres, listed, g)
                assert len(grown) == len(set(grown))
                assert set(grown) == closure_oracle(pres, rep + (g,)), \
                    (pres.relations, rep, g)
                assert grown[:len(listed)] == [w + (g,) for w in listed]


def test_class_walk_matches_reference_walk():
    """The walk yields the classes of the reference walk, which grows every
    (class, letter) pair with a full seed scan: the same sets with the same
    first words and the same states, in the same order, up to length 5,
    both from the empty word (as the m6 check walks) and from the class of
    a one-letter head (as crm walks).  Among the presentations are a
    length-1 rule, which makes its letters hot for every class, and
    relations whose two sides share their first letter."""
    rng = random.Random(13)
    presentations = [
        c6_presentation(), m6_presentation(), braid3_presentation(),
        MonoidPresentation("ab", [(("a",), ("b",))]),
        MonoidPresentation("abc", [(("a", "b"), ("a", "c")),
                                   (("b", "c", "a"), ("b", "a", "c"))])]
    presentations += [random_homogeneous_presentation(rng)
                      for _ in range(12)]
    assert {len(l) for p in presentations for l, _ in p.relations} == \
        {1, 2, 3}

    def carry(state, grown, start):
        return state, frozenset(grown[start:])

    for pres in presentations:
        head = (min(pres.generators),)
        head_class = [head, *sorted(congruence_class(pres, head) - {head})]
        for gens, cls, layers in [(pres.generators, [()], 5),
                                  (sorted(pres.generators), head_class, 4)]:
            got, want = ([(frozenset(c), c[0], state) for c, state in
                          walk(pres, gens, cls, None, carry, layers)]
                         for walk in (presented._class_walk,
                                      reference_class_walk))
            assert got == want, pres.relations


def test_m6_walk_grows_only_hot_letters(monkeypatch):
    """Of the 7436 classes of m6 up to length 5, 6970 come from a letter at
    which no rule can fire and are taken as their seeds; only the other 466
    are grown with a rewrite scan."""
    grown = []
    monkeypatch.setattr(presented, "_grow",
                        lambda *a: grown.append(a) or _grow(*a))
    assert verify_m6_embedding(5).class_count == 7436
    assert len(grown) == 466


def test_crm_and_m6_match_reference_walk():
    """crm on 996 families over c6, m6 and b3 (a generator and a word of
    one or two letters either way round, and three distinct generators),
    with bounds 3 to 5, and the m6 check up to length 6, agree with the
    same searches over the reference walk."""
    families = []
    for pres in (c6_presentation(), m6_presentation(),
                 braid3_presentation()):
        gens = pres.generators
        pairs = list(itertools.product(gens, repeat=2))
        families += [(pres, [(g,), w]) for g in gens
                     for w in [(h,) for h in gens] + pairs]
        families += [(pres, [w, (g,)]) for g in gens for w in pairs]
        families += [(pres, [(g,) for g in t])
                     for t in itertools.combinations(gens, 3)]
    assert len(families) == 996
    found = 0
    for i, (pres, xs) in enumerate(families):
        max_len = 3 + i % 3
        got = common_right_multiple(pres, xs, max_len)
        assert got == reference_common_right_multiple(pres, xs, max_len), \
            (pres.relations, xs, max_len)
        found += got is not None
    assert found == 208
    for n in range(7):
        report = verify_m6_embedding(n)
        assert (report.class_count, report.injective) == \
            reference_m6_classes(n)


def test_crm_tests_a_later_divisor_as_long_as_the_layer():
    # xs[1] = "b a'" is longer than xs[0] = "a" and first divides at length
    # 2, where it is not a prefix of the representative "a b'" but is the
    # other word of its class
    pres = c6_presentation()
    assert common_right_multiple(pres, [("a",), ("b", "a'")], 2) == \
        ("a", "b'")
    assert common_right_multiple(pres, [("a",), ("b", "a'")], 1) is None
    # an x longer than every word up to max_len divides nothing
    assert common_right_multiple(pres, [("a",), ("a", "b", "c")], 2) is None
    assert common_right_multiple(pres, [("a",), ("a", "b", "c")], 3) == \
        ("a", "b", "c")
    b3 = braid3_presentation()
    assert common_right_multiple(b3, [("a",), ("b", "a", "b")], 3) == \
        ("a", "b", "a")
    assert common_right_multiple(b3, [("a", "b"), ("b", "a", "b", "b")],
                                 4) == ("a", "b", "a", "b")


def test_crm_bound_below_the_first_word_is_none():
    pres = c6_presentation()
    assert common_right_multiple(pres, [("a", "b'")], 1) is None
    assert common_right_multiple(pres, [("a", "b'")], 2) == ("a", "b'")
    assert common_right_multiple(pres, [("a", "b'"), ("b",)], 0) is None
    assert common_right_multiple(pres, [()], 0) == ()


def test_m6_embedding_matches_brute_force():
    pres = m6_presentation()
    for n in range(1, 5):
        classes = _classes_up_to(pres, n) - {frozenset({()})}
        by_image = {}
        for k in range(1, n + 1):
            for w in itertools.product(pres.generators, repeat=k):
                by_image.setdefault(_m6_image(w), set()).add(w)
        # injective on classes: the words of one image lie in one class
        injective = all(ws <= closure_oracle(pres, min(ws))
                        for ws in by_image.values())
        report = verify_m6_embedding(n)
        assert report.class_count == len(classes)
        assert report.injective is injective is True


def test_class_walks_are_refused_at_the_first_layer_past_the_guard(
        monkeypatch):
    c6, b3 = c6_presentation(), braid3_presentation()
    # the longest walks the suite, goldens, README and benchmark ask for
    assert 6 ** 7 <= MAX_LAYER_CLASSES < 6 ** 8
    # the m6 check walks every layer, so it is refused before the walk
    with pytest.raises(SizeLimitExceeded, match=r"6\*\*8 classes"):
        verify_m6_embedding(8)
    with pytest.raises(SizeLimitExceeded, match=r"6\*\*1000000000 classes"):
        verify_m6_embedding(10 ** 9)
    # crm returns an answer from a layer below the limit at any max_len
    assert common_right_multiple(c6, [("a",), ("b",)], 9) == ("a", "b'")
    assert common_right_multiple(c6, [("a",), ("b",)], 10 ** 9) == \
        ("a", "b'")
    assert common_right_multiple(b3, [("a",), ("b",)], 30) == ("a", "b", "a")
    assert common_right_multiple(b3, [("a",), ("b", "b")], 21) == \
        ("a", "b", "a", "a")
    # a head that already answers, or that is longer than the bound, walks
    # nothing, so nothing is refused
    assert common_right_multiple(c6, [("a",)], 10 ** 9) == ("a",)
    assert common_right_multiple(c6, [("a", "b")], 1) is None
    one = MonoidPresentation("a", [])
    assert common_right_multiple(one, [("a",), ("a", "a")], 50) == ("a", "a")
    # a family with no common multiple walks every layer below the limit
    # and is refused at the first one past it: over a, b with no relations
    # that is 2 + 4 + ... + 64 grown classes, then 2**7 > 100.  Every grown
    # class is yielded by the walk, quiet or hot, so the yields are counted
    free = MonoidPresentation("ab", [])
    grown = []
    walk = presented._class_walk

    def counted_walk(*args):
        for item in walk(*args):
            grown.append(item)
            yield item

    monkeypatch.setattr(presented, "MAX_LAYER_CLASSES", 100)
    monkeypatch.setattr(presented, "_class_walk", counted_walk)
    with pytest.raises(SizeLimitExceeded, match=r"2\*\*7 classes"):
        common_right_multiple(free, [("a",), ("b",)], 30)
    assert len(grown) == 126
