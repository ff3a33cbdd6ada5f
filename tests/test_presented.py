import itertools
import random
from pathlib import Path

import pytest

from catmon import (
    AtomsReport,
    EmptyFamily,
    InvalidStructure,
    M6Report,
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
from catmon import limits
from catmon.formats import load_monoid
from catmon.presented import _decode, _encode, _grow, _m6_image
from helpers import (
    assert_record,
    reference_class_walk,
    reference_closure,
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
    assert not atoms(pres).identified_classes


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
        assert not report.identified_classes
    glued = MonoidPresentation("xy", [(("x",), ("y",))])
    assert atoms(glued).identified_classes == (("x", "y"),)


def reference_atoms(pres):
    """The identified generators, read off the closure of every one-letter
    word: classes of two or more, by least digit, members in digit order."""
    gens = pres.generators
    classes = []
    for g in gens:
        cls = reference_closure(pres, (g,))
        mates = tuple(h for h in gens if (h,) in cls)
        if len(mates) > 1 and mates not in classes:
            classes.append(mates)
    return tuple(classes)


def random_presentation_with_letter_rules(rng):
    """Up to six generators, some length-one relations (chains x = y,
    y = z, sides either way round, x = x and repeats) among longer
    homogeneous ones."""
    gens = "abcdef"[:rng.randint(1, 6)]
    relations = []
    for _ in range(rng.randint(0, 5)):
        x, y = rng.choice(gens), rng.choice(gens)
        relations += rng.choice([[((x,), (y,))],
                                 [((x,), (y,)), ((y,), (x,))],
                                 [((x,), (x,))]])
        if relations and rng.random() < 0.3:
            relations.append(rng.choice(relations))
    for _ in range(rng.randint(0, 3)):
        k = rng.randint(2, 3)
        relations.append((tuple(rng.choice(gens) for _ in range(k)),
                          tuple(rng.choice(gens) for _ in range(k))))
    rng.shuffle(relations)
    return MonoidPresentation(gens, relations)


def test_atoms_match_the_closure_oracle():
    rng = random.Random(32)
    merging = 0
    for _ in range(600):
        pres = random_presentation_with_letter_rules(rng)
        report = atoms(pres)
        assert report.atoms == pres.generators
        assert report.identified_classes == reference_atoms(pres), \
            pres.relations
        merging += bool(report.identified_classes)
    assert merging > 200, merging


def test_atoms_take_no_closure(monkeypatch):
    def no_closure(*args):
        raise AssertionError("a closure was taken")

    monkeypatch.setattr(presented, "_spread", no_closure)
    monkeypatch.setattr(presented, "_closure", no_closure)
    for pres in (c6_presentation(), m6_presentation(), braid3_presentation()):
        assert atoms(pres) == (pres.generators, ())
    chained = MonoidPresentation("abcde", [
        (("d",), ("b",)), (("a", "c"), ("c", "a")), (("e",), ("c",)),
        (("b",), ("e",)), (("a",), ("a",))])
    assert atoms(chained) == (tuple("abcde"), (("b", "c", "d", "e"),))


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
    with pytest.raises(EmptyFamily):
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


def _digit(pres, g):
    return pres.generators.index(g)


def _coded(pres, words):
    """The codes of tuple words, in order."""
    return [_encode(pres, w) for w in words]


def _decoded(pres, codes, n):
    """The tuple words of n letters with these codes, in order."""
    return [_decode(pres, c, n) for c in codes]


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
                grown = _decoded(pres, _grow(pres, _coded(pres, listed),
                                             len(rep), _digit(pres, g)),
                                 len(rep) + 1)
                assert len(grown) == len(set(grown))
                assert set(grown) == closure_oracle(pres, rep + (g,)), \
                    (pres.relations, rep, g)
                assert grown[:len(listed)] == [w + (g,) for w in listed]


def test_class_walk_matches_reference_walk():
    """The walk yields the classes of the reference walk, which grows every
    (class, letter) pair with a full seed scan, once each fan is expanded
    into the seed classes of its letters: the same sets with the same
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

    def coded_carry(state, grown, start, n):
        return carry(state, _decoded(pres, grown, n), start)

    def expanded(walk):
        for c, n, state, fan in walk:
            c = _decoded(pres, c, n)
            if fan is None:
                yield c, state
                continue
            for g in fan:
                seeds = [w + (pres.generators[g],) for w in c]
                yield seeds, carry(state, seeds, len(c))

    fans = 0
    for pres in presentations:
        head = (min(pres.generators),)
        head_class = [head, *sorted(congruence_class(pres, head) - {head})]
        for gens, cls, layers in [(pres.generators, [()], 5),
                                  (sorted(pres.generators), head_class, 4)]:
            walk = list(presented._class_walk(
                pres, [_digit(pres, g) for g in gens], _coded(pres, cls),
                len(cls[0]), None, coded_carry, layers))
            fans += sum(fan is not None for *_, fan in walk)
            got, want = ([(frozenset(c), c[0], state) for c, state in items]
                         for items in (expanded(walk), reference_class_walk(
                             pres, gens, cls, None, carry, layers)))
            assert got == want, pres.relations
    assert fans


def test_m6_walk_grows_only_hot_letters(monkeypatch):
    """Of the 7436 classes of m6 up to length 5, 6970 come from a letter at
    which no rule can fire and are taken as their seeds; only the other 466
    are grown with a rewrite scan."""
    grown = []
    monkeypatch.setattr(presented, "_grow",
                        lambda *a: grown.append(a) or _grow(*a))
    assert verify_m6_embedding(5).class_count == 7436
    assert len(grown) == 466


def test_m6_walk_fans_out_its_last_layer(monkeypatch):
    """Of the 7436 classes of m6 up to length 5, 5736 are quiet classes of
    the last layer: they reach the check as letters of fans, and no list
    is built for them.  The walk builds the other 1700, and grows 466."""
    grown = []
    monkeypatch.setattr(presented, "_grow",
                        lambda *a: grown.append(a) or _grow(*a))
    walk = presented._class_walk
    items = []

    def recorded_walk(*args):
        for item in walk(*args):
            items.append(item)
            yield item

    monkeypatch.setattr(presented, "_class_walk", recorded_walk)
    report = verify_m6_embedding(5)
    assert (report.class_count, report.injective) == (7436, True)
    assert sum(fan is None for *_, fan in items) == 1700
    assert sum(len(fan) for *_, fan in items if fan is not None) == 5736
    assert all(n == 4 for _, n, _, fan in items if fan is not None)
    assert len(grown) == 466


def test_crm_and_m6_match_reference_walk():
    """crm on 996 families over c6, m6 and b3 (a generator and a word of
    one or two letters either way round, and three distinct generators),
    with bounds 3 to 5, and the m6 check for lengths 1 to 6, agree with the
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
    for n in range(1, 7):
        report = verify_m6_embedding(n)
        assert (report.class_count, report.injective) == \
            reference_m6_classes(n)
    with pytest.raises(InvalidStructure):
        verify_m6_embedding(0)


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


def test_crm_finds_a_divisor_as_long_as_the_bound_in_a_fan(monkeypatch):
    """A last member as long as the bound divides a class of the last
    layer only by being one of its words.  When that class is in a fan,
    crm tests the fan's seeds, and it answers as the reference walk does:
    the family is a head and a random word of the class of head·tail."""
    rng = random.Random(21)
    presentations = [c6_presentation(), m6_presentation(),
                     braid3_presentation()]
    presentations += [random_homogeneous_presentation(rng)
                      for _ in range(9)]
    walk = presented._class_walk
    last = []

    def recorded_walk(*args):
        for item in walk(*args):
            last[:] = [item]
            yield item

    monkeypatch.setattr(presented, "_class_walk", recorded_walk)
    from_fans = 0
    for pres in presentations:
        gens = sorted(pres.generators)
        for _ in range(30):
            max_len = rng.randint(2, 4)
            head = tuple(rng.choice(gens) for _ in range(rng.randint(1, 2)))
            tail = tuple(rng.choice(gens)
                         for _ in range(max_len - len(head)))
            x = rng.choice(sorted(congruence_class(pres, head + tail)))
            xs = [head, x]
            last.clear()
            got = common_right_multiple(pres, xs, max_len)
            assert got == reference_common_right_multiple(
                pres, xs, max_len), (pres.relations, xs, max_len)
            assert got is not None and len(got) == max_len
            # a head as long as the bound answers with no walk
            from_fans += bool(last) and last[0][3] is not None
    assert from_fans >= 100


def _agree_with_oracles(pres, words, families, max_len):
    """congruence_class, equal_in_monoid and atoms agree with the closure
    oracle on words, and crm with crm_oracle on families; every public
    result is made of tuples of generators, never of codes."""
    gens = set(pres.generators)

    def is_word(w):
        return type(w) is tuple and gens.issuperset(w)

    for w in words:
        cls = congruence_class(pres, w)
        assert cls == closure_oracle(pres, w), (pres.relations, w)
        assert all(is_word(u) for u in cls)
        assert all(equal_in_monoid(pres, w, u) for u in cls)
        other = tuple(reversed(w))
        assert equal_in_monoid(pres, w, other) == (other in cls)
    for xs in families:
        got = common_right_multiple(pres, xs, max_len)
        assert got == crm_oracle(pres, xs, max_len), (pres.relations, xs)
        assert got is None or is_word(got)
    report = atoms(pres)
    assert report.atoms == pres.generators
    for mates in report.identified_classes:
        assert is_word(mates)
        assert all((h,) in closure_oracle(pres, mates[:1]) for h in mates)


def test_coding_edge_cases_match_the_oracles():
    # one generator: base 2 with the one digit 0, so every word's code is
    # 0 and only its length tells words apart; and the empty word
    for relations in ([], [(("a",), ("a",))], [(("a", "a"), ("a", "a"))]):
        one = MonoidPresentation("a", relations)
        _agree_with_oracles(one, [(), ("a",), ("a",) * 7],
                            [[()], [(), ("a",)], [("a",), ("a", "a", "a")],
                             [("a", "a"), ("a",)]], 4)
        assert common_right_multiple(one, [("a",), ("a",) * 3], 4) == \
            ("a",) * 3
    _agree_with_oracles(c6_presentation(), [()], [[()], [(), ("a'",)]], 2)
    # generators declared out of sorted order: c is digit 0, a digit 2.
    # Both c a and c c are divisible by b, and crm answers the
    # lexicographically first, c a, not the first by digit
    cba = MonoidPresentation("cba", [(("c", "a"), ("b", "a")),
                                     (("c", "c"), ("b", "c"))])
    assert common_right_multiple(cba, [("c",), ("b",)], 3) == ("c", "a")
    _agree_with_oracles(cba, [tuple("cacb"), tuple("bcab")],
                        [[("c",), ("b",)], [("a",), ("b", "c")]], 4)
    # multi-character names, one of them the concatenation of two others
    named = MonoidPresentation(("b'", "a", "ab", "b"),
                               [(("a", "b"), ("ab", "b'")),
                                (("b'", "ab"), ("ab", "a"))])
    _agree_with_oracles(named, [("a", "b", "ab"), ("b'", "ab", "b")],
                        [[("a",), ("ab",)], [("b'",), ("ab", "a")]], 4)
    # length-1 rules, alone and beside longer ones: every letter is hot
    for relations in ([(("a",), ("b",))],
                      [(("a",), ("c",)), (("a", "b"), ("b", "a"))]):
        short = MonoidPresentation("abc", relations)
        _agree_with_oracles(short, [tuple("abca"), tuple("cc")],
                            [[("a",), ("b",)], [("c",), ("b", "b")]], 4)
    # words of 30 letters and more, whose codes pass 64 bits on c6 and m6
    # (6**30 > 2**77); a random b3 word that long has a class of millions,
    # so b3's has a class of 30
    rng = random.Random(30)
    for pres in (c6_presentation(), m6_presentation()):
        gens = pres.generators
        long = [tuple(rng.choice(gens) for _ in range(n)) for n in (30, 33)]
        _agree_with_oracles(pres, long, [[long[0], (gens[1],)]], 31)
    b3_long = tuple("a" * 14 + "aba" + "b" * 14)
    assert len(congruence_class(braid3_presentation(), b3_long)) == 30
    _agree_with_oracles(braid3_presentation(), [b3_long],
                        [[b3_long, ("b",)], [b3_long[:30], ("b", "b")]], 32)


def test_shuffled_multi_character_generators_match_the_oracles():
    """Random presentations whose generators are declared in a random
    order and have names of one and two characters."""
    rng = random.Random(17)
    names = ["a", "b", "c", "a'", "bc"]
    for _ in range(60):
        gens = rng.sample(names, rng.randint(1, 4))
        relations = []
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, 3)
            relations.append((tuple(rng.choice(gens) for _ in range(k)),
                              tuple(rng.choice(gens) for _ in range(k))))
        pres = MonoidPresentation(gens, relations)
        words = [tuple(rng.choice(gens) for _ in range(rng.randint(0, 5)))
                 for _ in range(3)]
        families = [[tuple(rng.choice(gens)
                           for _ in range(rng.randint(0, 2)))
                     for _ in range(rng.randint(1, 3))] for _ in range(3)]
        _agree_with_oracles(pres, words, families, rng.randint(1, 4))


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
    assert 6 ** 7 <= limits.MAX_COUNT < 6 ** 8
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

    monkeypatch.setattr(limits, "MAX_COUNT", 100)
    monkeypatch.setattr(presented, "_class_walk", counted_walk)
    with pytest.raises(SizeLimitExceeded, match=r"2\*\*7 classes"):
        common_right_multiple(free, [("a",), ("b",)], 30)
    assert len(grown) == 126


def test_presented_records_keep_their_contract():
    assert_record(AtomsReport, atoms=("a", "b", "c"),
                  identified_classes=(("a", "b"),))
    assert not atoms(c6_presentation()).identified_classes
    assert_record(M6Report, relation_checks=(), relations_hold=True,
                  checked_length=2, class_count=40, injective=True)
    assert verify_m6_embedding(2) == M6Report(
        verify_m6_embedding(1).relation_checks, True, 2, 40, True)


def test_bounds_below_their_floor_are_refused():
    # no vacuous answer from a nonsensical bound: the m6 check needs a
    # length of 1 or more, a search one of 0 or more
    for max_len in (0, -1):
        with pytest.raises(InvalidStructure, match=f"max_len {max_len} "):
            verify_m6_embedding(max_len)
    c6 = c6_presentation()
    with pytest.raises(InvalidStructure, match="max_len -1 "):
        common_right_multiple(c6, [()], -1)
    assert common_right_multiple(c6, [()], 0) == ()
    assert common_right_multiple(c6, [("a",)], 0) is None
