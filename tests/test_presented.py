import itertools
import random
from pathlib import Path

import pytest

from catmon import (
    InvalidStructure,
    MonoidPresentation,
    NotHomogeneous,
    atoms,
    braid3_presentation,
    c6_presentation,
    common_right_multiple,
    congruence_class,
    equal_in_monoid,
    left_divides_mod,
    m6_presentation,
    verify_m6_embedding,
)
from catmon.formats import load_monoid

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
