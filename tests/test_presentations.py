import random

import pytest

from catmon import (
    GroupPresentation,
    InvalidStructure,
    format_word,
    free_reduce,
    invert_word,
    parse_word,
    substitute,
)

from helpers import rational_rank


def random_word(rng, letters="xyz", n=8):
    return tuple((rng.choice(letters), rng.choice((1, -1)))
                 for _ in range(rng.randint(0, n)))


def test_free_reduce_cancels_inverse_pairs():
    assert free_reduce([("x", 1), ("x", -1)]) == ()
    assert free_reduce([("x", 1), ("y", 1), ("y", -1), ("x", -1)]) == ()
    assert free_reduce([("x", 1), ("y", -1), ("x", 1)]) == \
        (("x", 1), ("y", -1), ("x", 1))


def test_free_reduce_is_idempotent_and_kills_inverses():
    rng = random.Random(9)
    for _ in range(200):
        w = random_word(rng)
        r = free_reduce(w)
        assert free_reduce(r) == r
        assert free_reduce(tuple(r) + tuple(invert_word(r))) == ()


def test_free_reduce_rejects_bad_exponents():
    with pytest.raises(InvalidStructure):
        free_reduce([("x", 2)])


def test_presentation_refuses_bad_exponents():
    with pytest.raises(InvalidStructure, match="exponent must be ±1, got 2"):
        GroupPresentation(["x"], [[("x", 1), ("x", 2)]])


def test_parse_format_round_trip():
    word = (("x", 1), ("y", -1), ("x", 1))
    assert parse_word(["x", "y^-1", "x"]) == word
    assert format_word(word) == "x y^-1 x"
    assert format_word(()) == "1"
    rng = random.Random(10)
    for _ in range(100):
        w = free_reduce(random_word(rng))
        assert parse_word(format_word(w).split()) == w or not w


def test_substitute_replaces_generator_and_its_inverse():
    w = (("g", 1), ("h", 1), ("g", -1))
    out = substitute(w, "g", (("u", 1), ("v", -1)))
    assert out == free_reduce(
        [("u", 1), ("v", -1), ("h", 1), ("v", 1), ("u", -1)])


def test_group_presentation_validation():
    with pytest.raises(InvalidStructure):
        GroupPresentation(["x", "x"], [])
    with pytest.raises(InvalidStructure):
        GroupPresentation(["x"], [(("y", 1),)])


def test_abelianization_rank_hand_values():
    assert GroupPresentation(["x", "y"], []).abelianization_rank() == 2
    assert GroupPresentation(["x"], [(("x", 1), ("x", 1))]) \
        .abelianization_rank() == 0
    # commutator relator does not change the rank
    assert GroupPresentation(
        ["x", "y"],
        [(("x", 1), ("y", 1), ("x", -1), ("y", -1))]).abelianization_rank() \
        == 2
    # x^2 y^2 = 1 abelianizes to one independent relation
    assert GroupPresentation(
        ["x", "y"],
        [(("x", 1), ("x", 1), ("y", 1), ("y", 1))]).abelianization_rank() == 1


def test_free_rank_only_without_relators():
    assert GroupPresentation(["x", "y"], []).free_rank() == 2
    assert GroupPresentation(["x"], [(("x", 1), ("x", 1))]).free_rank() \
        is None


def power(g, k):
    """The word g^k, written with exponents ±1."""
    return ((g, 1 if k > 0 else -1),) * abs(k)


def test_relator_matrix_rank_with_growing_pivots():
    x3y_2 = power("x", 3) + power("y", -2)
    x2y5 = power("x", 2) + power("y", 5)
    assert GroupPresentation(["x", "y"], [x3y_2, x2y5]) \
        .relator_matrix_rank() == 2
    assert GroupPresentation(["x", "y"], [x3y_2, x3y_2 + x3y_2]) \
        .relator_matrix_rank() == 1
    assert GroupPresentation(["x", "y", "z"], [(), power("x", 1) + power(
        "x", -1)]).relator_matrix_rank() == 0


def random_relator(rng, gens):
    """A product of random powers, with cancelling pairs mixed in."""
    word = ()
    for _ in range(rng.randint(0, 4)):
        g = rng.choice(gens)
        word += power(g, rng.randint(-5, 5))
        if rng.random() < 0.3:
            h = rng.choice(gens)
            word += ((h, 1), (h, -1)) if rng.random() < 0.5 else \
                ((h, -1), (h, 1))
    return word


def test_relator_matrix_rank_matches_rational_elimination():
    rng = random.Random(31)
    for _ in range(2500):
        gens = "xyzuvw"[:rng.randint(1, 6)]
        relators = [random_relator(rng, gens)
                    for _ in range(rng.randint(0, 8))]
        pres = GroupPresentation(gens, relators)
        assert pres.relator_matrix_rank() == rational_rank(gens, relators), \
            (gens, relators)
