"""Acceptance suite: one test per shipped guarantee, exact unless noted.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per guarantee; each test also prints a short summary of what it swept
(visible with ``-s`` or in failure output).  Wall-clock budgets are
measured with time.perf_counter on the machine running the suite.
"""

import itertools
import random
import time
from pathlib import Path

from catmon import (
    FreeProductWord,
    SimplicialComplex,
    barycentric,
    c6_presentation,
    cat_of_poset,
    chain_complex,
    check_separation,
    common_right_multiple,
    cross_check,
    detect_spindle,
    elements_up_to,
    embed_free_group,
    embed_free_monoid,
    embeddability_verdict,
    equal_in_monoid,
    floating_decomposition,
    gcd_criterion,
    gcd_pair,
    generator,
    group_multiply,
    group_product,
    highlighting_expansion,
    is_extreme_spindle,
    multiply,
    reduce_sequence,
    spindle_category,
    spindle_presentation,
    verify_m6_embedding,
)
from catmon.formats import load_category, load_complex, load_functor, load_poset
from catmon.groups import FreeGroupWord, GroupSpec
from catmon.poset import Poset

from helpers import (
    divisibility_tables,
    labeled_complexes,
    labeled_posets,
    natural_posets,
    poset_classes,
    posets_up_to,
    random_category,
    random_category_bounded,
    random_raw_sequence,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def _load(name):
    text = (DATA / name).read_text()
    kind = name.rsplit(".", 1)[1]
    if kind == "poset":
        return load_poset(text, name)
    if kind == "complex":
        return load_complex(text, name)
    return load_category(text, name)


def test_criterion_01_reduction_confluence():
    start = time.perf_counter()
    rng = random.Random(101)
    cats = [random_category(rng) for _ in range(100)]
    checked = 0
    for cat in cats:
        for _ in range(10):
            raw = random_raw_sequence(cat, rng)
            a, _ = reduce_sequence(cat, raw, rng=random.Random(1000 + checked))
            b, _ = reduce_sequence(cat, raw,
                                   rng=random.Random(7000 + 13 * checked))
            c, _ = reduce_sequence(cat, raw)
            assert a == b == c
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 1000
    assert elapsed < 10.0
    print(f"1000 raw sequences over 100 random categories: two independent "
          f"random reduction orders and the deterministic order all agree "
          f"({elapsed:.2f}s < 10s)")


def _table_gcd(pool, masks, memo, x, y):
    """Greatest common divisor read off the exhaustive divisor table.

    masks[z] is the bitmask (over pool indices) of divisors of z on the
    relevant side.  The gcd of x and y depends only on the set of common
    divisors, so results are memoised per common-divisor mask: a climbing
    pass finds the only possible candidate and the final subset test
    confirms every common divisor divides it.
    """
    common = masks[x] & masks[y]
    if common in memo:
        return memo[common]
    best = (common & -common).bit_length() - 1
    rest = common
    while rest:
        i = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        if masks[pool[i]] >> best & 1:
            best = i
    res = pool[best] if not common & ~masks[pool[best]] else None
    memo[common] = res
    return res


def test_criterion_02_gcd_matches_divisor_table_oracle():
    start = time.perf_counter()
    cats = [cat_of_poset(p) for n in range(1, 6) for p in poset_classes(n)]
    assert len(cats) == 87
    checked_pairs = 0
    build_s = sweep_s = 0.0
    for cat in cats:
        t0 = time.perf_counter()
        pool, left, right = divisibility_tables(cat, 3)
        index = {x: i for i, x in enumerate(pool)}
        lmask = {x: sum(1 << index[d] for d in left[x]) for x in pool}
        rmask = {x: sum(1 << index[d] for d in right[x]) for x in pool}
        t1 = time.perf_counter()
        lmemo, rmemo = {}, {}
        for x, y in itertools.combinations_with_replacement(pool, 2):
            assert _table_gcd(pool, lmask, lmemo, x, y) == \
                gcd_pair("left", x, y)
            assert _table_gcd(pool, rmask, rmemo, x, y) == \
                gcd_pair("right", x, y)
            checked_pairs += 1
        build_s += t1 - t0
        sweep_s += time.perf_counter() - t1
    elapsed = time.perf_counter() - start
    assert checked_pairs == 3254581
    assert elapsed < 60.0, (
        f"{elapsed:.1f}s >= 60s: divisor tables {build_s:.1f}s, "
        f"gcd sweep {sweep_s:.1f}s")
    print(f"gcd agrees with the exhaustive divisor-table oracle on "
          f"{checked_pairs} pairs across all {len(cats)} poset categories "
          f"on <=5 elements, both sides ({elapsed:.2f}s < 60s)")


def test_criterion_03_gcd_criterion_equivalences():
    start = time.perf_counter()
    total = holding = 0
    for n in range(1, 6):
        for p in labeled_posets(n):
            crit = gcd_criterion(p).holds
            cat = cat_of_poset(p)
            rep = cat.gcd_category_report().holds
            gens = cat.non_identities()
            um_ok = True
            for a, b in itertools.combinations(gens, 2):
                if cat.src(a) == cat.src(b) and gcd_pair(
                        "left", generator(cat, a), generator(cat, b)) is None:
                    um_ok = False
                    break
                if cat.tgt(a) == cat.tgt(b) and gcd_pair(
                        "right", generator(cat, a), generator(cat, b)) is None:
                    um_ok = False
                    break
            assert crit == rep == um_ok, (p, crit, rep, um_ok)
            total += 1
            holding += crit
    elapsed = time.perf_counter() - start
    assert total == 4473
    assert elapsed < 120.0
    print(f"order criterion == category gcd report == generator-pair gcds "
          f"in the universal monoid, on all {total} labeled posets <=5 "
          f"({holding} satisfy it; {elapsed:.2f}s < 120s)")


def test_criterion_04_barycentric_satisfies_gcd_criterion():
    complexes = labeled_complexes(5)
    assert len(complexes) == 7579
    for complex_ in complexes:
        assert gcd_criterion(barycentric(complex_)).holds
    print(f"gcd criterion holds on the barycentric poset of all "
          f"{len(complexes)} complexes on <=5 vertices")


def test_criterion_05_square_complex_decomposition():
    square = load_complex((DATA / "square.complex").read_text(),
                          "square.complex")
    assert square == SimplicialComplex(
        [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")])
    dec = floating_decomposition(square)
    assert dec.tree_edge_count == 3
    assert dec.pi1.free_rank() == 1
    assert dec.total_free_rank == 4
    print("square: 3 spanning-tree edges, pi1 free of rank 1, "
          "homotopy group free of rank 4")


def test_criterion_06_bounded_below_posets_free_rank():
    count = 0
    for n in range(1, 7):
        for p in natural_posets(n):
            if p.least_element() is None:
                continue
            dec = floating_decomposition(chain_complex(p))
            assert dec.pi1.generators == ()
            assert dec.pi1.relators == ()
            assert dec.total_free_rank == n - 1
            count += 1
    assert count == 408
    seven = [
        _load("p7.poset"),
        Poset("abcdefg",
              [(x, y) for x, y in zip("abcdef", "bcdefg")]),
        Poset("oabcdef", [("o", x) for x in "abcdef"]),
    ]
    for p in seven:
        assert len(p.elements) == 7 and p.least_element() is not None
        dec = floating_decomposition(chain_complex(p))
        assert dec.pi1.generators == () and dec.pi1.relators == ()
        assert dec.total_free_rank == 6
    print(f"free rank n-1 with trivial pi1 on all {count} bounded-below "
          f"posets with <=6 elements; rank 6 on three 7-element instances")


def test_criterion_07_free_rank_cross_check():
    checked = skipped = 0
    for p in posets_up_to(5):
        if not chain_complex(p).is_connected():
            skipped += 1
            continue
        report = cross_check(p)
        assert report.agree is True, (p, report)
        checked += 1
    assert checked == 204
    print(f"homotopy free rank equals abelianization rank of the universal "
          f"group on all {checked} posets <=5 with connected chain complex "
          f"({skipped} disconnected skipped)")


def _unit_product_exists(nonunits):
    for x in nonunits:
        for y in nonunits:
            if multiply(x, y).is_unit:
                return True
    return False


def _bounded_collision(cat, pool, side):
    for a in cat.non_identities():
        ga = generator(cat, a)
        seen = {}
        for x in pool:
            p = multiply(ga, x) if side == "left" else multiply(x, ga)
            if p in seen and seen[p] != x:
                return True
            seen[p] = x
    return False


def test_criterion_08_transfer_of_flags_to_universal_monoid():
    rng = random.Random(808)
    nonconical = noncancellative = 0
    for _ in range(100):
        cat = random_category_bounded(rng, max_elements=150)
        pool = elements_up_to(cat, 3)
        nonunits = [x for x in pool if x.length]
        assert _unit_product_exists(nonunits) == (not cat.is_conical())
        assert _bounded_collision(cat, pool, "left") == \
            (not cat.is_left_cancellative())
        assert _bounded_collision(cat, pool, "right") == \
            (not cat.is_right_cancellative())
        if not cat.is_conical():
            nonconical += 1
            f, g = cat.conical_witness()
            assert multiply(generator(cat, f), generator(cat, g)).is_unit
        if not cat.is_left_cancellative():
            a, x, y = cat.left_cancellation_witness()
            ga = generator(cat, a)
            assert generator(cat, x) != generator(cat, y)
            assert multiply(ga, generator(cat, x)) == \
                multiply(ga, generator(cat, y))
        if not cat.is_right_cancellative():
            a, x, y = cat.right_cancellation_witness()
            ga = generator(cat, a)
            assert generator(cat, x) != generator(cat, y)
            assert multiply(generator(cat, x), ga) == \
                multiply(generator(cat, y), ga)
        if not cat.is_cancellative():
            noncancellative += 1
    assert nonconical and noncancellative
    print(f"conicality and cancellativity flags match exhaustive bounded "
          f"sweeps (elements of length <=3) on 100 random categories "
          f"({nonconical} non-conical, {noncancellative} non-cancellative, "
          f"witnesses verified)")


def test_criterion_09_spindle_characterization_and_categories():
    pairs = extreme = 0
    for p in posets_up_to(6):
        ambient_gcd = gcd_criterion(p).holds
        for u in p.elements:
            for v in p.elements:
                if not p.lt(u, v) or not p.open_interval(u, v):
                    continue
                pairs += 1
                inner = p.open_interval(u, v)
                transitive = all(
                    not (p.comparable(x, y) and p.comparable(y, z))
                    or p.comparable(x, z)
                    for x in inner for y in inner for z in inner
                    if x != y and y != z)
                chains = p.maximal_chains_in(u, v)
                ends = {u, v}
                chains_meet_in_ends = all(
                    set(c1) & set(c2) == ends
                    for i, c1 in enumerate(chains) for c2 in chains[i + 1:])
                assert transitive == chains_meet_in_ends
                spindle = detect_spindle(p, u, v)
                assert (spindle is not None) == transitive
                if spindle is None:
                    continue
                assert spindle.chains == chains
                if not is_extreme_spindle(p, spindle):
                    continue
                extreme += 1
                cat = spindle_category(p, spindle)
                if ambient_gcd:
                    assert cat.gcd_category_report().holds
                pres = spindle_presentation(p, spindle)
                for lhs, rhs in pres.relations:
                    assert reduce_sequence(cat, list(lhs))[0] == \
                        reduce_sequence(cat, list(rhs))[0]
    assert pairs == 7948
    assert extreme == 5982
    print(f"both characterizations agree on {pairs} interval pairs across "
          f"all posets <=6; {extreme} extreme spindle categories validated "
          f"with their presentations")


def test_criterion_10_c6_separation_and_sigma_injectivity():
    start = time.perf_counter()
    cat = load_category((DATA / "c6.category").read_text(), "c6.category")
    functor = load_functor((DATA / "c6_z3.functor").read_text(), cat,
                           "c6_z3.functor")
    assert check_separation(functor).holds
    verdict = embeddability_verdict(functor)
    assert verdict.embeds
    assert verdict.verdict == "Um(S) embeds into a group"
    assert verdict.sigma_injective is True
    expanded = highlighting_expansion(functor)
    pool = elements_up_to(cat, 3)
    images = {}
    for x in pool:
        w = group_product(expanded.target,
                          [expanded.image(f) for f in x.arrows])
        assert isinstance(w, FreeProductWord)
        assert w not in images, (x, images[w])
        images[w] = x
    elapsed = time.perf_counter() - start
    assert len(images) == len(pool) == 1660
    assert elapsed < 30.0
    print(f"separation criterion holds and sigma is injective on all "
          f"{len(pool)} elements of length <=3 ({elapsed:.2f}s < 30s)")


def test_criterion_11_c6_lacks_triple_common_multiple():
    pres = c6_presentation()
    prime = {"a": "a'", "b": "b'", "c": "c'"}
    for u, v in [("a", "b"), ("a", "c"), ("b", "c")]:
        m = common_right_multiple(pres, [(u,), (v,)], max_len=2)
        assert m == (u, prime[v])
        assert equal_in_monoid(pres, (u, prime[v]), (v, prime[u]))
    assert common_right_multiple(
        pres, [("a",), ("b",), ("c",)], max_len=8) is None
    print("each generator pair has a length-2 common right multiple "
          "(ab' = ba' and friends) but {a, b, c} has none up to length 8")


def test_criterion_12_m6_free_monoid_embedding():
    report = verify_m6_embedding(5)
    assert report.relations_hold is True
    for lhs, rhs, lhs_image, rhs_image, ok in report.relation_checks:
        assert ok and lhs_image == rhs_image
    assert report.checked_length == 5
    assert report.class_count == 7436
    assert report.injective is True
    print(f"both substituted relations hold as free-monoid identities and "
          f"the embedding separates all {report.class_count} classes of "
          f"words up to length 5")


def test_criterion_13_poset_interval_embeddings():
    total = 0
    for p in posets_up_to(5):
        cat = cat_of_poset(p)
        pool = elements_up_to(cat, 3)
        _, mapper = embed_free_monoid(p)
        for f in cat.non_identities():
            for g in cat.arrows_from(cat.tgt(f)):
                if cat.is_identity(g):
                    continue
                x, y = generator(cat, f), generator(cat, g)
                xy = multiply(x, y)
                assert embed_free_group(xy) == group_multiply(
                    embed_free_group(x), embed_free_group(y))
                assert mapper(xy) == mapper(x) + mapper(y)
        assert len({embed_free_group(x) for x in pool}) == len(pool)
        assert len({mapper(x) for x in pool}) == len(pool)
        total += len(pool)
    assert total == 52794
    print(f"free-group and free-monoid embeddings are multiplicative on "
          f"all composable generator pairs and injective on {total} "
          f"elements of length <=3 across all posets <=5")


def test_criterion_14_cli_outputs_deterministic(monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    from golden_cases import CASES, golden_path, run_case
    for name, argv, expected_code in CASES:
        expected = golden_path(name).read_bytes()
        first_code, first_out = run_case(argv)
        second_code, second_out = run_case(argv)
        assert first_code == second_code == expected_code, name
        assert first_out.encode() == second_out.encode() == expected, name
    print(f"all {len(CASES)} pinned CLI invocations are byte-identical "
          f"across repeated runs and match their stored outputs")
