import random
from collections import Counter
from pathlib import Path

import pytest

from catmon import (
    CategoryFunctor,
    EmbeddabilityReport,
    FreeAbelianWord,
    FreeGroupWord,
    FreeProductWord,
    GroupMismatch,
    GroupSpec,
    InvalidStructure,
    MissingImage,
    SeparationRequired,
    SizeLimitExceeded,
    cat_of_poset,
    check_separation,
    elements_up_to,
    embeddability_verdict,
    generator,
    group_multiply,
    group_product,
    highlighting_expansion,
    inject,
    sigma_image,
)
from catmon import groups
from catmon.cli import main
from catmon.formats import load_category, load_functor
from catmon.groups import SeparationReport

from helpers import (
    assert_record,
    labeled_posets,
    make_category,
    posets_up_to,
    random_category,
    random_category_bounded,
    random_free_dag_category,
    reference_group_product,
    reference_inverse,
    reference_separation,
    sigma_decode,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def c6_setup():
    cat = load_category((DATA / "c6.category").read_text(), "c6.category")
    functor = load_functor((DATA / "c6_z3.functor").read_text(), cat,
                           "c6_z3.functor")
    return cat, functor


def trivial_functor(cat, n=1):
    spec = GroupSpec.zn(n)
    return CategoryFunctor(
        cat, spec, {f: spec.identity() for f in cat.arrows})


def endpoint_functor(poset):
    """[x,y] maps to e_y - e_x: functorial, and injective on (thin) hom-sets."""
    cat = cat_of_poset(poset)
    spec = GroupSpec.zn(len(poset.elements))
    idx = {x: i for i, x in enumerate(poset.elements)}
    images = {}
    for f in cat.arrows:
        if not cat.is_identity(f):
            vec = [0] * spec.n
            vec[idx[cat.src(f)]] -= 1
            vec[idx[cat.tgt(f)]] += 1
            images[f] = FreeAbelianWord(spec, vec)
    return CategoryFunctor(cat, spec, images)


def test_group_spec_identities():
    free = GroupSpec.free(("x", "y"))
    zn = GroupSpec.zn(3)
    prod = GroupSpec.product(free, zn)
    assert free.identity().is_identity()
    assert zn.identity().vector == (0, 0, 0)
    assert prod.identity().syllables == ()


def test_zn_dimensions_are_checked(monkeypatch):
    from catmon import limits

    point = load_category("category\nobj x\n")
    with pytest.raises(InvalidStructure, match="negative dimension -3"):
        embeddability_verdict(CategoryFunctor(point, GroupSpec.zn(-3), {}))
    assert GroupSpec.zn(0).identity().vector == ()
    monkeypatch.setattr(limits, "MAX_COUNT", 5)
    assert GroupSpec.zn(5).n == 5
    with pytest.raises(SizeLimitExceeded, match="^6 dimensions of target zn"):
        GroupSpec.zn(6)


def test_free_group_word_reduction():
    spec = GroupSpec.free(("x", "y"))
    w = FreeGroupWord(spec, [("x", 1), ("y", 1), ("y", -1), ("x", 1)])
    assert w.letters == (("x", 1), ("x", 1))
    assert str(FreeGroupWord(spec, [("x", 1), ("x", -1)])) == "1"
    assert str(FreeGroupWord(spec, [("x", -1), ("y", 1)])) == "x^-1 y"
    inv = w.inverse()
    assert group_multiply(w, inv).is_identity()
    with pytest.raises(InvalidStructure):
        FreeGroupWord(spec, [("z", 1)])
    with pytest.raises(InvalidStructure):
        FreeGroupWord(spec, [("x", 2)])


def test_free_abelian_word():
    spec = GroupSpec.zn(3)
    a = FreeAbelianWord(spec, (1, 0, 0))
    b = FreeAbelianWord(spec, (0, 2, 0))
    assert group_multiply(a, b).vector == (1, 2, 0)
    assert a.inverse().vector == (-1, 0, 0)
    assert str(a) == "(1,0,0)"
    with pytest.raises(InvalidStructure):
        FreeAbelianWord(spec, (1, 0))


def test_free_product_normal_form_constraints():
    free = GroupSpec.free(("o",))
    zn = GroupSpec.zn(1)
    prod = GroupSpec.product(free, zn)
    o = FreeGroupWord(free, (("o", 1),))
    g = FreeAbelianWord(zn, (1,))
    word = FreeProductWord(prod, ((0, o), (1, g)))
    assert len(word.syllables) == 2
    with pytest.raises(InvalidStructure):
        FreeProductWord(prod, ((0, o), (0, o)))
    with pytest.raises(InvalidStructure):
        FreeProductWord(prod, ((1, zn.identity()),))
    with pytest.raises(InvalidStructure):
        FreeProductWord(prod, ((2, g),))
    with pytest.raises(GroupMismatch):
        FreeProductWord(prod, ((0, g),))


def test_free_product_syllable_cancellation():
    free = GroupSpec.free(("a",))
    zn = GroupSpec.zn(1)
    prod = GroupSpec.product(free, zn)
    a = inject(prod, 0, FreeGroupWord(free, (("a", 1),)))
    g = inject(prod, 1, FreeAbelianWord(zn, (1,)))
    w = group_product(prod, [a, g, a.inverse(), a])
    assert [(i, str(s)) for i, s in w.syllables] == [(0, "a"), (1, "(1)")]


def test_free_product_inverse_and_reassociation():
    rng = random.Random(7)
    free = GroupSpec.free(("o", "p"))
    zn = GroupSpec.zn(2)
    prod = GroupSpec.product(free, zn)

    def random_piece():
        if rng.random() < 0.5:
            letters = [(rng.choice("op"), rng.choice((1, -1)))
                       for _ in range(rng.randint(0, 2))]
            return inject(prod, 0, FreeGroupWord(free, letters))
        vec = [rng.randint(-2, 2) for _ in range(2)]
        return inject(prod, 1, FreeAbelianWord(zn, vec))

    for _ in range(200):
        pieces = [random_piece() for _ in range(rng.randint(0, 6))]
        flat = group_product(prod, pieces)
        cut = rng.randint(0, len(pieces))
        split = group_multiply(group_product(prod, pieces[:cut]),
                               group_product(prod, pieces[cut:]))
        assert flat == split
        assert group_multiply(flat, flat.inverse()).is_identity()


def test_group_multiply_rejects_mixed_groups():
    with pytest.raises(GroupMismatch):
        group_multiply(GroupSpec.zn(2).identity(), GroupSpec.zn(3).identity())
    with pytest.raises(GroupMismatch):
        group_multiply(GroupSpec.zn(1).identity(),
                       GroupSpec.free(("x",)).identity())
    free = GroupSpec.free(("x",))
    prod = GroupSpec.product(free, GroupSpec.zn(1))
    x = FreeGroupWord(free, (("x", 1),))
    foreign = FreeGroupWord(GroupSpec.free(("x", "y")), (("x", 1),))
    for spec, words in ((free, [x, foreign, x]),
                        (GroupSpec.zn(2), [GroupSpec.zn(3).identity()]),
                        (prod, [inject(prod, 0, x), x])):
        with pytest.raises(GroupMismatch):
            group_product(spec, words)


def test_word_classes_refuse_the_other_kinds_of_group():
    free, zn = GroupSpec.free(("x",)), GroupSpec.zn(1)
    prod = GroupSpec.product(free, zn)
    for cls, spec in ((FreeGroupWord, zn), (FreeAbelianWord, free),
                      (FreeProductWord, free)):
        with pytest.raises(GroupMismatch, match=f"^{cls.__name__} needs"):
            cls(spec, ())
    with pytest.raises(GroupMismatch, match="FreeGroupWord needs"):
        FreeGroupWord(prod, ())
    # the GroupSpec constructor refuses a kind it does not know
    with pytest.raises(InvalidStructure, match="unknown group kind 'cyclic'"):
        GroupSpec("cyclic")


def test_group_spec_constructor_is_the_one_check():
    free = GroupSpec.free(("x", "y"))
    assert GroupSpec("free", letters=["x", "y"]) == free
    assert GroupSpec("zn", n=2) == GroupSpec.zn(2)
    assert GroupSpec("product", factors=[free]) == GroupSpec.product(free)
    assert GroupSpec.zn(2)._replace(n=3) == GroupSpec.zn(3)
    for call, message in (
            (lambda: GroupSpec("free", letters=["x", "x"]), "duplicate"),
            (lambda: GroupSpec("zn", n=True), "is not an int"),
            (lambda: GroupSpec("product", factors=[1]), "^expected a group"),
            (lambda: GroupSpec("free", ("x",), 2), "takes no n"),
            (lambda: GroupSpec.zn(1)._replace(n=-1), "negative dimension"),
            (lambda: GroupSpec.zn(1)._replace(factors=(free,)),
             "takes no factors"),
            (lambda: GroupSpec(["free"]), "unknown group kind")):
        with pytest.raises(InvalidStructure, match=message):
            call()


def test_group_words_are_immutable():
    free = GroupSpec.free(("x", "y"))
    words = [FreeGroupWord(free, [("x", 1)]), GroupSpec.zn(2).identity(),
             GroupSpec.product(free).identity()]
    for word in words:
        for attr in ("spec", "payload", "extra"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(word, attr, ())
    assert words[0].payload == (("x", 1),) and words[0].spec is free


def test_category_functor_validation():
    cat, functor = c6_setup()
    zn3 = GroupSpec.zn(3)
    assert functor.image("aa'") == FreeAbelianWord(zn3, (2, 0, 0))
    assert functor.image("id:0").is_identity()
    images = {f: functor.image(f) for f in cat.arrows
              if not cat.is_identity(f)}
    missing = dict(images)
    missing.pop("abar")
    with pytest.raises(MissingImage):
        CategoryFunctor(cat, zn3, missing)
    with pytest.raises(InvalidStructure):
        CategoryFunctor(cat, zn3, dict(images, ghost=zn3.identity()))
    with pytest.raises(GroupMismatch):
        CategoryFunctor(cat, zn3,
                        dict(images, abar=GroupSpec.zn(2).identity()))


def test_check_separation_c6_z3():
    cat, functor = c6_setup()
    report = check_separation(functor)
    assert report.functorial and report.separating and report.holds
    assert report.violating_pair is None
    images_02 = {functor.image(f).vector for f in cat.hom("0", "2")}
    assert images_02 == {(2, 0, 0), (0, 2, 0), (0, 0, 2),
                         (0, 1, 1), (1, 0, 1), (1, 1, 0)}


def test_check_separation_trivial_on_c6_fails():
    cat, _ = c6_setup()
    functor = trivial_functor(cat)
    report = check_separation(functor)
    assert report.functorial and not report.separating and not report.holds
    f, g = report.violating_pair
    assert f == "a" and g == "b"
    assert cat.src(f) == cat.src(g) and cat.tgt(f) == cat.tgt(g)
    assert functor.image(f) == functor.image(g)
    hom_images = [functor.image(h) for h in cat.hom("0", "2")]
    assert len(cat.hom("0", "2")) == 6
    assert len(set(hom_images)) == 1


def test_check_separation_detects_non_functorial_images():
    cat, functor = c6_setup()
    zn3 = GroupSpec.zn(3)
    images = {f: functor.image(f) for f in cat.arrows
              if not cat.is_identity(f)}
    images["aa'"] = FreeAbelianWord(zn3, (5, 0, 0))
    broken = CategoryFunctor(cat, zn3, images)
    report = check_separation(broken)
    assert not report.functorial
    f, g = report.violating_pair
    assert broken.image(cat.compose(f, g)) != \
        group_multiply(broken.image(f), broken.image(g))


def _letter_functor(cat, kind, letters_of, keep):
    """The functor sending each non-identity f to the product of its
    letters letters_of(f), (letter, ±1) pairs, with the letters outside
    keep sent to 1: in Z^n, letter i of the sorted alphabet being the i-th
    coordinate, or in the free group on the alphabet.  It is a functor
    whenever the letters of f;g are those of f followed by those of g, up
    to free reduction, as killing letters is a group map."""
    alphabet = sorted({a for f in cat.non_identities()
                       for a, _ in letters_of(f)})
    if kind == "zn":
        spec = GroupSpec.zn(len(alphabet))
        at = {a: i for i, a in enumerate(alphabet)}

        def word(letters):
            vec = [0] * spec.n
            for a, e in letters:
                vec[at[a]] += e
            return FreeAbelianWord(spec, vec)
    else:
        spec = GroupSpec.free(alphabet)

        def word(letters):
            return FreeGroupWord(spec, letters)
    images = {f: word([(a, e) for a, e in letters_of(f) if a in keep])
              for f in cat.non_identities()}
    return spec, alphabet, images, word


def test_check_separation_matches_nested_loop_oracle():
    """The one-pass report equals the nested loops' report, violating pair
    included, on seeded random categories with functors into zn and free
    targets: the endpoint functor (src⁻¹·tgt), the edge-word functor of a
    free DAG category, each with random letters killed (which plants
    hom-set collisions and keeps the laws), and each with one arrow's image
    pushed by one letter (which plants a law violation)."""
    rng = random.Random(27)
    verdicts = Counter()
    for k in range(100):
        if k % 2:
            cat = random_free_dag_category(rng)

            def letters_of(f):
                return [(e, 1) for e in f[1:].split("-")]
        else:
            cat = random_category(rng)

            def letters_of(f):
                return [(cat.src(f), -1), (cat.tgt(f), 1)]
        for kind in ("zn", "free"):
            full = {a for f in cat.non_identities()
                    for a, _ in letters_of(f)}
            kept = {a for a in full if rng.random() < 0.5}
            for keep, pushed in ((full, False), (kept, False),
                                 (full, True)):
                spec, alphabet, images, word = _letter_functor(
                    cat, kind, letters_of, keep)
                if pushed and alphabet:
                    f = rng.choice(cat.arrows)
                    images[f] = group_multiply(
                        images.get(f, spec.identity()),
                        word([(rng.choice(alphabet), 1)]))
                functor = CategoryFunctor(cat, spec, images)
                report = check_separation(functor)
                assert report == reference_separation(functor), \
                    (cat.arrows, images)
                verdicts[report.functorial, report.separating] += 1
    assert set(verdicts) == {(True, True), (True, False), (False, False)}
    assert min(verdicts.values()) >= 30, verdicts
    # Two hom-sets that collide, met in opposite orders by source and by
    # target: the one first by source is named.
    cross = make_category("0123", {"f": ("0", "3"), "f'": ("0", "3"),
                                   "g": ("1", "2"), "g'": ("1", "2")}, {})
    report = check_separation(trivial_functor(cross))
    assert report == reference_separation(trivial_functor(cross))
    assert report.violating_pair == ("f", "f'")


def test_trivial_functor_separates_thin_categories():
    for p in posets_up_to(4, labeled_posets):
        assert check_separation(trivial_functor(cat_of_poset(p))).holds


def test_highlighting_expansion_images():
    cat, functor = c6_setup()
    expanded = highlighting_expansion(functor)
    img = expanded.image("a")
    assert [(i, str(w)) for i, w in img.syllables] == \
        [(0, "0^-1"), (1, "(1,0,0)"), (0, "1")]
    assert expanded.image("id:1").is_identity()


def test_highlighting_expansion_preserves_functoriality():
    cat, functor = c6_setup()
    for psi in (functor, trivial_functor(cat)):
        expanded = highlighting_expansion(psi)
        for f in cat.arrows:
            for g in cat.arrows_from(cat.tgt(f)):
                assert expanded.image(cat.compose(f, g)) == \
                    group_multiply(expanded.image(f), expanded.image(g))
    for p in labeled_posets(3):
        psi = endpoint_functor(p)
        expanded = highlighting_expansion(psi)
        pcat = psi.category
        for f in pcat.arrows:
            for g in pcat.arrows_from(pcat.tgt(f)):
                assert expanded.image(pcat.compose(f, g)) == \
                    group_multiply(expanded.image(f), expanded.image(g))


def test_expanded_image_trivial_only_for_identities():
    cat, functor = c6_setup()
    cases = [(cat, functor)]
    for p in posets_up_to(4, labeled_posets):
        pcat = cat_of_poset(p)
        cases.append((pcat, trivial_functor(pcat)))
        cases.append((pcat, endpoint_functor(p)))
    for ccat, psi in cases:
        assert check_separation(psi).holds
        expanded = highlighting_expansion(psi)
        for f in ccat.arrows:
            assert expanded.image(f).is_identity() == ccat.is_identity(f)


def test_sigma_image_of_aa_prime():
    cat, functor = c6_setup()
    x = generator(cat, "aa'")
    assert str(sigma_image(x, functor)) == "0^-1 (2,0,0) 2"
    assert sigma_image(generator(cat, "id:0"), functor).is_identity()


def test_sigma_image_requires_separation():
    cat, _ = c6_setup()
    with pytest.raises(SeparationRequired):
        sigma_image(generator(cat, "a"), trivial_functor(cat))
    other = cat_of_poset(labeled_posets(2)[0])
    _, functor = c6_setup()
    with pytest.raises(SeparationRequired):
        sigma_image(elements_up_to(other, 1)[0], functor)


def test_sigma_checks_and_expands_once_per_functor(monkeypatch):
    import catmon.groups as groups
    calls = {"check_separation": 0, "highlighting_expansion": 0}
    for name in calls:
        def counted(functor, _real=getattr(groups, name), _name=name):
            calls[_name] += 1
            return _real(functor)
        monkeypatch.setattr(groups, name, counted)
    cat, functor = c6_setup()
    xs = elements_up_to(cat, 2)
    for i in range(50):
        sigma_image(xs[i % len(xs)], functor)
        assert embeddability_verdict(functor).embeds
    assert calls == {"check_separation": 1, "highlighting_expansion": 1}
    # a second functor works out its own, once
    other = CategoryFunctor(cat, functor.target, functor.images)
    for i in range(50):
        assert embeddability_verdict(other).embeds
        assert sigma_image(xs[i % len(xs)], other) == \
            sigma_image(xs[i % len(xs)], functor)
    assert calls == {"check_separation": 2, "highlighting_expansion": 2}


def test_sigma_injective_on_short_elements():
    cat, functor = c6_setup()
    for psi in [functor]:
        seen = {}
        for x in elements_up_to(cat, 2):
            w = sigma_image(x, psi)
            assert w not in seen
            seen[w] = x
    for p in labeled_posets(3):
        pcat = cat_of_poset(p)
        for psi in (trivial_functor(pcat), endpoint_functor(p)):
            verdict = embeddability_verdict(psi)
            assert verdict.embeds and verdict.sigma_injective


def test_embeddability_verdict():
    cat, functor = c6_setup()
    verdict = embeddability_verdict(functor)
    assert verdict.embeds
    assert verdict.verdict == "Um(S) embeds into a group"
    assert verdict.sigma_injective is True
    assert verdict.separation.holds

    verdict = embeddability_verdict(trivial_functor(cat))
    assert not verdict.embeds
    assert verdict.verdict == "criterion not satisfied by this functor"
    assert verdict.sigma_injective is None
    assert verdict.separation.violating_pair == ("a", "b")


def _payload(w):
    """A word as plain nested data: its group and its normal form."""
    if isinstance(w, FreeProductWord):
        return w.spec, tuple((i, _payload(s)) for i, s in w.syllables)
    if isinstance(w, FreeGroupWord):
        return w.spec, w.letters
    return w.spec, w.vector


def _random_word(rng, spec):
    """A random word of spec, built by the public constructors."""
    if spec.kind == "free":
        return FreeGroupWord(spec, [(rng.choice(spec.letters),
                                     rng.choice((1, -1)))
                                    for _ in range(rng.randint(0, 4))])
    if spec.kind == "zn":
        return FreeAbelianWord(spec, [rng.randint(-1, 1)
                                      for _ in range(spec.n)])
    word = reference_group_product(spec, [])
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(spec.factors))
        piece = inject(spec, i, _random_word(rng, spec.factors[i]))
        word = reference_group_product(spec, [word, piece])
    return word


def _random_spec(rng, depth):
    """A random group: free on one to three letters, Z^0 to Z^2, or, while
    depth lasts, a free product of two or three random groups."""
    roll = rng.randrange(3 if depth else 2)
    if roll == 0:
        return GroupSpec.free(rng.sample("opqr", rng.randint(1, 3)))
    if roll == 1:
        return GroupSpec.zn(rng.randint(0, 2))
    return GroupSpec.product(*(_random_spec(rng, depth - 1)
                               for _ in range(rng.randint(2, 3))))


def _check_product(spec, words):
    """group_product and inverse of words of spec agree with the reference
    fold built by the public constructors; returns the product."""
    got = group_product(spec, words)
    want = reference_group_product(spec, words)
    assert got == want and hash(got) == hash(want)
    assert str(got) == str(want)
    assert _payload(got) == _payload(want)
    assert type(got) is type(want)
    if len(words) == 2:
        assert group_multiply(*words) == want
    inv = got.inverse()
    assert _payload(inv) == _payload(reference_inverse(want))
    assert group_product(spec, [got, inv]).is_identity()
    return got


def test_group_product_matches_the_pairwise_fold():
    rng = random.Random(14)
    free = GroupSpec.free(("o", "p", "q"))
    zn = GroupSpec.zn(2)
    inner = GroupSpec.product(free, zn)
    nested = GroupSpec.product(inner, GroupSpec.free(("r",)), zn)

    cases = 0
    for spec in (free, zn, inner, nested):
        for _ in range(150):
            words = [_random_word(rng, spec)
                     for _ in range(rng.randint(0, 5))]
            if rng.random() < 0.3:
                # the product cancels to the identity
                words += [reference_inverse(w) for w in reversed(words)]
            elif rng.random() < 0.3:
                # neighbours cancel down to a merge several syllables deep
                w = _random_word(rng, spec)
                words[1:1] = [w, reference_inverse(w)]
            _check_product(spec, words)
            cases += 1
    assert cases >= 500


def test_payload_kernel_matches_the_reference_on_random_nested_specs():
    """The kernel over seeded random groups, nested to depth 3, and over
    free, Z^n, free × Z^n and a product of products: the empty product,
    products of a single word, identity operands among others, and seams
    a·b with a = x·y, b = y⁻¹·z, where y's syllables vanish one after the
    other and expose the pairs behind them."""
    rng = random.Random(20)
    free = GroupSpec.free(("o", "p"))
    zn = GroupSpec.zn(2)
    specs = [free, zn, GroupSpec.product(free, zn),
             GroupSpec.product(GroupSpec.product(free, zn),
                               GroupSpec.product(zn, free), free)]
    specs += [_random_spec(rng, 3) for _ in range(40)]
    deep = 0
    for spec in specs:
        _check_product(spec, [])
        for _ in range(25):
            x, y, z = (_random_word(rng, spec) for _ in range(3))
            assert _check_product(spec, [x]) == x
            one = reference_group_product(spec, [])
            _check_product(spec, [one, x, one, one, z, one])
            a = reference_group_product(spec, [x, y])
            b = reference_group_product(spec, [reference_inverse(y), z])
            got = _check_product(spec, [a, b])
            assert got == reference_group_product(spec, [x, z])
            # syllables, or letters of a free word
            size = [len(_payload(w)[1]) for w in (got, a, b)]
            if spec.kind != "zn" and size[0] < size[1] + size[2] - 2:
                deep += 1
    assert deep >= 100, deep


def test_sigma_builds_no_word_through_a_checking_constructor(monkeypatch):
    cat, functor = c6_setup()
    functor._separation
    functor._expansion
    xs = elements_up_to(cat, 2)
    before = [str(sigma_image(x, functor)) for x in xs]

    def refuse(self, *args):
        raise AssertionError("a word was re-checked")

    for cls in (FreeGroupWord, FreeAbelianWord, FreeProductWord):
        monkeypatch.setattr(cls, "__init__", refuse)
    verdict = embeddability_verdict(functor)
    assert verdict.embeds and verdict.sigma_injective is True
    assert [str(sigma_image(x, functor)) for x in xs] == before
    w = sigma_image(xs[-1], functor)
    assert group_multiply(w, w.inverse()).is_identity()


def test_word_hash_follows_equality():
    free = GroupSpec.free(("x", "y"))
    w = FreeGroupWord(free, [("x", 1), ("y", -1)])
    twin = FreeGroupWord(GroupSpec.free(("x", "y")), [("x", 1), ("y", -1)])
    assert w == twin and hash(w) == hash(twin)
    assert group_product(free, [w]) == w
    assert hash(group_product(free, [w])) == hash(w)
    assert hash(FreeAbelianWord(GroupSpec.zn(2), (1, -1))) == \
        hash(group_product(GroupSpec.zn(2), [
            FreeAbelianWord(GroupSpec.zn(2), (1, 0)),
            FreeAbelianWord(GroupSpec.zn(2), (0, -1))]))

    # equal payloads over different groups are different words and keys
    small = FreeGroupWord(GroupSpec.free(("x",)), [("x", 1)])
    large = FreeGroupWord(GroupSpec.free(("x", "y")), [("x", 1)])
    assert small.letters == large.letters and small != large
    assert len({small: 0, large: 1}) == 2

    f = GroupSpec.free(("x",))
    p1 = GroupSpec.product(f, GroupSpec.zn(1))
    p2 = GroupSpec.product(f, GroupSpec.zn(2))
    x = FreeGroupWord(f, [("x", 1)])
    u, v = inject(p1, 0, x), inject(p2, 0, x)
    assert u.syllables == v.syllables and u != v
    assert len({u: 0, v: 1}) == 2
    assert inject(p1, 0, x) == u and hash(inject(p1, 0, x)) == hash(u)


def test_hashing_and_comparing_a_sigma_word_asks_no_factor_word(
        monkeypatch):
    """A σ word hashes and compares as its payload, plain nested tuples: no
    factor word's __hash__ or __eq__ runs, however often it is asked."""
    cat, functor = c6_setup()
    xs = elements_up_to(cat, 3)
    w, other = sigma_image(xs[-1], functor), sigma_image(xs[-2], functor)
    twin = FreeProductWord(w.spec, w.syllables)
    calls = []
    for cls in (FreeGroupWord, FreeAbelianWord):
        for name in ("__hash__", "__eq__"):
            def counted(self, *args, _real=getattr(cls, name)):
                calls.append(self)
                return _real(self, *args)
            monkeypatch.setattr(cls, name, counted)
    # seven syllables, each a factor word, none of them asked
    assert len(w.syllables) == 7
    for _ in range(2):
        assert hash(w) == hash(twin) and w == twin and w != other
        assert len({w: 0, twin: 1, other: 2}) == 2
    assert calls == []
    # the patched methods do count when a factor word itself is asked
    hash(w.syllables[1][1])
    assert len(calls) == 1


def test_embeddability_verdict_walks_nothing(monkeypatch):
    """Once the criterion is worked out (it multiplies images), the verdict
    answers from the theorem: it builds no element, expands no image and
    multiplies nothing."""
    from catmon import universal

    cat, functor = c6_setup()
    trivial = load_functor((DATA / "c6_trivial.functor").read_text(), cat,
                           "c6_trivial.functor")
    for psi in (functor, trivial):
        psi._separation

    def refuse(*args):
        raise AssertionError("the verdict walked")

    monkeypatch.setattr(universal, "_reduced", refuse)
    monkeypatch.setattr(groups, "highlighting_expansion", refuse)
    monkeypatch.setattr(groups, "_times", refuse)
    yes, no = embeddability_verdict(functor), embeddability_verdict(trivial)
    assert (yes.embeds, yes.sigma_injective) == (True, True)
    assert (no.embeds, no.sigma_injective) == (False, None)


def _assert_sigma_decodes(functor, max_len):
    """σ⁻¹(σ(x)) = x for every element x of length at most max_len; returns
    how many there are."""
    xs = elements_up_to(functor.category, max_len)
    for x in xs:
        payload = sigma_image(x, functor).payload
        assert sigma_decode(functor, payload) == x.arrows, x
    return len(xs)


def test_sigma_decode_inverts_sigma_on_c6():
    """σ has a left inverse on the 18,589 elements of Um(c6) of length at
    most 4 under c6_z3, so it is injective there, as the verdict says."""
    _, functor = c6_setup()
    assert embeddability_verdict(functor).sigma_injective is True
    assert _assert_sigma_decodes(functor, 4) == 18589


def test_sigma_decode_refuses_payloads_off_the_image():
    """σ⁻¹ refuses a payload that is no σ word: a lone x⁻¹, object letters
    in the wrong order, and a G-syllable, or none, that no arrow of the
    hom-set has."""
    cat, functor = c6_setup()

    def objects(*letters):
        return (0, letters)

    def g(*vector):
        return (1, vector)

    a = (objects(("0", -1)), g(1, 0, 0), objects(("1", 1)))
    assert sigma_image(generator(cat, "a"), functor).payload == a
    assert sigma_decode(functor, a) == ("a",)
    for payload in [
            (objects(("0", -1)),),
            a + (objects(("1", -1)),),
            (objects(("1", 1), ("0", -1)),),
            (objects(("1", 1)), g(1, 0, 0), objects(("0", -1))),
            (objects(("0", -1)), g(5, 0, 0), objects(("1", 1))),
            # cbar's image, but cbar runs from 0 to 2
            (objects(("0", -1)), g(1, 1, 0), objects(("1", 1))),
            (objects(("0", -1), ("1", 1)),)]:
        with pytest.raises(AssertionError):
            sigma_decode(functor, payload)


def _decoded(functors):
    """Each functor that separates gets a YES verdict and σ⁻¹ reads back
    every element of length at most 3; any other gets no word on σ.
    Returns how many separate and how many elements they decode."""
    separating = elements = 0
    for functor in functors:
        verdict = embeddability_verdict(functor)
        if verdict.embeds:
            assert verdict.sigma_injective is True
            separating += 1
            elements += _assert_sigma_decodes(functor, 3)
        else:
            assert verdict.sigma_injective is None
    return separating, elements


def test_sigma_decode_inverts_sigma_for_trivial_functors():
    """The trivial functor into Z¹ separates exactly the random bounded
    categories with at most one arrow per hom-set; on those, σ⁻¹ reads back
    every element of length at most 3."""
    rng = random.Random(16)
    assert _decoded(
        trivial_functor(random_category_bounded(rng, max_elements=150))
        for _ in range(200)) == (146, 5429)


def test_sigma_decode_inverts_sigma_for_a_free_target():
    """As above, for random images of up to two letters in the free group
    on x and y, so that σ lives in Fg(objects) * F(x, y) and both factors
    are free."""
    rng = random.Random(21)
    target = GroupSpec.free(("x", "y"))

    def draw():
        cat = random_category_bounded(rng, max_elements=150)
        return CategoryFunctor(cat, target, {
            f: FreeGroupWord(target, [(rng.choice("xy"), rng.choice((1, -1)))
                                      for _ in range(rng.randint(0, 2))])
            for f in cat.non_identities()})

    assert _decoded(draw() for _ in range(300)) == (159, 1640)


def test_group_records_keep_their_contract():
    spec = assert_record(GroupSpec, kind="zn", letters=(), n=3, factors=())
    assert GroupSpec("zn", n=3) == GroupSpec.zn(3) == spec
    free = GroupSpec("free")
    assert (free.letters, free.n, free.factors) == ((), 0, ())
    assert {GroupSpec.zn(3): "z3"}[GroupSpec("zn", n=3)] == "z3"
    assert GroupSpec.free("ab") != GroupSpec.free("ba")
    separation = assert_record(SeparationReport, functorial=True,
                               separating=True, violating_pair=None)
    assert separation.holds
    assert not SeparationReport(True, False, ("a", "b")).holds
    assert_record(EmbeddabilityReport, separation=separation, embeds=True,
                  verdict="Um(S) embeds into a group", sigma_injective=True)
    _, functor = c6_setup()
    assert repr(embeddability_verdict(functor)) == (
        "EmbeddabilityReport(separation=SeparationReport(functorial=True, "
        "separating=True, violating_pair=None), embeds=True, "
        "verdict='Um(S) embeds into a group', sigma_injective=True)")
