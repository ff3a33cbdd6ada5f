import random
from pathlib import Path

import pytest

from catmon import (
    CategoryFunctor,
    FreeAbelianWord,
    FreeGroupWord,
    FreeProductWord,
    GroupMismatch,
    GroupSpec,
    InvalidStructure,
    MissingImage,
    SeparationRequired,
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
from catmon.formats import load_category, load_functor

from helpers import labeled_posets, posets_up_to

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
    assert calls == {"check_separation": 1, "highlighting_expansion": 1}


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
            verdict = embeddability_verdict(psi, max_len=3)
            assert verdict.embeds and verdict.sigma_injective


def test_embeddability_verdict():
    cat, functor = c6_setup()
    verdict = embeddability_verdict(functor, max_len=3)
    assert verdict.embeds
    assert verdict.verdict == "Um(S) embeds into a group"
    assert verdict.checked_length == 3
    assert verdict.sigma_injective is True
    assert verdict.separation.holds

    verdict = embeddability_verdict(trivial_functor(cat))
    assert not verdict.embeds
    assert verdict.verdict == "criterion not satisfied by this functor"
    assert verdict.sigma_injective is None
    assert verdict.separation.violating_pair == ("a", "b")
