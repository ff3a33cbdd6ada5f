"""Tooling checks on the source in src/catmon: the exception hierarchy,
which modules build a validated FiniteCategory, where size policy lives,
that the CLI leaves every value check to the library, and what importing
the package and its CLI loads.  Then the boundary itself: malformed values
handed to the public constructors and entry points raise a CatmonError and
nothing else."""
import ast
import os
import random
from collections.abc import Hashable
import subprocess
import sys
from pathlib import Path

import pytest

from catmon import (CatmonError, CategoryFunctor, CategoryMismatch,
                    EmptyFamily, FiniteCategory, FreeAbelianWord,
                    FreeGroupWord, FreeProductWord, GroupMismatch,
                    GroupPresentation, GroupSpec, IntervalFunctor,
                    InvalidStructure, IsotoneMap, MonoidPresentation,
                    NotIsotone, Poset, ReducedSeq, RewriteTrace,
                    SimplicialComplex, SpanningTree, UnknownArrow, atoms,
                    barycentric, c6_presentation, cat_of_poset,
                    chain_complex,
                    check_separation, common_right_multiple, components,
                    congruence_class, cross_check, detect_spindle, divides,
                    elements_up_to, embed_free_group, embed_free_monoid,
                    embeddability_verdict, equal_in_monoid,
                    floating_decomposition, floating_presentation, formats,
                    gcd_criterion, gcd_family, gcd_pair, generator,
                    greedy_normal_form, group_multiply, group_product,
                    highlighting_expansion, inject, interval_name,
                    is_extreme_spindle, lcm_pair, left_divides_mod,
                    m6_presentation, multiply, product, reduce_sequence,
                    sigma_image, spanning_tree, spindle_category,
                    spindle_presentation, tietze_collapse, unit,
                    universal_group_presentation, verify_m6_embedding)

SRC = Path(__file__).resolve().parent.parent / "src" / "catmon"


def _trees():
    return [ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))]


def _called_names(tree):
    """Names of the callables in ``X(...)`` and ``m.X(...)`` calls."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                yield node.func.id
            elif isinstance(node.func, ast.Attribute):
                yield node.func.attr


def _raised_names(tree):
    """Names of the classes in ``raise X`` and ``raise X(...)`` statements."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_every_leaf_error_is_raised_somewhere():
    trees = _trees()
    bases = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [b.id for b in node.bases
                                    if isinstance(b, ast.Name)]

    def is_error(name):
        return name == "CatmonError" or any(
            is_error(b) for b in bases.get(name, ()))

    errors = {name for name in bases if name != "CatmonError"
              and is_error(name)}
    leaves = {name for name in errors
              if not any(name in bases[other] for other in errors)}
    raised = {name for tree in trees for name in _raised_names(tree)}
    assert len(leaves) > 20
    assert sorted(leaves - raised) == []


def test_only_the_input_boundaries_build_a_validated_category():
    # Tables catmon builds itself go through category._category or a
    # subclass's own __init__ (Cat(P)'s _IntervalCategory); the validating
    # constructor is for files and API callers only.
    callers = {p.name for p in sorted(SRC.glob("*.py"))
               if "FiniteCategory" in _called_names(
                   ast.parse(p.read_text(), str(p)))}
    assert callers == {"formats.py"}


def _imported_modules(tree):
    """The modules named in ``import m`` and ``from m import ...``
    statements, and in ``from . import m``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is not None:
                yield node.module
            else:
                yield from (alias.name for alias in node.names)


def _reads_environ(tree):
    return any(isinstance(node, ast.Attribute) and node.attr == "environ"
               for node in ast.walk(tree))


def test_size_policy_lives_in_limits():
    # one module raises SizeLimitExceeded and reads the environment, and
    # the foundation modules price their constructions without the
    # word-problem engine
    trees = {p.name: ast.parse(p.read_text(), str(p))
             for p in sorted(SRC.glob("*.py"))}
    assert {name for name, tree in trees.items()
            if "SizeLimitExceeded" in _raised_names(tree)} == {"limits.py"}
    assert {name for name, tree in trees.items()
            if _reads_environ(tree)} == {"limits.py"}
    for name in ("poset.py", "complexes.py", "universal.py"):
        assert "presented" not in set(_imported_modules(trees[name])), name


def _modules_after(imports):
    """The modules a fresh isolated interpreter holds after ``imports``."""
    probe = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); "
             f"{imports}; print(' '.join(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", probe],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _python_m_catmon(*argv):
    """``python -m catmon *argv`` from the repository root, and the modules
    that ``-X importtime`` lists for it."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "catmon", *argv],
        cwd=SRC.parent.parent, env=env, capture_output=True, text=True,
        timeout=60)
    return proc, {line.rsplit("|", 1)[-1].strip()
                  for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}


def test_cold_import_loads_no_heavy_modules():
    # every catmon process pays for what the package and its CLI import;
    # the site hook of the interpreter may load some modules itself, so
    # only what the import adds to a bare interpreter counts
    bare = _modules_after("pass")
    added = _modules_after("import catmon, catmon.cli") - bare
    assert "catmon.cli" in added
    assert sorted(added & {"dataclasses", "inspect", "fractions", "decimal",
                           "argparse", "json"}) == []
    # a plain command line is parsed without argparse; --help still uses it
    proc, loaded = _python_m_catmon("nf", "data/c6.category", "a b'")
    assert proc.returncode == 0, proc.stderr
    assert "catmon.cli" in loaded and "argparse" not in loaded - bare
    proc, loaded = _python_m_catmon("nf", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: catmon nf [-h]")
    assert "argparse" in loaded


def test_the_cli_makes_no_value_checks_of_its_own():
    # the library judges every value: argparse only parses, so the one
    # choice it offers is --format and the one type it converts to is int;
    # options are given as add_argument keywords or as spec dicts
    tree = ast.parse((SRC / "cli.py").read_text(), "cli.py")
    for node in ast.walk(tree):
        assert getattr(node, "attr", getattr(node, "id", None)) != \
            "ArgumentTypeError", node.lineno
        if isinstance(node, ast.Call):
            options = {kw.arg: kw.value for kw in node.keywords}
            flags = [a.value for a in node.args if isinstance(a, ast.Constant)]
        elif isinstance(node, ast.Dict):
            options = {k.value: v for k, v in zip(node.keys, node.values)
                       if isinstance(k, ast.Constant)}
            flags = []
        else:
            continue
        if "choices" in options:
            assert flags == ["--format"], node.lineno
        if "type" in options:
            assert getattr(options["type"], "id", None) == "int", node.lineno


def test_universal_checks_arrows_only_in_its_two_readers():
    # a sequence from outside is read by _arrow_list, which ReducedSeq(...),
    # reduce_sequence and replay share, and one arrow by generator; nothing
    # else in universal.py checks an arrow, so no second reader grows back
    tree = ast.parse((SRC / "universal.py").read_text(), "universal.py")
    callers = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and "_check" in _called_names(node)}
    assert callers == {"_arrow_list", "generator"}
    assert list(_called_names(tree)).count("_check") == 2


# -- malformed values at the boundary -------------------------------------

def _two_arrows():
    """x -> y with two arrows f, g: the smallest category with a choice."""
    return FiniteCategory(
        ["x", "y"], {"i": ("x", "x"), "j": ("y", "y"), "f": ("x", "y"),
                     "g": ("x", "y")}, {"x": "i", "y": "j"},
        {("i", "i"): "i", ("j", "j"): "j", ("i", "f"): "f",
         ("i", "g"): "g", ("f", "j"): "f", ("g", "j"): "g"})


_P = Poset(["a", "b"], [("a", "b")])
_Z2 = GroupSpec.zn(2)
_TRIANGLE = SimplicialComplex([["a", "b", "c"]])
# [a,b] of Cat(a < b), and the free monoid maps of b < a and of x < y
_AB = generator(cat_of_poset(_P), "[a,b]")
_REVERSED = embed_free_monoid(Poset(["a", "b"], [("b", "a")]))[1]
_XY = embed_free_monoid(Poset(["x", "y"], [("x", "y")]))[1]


@pytest.mark.parametrize("call, error", [
    (lambda: Poset(["a", "b"], [("a", "b", "c")]), InvalidStructure),
    (lambda: Poset(["a"], None), InvalidStructure),
    (lambda: Poset(["a", "b"], [(["a"], "b")]), InvalidStructure),
    (lambda: Poset(["a"], []).leq(["a"], "a"), InvalidStructure),
    (lambda: FiniteCategory(["o"], {"i": ("o",)}, {"o": "i"}, {}),
     InvalidStructure),
    (lambda: FiniteCategory(["o"], {"i": ("o", "o")}, {"o": "i"},
                            {("i",): "i"}), InvalidStructure),
    (lambda: FiniteCategory(["o"], [(["i"], ("o", "o"))], {"o": "i"}, {}),
     InvalidStructure),
    (lambda: FiniteCategory(["o"], {"i": ("o", "o")}, {"o": ["i"]}, {}),
     InvalidStructure),
    (lambda: FiniteCategory(["o"], {"i": ("o", "o")}, {"o": "i"},
                            {("i", "i"): ["i"]}), UnknownArrow),
    (lambda: SimplicialComplex([["a"], 5]), InvalidStructure),
    (lambda: MonoidPresentation(["a"], [(("a",),)]), InvalidStructure),
    (lambda: GroupPresentation(["a"], [[("a", 1, 2)]]), InvalidStructure),
    (lambda: FreeGroupWord(GroupSpec.free("ab"), [("a",)]),
     InvalidStructure),
    (lambda: FreeAbelianWord(_Z2, ["x", 1]), InvalidStructure),
    (lambda: GroupSpec.zn("3"), InvalidStructure),
    (lambda: IsotoneMap(_P, _P, [("a",)]), InvalidStructure),
    (lambda: IsotoneMap(_P, _P, {"a": "a", "b": "b", "zz": "a"}),
     NotIsotone),
    (lambda: gcd_family("left", "ab"), InvalidStructure),
    (lambda: congruence_class(m6_presentation(), [["a"]]), InvalidStructure),
    (lambda: common_right_multiple(m6_presentation(), []), EmptyFamily),
    (lambda: _TRIANGLE.faces(-2), InvalidStructure),
    (lambda: _TRIANGLE.faces("1"), InvalidStructure),
    (lambda: tietze_collapse(floating_presentation(_TRIANGLE),
                             SpanningTree("a", (("a",),))), InvalidStructure),
    (lambda: SimplicialComplex([["z", "x"], ["x", "z"], ["y"]]),
     InvalidStructure),
    (lambda: _XY("a"), InvalidStructure),
    (lambda: _XY(_AB), CategoryMismatch),
    (lambda: _REVERSED(_AB), CategoryMismatch),
    (lambda: IsotoneMap(_P, _P, {"a": "a", "b": "b"})("z"), InvalidStructure),
    (lambda: IsotoneMap(_P, _P, {"a": "a", "b": "b"})(["a"]),
     InvalidStructure),
    (lambda: FreeGroupWord(GroupSpec("free", letters=5), []),
     InvalidStructure),
    (lambda: GroupSpec("zn", n="2").identity(), InvalidStructure),
    (lambda: left_divides_mod(c6_presentation(), ("a",), {1}),
     InvalidStructure),
], ids=["poset-triple-cover", "poset-covers-none", "poset-unhashable-cover",
        "poset-unhashable-query", "category-one-endpoint",
        "category-one-tuple-key", "category-unhashable-arrow",
        "category-unhashable-identity", "category-unhashable-composite",
        "complex-int-simplex", "monoid-one-sided-relation",
        "group-three-tuple-letter", "free-word-one-tuple",
        "abelian-word-string", "zn-string", "isotone-one-tuple",
        "isotone-unknown-element",
        "gcd-family-string", "class-unhashable-letter", "crm-empty-family",
        "faces-negative-dimension", "faces-string-dimension",
        "tietze-one-vertex-tree-edge", "complex-simplex-listed-twice",
        "free-monoid-map-string", "free-monoid-map-other-poset",
        "free-monoid-map-reversed-order", "isotone-call-unknown-element",
        "isotone-call-unhashable-element", "free-spec-int-letters",
        "zn-spec-string-dimension", "left-divides-int-member"])
def test_malformed_shapes_raise_catmon_errors(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call", [
    lambda: atoms(None),
    lambda: atoms(floating_presentation(_TRIANGLE)),
    lambda: congruence_class(None, "ab"),
    lambda: equal_in_monoid("ab", "a", "b"),
    lambda: common_right_multiple(3, [["a"]]),
    lambda: left_divides_mod(None, "a", [("a",)]),
    lambda: embeddability_verdict("x"),
    lambda: check_separation(5),
    lambda: tietze_collapse(None, ("a", (("a", "b"),))),
    lambda: tietze_collapse(m6_presentation(), ("a", ())),
    lambda: floating_decomposition(None),
    lambda: cross_check("x"),
    lambda: chain_complex(3),
    lambda: chain_complex(_TRIANGLE),
    lambda: cat_of_poset(None),
    lambda: gcd_criterion(_TRIANGLE),
    lambda: barycentric(None),
    lambda: barycentric(_P),
    lambda: detect_spindle(None, "a", "b"),
    lambda: is_extreme_spindle(None, ("a", "b", ())),
    lambda: reduce_sequence(None, ["f"]),
    lambda: reduce_sequence(_P, ["a"]),
    lambda: universal_group_presentation(None),
    lambda: sigma_image(generator(_two_arrows(), "f"), None),
    lambda: spanning_tree(None),
    lambda: floating_presentation(_P),
    lambda: formats.dump_poset(None),
    lambda: formats.dump_category(_P),
    lambda: formats.dump_complex(None),
    lambda: formats.dump_monoid(floating_presentation(_TRIANGLE)),
    lambda: formats.dump_presentation(m6_presentation()),
    lambda: ReducedSeq(None, ["f"]),
    lambda: generator(None, "f"),
    lambda: elements_up_to(None, 1),
    lambda: RewriteTrace(()).replay(None, ["f"]),
    lambda: unit(None),
    lambda: product([], "x"),
    lambda: IsotoneMap(None, _P, {}),
    lambda: IsotoneMap(_P, _TRIANGLE, {"a": "a", "b": "b"}),
    lambda: IntervalFunctor(_P),
    lambda: embed_free_monoid(None),
    lambda: FreeGroupWord(None, []),
    lambda: FreeAbelianWord("zn", [1]),
    lambda: FreeProductWord(None, []),
    lambda: GroupSpec.product(1),
    lambda: group_product(None, []),
    lambda: group_product(_Z2, [(1, 2)]),
    lambda: group_multiply(None, _Z2.identity()),
    lambda: group_multiply(_Z2.identity(), None),
    lambda: inject(GroupSpec.product(_Z2), 0, None),
    lambda: CategoryFunctor(None, _Z2, {}),
    lambda: CategoryFunctor(_two_arrows(), None, {}),
    lambda: highlighting_expansion(None),
    lambda: left_divides_mod(m6_presentation(), ("a",), None),
    lambda: product(["x"]),
    lambda: reduce_sequence(_two_arrows(), ["i", "f"], 5),
], ids=["atoms-none", "atoms-group-presentation", "class-none",
        "equal-string", "crm-int", "left-divides-none",
        "embed-check-string", "separation-int", "tietze-none",
        "tietze-monoid-presentation", "floating-decomposition-none",
        "cross-check-string", "chain-complex-int",
        "chain-complex-of-a-complex", "cat-of-poset-none",
        "gcd-criterion-of-a-complex", "barycentric-none",
        "barycentric-of-a-poset", "detect-spindle-none",
        "extreme-spindle-none", "reduce-sequence-none",
        "reduce-sequence-of-a-poset", "universal-group-none",
        "sigma-image-no-functor", "spanning-tree-none",
        "floating-presentation-of-a-poset", "dump-poset-none",
        "dump-category-of-a-poset", "dump-complex-none",
        "dump-monoid-of-a-group-presentation",
        "dump-presentation-of-a-monoid-presentation",
        "reduced-seq-none", "generator-none", "elements-up-to-none",
        "replay-none", "unit-none", "empty-product-over-a-string",
        "isotone-map-none", "isotone-map-to-a-complex",
        "interval-functor-of-a-poset", "free-monoid-embedding-none",
        "free-word-none", "abelian-word-string-spec", "product-word-none",
        "product-spec-of-an-int", "group-product-none",
        "group-product-of-a-tuple", "group-multiply-none",
        "group-multiply-by-none", "inject-none", "functor-none",
        "functor-no-target", "expansion-none", "left-divides-no-class",
        "product-of-a-lone-string", "reduce-sequence-int-rng"])
def test_structure_arguments_of_the_wrong_type_are_refused(call):
    # each names the structure it expected; the fuzz test below only
    # sees that some CatmonError is raised
    with pytest.raises(InvalidStructure, match="^expected "):
        call()


def test_elements_refuse_del_as_they_refuse_setattr():
    x = generator(cat_of_poset(_P), "[a,b]")
    w = _Z2.identity()
    for value, attrs in ((x, ("arrows", "category", "extra")),
                         (w, ("payload", "spec", "extra"))):
        for attr in attrs:
            with pytest.raises(AttributeError, match="immutable"):
                delattr(value, attr)
    assert x.arrows == ("[a,b]",) and w.payload == (0, 0) and w.spec is _Z2


def test_bounds_that_are_not_ints_are_refused():
    c = _two_arrows()
    m6 = m6_presentation()
    for bad in (2.5, None, "3", True):
        for call in (lambda: verify_m6_embedding(bad),
                     lambda: elements_up_to(c, bad),
                     lambda: common_right_multiple(m6, [("a",)], bad)):
            with pytest.raises(InvalidStructure, match="is not an int"):
                call()


# Values a caller might hand in by mistake: strings, None, ints, bools and
# floats (as bounds too), 1- and 3-tuples, unhashable lists and dicts.
_BAD = ["", "a", "a b", "#", None, 0, -1, 3, True, 2.5, ("a",),
        ("a", "b", "c"), ["a"], [["a"]], {"a": "b"}, [("a", "b", "c")],
        [None], [1]]
_KEYS = [b for b in _BAD if isinstance(b, Hashable)]


def _entry_points():
    """(name, callable, good arguments) for each public constructor and
    entry point that takes values from outside, element operands of the
    Um(S) kernels included.  Structure arguments, a category, poset,
    presentation, group spec or functor, are fuzzed too."""
    c = _two_arrows()
    f = generator(c, "f")
    hm = IntervalFunctor(IsotoneMap(_P, _P, {"a": "a", "b": "b"}))
    ab = generator(hm.source_category, interval_name("a", "b"))
    z1 = GroupSpec.zn(1)
    functor = CategoryFunctor(c, z1, {"f": FreeAbelianWord(z1, [1]),
                                      "g": FreeAbelianWord(z1, [2])})
    free = GroupSpec.free("ab")
    prod = GroupSpec.product(free, z1)
    m6 = m6_presentation()
    diamond = Poset("0ab1", [("0", "a"), ("0", "b"), ("a", "1"),
                             ("b", "1")])
    return [
        ("Poset", Poset, [["a", "b"], [("a", "b")]]),
        ("Poset.from_order", Poset.from_order, [["a", "b"], [("a", "b")]]),
        ("Poset.leq", _P.leq, ["a", "b"]),
        ("Poset.meet_within", _P.meet_within, ["a", "b", "a"]),
        ("FiniteCategory", FiniteCategory,
         [["x"], {"i": ("x", "x")}, {"x": "i"}, {("i", "i"): "i"}]),
        ("FiniteCategory.src", c.src, ["f"]),
        ("FiniteCategory.identity_of", c.identity_of, ["x"]),
        ("FiniteCategory.hom", c.hom, ["x", "y"]),
        ("FiniteCategory.compose", c.compose, ["i", "f"]),
        ("FiniteCategory.divides", c.divides, ["left", "i", "f"]),
        ("FiniteCategory.gcd", c.gcd, ["left", ["f", "g"]]),
        ("FiniteCategory.lcm", c.lcm, ["right", "f", "g"]),
        ("FiniteCategory.quotient", c.quotient, ["left", "i", "f"]),
        ("SimplicialComplex", SimplicialComplex, [[["a", "b"], ["b", "c"]]]),
        ("GroupPresentation", GroupPresentation,
         [["x", "y"], [[("x", 1), ("y", -1)]]]),
        ("MonoidPresentation", MonoidPresentation,
         [["a", "b"], [(("a", "b"), ("b", "a"))]]),
        ("GroupSpec.free", GroupSpec.free, [["a", "b"]]),
        ("GroupSpec.zn", GroupSpec.zn, [2]),
        ("GroupSpec", GroupSpec, ["product", (), 0, (free, z1)]),
        ("FreeGroupWord", FreeGroupWord, [free, [("a", 1), ("b", -1)]]),
        ("FreeAbelianWord", FreeAbelianWord, [_Z2, [1, -1]]),
        ("FreeProductWord", FreeProductWord,
         [prod, [(0, FreeGroupWord(free, [("a", 1)]))]]),
        ("CategoryFunctor", CategoryFunctor,
         [c, z1, {"f": FreeAbelianWord(z1, [1]),
                  "g": FreeAbelianWord(z1, [2])}]),
        ("IsotoneMap", IsotoneMap, [_P, _P, {"a": "a", "b": "b"}]),
        ("ReducedSeq", ReducedSeq, [c, ["f"]]),
        ("reduce_sequence", reduce_sequence, [c, ["i", "f", "j"]]),
        ("reduce_sequence with an rng", reduce_sequence,
         [c, ["i", "f", "j"], random.Random(3)]),
        ("RewriteTrace.replay", RewriteTrace(((0, "dropIdentity"),)).replay,
         [c, ["i", "f"]]),
        ("generator", generator, [c, "g"]),
        ("gcd_family", gcd_family, ["left", [f, f]]),
        ("gcd_pair", gcd_pair, ["right", f, f]),
        ("divides", divides, ["left", f, f]),
        ("lcm_pair", lcm_pair, ["left", f, f]),
        ("multiply", multiply, [f, f]),
        ("components", components, [f]),
        ("greedy_normal_form", greedy_normal_form, [f]),
        ("sigma_image", sigma_image, [f, functor]),
        ("IntervalFunctor.__call__", hm, [ab]),
        ("embed_free_group", embed_free_group, [ab]),
        ("elements_up_to", elements_up_to, [c, 2]),
        ("embeddability_verdict", embeddability_verdict, [functor]),
        ("congruence_class", congruence_class, [m6, ["a", "e"]]),
        ("equal_in_monoid", equal_in_monoid, [m6, ["a", "e"], ["c", "b"]]),
        ("common_right_multiple", common_right_multiple,
         [m6, [["a"], ["b"]], 2]),
        ("left_divides_mod", left_divides_mod,
         [m6, ["a"], {("a", "e"), ("c", "b")}]),
        ("product", product, [[f, f]]),
        ("verify_m6_embedding", verify_m6_embedding, [2]),
        ("detect_spindle", detect_spindle, [diamond, "0", "1"]),
        ("is_extreme_spindle", is_extreme_spindle,
         [diamond, ("0", "1", [("0", "a", "1"), ("0", "b", "1")])]),
        ("tietze_collapse", tietze_collapse,
         [floating_presentation(_TRIANGLE), ("a", (("a", "b"), ("a", "c")))]),
        ("SimplicialComplex.faces", _TRIANGLE.faces, [1]),
        ("IsotoneMap.__call__", IsotoneMap(_P, _P, {"a": "a", "b": "b"}),
         ["a"]),
        ("embed_free_monoid mapper", embed_free_monoid(_P)[1], [_AB]),
        ("spindle_category", spindle_category,
         [diamond, ("0", "1", [("0", "a", "1"), ("0", "b", "1")])]),
        ("spindle_presentation", spindle_presentation,
         [diamond, ("0", "1", [("0", "a", "1"), ("0", "b", "1")])]),
    ]


def _fuzzed(value, rng):
    """value with one member, at any depth, replaced by a bad value; or a
    bad value in its place."""
    if isinstance(value, (list, tuple)) and value and rng.random() < 0.6:
        i = rng.randrange(len(value))
        out = list(value)
        out[i] = _fuzzed(value[i], rng)
        if hasattr(value, "_fields"):
            # a record (GroupSpec) judges its fields as it is built; where
            # it refuses them, the bad member goes in the record's place
            try:
                return type(value)(*out)
            except CatmonError:
                return out[i]
        return type(value)(out)
    if isinstance(value, dict) and value and rng.random() < 0.6:
        out = dict(value)
        key = rng.choice(sorted(out))
        if rng.random() < 0.5:
            out[key] = _fuzzed(out[key], rng)
        else:
            out[rng.choice(_KEYS)] = out.pop(key)
        return out
    return rng.choice(_BAD)


def test_malformed_values_raise_only_catmon_errors():
    """Every argument of every entry point, in turn, replaced by each bad
    value; then seeded random replacements of members at any depth.  A call
    may succeed or raise a CatmonError, and nothing else."""
    rng = random.Random(25)
    calls = 0
    for name, fn, good in _entry_points():
        fn(*good)  # the good arguments are good
        values = range(len(good))
        trials = [(i, bad) for i in values for bad in _BAD]
        trials += [(i, _fuzzed(good[i], rng)) for i in
                   (rng.choice(values) for _ in range(60 if values else 0))]
        for i, bad in trials:
            args = good[:i] + [bad] + good[i + 1:]
            try:
                fn(*args)
            except CatmonError:
                pass
            except Exception as e:
                pytest.fail(f"{name}{tuple(args)!r} raised {e!r}")
            calls += 1
    assert calls > 2500, calls
