"""Tooling checks on the source in src/catmon: the exception hierarchy,
which modules build a validated FiniteCategory, where size policy lives,
and what importing the package and its CLI loads."""
import ast
import subprocess
import sys
from pathlib import Path

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
    # Tables catmon builds itself go through category._category; the
    # validating constructor is for files and for a hand-built Spindle.
    callers = {p.name for p in sorted(SRC.glob("*.py"))
               if "FiniteCategory" in _called_names(
                   ast.parse(p.read_text(), str(p)))}
    assert callers == {"formats.py", "spindle.py"}


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


def test_cold_import_loads_no_heavy_modules():
    # every catmon process pays for what the package and its CLI import;
    # the site hook of the interpreter may load some modules itself, so
    # only what the import adds to a bare interpreter counts
    added = _modules_after("import catmon, catmon.cli") - _modules_after(
        "pass")
    assert "catmon.cli" in added
    assert sorted(added & {"dataclasses", "inspect", "fractions",
                           "decimal"}) == []
