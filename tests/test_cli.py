import json
from pathlib import Path

import pytest

from catmon import Poset, cat_of_poset
from catmon.cli import main
from catmon.formats import dump_category

from golden_cases import CASES, golden_path, run_case

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def run_from_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_golden_outputs():
    for name, argv, expected_code in CASES:
        code, text = run_case(argv)
        assert code == expected_code, (name, code)
        assert text == golden_path(name).read_text(), name


def test_json_goldens_are_valid_json():
    for name, argv, _ in CASES:
        if "json" in argv:
            json.loads(golden_path(name).read_text())


def test_parse_errors_exit_2(capsys):
    assert main(["validate", "data/nosuch.poset"]) == 2
    assert "No such file" in capsys.readouterr().err
    assert main(["validate", "data/c6_z3.functor"]) == 2
    assert "context-dependent format 'functor'" in capsys.readouterr().err
    assert main(["nf", "data/c6.category", "a ghost"]) == 2
    assert "UnknownArrow" in capsys.readouterr().err


def test_non_utf8_input_exits_2(tmp_path, capsys):
    f = tmp_path / "binary.poset"
    f.write_bytes(b"\xff\xfe")
    assert main(["validate", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {f}: not UTF-8 text")
    assert "Traceback" not in err


def test_negative_bounds_are_usage_errors(capsys):
    for argv in (["embed-check", "data/c6.category", "data/c6_z3.functor",
                  "--max-len", "-1"],
                 ["monoid", "crm", "--max-len", "-1", "data/c6.monoid", "a"],
                 ["monoid", "m6", "--max-len", "-3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "invalid non-negative int value" in err, argv
        assert "Traceback" not in err, argv


def test_precondition_errors_exit_2(capsys):
    assert main(["spindle", "detect", "data/diamond.poset", "a", "b"]) == 2
    assert "NotComparable" in capsys.readouterr().err
    assert main(["spindle", "detect", "data/diamond.poset", "0", "a"]) == 2
    assert "HeightTooSmall" in capsys.readouterr().err


def test_validate_reports_invalid_structure(tmp_path, capsys):
    bad = tmp_path / "bad.category"
    bad.write_text("category\nobj x y z\narrow f x y\narrow g y z\n")
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("INVALID:")
    assert main(["validate", "--format", "json", str(bad)]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_gcd_absent_exits_1(tmp_path, capsys):
    nonlattice = Poset("opqrs", [("o", "p"), ("o", "q"), ("p", "r"),
                                 ("p", "s"), ("q", "r"), ("q", "s")])
    f = tmp_path / "nonlattice.category"
    f.write_text(dump_category(cat_of_poset(nonlattice)))
    assert main(["gcd", str(f), "[o,r]", "[o,s]"]) == 1
    assert capsys.readouterr().out == "gcd: absent\n"
    flipped = Poset("opqrs", [("p", "o"), ("q", "o"), ("r", "p"),
                              ("s", "p"), ("r", "q"), ("s", "q")])
    g = tmp_path / "flipped.category"
    g.write_text(dump_category(cat_of_poset(flipped)))
    assert main(["gcd", "--side", "right", str(g), "[r,o]", "[s,o]"]) == 1
    assert capsys.readouterr().out == "gcd: absent\n"


def test_lcm_absent_exits_1(tmp_path, capsys):
    vee = Poset("opq", [("o", "p"), ("o", "q")])
    f = tmp_path / "v.category"
    f.write_text(dump_category(cat_of_poset(vee)))
    assert main(["lcm", str(f), "[o,p]", "[o,q]"]) == 1
    assert capsys.readouterr().out == "lcm: absent\n"


def test_spindle_no_exits_1(tmp_path, capsys):
    f = tmp_path / "nospindle.poset"
    f.write_text("poset\nelem u x y z v\ncover u x\ncover u y\n"
                 "cover x z\ncover y z\ncover z v\n")
    assert main(["spindle", "detect", str(f), "u", "v"]) == 1
    assert capsys.readouterr().out == "spindle: NO\n"
    assert main(["spindle", "category", str(f), "u", "v"]) == 1
    capsys.readouterr()
    assert main(["spindle", "presentation", str(f), "u", "v"]) == 1


def test_monoid_class_of_empty_word(capsys):
    assert main(["monoid", "class", "data/b3.monoid", ""]) == 0
    assert capsys.readouterr().out == "1\n"


def test_spindle_category_output_reloads(capsys):
    assert main(["spindle", "category", "data/diamond.poset", "0", "1"]) == 0
    text = capsys.readouterr().out
    from catmon.formats import load_category
    cat = load_category(text, "spindle")
    assert set(cat.hom("0", "1")) == {"chain:a", "chain:b"}


def test_barycentric_output_feeds_chain_complex_and_cross_check(
        tmp_path, capsys):
    assert main(["barycentric", "data/triangle.complex"]) == 0
    f = tmp_path / "triangle.poset"
    f.write_text(capsys.readouterr().out)
    assert main(["cross-check", str(f)]) == 0
    assert capsys.readouterr().out == (
        "HG free rank: 6  abelianization rank: 6  agree: YES\n")
    assert main(["chain-complex", str(f)]) == 0
    assert capsys.readouterr().out.startswith(
        "complex\nsimplex x x,y x,y,z\n")


def test_chain_complex_of_a_long_chain(tmp_path, capsys):
    names = [f"x{i:04d}" for i in range(1100)]
    f = tmp_path / "chain.poset"
    f.write_text("poset\nelem " + " ".join(names) + "\n" + "".join(
        f"cover {x} {y}\n" for x, y in zip(names, names[1:])))
    assert main(["chain-complex", str(f)]) == 0
    out = capsys.readouterr().out
    assert out == "complex\nsimplex " + " ".join(names) + "\n"
