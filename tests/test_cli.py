import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from catmon import Poset, cat_of_poset, presented
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


def test_spindle_category_chain_name_clash_exits_2(tmp_path, capsys):
    f = tmp_path / "clash.poset"
    f.write_text("poset\nelem u a b a,b v\ncover u a\ncover a b\n"
                 "cover b v\ncover u a,b\ncover a,b v\n")
    assert main(["spindle", "category", str(f), "u", "v"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: InvalidStructure: chain arrow name clash "
                            "at chain:a,b\n")


def test_monoid_class_of_empty_word(capsys):
    assert main(["monoid", "class", "data/b3.monoid", ""]) == 0
    assert capsys.readouterr().out == "1\n"


def test_monoid_words_with_unknown_letters_exit_2(capsys):
    for argv in (["monoid", "class", "data/c6.monoid", "z"],
                 ["monoid", "equal", "data/c6.monoid", "z", "z"],
                 ["monoid", "equal", "data/c6.monoid", "a", "a z"],
                 ["monoid", "crm", "data/c6.monoid", "a", "z"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == ("error: InvalidStructure: word uses unknown "
                                "generator 'z'\n"), argv


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


def test_reused_parser_keeps_no_state(monkeypatch, capsys):
    """One process, every golden case twice in a shuffled order, mixed with
    usage errors, --help, and calls that drop an option the call before
    them set: each output is as if the parser were new."""
    monkeypatch.setenv("COLUMNS", "80")
    golden = [[(argv, code, golden_path(name).read_text())]
              for name, argv, code in CASES]
    crm = ["monoid", "crm", "--format", "json", "data/c6.monoid", "a", "b"]
    # An expected output of None: the same output every time, checked below.
    extras = [
        [(["monoid", "crm", "--max-len", "-1", "data/c6.monoid", "a"], 2,
          None)],
        [(["nf", "--help"], 0, None)],
        [(["monoid", "--help"], 0, None)],
        [(["gcd", "--side", "right", "--format", "json", "data/c6.category",
           "abar", "bbar"], 0, golden_path("gcd_right_json").read_text()),
         (["gcd", "--format", "json", "data/c6.category", "abar", "bbar"],
          0, '{"gcd": "c", "side": "left"}\n')],
        [(crm[:2] + ["--max-len", "4"] + crm[2:], 0,
          '{"crm": "a b\'", "max_len": 4}\n'),
         (crm, 0, golden_path("monoid_crm_ab_json").read_text())],
    ]
    steps = golden * 2 + extras * 2
    random.Random(5).shuffle(steps)
    first = {}
    for step in steps:
        for argv, code, out in step:
            got = run_case(argv) + (capsys.readouterr().err,)
            assert got[0] == code, argv
            if out is None:
                assert first.setdefault(tuple(argv), got) == got, argv
            else:
                assert got[1:] == (out, ""), argv
    assert first[("nf", "--help")][1].startswith("usage: catmon nf [-h]")
    assert first[("monoid", "--help")][1].startswith(
        "usage: catmon monoid [-h]")
    assert "invalid non-negative int value: '-1'" in first[
        ("monoid", "crm", "--max-len", "-1", "data/c6.monoid", "a")][2]


# kind of a data file -> the subcommands that read it; None marks the file
_FUZZ_COMMANDS = {
    "poset": [["validate", None], ["check", "gcd-monoid", None],
              ["chain-complex", None], ["cross-check", None]],
    "complex": [["validate", None], ["homotopy", None],
                ["barycentric", None]],
    "category": [["validate", None], ["check", "gcd-monoid", None],
                 ["check", "category", None],
                 ["present", "universal-group", None]],
    "monoid": [["validate", None], ["monoid", "atoms", None]],
    "functor": [["validate", None],
                ["embed-check", "data/c6.category", None]],
}
_FUZZ_TOKENS = ["x", "", "[", "->", "=", "^-1", "a,b", "rel", "gen"]


def _mutate(lines, rng):
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        op = rng.choice(("delete", "duplicate", "swap", "drop", "replace"))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split()
            if not tokens:
                continue
            k = rng.randrange(len(tokens))
            if op == "drop":
                del tokens[k]
            else:
                tokens[k] = rng.choice(_FUZZ_TOKENS)
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def test_mutated_data_files_exit_cleanly(tmp_path, capsys):
    """Seeded line mutations of every data file: each subcommand for the
    file's kind exits 0, 1 or 2, and only argparse's SystemExit may leave
    main."""
    rng = random.Random(11)
    sources = sorted((ROOT / "data").iterdir())
    assert {f.suffix[1:] for f in sources} == set(_FUZZ_COMMANDS)
    for n in range(600):
        src = sources[n % len(sources)]
        text = _mutate(src.read_text().splitlines(), rng)
        mutant = tmp_path / f"mutant{src.suffix}"
        mutant.write_text(text)
        for template in _FUZZ_COMMANDS[src.suffix[1:]]:
            argv = [str(mutant) if a is None else a for a in template]
            try:
                code, _ = run_case(argv)
            except Exception as e:
                pytest.fail(f"{argv[:-1]} on a mutant of {src.name} raised "
                            f"{e!r}; mutant:\n{text}")
            assert code in (0, 1, 2), (argv, src.name, text)
            capsys.readouterr()


def test_python_m_catmon_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "catmon", "nf", "data/c6.category", "a b'"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden_path("nf_cross").read_text()


def test_cold_import_loads_no_fractions_or_decimal():
    probe = ("import sys; sys.path.insert(0, 'src'); import catmon, "
             "catmon.cli; print(sorted({'fractions', 'decimal'} & "
             "set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", probe], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_word_walks_past_the_layer_guard_exit_2(capsys, monkeypatch):
    walk = presented._class_walk

    def no_grow(*args):
        # every grown class, quiet or hot, is yielded by the walk
        for _ in walk(*args):
            raise AssertionError("a class was grown")

    # the m6 check walks every layer, so it is refused before any is grown
    monkeypatch.setattr(presented, "_class_walk", no_grow)
    assert main(["monoid", "m6", "--max-len", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SizeLimitExceeded"), err
    assert "6**10" in err and "Traceback" not in err, err
    monkeypatch.setattr(presented, "_class_walk", walk)
    # crm answers from a layer below the limit, and with no answer there is
    # refused at the first layer past it
    assert main(["monoid", "crm", "data/c6.monoid", "a", "b",
                 "--max-len", "9"]) == 0
    assert capsys.readouterr().out == "crm: a b'\n"
    assert main(["monoid", "crm", "data/c6.monoid", "a", "b", "c",
                 "--max-len", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SizeLimitExceeded"), err
    assert "6**8" in err and "Traceback" not in err, err
