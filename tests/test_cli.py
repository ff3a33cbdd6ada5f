import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from catmon import Poset, cat_of_poset, cli, presented
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
    # the library judges a bound; the CLI only parses it as an int
    for argv, message in (
            (["monoid", "crm", "--max-len", "-1", "data/c6.monoid", "a"],
             "max_len -1 is below 0"),
            (["monoid", "m6", "--max-len", "-3"], "max_len -3 is below 1")):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err == f"error: InvalidStructure: {message}\n", argv
        assert "Traceback" not in err, argv
    with pytest.raises(SystemExit) as exc:
        main(["monoid", "m6", "--max-len", "abc"])
    assert exc.value.code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err
    # embed-check answers from the separation theorem and takes no bound
    with pytest.raises(SystemExit) as exc:
        main(["embed-check", "data/c6.category", "data/c6_z3.functor",
              "--max-len", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-len 3" in capsys.readouterr().err


def test_checks_up_to_length_zero_are_usage_errors(capsys):
    # a check of no class would answer a vacuous YES
    assert main(["monoid", "m6", "--max-len", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "YES" not in err
    assert err == "error: InvalidStructure: max_len 0 is below 1\n"
    assert "Traceback" not in err
    assert main(["monoid", "m6", "--max-len", "1"]) == 0
    assert "classes: 6  injective: YES" in capsys.readouterr().out
    # a search up to length 0 answers honestly that it found nothing
    assert main(["monoid", "crm", "--max-len", "0", "data/c6.monoid",
                 "a"]) == 1
    assert capsys.readouterr().out == "crm: none up to 0\n"


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


def test_simplex_with_a_repeated_vertex_exits_2(tmp_path, capsys):
    f = tmp_path / "repeat.complex"
    f.write_text("complex\nsimplex a a b\n")
    for command in ("barycentric", "homotopy"):
        assert main([command, str(f)]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == "", command
        assert captured.err == ("error: InvalidStructure: simplex "
                                "('a', 'a', 'b') repeats a vertex\n"), command
    assert main(["validate", str(f)]) == 1
    assert capsys.readouterr().out == (
        "INVALID: simplex ('a', 'a', 'b') repeats a vertex\n")


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


def test_monoid_crm_shows_the_empty_word_as_1(capsys):
    # as nf, gcd and mult show the unit
    assert main(["monoid", "crm", "data/c6.monoid", ""]) == 0
    assert capsys.readouterr().out == "crm: 1\n"
    assert main(["monoid", "crm", "--format", "json", "data/c6.monoid",
                 ""]) == 0
    assert json.loads(capsys.readouterr().out) == {"crm": "1", "max_len": 8}


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
    assert first[("monoid", "crm", "--max-len", "-1", "data/c6.monoid",
                  "a")][2] == ("error: InvalidStructure: max_len -1 is below "
                               "0\n")


# Tokens an argv mutation inserts: flags and values of the leaves, values of
# no flag's type or choices, and spellings the plain parser leaves to argparse.
_ARGV_TOKENS = ["--format", "json", "text", "xml", "--side", "right",
                "--max-len", "3", "x3", " 4", "+4", "--format=json", "--form",
                "--max", "-h", "--help", "--", "-1", "-a", "-", "", "a b",
                "nf", "monoid", "crm", "nope"]
_FLAG_PAIRS = [["--max-len", "3"], ["--side", "right"], ["--format", "json"],
               ["--format", "xml"], ["--max-len", "q"]]


def _mutate_argv(argv, rng):
    argv = list(argv)
    for _ in range(rng.randint(1, 4)):
        op = rng.choice(("move", "move", "equals", "abbreviate", "drop",
                         "duplicate", "insert", "insert", "flag", "cut",
                         "rename"))
        flags = [i for i, t in enumerate(argv[:-1])
                 if t.startswith("--") and len(t) > 4]
        if op == "move" and flags:  # before, between or after positionals
            i = rng.choice(flags)
            pair = argv[i:i + 2]
            del argv[i:i + 2]
            j = rng.randint(0, len(argv))
            argv[j:j] = pair
        elif op == "equals" and flags:
            i = rng.choice(flags)
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        elif op == "abbreviate" and flags:
            i = rng.choice(flags)
            argv[i] = argv[i][:rng.randint(3, len(argv[i]) - 1)]
        elif op == "drop" and argv:
            del argv[rng.randrange(len(argv))]
        elif op == "duplicate" and argv:
            i = rng.randrange(len(argv))
            argv.insert(i, argv[i])
        elif op == "insert":
            argv.insert(rng.randint(0, len(argv)), rng.choice(_ARGV_TOKENS))
        elif op == "flag":
            j = rng.randint(0, len(argv))
            argv[j:j] = rng.choice(_FLAG_PAIRS)
        elif op == "cut":  # no command, or a group with no leaf
            argv = argv[:rng.randint(0, 1)]
        elif op == "rename" and argv:
            argv[0] = rng.choice(["nope", "Nf", "mon", "check"])
    return argv


def test_plain_parser_agrees_with_argparse(capsys):
    """The plain parser serves every golden argv, with --format appended as
    the benchmark does; on seeded mutations of them it returns a namespace
    only where argparse accepts the argv, and then the same one."""
    parser = cli.build_parser()

    def both(argv):
        plain = cli._plain_parse(argv)
        try:
            ref = vars(parser.parse_args(argv))
        except SystemExit:
            ref = None
        capsys.readouterr()
        if plain is not None:
            assert vars(plain) == ref, argv
        return plain, ref

    golden = [argv for _, argv, _ in CASES]
    golden += [argv + ["--format", "text"] for argv in golden
               if "--format" not in argv]
    for argv in golden:
        assert both(argv)[0] is not None, argv
    # argparse leaves a word after a flag out of the run of words before it
    for argv in (["monoid", "crm", "data/c6.monoid", "a", "--max-len", "4",
                  "b"],
                 ["gcd", "data/c6.category", "a", "--side", "right", "b"]):
        assert both(argv) == (None, None), argv
    rng = random.Random(7)
    served = accepted = 0
    for _ in range(3000):
        plain, ref = both(_mutate_argv(rng.choice(golden), rng))
        served += plain is not None
        accepted += ref is not None
    assert 0 < served < accepted < 3000, (served, accepted)


def test_golden_cases_need_no_argparse(monkeypatch):
    def refuse():
        raise AssertionError("argparse parser built")

    # main reaches argparse only through _parser
    monkeypatch.setattr(cli, "build_parser", refuse)
    monkeypatch.setattr(cli, "_parser", refuse)
    for name, argv, expected_code in CASES:
        assert run_case(argv) == (expected_code,
                                  golden_path(name).read_text()), name


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
_FUZZ_TOKENS = ["x", "", "[", "->", "=", "^-1", "a,b", "rel", "gen", "-3",
                "10000000000000000000"]


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


def test_congruence_classes_past_the_size_guard_exit_2(tmp_path, capsys,
                                                       monkeypatch):
    from catmon import limits

    # four commuting generators: a word's class is its rearrangements, so
    # "a b c d a b" has 180 words and "a b c d a b c d" has 2520
    f = tmp_path / "commuting.monoid"
    f.write_text("monoid\ngen a b c d\n" + "".join(
        f"rel {x} {y} = {y} {x}\n" for x, y in
        ("ab", "ac", "ad", "bc", "bd", "cd")))
    monkeypatch.setattr(limits, "MAX_COUNT", 1000)
    assert main(["monoid", "class", str(f), "a b c d a b"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 180
    word = "a b c d a b c d"
    for argv in (["monoid", "class", str(f), word],
                 ["monoid", "equal", str(f), word, "d c b a d c b a"],
                 ["monoid", "class", "--format", "json", str(f), word]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: SizeLimitExceeded"), \
            captured.err
        assert "words of a congruence class, over the limit of 1000" in \
            captured.err, captured.err
        assert "Traceback" not in captured.err, captured.err


def test_tietze_collapse_past_the_size_guard_exits_2(tmp_path, capsys,
                                                    monkeypatch):
    from catmon import limits

    # the solid 4-simplex: 10 edges and 10 triangles, whose relators keep
    # 18 letters once the 4 tree edges are killed
    f = tmp_path / "simplex4.complex"
    f.write_text("complex\nsimplex a b c d e\n")
    assert main(["homotopy", str(f)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(limits, "MAX_COUNT", 12)
    assert main(["homotopy", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: SizeLimitExceeded"), captured.err
    assert "18 relator letters, over the limit of 12" in captured.err
    assert "Traceback" not in captured.err


def test_category_files_past_the_size_guard_exit_2(tmp_path, capsys,
                                                   monkeypatch):
    from catmon import limits

    # Z/60: 3,600 composites and 216,000 associativity triples, refused
    # before validation walks them
    n = 60
    f = tmp_path / "z60.category"
    f.write_text("category\nobj o\n" + "".join(
        f"arrow g{i} o o\n" for i in range(1, n)) + "".join(
        f"comp g{i} g{j} {f'g{(i + j) % n}' if (i + j) % n else 'id:o'}\n"
        for i in range(1, n) for j in range(1, n)))
    monkeypatch.setattr(limits, "MAX_COUNT", 1000)
    for argv in (["validate", str(f)], ["check", "category", str(f)],
                 ["check", "gcd-monoid", str(f)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert ("219600 composites and associativity triples, over the "
                "limit of 1000") in captured.err, captured.err
        assert "Traceback" not in captured.err, captured.err


def test_faces_past_the_size_guard_exit_2(tmp_path, capsys, monkeypatch):
    from catmon import complexes

    def no_faces(*args):
        raise AssertionError("a face was listed")

    # one 24-vertex simplex has 2**24 - 1 faces: refused before any is listed
    monkeypatch.setattr(complexes, "combinations", no_faces)
    f = tmp_path / "simplex24.complex"
    f.write_text("complex\nsimplex " + " ".join(
        f"v{i:02d}" for i in range(24)) + "\n")
    assert main(["barycentric", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SizeLimitExceeded"), err
    assert "16777215 faces" in err and "Traceback" not in err, err


def test_chains_past_the_size_guard_exit_2(tmp_path, capsys, monkeypatch):
    from catmon import poset

    def no_chains(*args):
        raise AssertionError("a chain was listed")

    # the ladder: a bottom, then 30 ranks of two, every cover between
    # neighbouring ranks, so 2**30 maximal chains
    ranks = [["b"]] + [[f"r{k:02d}x", f"r{k:02d}y"] for k in range(30)]
    covers = [f"cover {x} {y}\n" for lo, hi in zip(ranks, ranks[1:])
              for x in lo for y in hi]
    f = tmp_path / "ladder.poset"
    f.write_text("poset\nelem " + " ".join(e for r in ranks for e in r)
                 + "\n" + "".join(covers))
    monkeypatch.setattr(poset, "_walk_chains", no_chains)
    for command in ("chain-complex", "cross-check"):
        assert main([command, str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: SizeLimitExceeded"), err
        assert "1073741824 maximal chains" in err, err
        assert "Traceback" not in err, err


def test_cat_of_a_chain_past_the_arrow_limit_exits_2(tmp_path, capsys,
                                                      monkeypatch):
    from catmon import interval

    def no_interval(*args):
        raise AssertionError("an interval was named")

    # Cat of a 150-chain has 150 * 151 / 2 = 11325 arrows, over the default
    # limit of 10000: refused before any interval is named, by both spindle
    # commands (the presentation builds no category)
    els = [f"x{i:03d}" for i in range(150)]
    f = tmp_path / "chain150.poset"
    f.write_text("poset\nelem " + " ".join(els) + "\n" + "".join(
        f"cover {x} {y}\n" for x, y in zip(els, els[1:])))
    monkeypatch.setattr(interval, "interval_name", no_interval)
    for command in ("category", "presentation"):
        assert main(["spindle", command, str(f), "x000", "x149"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "", command
        assert captured.err.startswith("error: SizeLimitExceeded"), \
            captured.err
        assert "11325 arrows" in captured.err, captured.err
        assert "Traceback" not in captured.err, captured.err


def test_functor_target_dimensions_are_checked(tmp_path, capsys):
    cat = tmp_path / "point.category"
    cat.write_text("category\nobj x\n")
    functor = tmp_path / "f.functor"
    for k, expected in (
            ("-3", f"error: {functor}:2: bad dimension '-3'"),
            ("10000000000000000000", "error: SizeLimitExceeded: "
             "10000000000000000000 dimensions of target zn")):
        functor.write_text(f"functor\ntarget zn {k}\n")
        assert main(["embed-check", str(cat), str(functor)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "", k
        assert captured.err.startswith(expected), captured.err
        assert "Traceback" not in captured.err, captured.err
