"""Pinned CLI invocations: (golden file name, argv, expected exit code).

Each command is deterministic, so its stdout is stored byte-for-byte under
tests/golden/.  Regenerate after an intentional output change with

    python3 tests/golden_cases.py

run from the repository root, then review the diff.
"""
import contextlib
import io
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CASES = [
    ("validate_poset", ["validate", "data/diamond.poset"], 0),
    ("validate_category", ["validate", "data/c6.category"], 0),
    ("validate_complex", ["validate", "data/square.complex"], 0),
    ("validate_monoid", ["validate", "data/b3.monoid"], 0),
    ("nf_compose", ["nf", "data/c6.category", "a a'"], 0),
    ("nf_cross", ["nf", "data/c6.category", "a b'"], 0),
    ("nf_json", ["nf", "--format", "json", "data/c6.category", "a a' a"], 0),
    ("mult", ["mult", "data/c6.category", "a", "a'"], 0),
    ("gcd_unit", ["gcd", "data/c6.category", "aa'", "abar"], 0),
    ("gcd_right",
     ["gcd", "--side", "right", "data/c6.category", "abar", "bbar"], 0),
    ("lcm", ["lcm", "data/c6.category", "a", "b"], 0),
    ("greedy", ["greedy", "data/c6.category", "a a' a"], 0),
    ("check_category_c6", ["check", "category", "data/c6.category"], 0),
    ("check_category_parallel",
     ["check", "category", "data/parallel.category"], 0),
    ("check_gcd_diamond", ["check", "gcd-monoid", "data/diamond.poset"], 0),
    ("check_gcd_nonlattice",
     ["check", "gcd-monoid", "data/nonlattice.poset"], 1),
    ("check_gcd_nonlattice_json",
     ["check", "gcd-monoid", "--format", "json", "data/nonlattice.poset"], 1),
    ("check_gcd_c6", ["check", "gcd-monoid", "data/c6.category"], 0),
    ("barycentric_triangle", ["barycentric", "data/triangle.complex"], 0),
    ("chain_complex_diamond", ["chain-complex", "data/diamond.poset"], 0),
    ("homotopy_square", ["homotopy", "data/square.complex"], 0),
    ("homotopy_square_json",
     ["homotopy", "--format", "json", "data/square.complex"], 0),
    ("homotopy_rp2", ["homotopy", "data/rp2.complex"], 0),
    ("homotopy_rp2_json",
     ["homotopy", "--format", "json", "data/rp2.complex"], 0),
    ("cross_check_diamond", ["cross-check", "data/diamond.poset"], 0),
    ("cross_check_p7", ["cross-check", "data/p7.poset"], 0),
    ("spindle_detect_diamond",
     ["spindle", "detect", "data/diamond.poset", "0", "1"], 0),
    ("spindle_detect_json",
     ["spindle", "detect", "--format", "json",
      "data/diamond.poset", "0", "1"], 0),
    ("spindle_detect_nonlattice",
     ["spindle", "detect", "data/nonlattice.poset", "o", "r"], 0),
    ("spindle_category_diamond",
     ["spindle", "category", "data/diamond.poset", "0", "1"], 0),
    ("spindle_presentation_diamond",
     ["spindle", "presentation", "data/diamond.poset", "0", "1"], 0),
    ("embed_check_z3",
     ["embed-check", "data/c6.category", "data/c6_z3.functor"], 0),
    ("embed_check_trivial",
     ["embed-check", "data/c6.category", "data/c6_trivial.functor"], 1),
    ("embed_check_trivial_json",
     ["embed-check", "--format", "json",
      "data/c6.category", "data/c6_trivial.functor"], 1),
    ("monoid_class_b3", ["monoid", "class", "data/b3.monoid", "a b a"], 0),
    ("monoid_class_b3_json",
     ["monoid", "class", "--format", "json", "data/b3.monoid", "a b a"], 0),
    ("monoid_equal_yes",
     ["monoid", "equal", "data/b3.monoid", "a b a", "b a b"], 0),
    ("monoid_equal_no", ["monoid", "equal", "data/b3.monoid", "a b", "b a"], 1),
    ("monoid_atoms_c6", ["monoid", "atoms", "data/c6.monoid"], 0),
    ("monoid_crm_ab", ["monoid", "crm", "data/c6.monoid", "a", "b"], 0),
    ("monoid_crm_abc",
     ["monoid", "crm", "--max-len", "3", "data/c6.monoid", "a", "b", "c"], 1),
    ("monoid_m6", ["monoid", "m6", "--max-len", "2"], 0),
    ("present_ugp_c6",
     ["present", "universal-group", "data/c6.category"], 0),
    ("present_ugp_parallel",
     ["present", "universal-group", "data/parallel.category"], 0),
    ("validate_category_json",
     ["validate", "--format", "json", "data/c6.category"], 0),
    ("mult_json", ["mult", "--format", "json", "data/c6.category", "a", "a'"],
     0),
    ("gcd_right_json",
     ["gcd", "--side", "right", "--format", "json",
      "data/c6.category", "abar", "bbar"], 0),
    ("lcm_json", ["lcm", "--format", "json", "data/c6.category", "a", "b"], 0),
    ("greedy_json",
     ["greedy", "--format", "json", "data/c6.category", "a a' a"], 0),
    ("check_category_c6_json",
     ["check", "category", "--format", "json", "data/c6.category"], 0),
    ("check_gcd_c6_json",
     ["check", "gcd-monoid", "--format", "json", "data/c6.category"], 0),
    ("barycentric_triangle_json",
     ["barycentric", "--format", "json", "data/triangle.complex"], 0),
    ("chain_complex_diamond_json",
     ["chain-complex", "--format", "json", "data/diamond.poset"], 0),
    ("cross_check_p7_json",
     ["cross-check", "--format", "json", "data/p7.poset"], 0),
    ("spindle_category_diamond_json",
     ["spindle", "category", "--format", "json",
      "data/diamond.poset", "0", "1"], 0),
    ("spindle_presentation_diamond_json",
     ["spindle", "presentation", "--format", "json",
      "data/diamond.poset", "0", "1"], 0),
    ("embed_check_z3_json",
     ["embed-check", "--format", "json",
      "data/c6.category", "data/c6_z3.functor"], 0),
    ("monoid_equal_yes_json",
     ["monoid", "equal", "--format", "json",
      "data/b3.monoid", "a b a", "b a b"], 0),
    ("monoid_atoms_c6_json",
     ["monoid", "atoms", "--format", "json", "data/c6.monoid"], 0),
    ("monoid_crm_ab_json",
     ["monoid", "crm", "--format", "json", "data/c6.monoid", "a", "b"], 0),
    ("monoid_m6_json", ["monoid", "m6", "--format", "json", "--max-len", "2"],
     0),
    ("present_ugp_c6_json",
     ["present", "universal-group", "--format", "json", "data/c6.category"],
     0),
]


def run_case(argv):
    """Run one CLI invocation in-process; returns (exit code, stdout text).
    An argparse exit (usage error, --help) gives its SystemExit code."""
    from catmon.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


def golden_path(name):
    return GOLDEN_DIR / f"{name}.txt"


def regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv, expected_code in CASES:
        code, text = run_case(argv)
        if code != expected_code:
            raise SystemExit(
                f"{name}: exit {code}, manifest says {expected_code}")
        golden_path(name).write_text(text)
        print(f"wrote {golden_path(name).name} ({len(text)} bytes)")


if __name__ == "__main__":
    regenerate()
