"""Command-line front end.

Reports are single lines of "key: value" fields separated by two spaces;
--format json mirrors the same report as one JSON object.  Exit codes:
0 success, 1 property-check failure or absent optional result, 2 input or
precondition error.

Every ``cmd_*`` handler returns ``(exit code, text, JSON object)``; ``main``
is the only code that writes stdout.  ``monoid class``, whose class may
hold hundreds of thousands of words, builds only the rendering that
``--format`` selects and returns None for the other.  The ``COMMANDS``
table declares every subcommand and its arguments.

This module only parses; the library judges every value (a ``--max-len``
in ``limits.require_bound``, a ``--side`` in ``category._endpoint_of``),
and ``main`` reports its ``CatmonError`` with exit 2.

Two parsers read ``COMMANDS``.  ``main`` tries ``_plain_parse`` first: it
takes a leaf's path, then its positionals in one run, with each of its flags
spelt in full at most once, before or after that run, followed by a value
of the flag's type and choices.  On such an argv it returns the namespace
argparse would return.  It declines everything else: ``-h``, usage errors,
``--flag=value``, abbreviated flags, ``--``, a repeated flag and any other
token that starts with ``-``.  Only then does ``main`` import argparse and
build the ``build_parser`` parser, whose result or ``SystemExit`` is
final, so help and usage text are argparse's own.  That parser is built
once per process and reused by every later call: argparse keeps no
per-call state in it (each parse makes a fresh namespace, and help reads
the terminal width when it is printed).  Importing this module builds
nothing and imports neither argparse nor json; json is imported when a
report is printed as JSON.
"""
from __future__ import annotations

import functools
import sys
from types import SimpleNamespace

from . import formats
from .complexes import barycentric
from .errors import CatmonError, InvalidStructure, ParseError
from .groups import embeddability_verdict
from .homotopy import chain_complex, cross_check, floating_decomposition
from .interval import gcd_criterion
from .presented import (atoms, common_right_multiple, congruence_class,
                        equal_in_monoid, verify_m6_embedding)
from .spindle import (detect_spindle, is_extreme_spindle, spindle_category,
                      spindle_presentation)
from .presentations import format_word
from .universal import (gcd_family, generator, greedy_normal_form, lcm_pair,
                        multiply, reduce_sequence,
                        universal_group_presentation)


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason} at byte "
                         f"{e.start})") from None


def _load(loader, path):
    return loader(_read(path), path)


def _word(cat, text):
    return reduce_sequence(cat, text.split())[0]


def _yn(flag):
    return "YES" if flag else "NO"


def _okfail(flag):
    return "OK" if flag else "FAIL"


def _line(pairs):
    """One report line from [(label, value)]."""
    return "  ".join(f"{k}: {v}" for k, v in pairs)


def _optional(key, value, absent, **extra):
    """Report a result that may not exist: exit 1 and ``absent`` if None."""
    if value is None:
        return 1, _line([(key, absent)]), {key: None, **extra}
    return 0, _line([(key, value)]), {key: value, **extra}


# -- subcommands: each returns (exit code, text, JSON object) ----------------

# kind -> the two attributes counted in its summary, named as they are shown
_SUMMARY = {"poset": ("elements", "covers"),
            "complex": ("vertices", "facets"),
            "category": ("objects", "arrows"),
            "presentation": ("generators", "relators"),
            "monoid": ("generators", "relations")}


def cmd_validate(args):
    text = _read(args.file)
    try:
        kind, obj = formats.load_any(text, args.file)
    except InvalidStructure as e:
        return 1, f"INVALID: {e}", {"ok": False, "error": str(e)}
    summary = ", ".join(f"{len(getattr(obj, a))} {a}" for a in _SUMMARY[kind])
    return (0, _line([("OK", f"{kind} ({summary})")]),
            {"ok": True, "kind": kind, "summary": summary})


def cmd_nf(args):
    x = _word(_load(formats.load_category, args.file), args.word)
    return 0, str(x), {"normal_form": str(x), "length": x.length}


def cmd_mult(args):
    cat = _load(formats.load_category, args.file)
    x = multiply(_word(cat, args.left), _word(cat, args.right))
    return 0, str(x), {"product": str(x), "length": x.length}


def cmd_gcd(args):
    cat = _load(formats.load_category, args.file)
    g = gcd_family(args.side, [_word(cat, w) for w in args.words])
    return _optional("gcd", g if g is None else str(g), "absent",
                     side=args.side)


def cmd_lcm(args):
    cat = _load(formats.load_category, args.file)
    m = lcm_pair(args.side, generator(cat, args.a), generator(cat, args.b))
    return _optional("lcm", m if m is None else str(m), "absent",
                     side=args.side)


def cmd_greedy(args):
    cat = _load(formats.load_category, args.file)
    factors = greedy_normal_form(_word(cat, args.word))
    text = " ".join(factors) if factors else "1"
    return 0, _line([("greedy", text)]), {"greedy": list(factors)}


def cmd_check_category(args):
    cat = _load(formats.load_category, args.file)
    obj = {"valid": True,
           "conical": cat.is_conical(),
           "left_cancellative": cat.is_left_cancellative(),
           "right_cancellative": cat.is_right_cancellative()}
    return 0, _line((k.replace("_", "-"), _yn(v)) for k, v in obj.items()), obj


def cmd_check_gcd_monoid(args):
    text = _read(args.file)
    kind = formats.sniff_kind(text, args.file)
    if kind == "poset":
        rep = gcd_criterion(formats.load_poset(text, args.file))
        left, right, overall = rep.left_ok, rep.right_ok, rep.holds
        detail = {}
    elif kind == "category":
        rep = formats.load_category(text, args.file).gcd_category_report()
        left = rep.left_cancellative and rep.left_gcds
        right = rep.right_cancellative and rep.right_gcds
        overall = rep.holds
        detail = {"conical": rep.conical}
    else:
        raise ParseError(f"{args.file}:1: expected a poset or category file")
    detail["witnesses"] = {k: list(v) for k, v in rep.witnesses.items()}
    return (0 if overall else 1,
            _line([("left", _okfail(left)), ("right", _okfail(right)),
                   ("gcd-monoid", _yn(overall))]),
            {"left": left, "right": right, "gcd_monoid": overall, **detail})


def cmd_barycentric(args):
    poset = barycentric(_load(formats.load_complex, args.file))
    return (0, formats.dump_poset(poset),
            {"elements": list(poset.elements),
             "covers": [list(c) for c in poset.covers]})


def cmd_chain_complex(args):
    k = chain_complex(_load(formats.load_poset, args.file))
    return (0, formats.dump_complex(k),
            {"facets": [list(f) for f in k.facets]})


def _pi1_text(pres):
    if pres.free_rank() is not None:
        return f"free rank {pres.free_rank()}"
    return (f"{len(pres.generators)} generators, "
            f"{len(pres.relators)} relators")


def cmd_homotopy(args):
    dec = floating_decomposition(_load(formats.load_complex, args.file))
    total = "unknown" if dec.total_free_rank is None else dec.total_free_rank
    return (0,
            _line([("tree edges", dec.tree_edge_count),
                   ("pi1", _pi1_text(dec.pi1)),
                   ("HG free rank", total)]),
            {"tree_edges": dec.tree_edge_count,
             "pi1_generators": list(dec.pi1.generators),
             "pi1_relator_count": len(dec.pi1.relators),
             "pi1_free_rank": dec.pi1.free_rank(),
             "hg_free_rank": dec.total_free_rank})


def cmd_cross_check(args):
    rep = cross_check(_load(formats.load_poset, args.file))
    hg = "unknown" if rep.hg_free_rank is None else rep.hg_free_rank
    agree = "UNKNOWN" if rep.agree is None else _yn(rep.agree)
    return (0 if rep.agree else 1,
            _line([("HG free rank", hg),
                   ("abelianization rank", rep.abelianization_rank),
                   ("agree", agree)]),
            {"hg_free_rank": rep.hg_free_rank,
             "abelianization_rank": rep.abelianization_rank,
             "agree": rep.agree})


_NO_SPINDLE = (1, "spindle: NO", {"spindle": False})


def cmd_spindle_detect(args):
    poset = _load(formats.load_poset, args.file)
    sp = detect_spindle(poset, args.u, args.v)
    if sp is None:
        return _NO_SPINDLE
    extreme = is_extreme_spindle(poset, sp)
    text = f"spindle: YES  u: {sp.u}  v: {sp.v}  extreme: {_yn(extreme)}"
    return (0, "\n".join([text] + ["chain " + " ".join(c) for c in sp.chains]),
            {"spindle": True, "u": sp.u, "v": sp.v,
             "chains": [list(c) for c in sp.chains], "extreme": extreme})


def cmd_spindle_category(args):
    poset = _load(formats.load_poset, args.file)
    sp = detect_spindle(poset, args.u, args.v)
    if sp is None:
        return _NO_SPINDLE
    cat = spindle_category(poset, sp)
    return (0, formats.dump_category(cat),
            {"objects": list(cat.objects),
             "arrows": {f: [cat.src(f), cat.tgt(f)]
                        for f in cat.non_identities()}})


def cmd_spindle_presentation(args):
    poset = _load(formats.load_poset, args.file)
    sp = detect_spindle(poset, args.u, args.v)
    if sp is None:
        return _NO_SPINDLE
    pres = spindle_presentation(poset, sp)
    return (0, formats.dump_monoid(pres),
            {"generators": list(pres.generators),
             "relations": [[list(l), list(r)] for l, r in pres.relations]})


def cmd_embed_check(args):
    cat = _load(formats.load_category, args.file)
    functor = formats.load_functor(_read(args.functor), cat, args.functor)
    rep = embeddability_verdict(functor)
    pairs = [("functorial", _yn(rep.separation.functorial)),
             ("separating", _yn(rep.separation.separating)),
             ("verdict", rep.verdict)]
    obj = {"functorial": rep.separation.functorial,
           "separating": rep.separation.separating,
           "verdict": rep.verdict,
           "sigma_injective": rep.sigma_injective}
    if rep.separation.violating_pair:
        pairs.append(("violating pair",
                      " ".join(rep.separation.violating_pair)))
        obj["violating_pair"] = list(rep.separation.violating_pair)
    if rep.embeds:
        pairs.append(("sigma-injective", _yn(rep.sigma_injective)))
    return 0 if rep.embeds else 1, _line(pairs), obj


def cmd_monoid_class(args):
    pres = _load(formats.load_monoid, args.file)
    members = sorted(congruence_class(pres, args.word.split()))
    if args.format == "json":
        return 0, None, {"class": [" ".join(w) for w in members]}
    return 0, "\n".join(" ".join(w) if w else "1" for w in members), None


def cmd_monoid_equal(args):
    pres = _load(formats.load_monoid, args.file)
    eq = equal_in_monoid(pres, args.left.split(), args.right.split())
    return 0 if eq else 1, _line([("equal", _yn(eq))]), {"equal": eq}


def cmd_monoid_atoms(args):
    rep = atoms(_load(formats.load_monoid, args.file))
    identified = ("none" if not rep.identified_classes else
                  "; ".join(" ".join(c) for c in rep.identified_classes))
    return (0, _line([("atoms", " ".join(rep.atoms)),
                      ("identified", identified)]),
            {"atoms": list(rep.atoms),
             "identified": [list(c) for c in rep.identified_classes]})


def cmd_monoid_crm(args):
    pres = _load(formats.load_monoid, args.file)
    w = common_right_multiple(pres, [t.split() for t in args.words],
                              args.max_len)
    return _optional("crm", w if w is None else " ".join(w) or "1",
                     f"none up to {args.max_len}", max_len=args.max_len)


def cmd_monoid_m6(args):
    rep = verify_m6_embedding(args.max_len)
    return (0 if rep.relations_hold and rep.injective else 1,
            _line([("relations", _okfail(rep.relations_hold)),
                   ("checked length", rep.checked_length),
                   ("classes", rep.class_count),
                   ("injective", _yn(rep.injective))]),
            {"relations_hold": rep.relations_hold,
             "checked_length": rep.checked_length,
             "classes": rep.class_count,
             "injective": rep.injective})


def cmd_present_universal_group(args):
    pres = universal_group_presentation(_load(formats.load_category,
                                              args.file))
    return (0, formats.dump_presentation(pres),
            {"generators": list(pres.generators),
             "relators": [format_word(r) for r in pres.relators]})


# -- parser ------------------------------------------------------------------

def _option(name, **keywords):
    """An argument spec: a positional name or a flag, with the keywords
    ``add_argument`` takes for it."""
    return name, keywords


def _max_len(default):
    return _option("--max-len", type=int, default=default)


_FORMAT = _option("--format", choices=("text", "json"), default="text")
_SIDE = _option("--side", default="left", help="left or right (default: left)")
_WORDS = _option("words", nargs="+")

# (command path, help, handler, argument specs).  A handler of None makes a
# command group; a spec is a positional name or a (name, keywords) pair made
# by ``_option``, where a name that starts with "-" is a flag.  Every leaf
# also takes --format; only the last positional may take one or more words.
COMMANDS = [
    (("validate",), "parse and validate any input file", cmd_validate,
     ["file"]),
    (("nf",), "normal form of a word over a category", cmd_nf,
     ["file", "word"]),
    (("mult",), "multiply two elements of Um(S)", cmd_mult,
     ["file", "left", "right"]),
    (("gcd",), "gcd of a family of elements", cmd_gcd,
     [_SIDE, "file", _WORDS]),
    (("lcm",), "lcm of two generator arrows", cmd_lcm,
     [_SIDE, "file", "a", "b"]),
    (("greedy",), "greedy normal form", cmd_greedy,
     ["file", "word"]),
    (("check",), "structural property reports", None, []),
    (("check", "category"), None, cmd_check_category, ["file"]),
    (("check", "gcd-monoid"), None, cmd_check_gcd_monoid, ["file"]),
    (("barycentric",), "barycentric subdivision poset of a complex",
     cmd_barycentric, ["file"]),
    (("chain-complex",), "chain complex of a poset", cmd_chain_complex,
     ["file"]),
    (("homotopy",), "floating homotopy decomposition of a complex",
     cmd_homotopy, ["file"]),
    (("cross-check",), "homotopy route vs abelianization route",
     cmd_cross_check, ["file"]),
    (("spindle",), "spindle detection and category", None, []),
    (("spindle", "detect"), None, cmd_spindle_detect, ["file", "u", "v"]),
    (("spindle", "category"), None, cmd_spindle_category,
     ["file", "u", "v"]),
    (("spindle", "presentation"), None, cmd_spindle_presentation,
     ["file", "u", "v"]),
    (("embed-check",), "embeddability of Um(S) into a group by hom-set "
     "separation", cmd_embed_check, ["file", "functor"]),
    (("monoid",), "homogeneous presentation word problem", None, []),
    (("monoid", "class"), None, cmd_monoid_class, ["file", "word"]),
    (("monoid", "equal"), None, cmd_monoid_equal, ["file", "left", "right"]),
    (("monoid", "atoms"), None, cmd_monoid_atoms, ["file"]),
    (("monoid", "crm"), None, cmd_monoid_crm, ["file", _WORDS, _max_len(8)]),
    (("monoid", "m6"), None, cmd_monoid_m6, [_max_len(5)]),
    (("present",), "emit presentations", None, []),
    (("present", "universal-group"), None, cmd_present_universal_group,
     ["file"]),
]


def _spec(spec):
    return (spec, {}) if isinstance(spec, str) else spec


def build_parser():
    import argparse
    top = argparse.ArgumentParser(
        prog="catmon",
        description="Universal monoids of finite categories: normal forms, "
                    "gcds, interval monoids, spindles, floating homotopy "
                    "groups, embeddability checks.")
    # Copying --format in from a parent parser is cheaper than one
    # add_argument per leaf.
    fmt = argparse.ArgumentParser(add_help=False)
    name, kw = _FORMAT
    fmt.add_argument(name, **kw)
    groups = {(): top.add_subparsers(dest="command", required=True)}
    for path, help_, func, specs in COMMANDS:
        # help=None would still list the command in its group's help.
        p = groups[path[:-1]].add_parser(
            path[-1], parents=[fmt] if func else [],
            **({"help": help_} if help_ else {}))
        if func is None:
            groups[path] = p.add_subparsers(dest="what", required=True)
            continue
        for name, kw in map(_spec, specs):
            p.add_argument(name, **kw)
        p.set_defaults(func=func)
    return top


# The argparse parser ``main`` falls back on, built on first use.
_parser = functools.cache(build_parser)


@functools.cache
def _leaves():
    """Each leaf of ``COMMANDS`` by its path: (its positional names, whether
    the last takes one or more words, its flags as flag -> (attribute,
    keywords), the attributes of its namespace before parsing)."""
    leaves = {}
    for path, _, func, specs in COMMANDS:
        if func is None:
            continue
        names, many, flags = [], False, {}
        defaults = dict(zip(("command", "what"), path), func=func)
        for name, kw in map(_spec, [*specs, _FORMAT]):
            if name.startswith("-"):
                dest = name[2:].replace("-", "_")
                flags[name] = dest, kw
                defaults[dest] = kw.get("default")
            else:
                names.append(name)
                many = kw.get("nargs") == "+"
        leaves[path] = names, many, flags, defaults
    return leaves


def _plain_parse(argv):
    """The namespace argparse makes of a plain ``argv`` (see the module
    docstring), or None to leave ``argv`` to argparse.  A positional after
    a flag that follows a positional is declined: argparse does not join
    it to the run of words before the flag."""
    leaves = _leaves()
    path = tuple(argv[:2])
    if path not in leaves:
        path = path[:1]
        if path not in leaves:
            return None
    names, many, flags, defaults = leaves[path]
    args, words, given, closed = dict(defaults), [], set(), False
    tokens = iter(argv[len(path):])
    for token in tokens:
        if not token.startswith("-"):
            if closed:
                return None
            words.append(token)
            continue
        value = next(tokens, "-")  # a flag at the end is declined too
        if token not in flags or token in given or value.startswith("-"):
            return None
        dest, kw = flags[token]
        if "type" in kw:
            try:
                value = kw["type"](value)
            except ValueError:
                return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        given.add(token)
        args[dest] = value
        closed = bool(words)
    if len(words) < len(names) or len(words) > len(names) and not many:
        return None
    if many:
        words[len(names) - 1:] = [words[len(names) - 1:]]
    args.update(zip(names, words))
    return SimpleNamespace(**args)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_parse(argv)
    if args is None:
        args = _parser().parse_args(argv)
    try:
        code, text, obj = args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CatmonError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
