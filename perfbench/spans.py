"""Span recorder for the traced run, installed from outside the library.

``Tracer`` replaces catmon's module-level functions (also where another
catmon module, ``catmon.cli`` included, imported them by name) and the
public methods of FiniteCategory, ReducedSeq, Poset, SimplicialComplex and
GroupPresentation with wrappers; ``Tracer.uninstall`` puts the originals
back.

Each call becomes a span: name, start, end, parent and request id.  Calls of
a few microseconds are far too many to keep one by one, so every span is
folded into a per-(request, name) aggregate of calls, total time and self
time (its duration minus the time its child spans cover).  Only spans that
last at least KEEP_NS, whose ancestors then last as long, are also kept in
full.  Counts of work are taken at the same boundaries from arguments and
return values.

A layer is a catmon module; FiniteCategory splits into ``category.build``
(its constructor) and ``category.query`` (its other methods).  ReducedSeq
constructions add to ``universal.self_s`` and count as
``universal.seq_builds``, not as ``universal.calls``.
"""
from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("universal", "category", "poset", "interval", "spindle",
          "complexes", "homotopy", "presentations", "presented", "groups",
          "formats", "cli")
CLASSES = {"category": ("FiniteCategory",), "universal": ("ReducedSeq",),
           "poset": ("Poset",), "complexes": ("SimplicialComplex",),
           "presentations": ("GroupPresentation",)}
KEEP_NS = 100_000


class Recorder:
    def __init__(self):
        self.stack = []          # frames: [span id, child ns]
        self.next_id = 0
        self.request = -1
        # (request, name) -> [calls, total ns, self ns]
        self.agg = defaultdict(lambda: [0, 0, 0])
        self.spans = []          # (id, name, start, end, parent id, request)
        self.errors = defaultdict(int)
        self.counts = defaultdict(int)
        self.class_keys = set()
        self._seen_errors = set()

    def begin_request(self, i):
        self.request = i
        self._seen_errors.clear()

    def error(self, layer, exc):
        if id(exc) not in self._seen_errors:
            self._seen_errors.add(id(exc))
            self.errors[layer] += 1


def layer_of(name):
    """"category.FiniteCategory.__init__" -> "category.build"."""
    parts = name.split(".")
    if parts[0] == "category":
        return ("category.build" if parts[-1] == "__init__"
                else "category.query")
    return parts[0]


# -- counters taken at span boundaries ----------------------------------------

def _count_reduce(rec, args, out):
    rec.counts["universal.reduce_steps"] += len(out[1].steps)


def _count_seq(rec, args, out):
    rec.counts["universal.seq_builds"] += 1


def _count_triples(rec, args, out):
    """Composable triples (f, g, h) the validator walks, from hom sizes."""
    cat = args[0]
    ident = {e: o for o, e in cat.identity.items()}
    tgt, out_deg = {}, defaultdict(int)
    for f, g in cat.comp:
        if g in ident:
            tgt[f] = ident[g]
        if f in ident:
            out_deg[ident[f]] += 1
    rec.counts["category.triples"] += sum(out_deg[tgt[g]] for _, g in cat.comp)


def _count_faces(rec, args, out):
    rec.counts["complexes.faces_out"] += len(out)


def _count_tietze(rec, args, out):
    pres, tree = args[0], args[1]
    kept = len(pres.generators) - len(tree.edges)
    rec.counts["homotopy.tietze_eliminated"] += kept - len(out.generators)


def _count_cells(rec, args, out):
    pres = args[0]
    rec.counts["presentations.matrix_cells"] += (len(pres.relators)
                                                 * len(pres.generators))


def _count_class(rec, args, out):
    rec.counts["presented.class_calls"] += 1
    rec.counts["presented.class_words"] += len(out)
    rec.class_keys.add((args[0].generators, args[0].relations, hash(out)))


def _count_crm(rec, args, out):
    rec.counts["presented.crm_bound_hits"] += out is None


def _count_cli(rec, args, out):
    if out == 2:
        rec.errors["cli"] += 1


COUNTERS = {
    "universal.reduce_sequence": _count_reduce,
    "universal.ReducedSeq.__init__": _count_seq,
    "category.FiniteCategory.__init__": _count_triples,
    "complexes.SimplicialComplex.faces": _count_faces,
    "homotopy.tietze_collapse": _count_tietze,
    "presentations.GroupPresentation.relator_matrix_rank": _count_cells,
    "presented.congruence_class": _count_class,
    "presented.common_right_multiple": _count_crm,
    "cli.main": _count_cli,
}


def _wrap(rec, fn, name):
    layer = layer_of(name).split(".")[0]
    count = COUNTERS.get(name)
    agg, spans, stack = rec.agg, rec.spans, rec.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.next_id
        rec.next_id = sid + 1
        parent = stack[-1] if stack else None
        frame = [sid, 0]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            rec.error(layer, exc)
            raise
        finally:
            end = perf_counter_ns()
            stack.pop()
            dur = end - start
            a = agg[(rec.request, name)]
            a[0] += 1
            a[1] += dur
            a[2] += dur - frame[1]
            if dur >= KEEP_NS:
                spans.append((sid, name, start, end,
                              None if parent is None else parent[0],
                              rec.request))
            # The parent counts this span and its bookkeeping as child time,
            # so tracing cost lands in no layer's self time.
            if parent is not None:
                parent[1] += perf_counter_ns() - start
        if count is not None:
            t = perf_counter_ns()
            count(rec, args, out)
            if parent is not None:
                parent[1] += perf_counter_ns() - t
        return out

    return wrapper


class Tracer:
    """Installs wrappers on the given catmon modules; undone by uninstall."""

    def __init__(self, mods, rec):
        self.rec = rec
        self.saved = []          # (owner, attribute, original)
        wrappers = {}            # id(original function) -> wrapper
        for layer in LAYERS:
            module = getattr(mods, layer)
            for attr, value in list(vars(module).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = _wrap(rec, value,
                                                f"{layer}.{attr}")
            for cls_name in CLASSES.get(layer, ()):
                self._wrap_class(getattr(module, cls_name), layer)
        owners = [getattr(mods, layer) for layer in LAYERS] + [mods.package]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._set(owner, attr, wrappers[id(value)])

    def _set(self, owner, attr, value):
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, layer):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(value):
                self._set(cls, attr, _wrap(self.rec, value, name))
            elif isinstance(value, classmethod):
                self._set(cls, attr,
                          classmethod(_wrap(self.rec, value.__func__, name)))
            elif isinstance(value, property) and value.fget is not None:
                self._set(cls, attr, property(_wrap(self.rec, value.fget,
                                                    name)))

    def uninstall(self):
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


def layer_metrics(rec, traced_s, untraced_s):
    """Every per-layer metric, from the aggregates and counters."""
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    for (_, name), (n, _, own) in rec.agg.items():
        key = layer_of(name)
        if name == "universal.ReducedSeq.__init__":
            self_ns["universal"] += own
            continue
        self_ns[key] += own
        calls[key] += n
        if name == "presentations.GroupPresentation.relator_matrix_rank":
            self_ns["presentations.rank"] += own
    def s(key):
        return self_ns[key] / 1e9

    c = rec.counts
    class_calls = c["presented.class_calls"]
    out = {
        "universal.self_s": (s("universal"), "s"),
        "universal.calls": (calls["universal"], "count"),
        "universal.reduce_steps": (c["universal.reduce_steps"], "count"),
        "universal.seq_builds": (c["universal.seq_builds"], "count"),
        "category.query_s": (s("category.query"), "s"),
        "category.query_calls": (calls["category.query"], "count"),
        "category.build_s": (s("category.build"), "s"),
        "category.build_calls": (calls["category.build"], "count"),
        "category.triples": (c["category.triples"], "count"),
        "poset.self_s": (s("poset"), "s"),
        "interval.self_s": (s("interval"), "s"),
        "spindle.self_s": (s("spindle"), "s"),
        "complexes.self_s": (s("complexes"), "s"),
        "complexes.faces_out": (c["complexes.faces_out"], "count"),
        "homotopy.self_s": (s("homotopy"), "s"),
        "homotopy.tietze_eliminated": (c["homotopy.tietze_eliminated"],
                                       "count"),
        "presentations.rank_s": (s("presentations.rank"), "s"),
        "presentations.matrix_cells": (c["presentations.matrix_cells"],
                                       "count"),
        "presented.self_s": (s("presented"), "s"),
        "presented.class_calls": (class_calls, "count"),
        "presented.class_words": (c["presented.class_words"], "count"),
        "presented.class_distinct_ratio": (
            len(rec.class_keys) / class_calls if class_calls else 0.0,
            "ratio"),
        "presented.crm_bound_hits": (c["presented.crm_bound_hits"], "count"),
        "groups.self_s": (s("groups"), "s"),
        "groups.calls": (calls["groups"], "count"),
        "cli.self_s": (s("cli"), "s"),
        "formats.self_s": (s("formats"), "s"),
        "formats.calls": (calls["formats"], "count"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = (rec.errors[layer], "count")
    return out
