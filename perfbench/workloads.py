"""The benchmark's workloads: seeded request lists, the catmon calls each
request makes, and the check of each request's output.

Every workload is a list of requests built from a seed.  A request is one
catmon call (or one short pipeline) on inputs made during set-up; the timed
loop only calls it.  The list is whole cycles of a fixed slot schedule: the
schedule fixes the kind and size of every slot, and the seed fixes the
content (labels, shapes, words, pairs).  So every seed gives the same mix of
kinds and sizes, and the latency percentiles stay comparable across seeds.

Operations look catmon functions up on their module at call time, so the
traced run sees the wrappers that spans.py installs.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import shlex
from pathlib import Path

import oracles

# Slot orders are shuffled once with this fixed seed so that every prefix of
# a cycle mixes the kinds; the workload seed never changes the schedule.
SCHEDULE_SEED = 20171207
WARM_UP = 5


def _schedule(counts):
    slots = [kind for kind, n in counts for _ in range(n)]
    random.Random(SCHEDULE_SEED).shuffle(slots)
    return slots


class Request:
    __slots__ = ("kind", "op", "args", "expect")

    def __init__(self, kind, op, args, expect=None):
        self.kind, self.op, self.args, self.expect = kind, op, args, expect


class Workload:
    """Base class: subclasses fill ``self.requests`` in ``build``."""

    name = ""
    cycles = 1           # cycles in the request list
    trace_cycles = 1     # cycles replayed by the traced run

    def __init__(self, mods, seed, root, workdir):
        self.m = mods
        self.rng = random.Random(seed)
        self.root = Path(root)
        self.workdir = Path(workdir)
        self.requests = []
        self.cycle_len = 0
        self.build()

    def build(self):
        raise NotImplementedError

    def read(self, rel):
        return (self.root / rel).read_text(encoding="utf-8")

    def warm_up(self):
        """Run the first WARM_UP requests once; outputs are discarded."""
        for req in self.requests[:WARM_UP]:
            try:
                req.op(*req.args)
            except self.m.errors.CatmonError:
                pass

    def failed_run(self, out):
        """True when a returned output reports that the request failed."""
        return False

    def check(self, req, out):
        """None when the output is right, else a one-line reason."""
        raise NotImplementedError


# -- input generators (plain data, no catmon) ---------------------------------

def graded_poset(rng, n, height, deg, prefix="x"):
    """Elements in `height` layers; each element above the bottom layer
    covers `deg` random elements of the layer below (all of them if the layer
    is smaller).  Covers only join adjacent layers, so the cover list is
    always a Hasse diagram."""
    names = [f"{prefix}{k:03d}" for k in rng.sample(range(1000), n)]
    sizes = [n // height + (1 if k < n % height else 0) for k in range(height)]
    layers, i = [], 0
    for s in sizes:
        layers.append(names[i:i + s])
        i += s
    covers = []
    for lo, hi in zip(layers, layers[1:]):
        for y in hi:
            for x in rng.sample(lo, min(len(lo), deg)):
                covers.append((x, y))
    return names, covers


def bounded_below(rng, n, height, deg):
    """A graded poset with a least element under its bottom layer (so its
    chain complex is a cone: connected, with trivial π1)."""
    names, covers = graded_poset(rng, n - 1, height, deg)
    above = {y for _, y in covers}
    covers += [("b000", e) for e in names if e not in above]
    return ["b000"] + names, covers


def chain_poset(rng, n):
    """A chain on seeded labels that sort in chain order.  The library's
    bitmask scans run in label order, so a fixed order keeps the cost of a
    chain of n elements the same for every seed."""
    names = sorted(f"c{k:03d}" for k in rng.sample(range(1000), n))
    return names, list(zip(names, names[1:]))


def spindle_poset(rng, crossed):
    """u < k disjoint chains < v, with pendants hanging off chain elements.
    With crossed=True one extra cover joins two chains, so ]u,v[ is not an
    equivalence under comparability and detection must answer None."""
    k = rng.randint(2, 4)
    chains = [[f"m{j}{t}" for t in range(rng.randint(2 if crossed else 1, 3))]
              for j in range(k)]
    covers = []
    for ch in chains:
        covers += [("u", ch[0])] + list(zip(ch, ch[1:])) + [(ch[-1], "v")]
    inner = [e for ch in chains for e in ch]
    pendants = [f"w{p}" for p in range(rng.randint(0, 2))]
    covers += [(rng.choice(inner), w) for w in pendants]
    if crossed:
        covers.append((chains[0][0], chains[1][1]))
    return ["u", "v"] + inner + pendants, covers, k


def vertex_names(rng, n):
    return [f"q{k}" for k in rng.sample(range(100), n)]


def random_complex(rng, n_vertices, sizes):
    """A connected complex with one facet per size: each facet after the
    first shares a vertex with the one before it.  A facet that lands inside
    another is dropped, since complexes list maximal simplices only."""
    vs = vertex_names(rng, n_vertices)
    facets = []
    for size in sizes:
        f = set(rng.sample(vs, size - 1 if facets else size))
        if facets:
            f.add(rng.choice(sorted(facets[-1] - f)))
        facets.append(f)
    out = []
    for f in facets:
        if f not in out and not any(f < g for g in facets):
            out.append(f)
    return [sorted(f) for f in out]


def random_word(rng, gens, length):
    return tuple(rng.choice(gens) for _ in range(length))


def random_presentation(rng):
    """Four generators and three relations x y = z w, each with four
    distinct letters (no commutations, so classes stay small)."""
    gens = ("p", "q", "r", "s")
    rels = set()
    while len(rels) < 3:
        a, b, c, d = rng.sample(gens, 4)
        rels.add(((a, b), (c, d)))
    return gens, sorted(rels)


def rewrite_walk(rng, relations, word, steps):
    """A random word in the same class: `steps` one-step rewrites."""
    rules = list(relations) + [(r, l) for l, r in relations]
    w = tuple(word)
    for _ in range(steps):
        moves = [(i, lhs, rhs) for lhs, rhs in rules
                 for i in range(len(w) - len(lhs) + 1)
                 if w[i:i + len(lhs)] == lhs]
        if not moves:
            break
        i, lhs, rhs = rng.choice(moves)
        w = w[:i] + rhs + w[i + len(lhs):]
    return w


def random_reduced(rng, table, length):
    seq = []
    while len(seq) < length:
        cands = [f for f in table.non_ids
                 if not (seq and (seq[-1], f) in table.comp)]
        if not cands:
            break
        seq.append(rng.choice(cands))
    return tuple(seq)


# -- um_sweep -----------------------------------------------------------------

class UmSweep(Workload):
    name = "um_sweep"
    cycles = 20
    trace_cycles = 3
    # gcd and divides operands have at most this many entries, so the
    # brute-force divisor table over the same pool decides them exactly.
    POOL_LEN = 2
    REDUCE_LENGTHS = (10, 10, 10, 10, 10, 20, 20, 20, 40, 40, 60, 80, 100,
                      100, 150, 200, 200, 250, 300, 400, 400, 400)
    SLOTS = _schedule([("gcd_left", 12), ("gcd_right", 12), ("mult", 16),
                       ("mult_nc", 4), ("div_left", 5), ("div_right", 5),
                       ("lcm_left", 4), ("lcm_right", 4), ("greedy", 8),
                       ("sigma", 8), ("reduce", len(REDUCE_LENGTHS))])

    def build(self):
        m, rng = self.m, self.rng
        U, G, FC = m.universal, m.groups, m.category.FiniteCategory
        c6 = m.formats.load_category(self.read("data/c6.category"),
                                     "data/c6.category")
        parallel = m.formats.load_category(
            self.read("data/parallel.category"), "data/parallel.category")
        # Three-layer posets with every cover between adjacent layers: the
        # seed picks the labels, so the cost of the mix does not hang on it.
        intervals = [m.interval.cat_of_poset(m.poset.Poset(
            *graded_poset(rng, n, 3, 3))) for n in (5, 6, 7)]
        # Non-conical shapes: the cyclic group Z/5 and the pair groupoid
        # on three objects; only multiply and reduce_sequence use them.
        cyclic = FC(["o"], {f"r{i}": ("o", "o") for i in range(5)},
                    {"o": "r0"},
                    {(f"r{i}", f"r{j}"): f"r{(i + j) % 5}"
                     for i in range(5) for j in range(5)})
        objs = ["g0", "g1", "g2"]
        groupoid = FC(objs, {f"{x}{y}": (x, y) for x in objs for y in objs},
                      {x: f"{x}{x}" for x in objs},
                      {(f"{x}{y}", f"{y}{z}"): f"{x}{z}"
                       for x in objs for y in objs for z in objs})
        self.functor = m.formats.load_functor(
            self.read("data/c6_z3.functor"), c6, "data/c6_z3.functor")
        self.vectors = {}
        for line in self.read("data/c6_z3.functor").splitlines():
            tokens = line.split("#", 1)[0].split()
            if tokens[:1] == ["image"]:
                self.vectors[tokens[1]] = tuple(int(t) for t in tokens[2:])

        self.tables = {}
        for cat in [c6, parallel, *intervals, cyclic, groupoid]:
            self.tables[id(cat)] = oracles.CategoryTable(cat)
            cat.is_conical()   # fills the divisibility analysis
        gcd_cats = [c6, *intervals]
        conical = gcd_cats + [parallel]
        reduce_cats = [c6, parallel, *intervals, cyclic, groupoid]
        pools = {id(c): [U.ReducedSeq(c, s) for s in oracles.reduced_up_to(
            self.tables[id(c)], self.POOL_LEN)] for c in conical}
        for c in conical:
            c.opposite().is_conical()

        def elem(cat, lo, hi):
            t = self.tables[id(cat)]
            return U.ReducedSeq(cat, random_reduced(rng, t,
                                                    rng.randint(lo, hi)))

        def gen_pair(cat, side):
            t = self.tables[id(cat)]
            end = t.src if side == "left" else t.tgt
            a = rng.choice(t.non_ids)
            mates = [f for f in t.non_ids if end[f] == end[a] and f != a]
            b = rng.choice(mates) if mates else a
            return U.ReducedSeq(cat, (a,)), U.ReducedSeq(cat, (b,))

        ops = {
            "gcd": lambda side, x, y: U.gcd_pair(side, x, y),
            "mult": lambda x, y: U.multiply(x, y),
            "div": lambda side, x, y: U.divides(side, x, y),
            "lcm": lambda side, x, y: U.lcm_pair(side, x, y),
            "greedy": lambda x: U.greedy_normal_form(x),
            "sigma": lambda x: G.sigma_image(x, self.functor),
            "reduce": lambda cat, raw: U.reduce_sequence(cat, raw),
        }
        reqs = self.requests
        for cyc in range(self.cycles):
            r_slot = 0
            for kind in self.SLOTS:
                side = "right" if kind.endswith("right") else "left"
                if kind.startswith("gcd"):
                    pool = pools[id(rng.choice(gcd_cats))]
                    x, y = rng.choice(pool), rng.choice(pool)
                    reqs.append(Request(kind, ops["gcd"], (side, x, y)))
                elif kind == "mult":
                    cat = rng.choice(conical)
                    reqs.append(Request(kind, ops["mult"],
                                        (elem(cat, 1, 6), elem(cat, 1, 6))))
                elif kind == "mult_nc":
                    cat = rng.choice([cyclic, groupoid])
                    reqs.append(Request(kind, ops["mult"],
                                        (elem(cat, 1, 4), elem(cat, 1, 4))))
                elif kind.startswith("div"):
                    cat = rng.choice(conical)
                    pool, t = pools[id(cat)], self.tables[id(cat)]
                    x = rng.choice(pool)
                    y = rng.choice(pool)
                    if rng.random() < 0.5:
                        z = rng.choice(pool).arrows
                        prod = oracles.reduce_stack(
                            t, x.arrows + z if side == "left"
                            else z + x.arrows)
                        if len(prod) <= 2:
                            y = U.ReducedSeq(cat, prod)
                    reqs.append(Request(kind, ops["div"], (side, x, y)))
                elif kind.startswith("lcm"):
                    cat = rng.choice(gcd_cats)
                    reqs.append(Request(kind, ops["lcm"],
                                        (side, *gen_pair(cat, side))))
                elif kind == "greedy":
                    reqs.append(Request(kind, ops["greedy"],
                                        (elem(rng.choice(gcd_cats), 2, 6),)))
                elif kind == "sigma":
                    reqs.append(Request(kind, ops["sigma"],
                                        (elem(c6, 1, 4),)))
                else:
                    length = self.REDUCE_LENGTHS[r_slot]
                    cat = reduce_cats[(r_slot + cyc) % len(reduce_cats)]
                    raw = tuple(rng.choice(cat.arrows) for _ in range(length))
                    reqs.append(Request(f"reduce_{length}", ops["reduce"],
                                        (cat, raw), r_slot + cyc))
                    r_slot += 1
        self.cycle_len = len(self.SLOTS)

    def check(self, req, out):
        U = self.m.universal
        kind, args = req.kind, req.args
        if kind.startswith("gcd"):
            side, x, y = args
            t = self.tables[id(x.category)]
            want = t.divisor_table(self.POOL_LEN).gcd(side, x.arrows,
                                                      y.arrows)
            got = None if out is None else out.arrows
            return None if got == want else f"gcd {got} != table {want}"
        if kind in ("mult", "mult_nc"):
            x, y = args
            t = self.tables[id(x.category)]
            raw = x.arrows + y.arrows
            if out.arrows != oracles.reduce_stack(t, raw):
                return "product differs from the stack reduction"
            if out != U.reduce_sequence(x.category, raw)[0]:
                return "multiply(x, y) != reduce_sequence(x + y)"
            return None
        if kind.startswith("div"):
            side, x, y = args
            t = self.tables[id(x.category)]
            truth = t.divisor_table(self.POOL_LEN).divides(side, x.arrows,
                                                           y.arrows)
            if out is None:
                return None if not truth else "missed a divisor"
            if not truth:
                return "claimed a divisor the table lacks"
            if out is True:
                return (None if not t.cancellative(side)
                        else "no quotient in a cancellative category")
            back = (x.arrows + out.arrows if side == "left"
                    else out.arrows + x.arrows)
            return (None if oracles.reduce_stack(t, back) == y.arrows
                    else "quotient does not multiply back")
        if kind.startswith("lcm"):
            side, x, y = args
            t = self.tables[id(x.category)]
            want = oracles.lcm_arrow(t, side, x.arrows[0], y.arrows[0])
            got = None if out is None else out.arrows
            return (None if got == (None if want is None else (want,))
                    else f"lcm {got} != {want}")
        if kind == "greedy":
            return None if out == args[0].arrows else "greedy changed x"
        if kind == "sigma":
            x = args[0]
            want = oracles.sigma_syllables(self.tables[id(x.category)],
                                           self.vectors, x.arrows)
            got = tuple((i, getattr(w, "letters", None) or w.vector)
                        for i, w in out.syllables)
            return None if got == want else "sigma image differs"
        cat, raw = args
        t = self.tables[id(cat)]
        seq, trace = out
        if seq.arrows != oracles.reduce_stack(t, raw):
            return "normal form differs from the stack reduction"
        if trace.replay(cat, raw) != seq:
            return "rewrite trace does not replay"
        shuffled = U.reduce_sequence(cat, raw, rng=random.Random(req.expect))
        if shuffled[0] != seq:
            return "a random reduction order gave another normal form"
        return None


# -- structure_build ----------------------------------------------------------

class StructureBuild(Workload):
    name = "structure_build"
    cycles = 12
    trace_cycles = 1
    # Graded posets are swept densely where the median falls, so the
    # latency distribution has no gap or spike there and the median moves in
    # proportion to the machine's speed.  The 32-chain report is 1 in 40
    # requests and sets the 99th percentile.
    GRADED = (8, 10, 12, 14, 16, 17, 18, 19, 20, 21, 22, 24, 26, 28, 32, 36,
              40, 48, 56, 64, 72, 80)
    CHAINS = (32,)
    BARY_DIMS = (3, 4, 5, None)
    HOMOTOPY_SIZES = (10, 12)
    ROUNDTRIPS = ("poset", "complex", "category", "monoid", "poset",
                  "category")
    SLOTS = _schedule([("graded", len(GRADED)), ("chain", len(CHAINS)),
                       ("spindle", 3), ("non_spindle", 1),
                       ("bary", len(BARY_DIMS)),
                       ("homotopy", len(HOMOTOPY_SIZES)),
                       ("bary_cross_check", 1),
                       ("roundtrip", len(ROUNDTRIPS))])

    def build(self):
        m, rng = self.m, self.rng
        PO, IV, SP, CX, HO, FM = (m.poset, m.interval, m.spindle,
                                  m.complexes, m.homotopy, m.formats)

        def poset_report(elements, covers):
            p = PO.Poset(elements, covers)
            cat = IV.cat_of_poset(p)
            return (len(cat.arrows), cat.gcd_category_report().holds,
                    IV.gcd_criterion(p).holds)

        def spindle(elements, covers):
            p = PO.Poset(elements, covers)
            sp = SP.detect_spindle(p, "u", "v")
            if sp is None:
                return None
            cat = SP.spindle_category(p, sp)
            pres = SP.spindle_presentation(p, sp)
            return (len(sp.chains), len(cat.arrows), len(pres.generators),
                    len(pres.relations))

        def bary(facets):
            b = CX.barycentric(CX.SimplicialComplex(facets))
            return (len(b.elements), len(b.covers),
                    IV.gcd_criterion(b).holds)

        def homotopy(elements, covers):
            p = PO.Poset(elements, covers)
            k = HO.chain_complex(p)
            dec = HO.floating_decomposition(k)
            rep = HO.cross_check(p)
            return (len(k.facets), dec.total_free_rank, rep.hg_free_rank,
                    rep.agree)

        def bary_cross_check(facets):
            b = CX.barycentric(CX.SimplicialComplex(facets))
            return HO.cross_check(b).agree

        roundtrip_ops = {
            "poset": lambda p: FM.load_poset(FM.dump_poset(p)),
            "complex": lambda k: FM.load_complex(FM.dump_complex(k)),
            "category": lambda c: FM.load_category(FM.dump_category(c)),
            "monoid": lambda q: FM.load_monoid(FM.dump_monoid(q)),
        }
        reqs = self.requests
        for _ in range(self.cycles):
            g_slot = c_slot = b_slot = h_slot = t_slot = 0
            for kind in self.SLOTS:
                if kind == "graded":
                    n = self.GRADED[g_slot]
                    g_slot += 1
                    data = graded_poset(rng, n, 5, 2)
                    reqs.append(Request(f"graded_{n}", poset_report, data))
                elif kind == "chain":
                    n = self.CHAINS[c_slot]
                    c_slot += 1
                    reqs.append(Request(f"chain_{n}", poset_report,
                                        chain_poset(rng, n)))
                elif kind in ("spindle", "non_spindle"):
                    elements, covers, k = spindle_poset(
                        rng, kind == "non_spindle")
                    reqs.append(Request(kind, spindle, (elements, covers),
                                        None if kind == "non_spindle" else k))
                elif kind == "bary":
                    d = self.BARY_DIMS[b_slot]
                    b_slot += 1
                    facets = ([vertex_names(rng, d + 1)] if d is not None
                              else random_complex(rng, 7, (4, 3, 3, 2)))
                    reqs.append(Request(f"bary_{d or 'mixed'}", bary,
                                        (facets,)))
                elif kind == "homotopy":
                    n = self.HOMOTOPY_SIZES[h_slot]
                    h_slot += 1
                    reqs.append(Request(kind, homotopy,
                                        bounded_below(rng, n, 3, 2)))
                elif kind == "bary_cross_check":
                    reqs.append(Request(kind, bary_cross_check,
                                        (random_complex(rng, 4, (3, 2)),)))
                else:
                    what = self.ROUNDTRIPS[t_slot]
                    t_slot += 1
                    if what == "poset":
                        obj = PO.Poset(*graded_poset(rng, 16, 4, 2))
                    elif what == "complex":
                        obj = CX.SimplicialComplex(
                            random_complex(rng, 8, (4, 4, 3, 3, 2)))
                    elif what == "category":
                        obj = IV.cat_of_poset(
                            PO.Poset(*graded_poset(rng, 10, 4, 2)))
                    else:
                        obj = m.presented.MonoidPresentation(
                            *random_presentation(rng))
                    reqs.append(Request(f"roundtrip_{what}",
                                        roundtrip_ops[what], (obj,)))
        self.cycle_len = len(self.SLOTS)

    def check(self, req, out):
        kind, args = req.kind, req.args
        if kind.startswith(("graded", "chain")):
            elements, covers = args
            pairs, _ = oracles.interval_counts(elements, covers)
            holds = oracles.gcd_criterion_holds(elements, covers)
            want = (pairs, holds, holds)
            return None if out == want else f"{out} != {want}"
        if kind in ("spindle", "non_spindle"):
            if req.expect is None:
                return (None if out is None
                        else "found a spindle in a crossed poset")
            elements, covers = args
            k = req.expect
            pairs, triples = oracles.interval_counts(elements, covers)
            up = oracles.up_sets(elements, covers)
            inner = {e for e in up["u"] if "v" in up[e]} - {"u", "v"}
            want = (k, pairs - 1 + k, pairs - len(elements) - 1,
                    triples - len(inner))
            return None if out == want else f"{out} != {want}"
        if kind.startswith("bary_cross"):
            return None if out is not False else "cross-check answered NO"
        if kind.startswith("bary"):
            faces = oracles.simplex_faces(args[0])
            want = (len(faces), sum(len(f) for f in faces if len(f) > 1), True)
            return None if out == want else f"{out} != {want}"
        if kind == "homotopy":
            elements, covers = args
            n_facets, total, hg, agree = out
            if agree is False:
                return "cross-check answered NO"
            if n_facets != _count_maximal_chains(elements, covers):
                return "wrong number of maximal chains"
            if total != hg or (total is not None
                               and total != len(elements) - 1):
                return (f"free rank {total} on a cone with "
                        f"{len(elements)} vertices")
            return None
        what = kind.split("_", 1)[1]
        obj = args[0]
        if what == "poset":
            ok = (out.elements, out.covers) == (obj.elements, obj.covers)
        elif what == "complex":
            ok = out.facets == obj.facets
        elif what == "monoid":
            ok = (out.generators, out.relations) == (obj.generators,
                                                    obj.relations)
        else:
            rename = {obj.identity[o]: out.identity[o] for o in obj.objects}
            ok = (out.objects == obj.objects
                  and {rename.get(f, f) for f in obj.arrows} == set(out.arrows)
                  and {(rename.get(f, f), rename.get(g, g)): rename.get(h, h)
                       for (f, g), h in obj.comp.items()} == out.comp)
        return None if ok else f"{what} changed in a dump/load round trip"


def _count_maximal_chains(elements, covers):
    succ = {e: [] for e in elements}
    has_pred = set()
    for x, y in covers:
        succ[x].append(y)
        has_pred.add(y)
    memo = {}

    def paths(e):
        if e not in memo:
            memo[e] = sum(paths(y) for y in succ[e]) if succ[e] else 1
        return memo[e]

    return sum(paths(e) for e in elements if e not in has_pred)


# -- word_problem ------------------------------------------------------------

class WordProblem(Workload):
    name = "word_problem"
    cycles = 10
    trace_cycles = 1
    PRIME = {"a": "a'", "b": "b'", "c": "c'"}
    # Per cycle, most class and equality requests cost less than atoms(c6)
    # and the pair searches cost more, so the median latency lands on the
    # 24 atoms requests on c6 and m6, whose cost the seed cannot change.
    # The four long searches (2 of them at length 6) set the 99th percentile.
    ATOMS = ("c6",) * 20 + ("m6",) * 4 + ("b3", "random")
    # c6 pairs whose search costs more than atoms(c6)
    CRM_PAIRS = (("a", "b"), ("a", "c"), ("b", "c"), ("c", "b"))
    SLOTS = _schedule([("class", 26), ("equal", 18), ("atoms", len(ATOMS)),
                       ("crm_pair", 26), ("crm_triple_6", 2),
                       ("crm_triple_5", 1), ("m6", 1)])

    def build(self):
        m, rng = self.m, self.rng
        PR, FM = m.presented, m.formats
        files = {name: FM.load_monoid(self.read(f"data/{name}.monoid"),
                                      f"data/{name}.monoid")
                 for name in ("c6", "m6", "b3")}
        c6, b3 = files["c6"], files["b3"]
        n_pres = len(files) + 3
        ops = {
            "class": lambda p, w: PR.congruence_class(p, w),
            "equal": lambda p, u, v: PR.equal_in_monoid(p, u, v),
            "atoms": lambda p: PR.atoms(p),
            "crm": lambda p, xs, n: PR.common_right_multiple(p, xs, n),
            "m6": lambda n: PR.verify_m6_embedding(n),
        }

        def word(p, i):
            """A random word whose length the slot index fixes."""
            lo, hi = (4, 8) if p is b3 else (3, 6)
            n = lo + (i // n_pres) % (hi - lo + 1)
            return random_word(rng, p.generators, n)

        reqs = self.requests
        for _ in range(self.cycles):
            # Fresh random presentations every cycle, so that no one seed's
            # presentations set the class sizes of the whole run.
            pres = list(files.values()) + [
                PR.MonoidPresentation(*random_presentation(rng))
                for _ in range(n_pres - len(files))]
            a_slot = 0
            for i, kind in enumerate(self.SLOTS):
                p = pres[i % n_pres]
                if kind == "class":
                    reqs.append(Request(kind, ops["class"], (p, word(p, i))))
                elif kind == "equal":
                    u = word(p, i)
                    v = (rewrite_walk(rng, p.relations, u, 5)
                         if rng.random() < 0.5
                         else random_word(rng, p.generators, len(u)))
                    reqs.append(Request(kind, ops["equal"], (p, u, v)))
                elif kind == "atoms":
                    name = self.ATOMS[a_slot]
                    a_slot += 1
                    reqs.append(Request(kind, ops["atoms"], (
                        pres[-1] if name == "random" else files[name],)))
                elif kind == "crm_pair":
                    u, v = rng.choice(self.CRM_PAIRS)
                    reqs.append(Request(
                        kind, ops["crm"], (c6, [(u,), (v,)], 2 + i % 3),
                        (u, self.PRIME[v])))
                elif kind.startswith("crm_triple"):
                    xs = [(g,) for g in rng.sample("abc", 3)]
                    reqs.append(Request(kind, ops["crm"],
                                        (c6, xs, int(kind[-1])), None))
                else:
                    reqs.append(Request(kind, ops["m6"], (5,)))
        self.cycle_len = len(self.SLOTS)

    def check(self, req, out):
        kind, args = req.kind, req.args
        if kind == "class":
            p, w = args
            want = oracles.congruence_closure(p.relations, w)
            return None if set(out) == want else "class differs from closure"
        if kind == "equal":
            p, u, v = args
            want = tuple(v) in oracles.congruence_closure(p.relations, u)
            return None if out == want else f"equal {out} != {want}"
        if kind == "atoms":
            p = args[0]
            want = oracles.identified_generators(p.generators, p.relations)
            ok = out.atoms == p.generators and out.identified_classes == want
            return None if ok else "atoms report differs"
        if kind.startswith("crm"):
            return (None if out == req.expect
                    else f"crm {out} != {req.expect}")
        ok = (out.relations_hold and out.injective and out.class_count == 7436
              and out.checked_length == 5)
        return None if ok else "m6 report differs from 7436 injective classes"


# -- cli_requests -------------------------------------------------------------

def readme_examples(text):
    """(argv, expected stdout) for every `$ catmon ...` line of the README's
    CLI quick start, with the lines up to the next prompt as output."""
    out = []
    current = None
    for line in text.splitlines():
        if line.startswith("```"):
            current = None
        elif line.startswith("$ catmon "):
            current = []
            out.append((shlex.split(line[len("$ catmon "):]), current))
        elif current is not None:
            current.append(line)
    return [(argv, "".join(l + "\n" for l in lines)) for argv, lines in out]


class CliRequests(Workload):
    name = "cli_requests"
    cycles = 1
    trace_cycles = 1
    DATA = [
        (["validate", "data/diamond.poset"], {0}),
        (["validate", "data/square.complex"], {0}),
        (["validate", "data/c6.category"], {0}),
        (["validate", "data/m6.monoid"], {0}),
        (["nf", "data/c6.category", "a a' a"], {0}),
        (["mult", "data/c6.category", "a", "a'"], {0}),
        (["gcd", "data/c6.category", "aa'", "abar"], {0}),
        (["greedy", "data/c6.category", "a a' a"], {0}),
        (["check", "category", "data/parallel.category"], {0}),
        (["check", "gcd-monoid", "data/nonlattice.poset"], {1}),
        (["barycentric", "data/triangle.complex"], {0}),
        (["chain-complex", "data/diamond.poset"], {0}),
        (["cross-check", "data/diamond.poset"], {0}),
        (["spindle", "category", "data/diamond.poset", "0", "1"], {0}),
        (["spindle", "presentation", "data/diamond.poset", "0", "1"], {0}),
        (["embed-check", "data/c6.category", "data/c6_trivial.functor"], {1}),
        (["monoid", "class", "data/b3.monoid", "a b a b"], {0}),
        (["monoid", "equal", "data/c6.monoid", "a b'", "b a'"], {0}),
        (["monoid", "atoms", "data/c6.monoid"], {0}),
        (["monoid", "crm", "data/c6.monoid", "a", "b", "c", "--max-len",
          "4"], {1}),
        (["monoid", "m6", "--max-len", "5"], {0}),
        (["present", "universal-group", "data/c6.category"], {0}),
    ]

    def build(self):
        rng = self.rng
        self.workdir.mkdir(parents=True, exist_ok=True)
        w = self.workdir.relative_to(self.root).as_posix()

        def write(name, text):
            (self.workdir / name).write_text(text, encoding="utf-8")
            return f"{w}/{name}"

        els, covers = graded_poset(rng, 10, 3, 2)
        gen_poset = write("gen.poset", _poset_text(els, covers))
        gcd_code = 0 if oracles.gcd_criterion_holds(els, covers) else 1
        bb_poset = write("gen_bb.poset",
                         _poset_text(*bounded_below(rng, 9, 3, 2)))
        facets = random_complex(rng, 6, (3, 3, 2, 2))
        gen_complex = write("gen.complex", "complex\n" + "".join(
            "simplex " + " ".join(f) + "\n" for f in facets))
        cels, ccovers = graded_poset(rng, 6, 3, 2)
        gen_category = write("gen.category", _interval_category_text(
            cels, ccovers))
        gens, rels = random_presentation(rng)
        gen_monoid = write("gen.monoid", "monoid\ngen " + " ".join(gens)
                           + "\n" + "".join(
                               f"rel {' '.join(l)} = {' '.join(r)}\n"
                               for l, r in rels))
        gen_pres = write("gen.presentation", "presentation\ngen x y z\n"
                         + "".join(f"rel {rng.choice('xyz')} "
                                   f"{rng.choice('xyz')}^-1\n"
                                   for _ in range(2)))
        sels, scovers, _ = spindle_poset(rng, False)
        gen_spindle = write("gen_spindle.poset", _poset_text(sels, scovers))
        u = random_word(rng, gens, 4)
        v = rewrite_walk(rng, rels, u, 3) if rng.random() < 0.5 else \
            random_word(rng, gens, 4)
        equal_code = 0 if v in oracles.congruence_closure(rels, u) else 1
        strict = sorted(f"[{x},{y}]" for x, y in _strict_pairs(cels, ccovers))
        nf_word = " ".join(rng.choice(strict) for _ in range(6))

        # The README pipe `catmon barycentric K > f.poset`, run in set-up.
        code, text, _ = self.run_cli(["barycentric", gen_complex])
        bary_poset = write("bary.poset", text if code == 0 else "")

        generated = [
            (["validate", gen_poset], {0}),
            (["validate", gen_complex], {0}),
            (["validate", gen_category], {0}),
            (["validate", gen_monoid], {0}),
            (["validate", gen_pres], {0}),
            (["check", "gcd-monoid", gen_poset], {gcd_code}),
            (["chain-complex", bb_poset], {0}),
            (["homotopy", gen_complex], {0}),
            (["cross-check", bb_poset], {0, 1}),
            (["barycentric", gen_complex], {0}),
            (["check", "category", gen_category], {0}),
            (["nf", gen_category, nf_word], {0}),
            (["spindle", "detect", gen_spindle, "u", "v"], {0}),
            (["spindle", "category", gen_spindle, "u", "v"], {0}),
            (["spindle", "presentation", gen_spindle, "u", "v"], {0}),
            (["monoid", "class", gen_monoid, " ".join(u)], {0}),
            (["monoid", "equal", gen_monoid, " ".join(u), " ".join(v)],
             {equal_code}),
            (["monoid", "atoms", gen_monoid], {0}),
            # Known defect: barycentric names faces "x,y", which the chain
            # complex rejects as vertex ids, so this exits 2 today.
            (["cross-check", bary_poset], {0}),
        ]
        reqs = self.requests
        for argv, text in readme_examples(self.read("README.md")):
            reqs.append(Request("readme", self.run_cli, (argv,), ({0}, text)))
        for argv, codes in self.DATA + generated:
            for fmt in ("text", "json"):
                reqs.append(Request(f"cli_{fmt}", self.run_cli,
                                    (argv + ["--format", fmt],),
                                    (codes, None)))
        self.cycle_len = len(reqs)

    def run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.m.cli.main(argv)
            except SystemExit as e:
                code = e.code
        return code, out.getvalue(), err.getvalue()

    def failed_run(self, out):
        """Exit 2 is the CLI reporting an error: the request failed."""
        return out[0] == 2

    def check(self, req, out):
        code, stdout, stderr = out
        codes, text = req.expect
        if code not in codes:
            return f"exit {code} not in {sorted(codes)}: {stderr.strip()}"
        if text is not None and stdout != text:
            return "stdout differs from the README"
        if req.kind == "cli_json":
            try:
                obj = json.loads(stdout)
            except ValueError:
                return "json output does not parse"
            if isinstance(obj, dict) and obj.get("agree") is False:
                return "cross-check answered NO"
        elif not stdout:
            return "no output"
        elif "agree: NO" in stdout:
            return "cross-check answered NO"
        return None


def _poset_text(elements, covers):
    return ("poset\nelem " + " ".join(elements) + "\n"
            + "".join(f"cover {x} {y}\n" for x, y in covers))


def _strict_pairs(elements, covers):
    up = oracles.up_sets(elements, covers)
    return [(x, y) for x in elements for y in sorted(up[x]) if y != x]


def _strict_triples(elements, covers):
    up = oracles.up_sets(elements, covers)
    return [(x, y, z) for x in elements for y in sorted(up[x]) if y != x
            for z in sorted(up[y]) if z != y]


def _interval_category_text(elements, covers):
    """Category file of the interval category, written without catmon."""
    lines = ["category", "obj " + " ".join(elements)]
    lines += [f"arrow [{x},{y}] {x} {y}" for x, y in
              _strict_pairs(elements, covers)]
    lines += [f"comp [{x},{y}] [{y},{z}] [{x},{z}]" for x, y, z in
              _strict_triples(elements, covers)]
    return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (UmSweep, StructureBuild, WordProblem,
                                 CliRequests)}
