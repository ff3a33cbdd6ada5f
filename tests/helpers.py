"""Shared enumerators, random structure generators, and brute-force oracles.

The enumerators are exhaustive by construction (bitmask sweeps over relation
space); the oracles only use raw composition/multiplication scans, never the
library's divisibility or gcd routines, so they can serve as independent
cross-checks.
"""

import itertools
import random
from fractions import Fraction

import pytest

from catmon import (
    FiniteCategory,
    FreeAbelianWord,
    FreeGroupWord,
    FreeProductWord,
    GcdCriterionReport,
    GroupMismatch,
    GroupPresentation,
    Poset,
    SeparationReport,
    SimplicialComplex,
    cat_of_poset,
    chain_arrow_name,
    edge_name,
    elements_up_to,
    free_reduce,
    group_multiply,
    interval_name,
    invert_word,
    multiply,
    substitute,
)
from catmon.limits import require
from catmon.poset import _greatest
from catmon.presented import (
    M6_SUBSTITUTION,
    _guard_layer,
    _m6_image,
    m6_presentation,
)

LETTERS = "abcdefghij"


# -- poset enumeration --------------------------------------------------------

def _pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def triangular_relations(n):
    """All transitively closed strict orders contained in the natural order
    of range(n), as frozensets of (i, j) pairs with i < j."""
    pairs = _pairs(n)
    out = []
    for mask in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
        ok = True
        for (i, j) in rel:
            for k in range(j + 1, n):
                if (j, k) in rel and (i, k) not in rel:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(rel))
    return out


def _poset_from_relation(n, rel):
    elems = tuple(LETTERS[:n])
    return Poset.from_order(elems, [(elems[i], elems[j]) for i, j in rel])


_natural_cache = {}


def natural_posets(n):
    """Posets on the first n letters whose order respects the letter order.
    Every isomorphism class on n elements appears at least once."""
    if n not in _natural_cache:
        _natural_cache[n] = [_poset_from_relation(n, rel)
                             for rel in triangular_relations(n)]
    return _natural_cache[n]


_labeled_cache = {}


def labeled_posets(n):
    """Every partial order on the first n letters (all labelings)."""
    if n not in _labeled_cache:
        seen = set()
        out = []
        for rel in triangular_relations(n):
            for perm in itertools.permutations(range(n)):
                img = frozenset((perm[i], perm[j]) for i, j in rel)
                if img not in seen:
                    seen.add(img)
                    out.append(_poset_from_relation(n, img))
        _labeled_cache[n] = out
    return _labeled_cache[n]


_class_cache = {}


def poset_classes(n):
    """One representative per isomorphism class of posets on n elements."""
    if n not in _class_cache:
        seen = set()
        reps = []
        for rel in triangular_relations(n):
            canon = min(tuple(sorted((perm[i], perm[j]) for i, j in rel))
                        for perm in itertools.permutations(range(n)))
            if canon not in seen:
                seen.add(canon)
                reps.append(rel)
        _class_cache[n] = [_poset_from_relation(n, rel) for rel in reps]
    return _class_cache[n]


def posets_up_to(n, enumerator=natural_posets):
    for k in range(1, n + 1):
        yield from enumerator(k)


# -- simplicial complex enumeration -------------------------------------------

def _antichains(masks):
    """All nonempty families of pairwise-incomparable bitmasks, each taken
    from the given list in index order (so each family appears once)."""
    out = []
    chosen = []

    def rec(start):
        for i in range(start, len(masks)):
            s = masks[i]
            if all((c & s) != c and (c & s) != s for c in chosen):
                chosen.append(s)
                out.append(tuple(chosen))
                rec(i + 1)
                chosen.pop()

    rec(0)
    return out


def labeled_complexes(n):
    """All simplicial complexes whose vertex set is contained in {1..n},
    as facet families over vertex names "1".."n"."""
    masks = [m for m in range(1, 1 << n)]
    fams = _antichains(masks)
    out = []
    for fam in fams:
        facets = [[str(v + 1) for v in range(n) if mask >> v & 1]
                  for mask in fam]
        out.append(SimplicialComplex(facets))
    return out


_complex_class_cache = {}


def complex_classes(n):
    """One representative per isomorphism class of complexes on <= n
    vertices."""
    if n not in _complex_class_cache:
        masks = [m for m in range(1, 1 << n)]
        perms = list(itertools.permutations(range(n)))
        tables = []
        for perm in perms:
            tables.append([sum(1 << perm[v] for v in range(n) if m >> v & 1)
                           for m in range(1 << n)])
        seen = set()
        reps = []
        for fam in _antichains(masks):
            canon = min(tuple(sorted(t[m] for m in fam)) for t in tables)
            if canon not in seen:
                seen.add(canon)
                reps.append(fam)
        out = []
        for fam in reps:
            facets = [[str(v + 1) for v in range(n) if mask >> v & 1]
                      for mask in fam]
            out.append(SimplicialComplex(facets))
        _complex_class_cache[n] = out
    return _complex_class_cache[n]


def random_complex(rng, max_vertices=11, max_facets=5):
    """A random complex on vertex names that sort unlike their numbers
    ("v10" < "v2"); single vertices and disconnected complexes occur."""
    names = [f"v{i}" for i in range(rng.randint(1, max_vertices))]
    sets = {frozenset(rng.sample(names, rng.randint(1, min(3, len(names)))))
            for _ in range(rng.randint(1, max_facets))}
    return SimplicialComplex([sorted(s) for s in sets
                              if not any(s < t for t in sets)])


def brute_connected(complex_):
    """Merge facets that share a vertex until none do; connected when one
    vertex set is left."""
    parts = [set(f) for f in complex_.facets]
    merged = True
    while merged:
        merged = False
        for a, b in itertools.combinations(range(len(parts)), 2):
            if parts[a] & parts[b]:
                parts[a] |= parts.pop(b)
                merged = True
                break
    return len(parts) == 1


def brute_bfs_tree(complex_):
    """The breadth-first tree from the least vertex, built layer by layer:
    a vertex hangs from its earliest-visited neighbour in the previous
    layer, and a layer is visited by parent, then by name.  The sorted tree
    edges, or None if some vertex is never reached."""
    near = {v: set() for v in complex_.vertices}
    for f in complex_.facets:
        for x, y in itertools.combinations(f, 2):
            near[x].add(y)
            near[y].add(x)
    layer = [complex_.vertices[0]]
    reached = set(layer)
    edges = []
    while layer:
        pos = {x: i for i, x in enumerate(layer)}
        nxt = {}
        for y in complex_.vertices:
            if y not in reached and near[y] & set(layer):
                nxt[y] = min(near[y] & set(layer), key=pos.get)
        edges += [tuple(sorted((x, y))) for y, x in nxt.items()]
        reached |= set(nxt)
        layer = sorted(nxt, key=lambda y: (pos[nxt[y]], y))
    if len(reached) != len(complex_.vertices):
        return None
    return tuple(sorted(edges))


# -- random category mixture ---------------------------------------------------

def make_category(objects, arrows, comp):
    """Assemble a FiniteCategory from its non-identity data: identities and
    the unit-law composites are filled in."""
    objects = tuple(objects)
    identity = {o: f"id:{o}" for o in objects}
    all_arrows = dict(arrows)
    for o, i in identity.items():
        all_arrows[i] = (o, o)
    full = dict(comp)
    for f, (s, t) in all_arrows.items():
        full[(identity[s], f)] = f
        full[(f, identity[t])] = f
    return FiniteCategory(objects, all_arrows, identity, full)


def random_poset(rng, max_n=5, min_n=1):
    n = rng.randint(min_n, max_n)
    rel = set()
    for pair in _pairs(n):
        if rng.random() < 0.4:
            rel.add(pair)
    # transitive closure stays inside the natural order
    changed = True
    while changed:
        changed = False
        for (i, j) in list(rel):
            for (j2, k) in list(rel):
                if j2 == j and (i, k) not in rel:
                    rel.add((i, k))
                    changed = True
    return _poset_from_relation(n, rel)


def layered_poset(rng, widths, density=0.5):
    """Elements in layers of the given widths, each element above the
    bottom layer covering each element of the layer below with probability
    ``density``, and at least one.  Covers join adjacent layers only, so
    they form a Hasse diagram.  The names are drawn at random, so index
    order is no linear extension."""
    names = [f"p{k}" for k in rng.sample(range(100), sum(widths))]
    layers, i = [], 0
    for w in widths:
        layers.append(names[i:i + w])
        i += w
    covers = []
    for lo, hi in zip(layers, layers[1:]):
        for y in hi:
            below = [x for x in lo if rng.random() < density]
            covers += [(x, y) for x in below or [rng.choice(lo)]]
    return Poset(names, covers)


def random_poset_category(rng):
    return cat_of_poset(random_poset(rng, max_n=4))


def _random_dag(rng, max_n=5):
    n = rng.randint(2, max_n)
    edges = [(i, j) for i, j in _pairs(n) if rng.random() < 0.5]
    return n, edges


def _dag_paths(n, edges):
    by_src = {}
    for i, j in edges:
        by_src.setdefault(i, []).append((i, j))
    paths = []

    def extend(path):
        for e in by_src.get(path[-1][1], []):
            paths.append(path + (e,))
            extend(path + (e,))

    for e in edges:
        paths.append((e,))
        extend((e,))
    return paths


def _path_name(path):
    return "p" + "-".join(f"{i}{j}" for i, j in path)


def random_free_dag_category(rng):
    """The category of nonempty paths of a random DAG (composition is path
    concatenation): conical and cancellative."""
    while True:
        n, edges = _random_dag(rng)
        paths = _dag_paths(n, edges)
        if 1 <= len(paths) <= 18:
            break
    arrows = {_path_name(p): (str(p[0][0]), str(p[-1][1])) for p in paths}
    comp = {}
    for p in paths:
        for q in paths:
            if p[-1][1] == q[0][0]:
                comp[(_path_name(p), _path_name(q))] = _path_name(p + q)
    return make_category([str(i) for i in range(n)], arrows, comp)


def random_quotient_dag_category(rng):
    """A random parallel-path quotient of a free DAG category, via
    congruence closure; may fail cancellativity (never conicality)."""
    while True:
        n, edges = _random_dag(rng)
        paths = _dag_paths(n, edges)
        parallel = [(p, q) for p, q in itertools.combinations(paths, 2)
                    if p[0][0] == q[0][0] and p[-1][1] == q[-1][1]]
        if 1 <= len(paths) <= 16 and parallel:
            break
    parent = {p: p for p in paths}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    def union(p, q):
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[rp] = rq
            return True
        return False

    for pair in rng.sample(parallel, rng.randint(1, min(2, len(parallel)))):
        union(*pair)
    changed = True
    while changed:  # close under composition on both sides
        changed = False
        for p, q in itertools.combinations(paths, 2):
            if find(p) != find(q):
                continue
            for r in paths:
                if p[-1][1] == r[0][0] and union(p + r, q + r):
                    changed = True
                if r[-1][1] == p[0][0] and union(r + p, r + q):
                    changed = True
    classes = {}
    for p in paths:
        classes.setdefault(find(p), []).append(p)
    rep_name = {find(p): _path_name(min(classes[find(p)])) for p in paths}
    arrows = {}
    for root, members in classes.items():
        p = members[0]
        arrows[rep_name[root]] = (str(p[0][0]), str(p[-1][1]))
    comp = {}
    for p in paths:
        for q in paths:
            if p[-1][1] == q[0][0]:
                comp[(rep_name[find(p)], rep_name[find(q)])] = \
                    rep_name[find(p + q)]
    return make_category([str(i) for i in range(n)], arrows, comp)


def cyclic_category(n):
    """Z/n as a one-object category: not conical, cancellative."""
    arrows = {f"g{k}": ("o", "o") for k in range(1, n)}
    comp = {}
    for i in range(1, n):
        for j in range(1, n):
            k = (i + j) % n
            comp[(f"g{i}", f"g{j}")] = f"g{k}" if k else "id:o"
    return make_category(["o"], arrows, comp)


def idempotent_category():
    """The monoid {1, e} with ee = e: conical, not cancellative."""
    return make_category(["o"], {"e": ("o", "o")}, {("e", "e"): "e"})


def nilpotent_category():
    """The monoid {1, a, z} with aa = az = za = zz = z: conical, not
    cancellative."""
    arrows = {"a": ("o", "o"), "z": ("o", "o")}
    comp = {("a", "a"): "z", ("a", "z"): "z", ("z", "a"): "z",
            ("z", "z"): "z"}
    return make_category(["o"], arrows, comp)


def pair_groupoid(n):
    """All pairs (i, j) over n objects: not conical, cancellative."""
    objs = [str(i) for i in range(n)]
    arrows = {f"r{i}{j}": (str(i), str(j))
              for i in range(n) for j in range(n) if i != j}
    comp = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i != j and j != k:
                    h = f"r{i}{k}" if i != k else f"id:{i}"
                    comp[(f"r{i}{j}", f"r{j}{k}")] = h
    return make_category(objs, arrows, comp)


def disjoint_union(c1, c2):
    objects = [f"L.{o}" for o in c1.objects] + [f"R.{o}" for o in c2.objects]
    arrows = {}
    comp = {}
    for tag, c in (("L", c1), ("R", c2)):
        for f in c.arrows:
            if not c.is_identity(f):
                arrows[f"{tag}.{f}"] = (f"{tag}.{c.src(f)}", f"{tag}.{c.tgt(f)}")
        for (f, g), h in c.comp.items():
            if not (c.is_identity(f) or c.is_identity(g)):
                comp[(f"{tag}.{f}", f"{tag}.{g}")] = (
                    f"{tag}.{h}" if not c.is_identity(h)
                    else f"id:{tag}.{c.src(h)}")
    return make_category(objects, arrows, comp)


def random_category(rng):
    """A random finite category drawn from a mixture of shapes covering all
    combinations of the conical / cancellative flags; at most 6 objects and
    20 arrows."""
    while True:
        roll = rng.random()
        if roll < 0.30:
            cat = cat_of_poset(random_poset(rng))
        elif roll < 0.50:
            cat = random_free_dag_category(rng)
        elif roll < 0.70:
            cat = random_quotient_dag_category(rng)
        elif roll < 0.78:
            cat = cyclic_category(rng.randint(2, 4))
        elif roll < 0.84:
            cat = idempotent_category()
        elif roll < 0.90:
            cat = nilpotent_category()
        elif roll < 0.96:
            cat = pair_groupoid(rng.randint(2, 3))
        else:
            cat = disjoint_union(cat_of_poset(random_poset(rng, max_n=3)),
                                 cat_of_poset(random_poset(rng, max_n=3)))
        if len(cat.objects) <= 6 and len(cat.arrows) <= 20:
            return cat


def random_category_bounded(rng, max_elements=200, max_len=3):
    """A random category whose Um has at most max_elements elements up to
    the given length, for exhaustive bounded sweeps."""
    while True:
        cat = random_category(rng)
        if len(elements_up_to(cat, max_len)) <= max_elements:
            return cat


def random_raw_sequence(cat, rng, max_len=10):
    """A raw arrow sequence: identities allowed, composable runs likely."""
    names = sorted(cat.arrows)
    raw = []
    for _ in range(rng.randint(0, max_len)):
        if raw and rng.random() < 0.6:
            options = cat.arrows_from(cat.tgt(raw[-1]))
            raw.append(rng.choice(sorted(options)))
        else:
            raw.append(rng.choice(names))
    return raw


def reference_reduce_sequence(cat, raw, rng=None):
    """The rewriting loop through the public ``is_identity``,
    ``composable`` and ``compose``: a full rescan for redexes after every
    step, taking the leftmost one, or a uniform choice under an rng.
    Returns the normal form's entries and the steps taken."""
    seq = list(raw)
    steps = []
    while True:
        redexes = []
        for i, f in enumerate(seq):
            if cat.is_identity(f):
                redexes.append((i, "dropIdentity"))
            elif i + 1 < len(seq) and cat.composable(f, seq[i + 1]):
                redexes.append((i, "compose"))
        if not redexes:
            return tuple(seq), tuple(steps)
        step = redexes[0] if rng is None else rng.choice(redexes)
        pos, kind = step
        if kind == "dropIdentity":
            del seq[pos]
        else:
            seq[pos:pos + 2] = [cat.compose(seq[pos], seq[pos + 1])]
        steps.append(step)


def random_element(cat, rng, max_len=4):
    """A random reduced element of Um(cat)."""
    from catmon import reduce_sequence
    return reduce_sequence(cat, random_raw_sequence(cat, rng, max_len))[0]


# -- brute-force conicality / cancellation oracles ----------------------------

def brute_conical_witness(cat):
    """The first table entry (f, g) whose composite is an identity, f and g
    not both identities; None if there is none."""
    ids = set(cat.identity.values())
    for (f, g), h in cat.comp.items():
        if h in ids and not (f in ids and g in ids):
            return (f, g)
    return None


def brute_cancellation_witness(cat, side):
    """(a, y, x) for the first a in cat.arrows, then the first x of its
    fibre, with a;x = a;y (left) or x;a = y;a (right) for an earlier y of
    the fibre, y the first such; None if the side cancels."""
    for a in cat.arrows:
        if side == "left":
            fibre = [x for x in cat.arrows if cat.src(x) == cat.tgt(a)]
            prod = [cat.comp[(a, x)] for x in fibre]
        else:
            fibre = [x for x in cat.arrows if cat.tgt(x) == cat.src(a)]
            prod = [cat.comp[(x, a)] for x in fibre]
        for j, x in enumerate(fibre):
            for i in range(j):
                if prod[i] == prod[j]:
                    return (a, fibre[i], x)
    return None


# -- brute-force divisibility / gcd oracles -------------------------------------

def divisibility_tables(cat, max_len):
    """Exhaustive product scan over all elements of length <= max_len.

    Returns (pool, left, right) where left[y] is the set of x with x·z = y
    for some z in the pool, and right[y] the set of x with z·x = y.
    """
    pool = elements_up_to(cat, max_len)
    pool_set = set(pool)
    left = {y: set() for y in pool}
    right = {y: set() for y in pool}
    for d in pool:
        for z in pool:
            p = multiply(d, z)
            if p in pool_set:
                left[p].add(d)
                right[p].add(z)
    return pool, left, right


def brute_gcd(divs, x, y):
    """The common divisor divided by every common divisor, if any.

    divs maps an element to its full divisor set on the relevant side;
    divisor-of-divisor tests stay inside the table because divisors of
    pool elements are themselves in the pool.  A single climbing pass finds
    the only possible candidate (divisibility is antisymmetric here), and
    the final subset check confirms every common divisor divides it.
    """
    common = divs[x] & divs[y]
    best = None
    for m in common:
        if best is None or best in divs[m]:
            best = m
    if best is None or not common <= divs[best]:
        return None
    return best


def brute_divides(side, x, y, pool):
    if side == "left":
        return any(multiply(x, z) == y for z in pool)
    return any(multiply(z, x) == y for z in pool)


# -- reference builders -------------------------------------------------------

def reference_gcd_criterion(poset):
    """gcd_criterion by a meet (join) search for every pair of the up-set
    (down-set) of every element, comparable pairs included; the witness is
    the first failing pair of that all-pairs loop."""
    witnesses = {}
    els = poset.elements
    for side, above, below in (("left", poset._up, poset._dn),
                               ("right", poset._dn, poset._up)):
        for a, mask in enumerate(above):
            ys = [y for y in range(len(els)) if mask >> y & 1]
            for i, y1 in enumerate(ys):
                for y2 in ys[i + 1:]:
                    common = below[y1] & below[y2] & mask
                    if _greatest(common, below) is None:
                        witnesses.setdefault(side, (els[a], els[y1], els[y2]))
    return GcdCriterionReport("left" not in witnesses,
                              "right" not in witnesses, witnesses)


def reference_pair_without_greatest(pairs, div, below):
    """The first of ``pairs`` (a, b) whose common divisors
    ``div[a] & div[b]`` have no greatest member under ``below``, by a
    greatest-member search per distinct common mask (skipped when one mask
    holds the other); None if every pair has one."""
    have_greatest = set()
    for a, b in pairs:
        da, db = div[a], div[b]
        common = da & db
        if common == da or common == db or common in have_greatest:
            continue
        if _greatest(common, below) is None:
            return a, b
        have_greatest.add(common)
    return None


def reference_tietze_collapse(pres, tree):
    """tietze_collapse by rescanning every relator each round: dedup the
    list in order, price its letters, take the first relator with a
    once-occurring generator and its first such letter, and substitute
    into every other relator."""
    killed = {edge_name(x, y) for x, y in tree.edges}
    gens = [g for g in pres.generators if g not in killed]
    relators = [free_reduce([(g, e) for g, e in r if g not in killed])
                for r in pres.relators]
    while True:
        seen = set()
        cleaned = []
        for r in relators:
            if r and r not in seen:
                seen.add(r)
                cleaned.append(r)
        relators = cleaned
        require(sum(map(len, relators)), "relator letters")
        target = None
        for ri, r in enumerate(relators):
            counts = {}
            for g, _ in r:
                counts[g] = counts.get(g, 0) + 1
            for pos, (g, e) in enumerate(r):
                if counts[g] == 1:
                    target = (ri, pos, g, e)
                    break
            if target:
                break
        if not target:
            break
        ri, pos, g, e = target
        r = relators[ri]
        u, v = r[:pos], r[pos + 1:]
        w = free_reduce(invert_word(u) + invert_word(v))
        if e == -1:
            w = invert_word(w)
        relators = [substitute(r2, g, w)
                    for i, r2 in enumerate(relators) if i != ri]
        gens.remove(g)
    return GroupPresentation(gens, relators)


def reference_interval_category(poset):
    """The arrows, identity and composition dicts of Cat(P), from ``leq``."""
    els = poset.elements
    le = [(x, y) for x in els for y in els if poset.leq(x, y)]
    arrows = {interval_name(x, y): (x, y) for x, y in le}
    identity = {x: interval_name(x, x) for x in els}
    comp = {(interval_name(x, y), interval_name(y, z)): interval_name(x, z)
            for x, y in le for z in els if poset.leq(y, z)}
    return arrows, identity, comp


def reference_spindle_category(poset, spindle):
    """The arrows, identity and composition dicts of Cat(P,u,v): Cat(P)
    with [u,v] replaced by one arrow per maximal chain of [u,v]."""
    u, v = spindle.u, spindle.v
    uv = interval_name(u, v)
    arrows, identity, interval_comp = reference_interval_category(poset)
    del arrows[uv]
    class_of = {m: chain_arrow_name(chain)
                for chain in spindle.chains for m in chain[1:-1]}
    comp = {}
    for (f, g), h in interval_comp.items():
        if uv not in (f, g):
            comp[(f, g)] = class_of[arrows[f][1]] if h == uv else h
    for chain in spindle.chains:
        name = chain_arrow_name(chain)
        arrows[name] = (u, v)
        comp[(identity[u], name)] = comp[(name, identity[v])] = name
    return arrows, identity, comp


def reference_spindle_presentation(poset, spindle):
    """Generators and relations of the spindle presentation, in the order of
    a scan of the strict intervals [x,y] by x, then y, then z above y."""
    u, v = spindle.u, spindle.v
    els = poset.elements
    lt = [(x, y) for x in els for y in els if poset.lt(x, y)]
    gens = [interval_name(x, y) for x, y in lt if (x, y) != (u, v)]
    relations = [((interval_name(x, z),),
                  (interval_name(x, y), interval_name(y, z)))
                 for x, y in lt for z in els
                 if poset.lt(y, z) and (x, z) != (u, v)]
    return tuple(gens), tuple(relations)


def reference_universal_group_presentation(cat):
    """Generators and relators of the universal group presentation: for each
    non-identity f, each non-identity g out of tgt(f), the relator f g h⁻¹
    (just f g when h = f;g is an identity)."""
    gens = cat.non_identities()
    relators = []
    for f in gens:
        for g in cat.arrows_from(cat.tgt(f)):
            if g not in gens:
                continue
            h = cat.compose(f, g)
            word = [(f, 1), (g, 1)]
            if h in gens:
                word.append((h, -1))
            relators.append(tuple(word))
    return gens, tuple(relators)


def reference_identity(spec):
    """The identity of a group, built by its public constructor."""
    if spec.kind == "free":
        return FreeGroupWord(spec, ())
    if spec.kind == "zn":
        return FreeAbelianWord(spec, (0,) * spec.n)
    return FreeProductWord(spec, ())


def reference_group_multiply(a, b):
    """a·b by the pairwise fold, each step rebuilt and re-checked by the
    public constructors."""
    if a.spec != b.spec:
        raise GroupMismatch("operands live in different groups")
    if isinstance(a, FreeGroupWord):
        return FreeGroupWord(a.spec, a.letters + b.letters)
    if isinstance(a, FreeAbelianWord):
        return FreeAbelianWord(a.spec,
                               [u + v for u, v in zip(a.vector, b.vector)])
    sylls = list(a.syllables)
    for i, w in b.syllables:
        if sylls and sylls[-1][0] == i:
            merged = reference_group_multiply(sylls.pop()[1], w)
            if not merged.is_identity():
                sylls.append((i, merged))
        else:
            sylls.append((i, w))
    return FreeProductWord(a.spec, sylls)


def reference_group_product(spec, words):
    """The product of words of one group, folded left from the identity."""
    acc = reference_identity(spec)
    for w in words:
        acc = reference_group_multiply(acc, w)
    return acc


def reference_inverse(word):
    """The inverse of a word, built by the public constructors."""
    if isinstance(word, FreeGroupWord):
        return FreeGroupWord(word.spec,
                             [(g, -e) for g, e in reversed(word.letters)])
    if isinstance(word, FreeAbelianWord):
        return FreeAbelianWord(word.spec, [-v for v in word.vector])
    return FreeProductWord(word.spec, [(i, reference_inverse(w))
                                       for i, w in reversed(word.syllables)])


def reference_separation(functor):
    """The separation report by nested loops over the public, checked
    queries: the functor laws for f in arrow order and each g out of its
    target, then each hom(x, y), x and y in object order, scanned for two
    arrows with one image."""
    cat = functor.category
    for f in cat.arrows:
        for g in cat.arrows_from(cat.tgt(f)):
            h = cat.compose(f, g)
            if functor.image(h) != group_multiply(functor.image(f),
                                                  functor.image(g)):
                return SeparationReport(False, False, (f, g))
    for x in cat.objects:
        for y in cat.objects:
            seen = {}
            for f in cat.hom(x, y):
                w = functor.image(f)
                if w in seen:
                    return SeparationReport(True, False, (seen[w], f))
                seen[w] = f
    return SeparationReport(True, True, None)


def sigma_decode(functor, payload):
    """σ⁻¹: the arrows of the element whose σ word under a separating
    functor has this payload, read left to right.

    The object letters alternate x⁻¹, y, one pair per arrow, with at most
    one syllable of the target group G between the two letters of a pair
    and none between pairs; the arrow is the one of hom(x, y) with that G
    image (the identity when there is no syllable), unique by separation.
    """
    cat = functor.category
    one = functor.target.identity().payload
    arrow_of = {(cat.src(f), w.payload, cat.tgt(f)): f
                for f, w in functor.images.items() if not cat.is_identity(f)}
    assert len(arrow_of) == len(cat.non_identities()), "not separating"
    arrows, src, image = [], None, one
    for factor, syllable in payload:
        if factor == 1:
            assert src is not None and image == one, payload
            image = syllable
            continue
        for obj, sign in syllable:
            if sign == -1:
                assert src is None, payload
                src, image = obj, one
            else:
                assert src is not None, payload
                arrows.append(arrow_of[(src, image, obj)])
                src = None
    assert src is None, payload
    return tuple(arrows)


def reference_rules(pres):
    """Side length k -> {side: the sides it may be rewritten to}, as tuple
    words, the relations read both ways."""
    rules = {}
    for lhs, rhs in pres.relations:
        for side, other in ((lhs, rhs), (rhs, lhs)):
            if side and side != other:
                rules.setdefault(len(side), {}).setdefault(
                    side, set()).add(other)
    return rules


def reference_spread(rules, n, seen, out, start):
    """Scan every window of the tuple words out[start:], and of each word
    this appends, for rewrites; a word not yet in seen is added to seen
    and appended to out.  Returns out."""
    i = start
    while i < len(out):
        w = out[i]
        i += 1
        for k, sides in rules.items():
            for j in range(n - k + 1):
                for rhs in sides.get(w[j:j + k], ()):
                    w2 = w[:j] + rhs + w[j + k:]
                    if w2 not in seen:
                        seen.add(w2)
                        out.append(w2)
    return out


def reference_closure(pres, word):
    """The congruence class of a tuple word, as a set of tuple words."""
    seen = {word}
    reference_spread(reference_rules(pres), len(word), seen, [word], 0)
    return seen


def reference_grow(pres, cls, g):
    """The class of cls[0]·g: the seeds u'·g, u' in cls, in cls's order,
    then the words that rewrites add, with every seed scanned at the window
    of each rule length that ends at g."""
    rules = reference_rules(pres)
    n = len(cls[0]) + 1
    out = [u + (g,) for u in cls]
    seen = set(out)
    start = len(out)
    for k, sides in rules.items():
        if k > n:
            continue
        for w in out[:start]:
            for rhs in sides.get(w[n - k:], ()):
                w2 = w[:n - k] + rhs
                if w2 not in seen:
                    seen.add(w2)
                    out.append(w2)
    return reference_spread(rules, n, seen, out, start)


def reference_class_walk(pres, gens, cls, state, carry, layers):
    """Yield (class, state) for each class of the words cls[0]·w, w of 1 to
    layers letters over gens, layer by layer, every (class, letter) pair
    grown by ``reference_grow`` and skipped when its first word lies in a
    class already met in the layer."""
    layer = [(cls, state)]
    for depth in range(1, layers + 1):
        _guard_layer(len(gens), depth)
        seen = set()
        grown_layer = []
        for cls, state in layer:
            for g in gens:
                if cls[0] + (g,) in seen:
                    continue
                grown = reference_grow(pres, cls, g)
                seen.update(grown)
                grown_state = carry(state, grown, len(cls))
                yield grown, grown_state
                grown_layer.append((grown, grown_state))
        layer = grown_layer


def reference_common_right_multiple(pres, xs, max_len):
    """``common_right_multiple`` over ``reference_class_walk``, every x not
    yet known to divide tested on the added words of each class (on the
    whole class when x is as long as its words)."""
    xs = [tuple(x) for x in xs]
    full = (1 << len(xs)) - 1
    head = xs[0]
    if len(head) > max_len:
        return None

    def mask(m, cls, start):
        length = len(cls[0])
        for i, x in enumerate(xs):
            k = len(x)
            if not m >> i & 1 and k <= length:
                words = cls if k == length else cls[start:]
                if any(w[:k] == x for w in words):
                    m |= 1 << i
        return m

    cls = [head, *(reference_closure(pres, head) - {head})]
    m = mask(0, cls, 0)
    if m == full:
        return head
    for cls, m in reference_class_walk(pres, sorted(pres.generators), cls,
                                       m, mask, max_len - len(head)):
        if m == full:
            return cls[0]
    return None


def reference_m6_classes(max_len):
    """(class count, injective) of the m6 substitution on the classes of
    words of 1 to max_len letters, walked by ``reference_class_walk``, with
    the image of every added word checked against its class's."""
    pres = m6_presentation()

    def image(img, cls, start):
        img += M6_SUBSTITUTION[cls[0][-1]]
        assert all(_m6_image(w) == img for w in cls[start:])
        return img

    images = [img for _, img in reference_class_walk(
        pres, pres.generators, [()], (), image, max_len)]
    return len(images), len(set(images)) == len(images)


def rational_rank(generators, relators):
    """Rank of the relator exponent matrix by dense Gaussian elimination over
    the rationals."""
    idx = {g: i for i, g in enumerate(generators)}
    rows = []
    for r in relators:
        row = [0] * len(generators)
        for g, e in r:
            row[idx[g]] += e
        if any(row):
            rows.append([Fraction(v) for v in row])
    rank = 0
    cols = len(generators)
    pivot_col = 0
    while rows and pivot_col < cols:
        piv = next((i for i, row in enumerate(rows) if row[pivot_col]), None)
        if piv is None:
            pivot_col += 1
            continue
        rows[0], rows[piv] = rows[piv], rows[0]
        top = rows[0]
        for row in rows[1:]:
            if row[pivot_col]:
                f = row[pivot_col] / top[pivot_col]
                for j in range(pivot_col, cols):
                    row[j] -= f * top[j]
        rows = [row for row in rows[1:] if any(row)]
        rank += 1
        pivot_col += 1
    return rank


def assert_record(cls, **fields):
    """Check the contract of a catmon record type on one value per field,
    given in field order: built by position and by name alike, its repr
    ``Name(field=value, ...)``, each field read back, and nothing
    assignable.  Returns the record."""
    record = cls(**fields)
    assert record == cls(*fields.values())
    shown = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"
    for name, value in fields.items():
        assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = None
    return record
