"""Seeded inputs for every workload, each op with its expected result.

``build(workload, seed, directory)`` writes the input files and returns
the op list as plain JSON data.  The same seed gives the same bytes.
Nothing here imports finitetop: expected values come from construction
(a relabeled space is homeomorphic to the original, a point-count datum
is exact), from brute force in ``oracle``, or from OEIS.

Every op also carries ``props``, the input properties an optimisation
may depend on (points, opens, locally closed sets, relative-open pairs,
completion opens, torsion share), so a later change can report which
share of a workload has the property it exploits.
"""

import json
import os
import random

import oracle as O

# (n, connected, t0, labeled spaces, classes), pinned to OEIS:
# A000798 / A001930, A001035 / A000112, A001927 / A000608.
CENSUS_SLICES = (
    (5, False, False, 6942, 139),
    (5, False, True, 4231, 63),
    (5, True, True, 3060, 44),
)
# Labeled spaces of each slice that another slice also holds: the 4,231
# labeled T0 spaces lie in the first two, the 3,060 connected ones in all three.
CENSUS_SHARED = {0: 4231, 1: 4231, 2: 3060}

COMPLETION_BASE_CAP = 16  # documented cap on base opens for `complete`
WARMUP = "warmup.json"  # a two-point space every pass runs once untimed


# -- spaces -------------------------------------------------------------------


def random_poset(rng, n, density, shuffle=True):
    """Transitive closure of random pairs i < j, relabeled unless shuffle is off."""
    perm = list(range(n))
    if shuffle:
        rng.shuffle(perm)
    pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < density]
    return O.closure_rows(n, pairs)


def random_preorder(rng, n):
    """A preorder with at least one pair of equivalent points (not T0)."""
    while True:
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(n + 2)]
        up = O.closure_rows(n, pairs)
        if not O.is_t0(up) and len(set(up)) > 2:
            return up


def shuffled(rng, up):
    perm = list(range(len(up)))
    rng.shuffle(perm)
    return O.relabel(up, perm)


def chaotic(n):
    return [(1 << n) - 1] * n


def antichain(n):
    return [1 << x for x in range(n)]


def blocks(size, count):
    """Disjoint chaotic blocks: every point looks alike."""
    return [((1 << size) - 1) << (size * (x // size)) for x in range(size * count)]


def fan(k):
    """A bottom point below k incomparable points."""
    n = k + 1
    return [(1 << n) - 1] + [1 << x for x in range(1, n)]


def cofan(k):
    """k incomparable points below a top point."""
    return [1 | 1 << x for x in range(k + 1)]


def space_json(up):
    return {"size": len(up), "opens": [O.bits(m) for m in O.opens_of(up)]}


def preorder_json(up):
    return {"size": len(up),
            "leq": [[x, y] for x in range(len(up)) for y in O.bits(up[x]) if x != y]}


def space_props(up):
    opens = O.opens_of(up)
    carriers = O.locally_closed(opens)
    return {"points": len(up), "opens": len(opens), "t0": O.is_t0(up),
            "locally_closed": len(carriers),
            "pairs": len(O.relative_pairs(opens, carriers))}


def with_opens(rng, lo, hi, make):
    """Draw from make(rng) until the space has between lo and hi opens."""
    while True:
        up = make(rng)
        if lo <= len(O.opens_of(up)) <= hi:
            return up


# -- census -------------------------------------------------------------------

# Query families.  A symmetric space costs about the same for every seed
# (the seed only relabels it).  The ladder of ten such families spans
# costs from a few to about a hundred milliseconds.  The 90th percentile
# of a pass falls in the middle of the 16 `blocks3x2` queries, so the few
# random pairs that cost as much move it inside that block, not onto the
# next rung.  The eight-point search over all 8! orders lies above it with
# the census slices, and the hundreds of random pairs, whose costs spread
# smoothly, hold the median.
SYMMETRIC = tuple((name, up, 16 if name == "blocks3x2" else 8) for name, up in (
    ("chaotic7", chaotic(7)), ("fan7", fan(7)), ("cofan7", cofan(7)),
    ("antichain7", antichain(7)), ("chaotic6", chaotic(6)), ("blocks3x2", blocks(3, 2)),
    ("blocks2x3", blocks(2, 3)), ("cofan6", cofan(6)), ("fan6", fan(6)),
    ("antichain6", antichain(6)))) + (("chaotic8", chaotic(8), 1),)
RANDOM_QUERIES = {"relabel_t0": 200, "relabel_preorder": 80, "twin": 100,
                  "distinct": 20}


def _profile(up):
    return (len(up), tuple(m.bit_count() for m in O.opens_of(up)))


def _twins(rng, count):
    """Non-homeomorphic pairs with equal open-set size profiles.

    They pass every cheap test in front of the canonical form; the
    oracle's isomorphism search certifies that they differ.
    """
    seen = {}
    out = []
    while len(out) < count:
        n = rng.choice((7, 8))
        up = random_poset(rng, n, rng.uniform(0.15, 0.5))
        key = _profile(up)
        other = seen.get(key)
        if other is None or O.isomorphic(up, other):
            seen[key] = up
            continue
        out.append((other, up))
        del seen[key]
    return out


def census_ops(rng):
    slices = [{"kind": "census", "args": [n, connected, t0],
               "expect": {"labeled": labeled, "classes": classes},
               "props": {"points": n, "shared_labeled": CENSUS_SHARED[i]}}
              for i, (n, connected, t0, labeled, classes) in enumerate(CENSUS_SLICES)]
    pairs = []
    for name, up, count in SYMMETRIC:
        for _ in range(count):
            pairs.append((name, up, shuffled(rng, up), True))
    for _ in range(RANDOM_QUERIES["relabel_t0"]):
        up = random_poset(rng, rng.choice((7, 8)), rng.uniform(0.15, 0.5))
        pairs.append(("relabel_t0", up, shuffled(rng, up), True))
    for _ in range(RANDOM_QUERIES["relabel_preorder"]):
        up = random_preorder(rng, rng.choice((7, 8)))
        pairs.append(("relabel_preorder", up, shuffled(rng, up), True))
    for a, b in _twins(rng, RANDOM_QUERIES["twin"]):
        pairs.append(("twin", a, b, False))
    distinct = 0
    while distinct < RANDOM_QUERIES["distinct"]:
        a, b = random_poset(rng, 7, 0.3), random_poset(rng, 7, 0.3)
        if len(O.opens_of(a)) != len(O.opens_of(b)):
            pairs.append(("distinct", a, b, False))
            distinct += 1
    rng.shuffle(pairs)
    queries = []
    for name, a, b, same in pairs:
        if O.isomorphic(a, b) != same:
            raise RuntimeError(f"{name}: construction and oracle disagree")
        queries.append({"kind": "homeo", "a": space_json(a), "b": space_json(b),
                        "expect": same,
                        "props": {"family": name, "points": len(a),
                                  "opens": len(O.opens_of(a)), "t0": O.is_t0(a)}})
    step = -(-len(queries) // len(slices))
    ops = []
    for i, op in enumerate(slices):
        ops.extend(queries[i * step:(i + 1) * step])
        ops.append(op)
    return ops


# -- filtrated K-theory data --------------------------------------------------


def _key(mask):
    return ",".join(str(i) for i in O.bits(mask))


def _group(k, modulus):
    if modulus is None:
        return {"generators": 0}
    rel = [[modulus if i == j else 0 for j in range(k)] for i in range(k)]
    return {"generators": k, "relations": rel} if modulus and k else {"generators": k}


def _matrix(rows, cols, entry):
    return [[entry(i, j) for j in range(cols)] for i in range(rows)]


def _gens(mask, modulus):
    return 0 if modulus is None else mask.bit_count()


def point_count_datum(up, even, odd, defect=None):
    """Functions on each locally closed set, with coefficients even / odd.

    even and odd are a modulus (0 for the integers) or None for the zero
    group.  Restriction and extension by zero are exact in both degrees
    and the boundary maps vanish, so every cycle is exact; `defect`
    names one pair whose restriction map is replaced by zero, which
    breaks exactness there and nowhere else.
    """
    opens = O.opens_of(up)
    carriers = O.locally_closed(opens)
    pairs = O.relative_pairs(opens, carriers)
    groups = {_key(c): {"even": _group(c.bit_count(), even),
                        "odd": _group(c.bit_count(), odd)} for c in carriers}
    cycles = []
    for u, y in pairs:
        rest = y & ~u
        yb, ub, rb = O.bits(y), O.bits(u), O.bits(rest)

        def incl(mod):
            return _matrix(_gens(y, mod), _gens(u, mod), lambda i, j: int(yb[i] == ub[j]))

        def proj(mod):
            return _matrix(_gens(rest, mod), _gens(y, mod), lambda i, j: int(rb[i] == yb[j]))

        restriction = proj(even)
        if (u, y) == defect:
            restriction = _matrix(_gens(rest, even), _gens(y, even), lambda i, j: 0)
        maps = [incl(even), restriction,
                _matrix(_gens(u, odd), _gens(rest, even), lambda i, j: 0),
                incl(odd), proj(odd),
                _matrix(_gens(u, even), _gens(rest, odd), lambda i, j: 0)]
        cycles.append({"open": _key(u), "set": _key(y), "maps": maps})
    datum = {"space": space_json(up), "groups": groups, "cycles": cycles}
    graded = [m for m in (even, odd) if m is not None]
    props = dict(space_props(up), torsion_share=sum(1 for m in graded if m) / 2)
    return datum, props


# (family, points, pair band, even coefficients, odd coefficients): the
# modulus 0 is Z and None the zero group.  Fixed slots give every seed
# about the same amount of checking, sized so that a pass takes a few
# seconds and a run holds several.  The torsion slots hold the 90th
# percentile and the free slots the median; each is a ladder of pair
# counts (a chain is the only poset with the fewest: 51 on five points,
# 78 on six), so that a quantile falls among nearby costs rather than
# inside one group.  Points keep a natural labeling (x < y only when
# x < y as numbers), because relabeling alone moves the cost of a Smith
# normal form by up to a fifth.
DATUM_SLOTS = (
    [("torsion", 5, p, p, m, None) for p, m in ((51, 2), (51, 9), (67, 5), (67, 12),
                                                (80, 3), (80, 7))]
    + [("mixed", 5, 51, 51, 0, 0)] * 2
    + [("free", 5, p, p, 0, None) for p in (51, 67, 80, 89) for _ in range(4)]
    + [("zero", n, 100, 300, None, None) for n in (6, 7) * 5]
    + [("large", 6, 101, 121, 0, None)] * 3
)
DEFECTS = 4  # free slots whose datum carries one seeded defect


def datum_ops(rng, directory):
    """Point-count data over Z or Z/m, a few with a defect, a few all zero."""
    ops = []
    free_seen = 0
    for i, (family, n, lo, hi, even, odd) in enumerate(DATUM_SLOTS):
        while True:
            up = random_poset(rng, n, rng.uniform(0.5, 0.95), shuffle=False)
            opens = O.opens_of(up)
            pairs = O.relative_pairs(opens, O.locally_closed(opens))
            if lo <= len(pairs) <= hi:
                break
        defect = None
        if family == "free":
            free_seen += 1
            if free_seen <= DEFECTS:
                defect = rng.choice([p for p in pairs if p[1] & ~p[0]])
        datum, props = point_count_datum(up, even, odd, defect)
        name = f"datum{i:02d}.json"
        _write(directory, name, datum)
        expect = {"code": 0 if defect is None else 1,
                  "failing": [] if defect is None else [[_key(defect[0]), _key(defect[1])]],
                  "propagation": family == "zero"}
        ops.append({"kind": "cli", "check": "datum",
                    "argv": ["ktheory", "datum-verify", name],
                    "expect": expect,
                    "props": dict(props, family=family, defect=defect is not None)})
    rng.shuffle(ops)
    return ops


# -- spaces, actions and completions ------------------------------------------


def _medium(rng, t0=True):
    if t0:
        return with_opens(rng, 12, 40, lambda r: random_poset(r, r.randint(6, 8),
                                                              r.uniform(0.3, 0.6)))
    return with_opens(rng, 4, 40, lambda r: random_preorder(r, r.randint(6, 8)))


def info_expect(up):
    t0 = O.is_t0(up)
    return {"size": len(up), "opens": len(O.opens_of(up)), "t0": t0,
            "connected": len(O.components(up)) == 1,
            "components": sorted(O.bits(c) for c in O.components(up)),
            "length": O.chain_length(up) if t0 else None,
            "strata": [O.bits(s) for s in O.strata(up)] if t0 else None}


ACTION_PRIM_OPENS = 200  # the primitive space's opens, at most


def random_action(rng):
    """A base poset with each point blown up into a few primitive points.

    Primitive points over x are incomparable copies sitting above exactly
    what x sits above, so the projection is continuous; it is a
    homeomorphism exactly when every point has one copy.  The action
    commands' cost grows with the primitive space's opens (a few ms at
    200, about 100 ms at 1,200), so a cap keeps them among the cheap ops
    that hold the median rather than letting a seed add a few slow ones.
    """
    while True:
        base = with_opens(rng, 8, 24, lambda r: random_poset(r, r.randint(4, 5),
                                                             r.uniform(0.3, 0.6)))
        tight = rng.random() < 0.25
        copies = [1 if tight else rng.randint(1, 3) for _ in base]
        psi = [x for x, c in enumerate(copies) for _ in range(c)]
        rng.shuffle(psi)
        prim = [sum(1 << q for q in range(len(psi))
                    if q == p or (base[psi[p]] >> psi[q] & 1 and psi[q] != psi[p]))
                for p in range(len(psi))]
        if len(O.opens_of(prim)) <= ACTION_PRIM_OPENS:
            return base, prim, psi


def _preimage(psi, mask):
    return sum(1 << p for p, x in enumerate(psi) if mask >> x & 1)


def action_ops(rng, directory, index):
    base, prim, psi = random_action(rng)
    action = {"base": space_json(base), "prim": space_json(prim), "psi": psi}
    ideals = {str(x): O.bits(_preimage(psi, base[x])) for x in range(len(base))}
    name = f"action{index:02d}.json"
    _write(directory, name, action)
    assign = f"assign{index:02d}.json"
    _write(directory, assign, {"base": action["base"], "prim": action["prim"],
                               "values": ideals})
    levels = O.strata(base)
    layers, acc = [[]], 0
    for s in levels:
        acc |= s
        layers.append(O.bits(acc))
    props = dict(space_props(base), prim_points=len(prim))
    tight = len(prim) == len(base)
    return [
        {"kind": "cli", "check": "action_check", "argv": ["action", "check", name],
         "expect": {"tight": tight, "ideals": ideals}, "props": props},
        {"kind": "cli", "check": "action_filtrate",
         "argv": ["action", "filtrate", name],
         "expect": {"layers": layers,
                    "strata": [{"stratum": O.bits(s),
                                "support": O.bits(_preimage(psi, s)),
                                "fibers": [O.bits(_preimage(psi, 1 << x))
                                           for x in O.bits(s)]} for s in levels]},
         "props": props},
        {"kind": "cli", "check": "action_reconstruct",
         "argv": ["action", "reconstruct", assign],
         "expect": {"psi": psi, "base": action["base"]["opens"],
                    "prim": action["prim"]["opens"]},
         "props": props},
    ]


def completion_base(rng, lo, hi):
    """A base with at most 16 opens whose completion has lo..hi opens."""
    while True:
        up = random_poset(rng, rng.randint(4, 6), rng.uniform(0.2, 0.6))
        opens = O.opens_of(up)
        if not 10 <= len(opens) <= COMPLETION_BASE_CAP:
            continue
        filters = O.admissible_filters(opens, limit=200)
        if filters is None:
            continue
        count = O.completion_open_count(filters, limit=hi)
        if count is not None and count >= lo:
            return up, filters, count


def complete_op(rng, directory, name, lo, hi):
    up, filters, count = completion_base(rng, lo, hi)
    _write(directory, name, space_json(up))
    return {"kind": "cli", "check": "complete", "argv": ["complete", name],
            "expect": {"points": len(filters), "opens": count,
                       "filters": sorted(sorted(O.bits(u) for u in f) for f in filters)},
            "props": dict(space_props(up), completion_points=len(filters),
                          completion_opens=count)}


def refused_op(rng, directory, name):
    up = with_opens(rng, COMPLETION_BASE_CAP + 1, 40,
                    lambda r: random_poset(r, r.randint(5, 6), r.uniform(0.2, 0.5)))
    _write(directory, name, space_json(up))
    return {"kind": "cli", "check": "refused", "argv": ["complete", name],
            "expect": {"code": 1, "error": "CapExceeded"},
            "props": dict(space_props(up))}


def spaces_ops(rng, directory):
    ops = []
    for i in range(14):
        up = _medium(rng, t0=i % 3 != 2)
        name = f"info{i:02d}.json"
        _write(directory, name, space_json(up))
        ops.append({"kind": "cli", "check": "info", "argv": ["info", name],
                    "expect": info_expect(up), "props": space_props(up)})
    for i in range(8):
        up = _medium(rng, t0=i % 2 == 0)
        name = f"sober{i:02d}.json"
        _write(directory, name, space_json(up))
        ops.append({"kind": "cli", "check": "soberify", "argv": ["soberify", name],
                    "expect": {"closed_sets": [O.bits(c) for c in O.point_closures(up)],
                               "closures": [O.bits(c) for c in O.down_rows(up)]},
                    "props": space_props(up)})
    for i in range(8):
        up = _medium(rng)
        name = f"hasse{i:02d}.json"
        _write(directory, name, space_json(up))
        ops.append({"kind": "cli", "check": "hasse", "argv": ["hasse", name],
                    "expect": {"edges": [list(e) for e in O.cover_edges(up)]},
                    "props": space_props(up)})
    for i in range(8):
        up = _medium(rng, t0=i % 2 == 0)
        name = f"order{i:02d}.json"
        _write(directory, name, preorder_json(up))
        ops.append({"kind": "cli", "check": "from_preorder",
                    "argv": ["alexandrov", "--from-preorder", name],
                    "expect": {"size": len(up),
                               "opens": [O.bits(m) for m in O.opens_of(up)]},
                    "props": space_props(up)})
    for i in range(8):
        up = _medium(rng, t0=i % 2 == 1)
        name = f"space{i:02d}.json"
        _write(directory, name, space_json(up))
        ops.append({"kind": "cli", "check": "to_preorder",
                    "argv": ["alexandrov", "--to-preorder", name],
                    "expect": preorder_json(up), "props": space_props(up)})
    for i in range(9):
        ops.extend(action_ops(rng, directory, i))
    # completions: one of 500-800 opens, the rest in one band wide enough
    # to hold the 90th percentile of the pass
    ops.append(complete_op(rng, directory, "complete_large.json", 500, 800))
    for i in range(22):
        ops.append(complete_op(rng, directory, f"complete{i:02d}.json", 300, 460))
    for i in range(3):
        ops.append(refused_op(rng, directory, f"refused{i}.json"))
    rng.shuffle(ops)
    return ops


# -- cold command line --------------------------------------------------------


def cli_cold_ops(rng, directory):
    ops = []
    for i in range(7):
        up = with_opens(rng, 4, 30, lambda r: random_poset(r, r.randint(4, 6),
                                                           r.uniform(0.3, 0.6)))
        name = f"cold{i:02d}.json"
        _write(directory, name, space_json(up))
        ops.append({"kind": "cli", "check": "info", "argv": ["info", name],
                    "expect": info_expect(up), "props": space_props(up)})
        ops.append({"kind": "cli", "check": "validate", "argv": ["validate", name],
                    "expect": {"ok": True, "size": len(up),
                               "opens": len(O.opens_of(up))},
                    "props": space_props(up)})
        ops.append({"kind": "cli", "check": "hasse", "argv": ["hasse", name],
                    "expect": {"edges": [list(e) for e in O.cover_edges(up)]},
                    "props": space_props(up)})
        size = rng.randint(2, 4)
        mat = [[rng.randint(-6, 6) for _ in range(size)] for _ in range(size)]
        mname = f"matrix{i:02d}.json"
        _write(directory, mname, {"matrix": mat})
        ops.append({"kind": "cli", "check": "snf", "argv": ["ktheory", "snf", mname],
                    "expect": {"matrix": mat}, "props": {"rows": size}})
    for i in range(6):
        ops.append({"kind": "cli", "check": "census",
                    "argv": ["enumerate", "--points", "4", "--up-to-homeo"],
                    # A000798(4) = 355 labeled topologies, A001930(4) = 33 classes
                    "expect": {"count": 33, "labeled": 355}, "props": {"points": 4}})
    for i in range(6):
        ops.extend(action_ops(rng, directory, i)[:1])
    rng.shuffle(ops)
    return ops


# -- entry point --------------------------------------------------------------


WORKLOADS = {
    "census": lambda rng, d: census_ops(rng),
    "datum": datum_ops,
    "spaces": spaces_ops,
    "cli_cold": cli_cold_ops,
}


def _write(directory, name, obj):
    with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
        json.dump(obj, handle, sort_keys=True)


def build(workload, seed, directory):
    """Write the workload's input files into directory and return its ops."""
    rng = random.Random(f"{workload}:{seed}")
    _write(directory, WARMUP, {"size": 2, "opens": [[], [0], [0, 1]]})
    ops = WORKLOADS[workload](rng, directory)
    for i, op in enumerate(ops):
        op["id"] = i
    _write(directory, "ops.json", ops)
    return ops
