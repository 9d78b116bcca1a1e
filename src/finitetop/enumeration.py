"""Exhaustive generation and classification of small finite spaces.

A finite space is its specialisation preorder, and a preorder is its T0
quotient, a poset, with the size of each class of points with equal
minimal opens.  Classification up to homeomorphism is therefore an
isomorphism test of posets whose points carry class sizes; it goes through
one canonical byte encoding: the cover edges of the quotient minimised
over the relabelings that keep point invariants in order.  Points with
equal upper and lower covers (twins) are interchangeable, so the search
tries each twin class in one order only, and the relabelings that reach
the minimum count the automorphisms.

The census grows classes, not labelings: every poset on k + 1 points is a
poset on k points with a new maximal point above one of its down-sets, and
one representative per canonical form is kept.  Each level is grown once
per process, with the form and |Aut| of every class, and every census
call reads it.  A space on n points is a poset on k <= n points with a
composition s of n into k class sizes, and its class holds
n! / (prod s_i! * |Aut_s|) labeled spaces, Aut_s being the automorphisms
that keep the sizes.  Labeled spaces are generated one preorder at a time,
by row-by-row extension of relation matrices, for the labeled listings alone.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cache
from math import factorial, prod

from .errors import CapExceeded
from .spaces import (
    FiniteSpace,
    _closure,
    _components,
    _covers,
    _down,
    _up_sets,
    alexandrov_topology,
    bits,
    mask_of,
    space_from_edges,
)

TOPOLOGY_CAP = 5
T0_CAP = 6
CENSUS_CAP = 7
# one step per point and per cover edge of each order tried; no space on
# 8 points needs more than 8! * (8 + 16) = 967,680
RELABELING_CAP = 1 << 20


def _require_nonnegative(n):
    if n < 0:
        raise ValueError(f"point count must be nonnegative, got {n}")


# -- generation by relation-matrix extension --------------------------------

def _extend_relations(n, t0, rows, downs):
    """Yield completed up-set row tuples for all (pre)orders extending a prefix.

    rows[j] is the up-set of j inside the prefix, downs[j] the down-set.  A
    new point i picks an up-closed set u (everything above i) and a
    down-closed set d (everything below); transitivity through i forces
    u within rows[j] for every j in d, and partial orders forbid u meeting d.
    The down-sets are the up-sets of the opposite preorder, whose rows are
    downs; both are tried in numeric order.
    """
    i = len(rows)
    if i == n:
        yield tuple(rows)
        return
    bit = 1 << i
    downsets = sorted(_up_sets(downs))
    for u in sorted(_up_sets(rows)):
        allowed = 0
        for j in range(i):
            if u & ~rows[j] == 0:
                allowed |= 1 << j
        if t0:
            allowed &= ~u
        # j below the new point gains it in its up-set; j above in its down-set
        downs_u = [downs[j] | bit if u >> j & 1 else downs[j] for j in range(i)]
        for d in downsets:
            if d & ~allowed:
                continue
            rows2 = [rows[j] | bit if d >> j & 1 else rows[j] for j in range(i)]
            rows2.append(u | bit)
            downs2 = downs_u + [d | bit]
            yield from _extend_relations(n, t0, rows2, downs2)


def _labeled_spaces(n, t0=False):
    """Spaces on points 0..n-1, one per labeled preorder (partial order if t0)."""
    _require_nonnegative(n)
    return (FiniteSpace._from_rows(n, rows)
            for rows in _extend_relations(n, t0, [], []))


def enumerate_labeled_topologies(n):
    """Every topology on n labeled points once, in generation order; n <= 5."""
    if n > TOPOLOGY_CAP:
        raise CapExceeded(f"topology enumeration capped at {TOPOLOGY_CAP} points",
                          n=n, cap=TOPOLOGY_CAP)
    return tuple(_labeled_spaces(n))


def enumerate_labeled_t0(n):
    """Every T0 topology on n labeled points, one per labeled partial order; n <= 6."""
    if n > T0_CAP:
        raise CapExceeded(f"T0 enumeration capped at {T0_CAP} points",
                          n=n, cap=T0_CAP)
    return tuple(_labeled_spaces(n, t0=True))


# -- classification up to homeomorphism --------------------------------------

def _twin_orders(classes):
    """Yield every order of the points of classes that lists each class ascending."""
    if not any(classes):
        yield ()
        return
    for c, members in enumerate(classes):
        if members:
            rest = [*classes[:c], members[1:], *classes[c + 1:]]
            for tail in _twin_orders(rest):
                yield (members[0], *tail)


def _canonical(rows, sizes):
    """(canonical form, |Aut_s|) of a poset, as up-set rows, with class sizes.

    Points are ordered by their invariants (up-set, down-set, lower and
    upper cover counts, class size) and the cover matrix is minimised over
    the orders inside each group of equal invariants.  Two points of one
    group with equal upper and lower covers are twins: swapping them is an
    automorphism, so only orders listing each twin class ascending are
    tried.  Two orders reach the minimum iff they differ by an automorphism,
    so the orders that reach it, times the orders of each twin class, count
    the automorphisms.  Each order costs a step per point and per cover
    edge; the steps are counted before the search, which refuses past
    RELABELING_CAP of them.
    """
    n = len(rows)
    upper, down = _covers(rows)
    below = [[] for _ in rows]
    for x, up in enumerate(upper):
        for a in bits(up):
            below[a].append(x)
    keys = [(rows[x].bit_count(), down[x], len(below[x]), upper[x].bit_count(),
             sizes[x]) for x in range(n)]
    order = sorted(range(n), key=keys.__getitem__)
    choices, orders, twins = [], 1, 1
    for _, group in itertools.groupby(order, key=keys.__getitem__):
        group = tuple(group)
        # a lone point has one order; building its twin key anyway made
        # random queries about 40% slower
        if len(group) == 1:
            choices.append((group,))
            continue
        classes = {}
        for x in group:
            classes.setdefault((upper[x], *below[x]), []).append(x)
        classes = list(classes.values())
        swaps = prod(factorial(len(c)) for c in classes)
        orders *= factorial(len(group)) // swaps
        twins *= swaps
        choices.append(_twin_orders(classes))
    steps = orders * (n + sum(map(len, below)))
    if steps > RELABELING_CAP:
        raise CapExceeded(
            f"canonical form capped at {RELABELING_CAP} relabeling steps",
            orders=orders, steps=steps, cap=RELABELING_CAP)
    best, hits = None, 0
    for combo in itertools.product(*choices):
        placed = [x for part in combo for x in part]
        bit = [0] * n
        for pos, x in enumerate(placed):
            bit[x] = 1 << pos
        cand = [sum([bit[y] for y in below[x]]) for x in placed]
        if best is None or cand < best:
            best, hits = cand, 1
        elif cand == best:
            hits += 1
    width = (n + 7) // 8
    form = bytes([n, *(v for x in order for v in keys[x])])
    return form + b"".join(r.to_bytes(width, "big") for r in best), hits * twins


def canonical_form(space):
    """Byte encoding equal for two spaces iff they are homeomorphic.

    A finite space is its T0 quotient with the size of each class of equal
    rows.  The encoding is the quotient size, the sorted point invariants
    (up-set, down-set, out-degree, in-degree, class size), then the least
    cover-edge adjacency matrix over relabelings that keep them in order,
    each row (n + 7) // 8 bytes, big-endian.  Past RELABELING_CAP steps,
    a step per point and per cover edge of each relabeling to try, it
    raises CapExceeded.
    """
    rows, sizes = space.rows, [1] * space.size
    if not space.is_t0():
        # the subspace on the first point of each class is the quotient
        distinct = dict.fromkeys(rows)
        sizes = [rows.count(r) for r in distinct]
        rows = space.subspace(mask_of(rows.index(r) for r in distinct))[0].rows
    return _canonical(rows, sizes)[0]


def space_from_canonical(form):
    """The quotient with each point expanded into consecutive points of one class."""
    n = form[0]
    width = (n + 7) // 8
    sizes, matrix = form[5:1 + 5 * n:5], form[1 + 5 * n:]
    adj = [int.from_bytes(matrix[i * width:(i + 1) * width], "big")
           for i in range(n)]
    cls = [i for i, size in enumerate(sizes) for _ in range(size)]
    pairs = [(x, y) for x, i in enumerate(cls) for y, j in enumerate(cls)
             if i == j or adj[j] >> i & 1]
    return alexandrov_topology(_closure(len(cls), pairs))


def are_homeomorphic(x1, x2):
    return x1.size == x2.size and canonical_form(x1) == canonical_form(x2)


# -- census ------------------------------------------------------------------

class CensusRow(namedtuple("CensusRow", "n connected t0 labeled_count classes")):
    """Counts for one enumeration slice: labeled spaces and their classes."""

    __slots__ = ()

    def class_count(self):
        return len(self.classes)


@cache
def _poset_level(k):
    """(form, rows, |Aut|) of one poset per class on k points, as first grown.

    Each poset on k points is a poset on k - 1 points with a new maximal
    point above one of its down-sets (the up-sets of the opposite order);
    the first poset grown of each form represents its class.  The level is
    cached, so a process grows it once; k never exceeds CENSUS_CAP.
    """
    if k == 0:
        form, aut = _canonical((), ())
        return ((form, (), aut),)
    bit = 1 << k - 1
    grown = {}
    for _, rows, _ in _poset_level(k - 1):
        downs = [_down(rows, 1 << x) for x in range(k - 1)]
        for d in _up_sets(downs):
            new = tuple(r | bit if d >> y & 1 else r
                        for y, r in enumerate(rows)) + (bit,)
            form, aut = _canonical(new, (1,) * k)
            grown.setdefault(form, (form, new, aut))
    return tuple(grown.values())


@cache
def _connected_level(k):
    """The classes of _poset_level(k) that are connected, decided once."""
    return tuple(c for c in _poset_level(k) if len(_components(c[1])) == 1)


def _compositions(n, k):
    """Every way to write n as an ordered sum of k positive parts."""
    if k == 0:
        if n == 0:
            yield ()
        return
    for cuts in itertools.combinations(range(1, n), k - 1):
        ends = (0, *cuts, n)
        yield tuple(b - a for a, b in zip(ends, ends[1:]))


def census(n, connected=False, t0=False):
    """Count labeled spaces passing the filters and list their classes.

    The classes come from the posets on at most n points, with a
    composition of n into class sizes when t0 is off; each class adds
    n! / (prod s_i! * |Aut_s|) labeled spaces.  The posets come from the
    levels every call shares; on n points the one composition is all
    ones, whose form and |Aut| the level holds, so a T0 slice canonizes
    nothing once its level is grown.  A connected slice reads the
    connected classes of each level, also kept once per process.
    """
    _require_nonnegative(n)
    if n > CENSUS_CAP:
        raise CapExceeded(f"census capped at {CENSUS_CAP} points", n=n,
                          cap=CENSUS_CAP)
    count, forms = 0, set()
    level = _connected_level if connected else _poset_level
    for k in ([n] if t0 else range(n + 1)):
        for form, rows, aut in level(k):
            for sizes in _compositions(n, k):
                if k < n:
                    form, aut = _canonical(rows, sizes)
                if form not in forms:
                    forms.add(form)
                    count += factorial(n) // (prod(map(factorial, sizes)) * aut)
    return CensusRow(n, connected, t0, count, tuple(sorted(forms)))


# -- the printed catalog of small connected T0 spaces -------------------------

_CATALOG_EDGES = (
    (3, ((0, 1), (1, 2))),
    (3, ((0, 1), (0, 2))),
    (3, ((0, 1), (2, 1))),
    (4, ((0, 1), (1, 2), (2, 3))),
    (4, ((0, 1), (1, 2), (1, 3))),
    (4, ((0, 1), (0, 3), (1, 2))),
    (4, ((0, 1), (0, 2), (1, 3), (2, 3))),
    (4, ((0, 1), (0, 3), (2, 1), (2, 3))),
    (4, ((0, 2), (1, 2), (1, 3))),
    (4, ((0, 1), (1, 2), (3, 1))),
    (4, ((1, 0), (1, 2), (1, 3))),
    (4, ((0, 2), (1, 2), (3, 2))),
)


def connected_catalog():
    """The published list of connected T0 spaces on 3 and 4 points.

    Twelve spaces, each given by drawn cover edges.  Deliberately kept as
    transcribed: the census may know classes this list lacks, and the
    comparison is reported rather than patched over.
    """
    return tuple(space_from_edges(n, edges) for n, edges in _CATALOG_EDGES)
