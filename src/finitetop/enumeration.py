"""Exhaustive generation and classification of small finite spaces.

Spaces are generated one labeled preorder at a time, by row-by-row
extension of relation matrices, and each preorder's rows are the minimal
opens of its Alexandrov topology.  A finite space is determined by its T0
quotient and the size of each class of points with equal minimal opens,
so classification up to homeomorphism goes through one canonical byte
encoding of the quotient: cover edges minimised over relabelings, with
point invariants and class sizes keeping the permutation set small.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import CapExceeded
from .spaces import (
    FiniteSpace,
    Preorder,
    _up_sets,
    alexandrov_topology,
    bits,
    mask_of,
    space_from_edges,
)

TOPOLOGY_CAP = 5
T0_CAP = 6
CENSUS_CAP = 6
CANONICAL_CAP = 8


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
    if n < 0:
        raise ValueError(f"point count must be nonnegative, got {n}")
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

def canonical_form(space):
    """Byte encoding equal for two spaces iff they are homeomorphic.

    A finite space is its T0 quotient with the size of each class of equal
    rows.  The encoding is the quotient size, the sorted point invariants
    (up-set, down-set, out-degree, in-degree, class size), then the least
    cover-edge adjacency matrix over relabelings that keep them in order.
    """
    if space.size > CANONICAL_CAP:
        raise CapExceeded(f"canonical form capped at {CANONICAL_CAP} points",
                          n=space.size, cap=CANONICAL_CAP)
    quotient, sizes = space, [1] * space.size
    if not space.is_t0():
        # the subspace on the first point of each class is the quotient
        distinct = dict.fromkeys(space.rows)
        quotient = space.subspace(mask_of(space.rows.index(r) for r in distinct))[0]
        sizes = [space.rows.count(r) for r in distinct]
    n, rows = quotient.size, quotient.rows
    adj, indeg, down = [0] * n, [0] * n, [0] * n
    for a, b in quotient.hasse_edges():
        adj[a] |= 1 << b
        indeg[b] += 1
    for row in rows:
        for x in bits(row):
            down[x] += 1
    keys = [(rows[x].bit_count(), down[x], adj[x].bit_count(), indeg[x], sizes[x])
            for x in range(n)]
    order = sorted(range(n), key=lambda x: keys[x])
    groups = [list(g) for _, g in itertools.groupby(order, key=lambda x: keys[x])]
    sig = b"".join(bytes(keys[x]) for x in order)
    best = b"\xff" * n  # no encoding is larger: a row of at most 8 points fits a byte
    for combo in itertools.product(*(itertools.permutations(g) for g in groups)):
        perm = [0] * n
        for pos, x in enumerate(itertools.chain.from_iterable(combo)):
            perm[x] = pos
        new_rows = [0] * n
        for x in range(n):
            r = 0
            for y in bits(adj[x]):
                r |= 1 << perm[y]
            new_rows[perm[x]] = r
        best = min(best, bytes(new_rows))
    return bytes([n]) + sig + best


def space_from_canonical(form):
    """The quotient with each point expanded into consecutive points of one class."""
    n = form[0]
    sizes, adj = form[5:1 + 5 * n:5], form[1 + 5 * n:]
    cls = [i for i, size in enumerate(sizes) for _ in range(size)]
    pairs = [(x, y) for x, i in enumerate(cls) for y, j in enumerate(cls)
             if i == j or adj[j] >> i & 1]
    return alexandrov_topology(Preorder.generated_by(len(cls), pairs))


def are_homeomorphic(x1, x2):
    return x1.size == x2.size and canonical_form(x1) == canonical_form(x2)


# -- census ------------------------------------------------------------------

class CensusRow(namedtuple("CensusRow", "n connected t0 labeled_count classes")):
    """Counts for one enumeration slice: labeled spaces and their classes."""

    __slots__ = ()

    def class_count(self):
        return len(self.classes)


def census(n, connected=False, t0=False):
    """Count labeled spaces passing the filters and list their classes."""
    if n > CENSUS_CAP:
        raise CapExceeded(f"census capped at {CENSUS_CAP} points", n=n,
                          cap=CENSUS_CAP)
    count = 0
    forms = set()
    for space in _labeled_spaces(n, t0=t0):
        if connected and not space.is_connected():
            continue
        count += 1
        forms.add(canonical_form(space))
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
