"""Maps between open-set lattices and the correspondence with continuous maps.

The lattice of a finite space is its open family ordered by inclusion, so
joins are unions and meets are intersections and distributivity comes for
free; a lattice map is a table from the opens of one space to the opens of
another.  The main content is the reconstruction of a continuous map from
an inclusion-of-ideals style table: a map of lattices that respects joins
and finite meets comes from a unique continuous map when the target space
of points is sober.
"""

from __future__ import annotations

from .errors import NotSober, PreservationFailure
from .spaces import ContinuousMap


class LatticeMap:
    """A total table from the opens of the source space to opens of the target."""

    __slots__ = ("source", "target", "table")

    def __init__(self, source, target, table):
        self.source = source
        self.target = target
        self.table = dict(table)
        missing = [a for a in source.opens if a not in self.table]
        if missing:
            raise ValueError(f"table not total, missing {missing[:3]}")
        for a, v in self.table.items():
            if not source.is_open(a):
                raise ValueError(f"table key {a:#x} not a source element")
            if not target.is_open(v):
                raise ValueError(f"table value {v:#x} not a target element")

    def __eq__(self, other):
        return (isinstance(other, LatticeMap) and self.source == other.source
                and self.target == other.target and self.table == other.table)

    def __repr__(self):
        return f"LatticeMap({len(self.source.opens)} -> {len(self.target.opens)})"

    def __call__(self, a):
        return self.table[a]


def _preservation_failures(m):
    """Yield (kind, a, b) for each join or meet the table breaks.

    The order is fixed: the empty join (bottom to bottom), the empty meet
    (top to top), then "join" and "meet" for each pair a <= b in element
    order.  Pairs suffice on a finite lattice, because any union or
    intersection is a fold of pairwise ones.
    """
    table = m.table
    if table[0] != 0:
        yield ("empty join", 0, 0)
    top = m.source.full
    if table[top] != m.target.full:
        yield ("empty meet", top, top)
    elems = m.source.opens
    for i, a in enumerate(elems):
        for b in elems[i:]:
            if table[a | b] != (table[a] | table[b]):
                yield ("join", a, b)
            if table[a & b] != (table[a] & table[b]):
                yield ("meet", a, b)


def preserves_joins(m):
    """The table respects unions of every subset, the empty one included."""
    return not any(kind.endswith("join") for kind, _, _ in _preservation_failures(m))


def preserves_finite_meets(m):
    """The table respects pairwise meets and the empty meet (top to top)."""
    return not any(kind.endswith("meet") for kind, _, _ in _preservation_failures(m))


def continuous_to_lattice_map(psi):
    """The preimage table of a continuous map, from codomain opens to domain opens."""
    return LatticeMap(psi.codomain, psi.domain,
                      {u: psi.preimage(u) for u in psi.codomain.opens})


def lattice_map_to_continuous(m):
    """Rebuild the point map P -> X from its preimage table; X must be sober.

    X is the source of the table and P its target.  For each point p the
    union of all opens whose image misses p has an irreducible closed
    complement, and p goes to its unique generic point.  Once joins and
    meets are preserved, the opens whose image holds p form a prime filter,
    so the complement is irreducible and the map reproduces the table.
    """
    space_x, space_p = m.source, m.target
    if not space_x.is_sober():
        raise NotSober("reconstruction needs a sober space of points")
    witness = next(_preservation_failures(m), None)
    if witness is not None:
        raise PreservationFailure(
            f"table fails {witness[0]} preservation", witness=witness)
    # on a sober space the irreducible closed sets are the point closures
    generic = {space_x.closure(1 << x): x for x in range(space_x.size)}
    assignment = []
    for p in range(space_p.size):
        u_p = 0
        for u in space_x.opens:
            if not m.table[u] >> p & 1:
                u_p |= u
        assignment.append(generic[space_x.full ^ u_p])
    return ContinuousMap(space_p, space_x, assignment, validate=False)
