"""Open-set lattices and the correspondence between lattice maps and points.

Every lattice here is concretely the open-set family of some finite space,
ordered by inclusion, so joins are unions and meets are intersections and
distributivity comes for free.  The main content is the reconstruction of a
continuous map from an inclusion-of-ideals style table: a map of lattices
that respects joins and finite meets comes from a unique continuous map
when the target space of points is sober.
"""

from __future__ import annotations

from .errors import (
    DomainMismatch,
    NotSober,
    PreservationFailure,
    ReducibleClosedSet,
)
from .spaces import ContinuousMap, family_key


class FiniteDistributiveLattice:
    """A family of set masks closed under union and intersection.

    Contains bottom (empty mask) and a top; order is inclusion.  Elements
    are kept sorted by (size, value) like a space's open family.
    """

    __slots__ = ("elements", "top", "_element_set")

    def __init__(self, elements, validate=True):
        self.elements = tuple(sorted(set(elements), key=family_key))
        self._element_set = frozenset(self.elements)
        top = 0
        for m in self.elements:
            top |= m
        self.top = top
        if validate:
            if 0 not in self._element_set:
                raise ValueError("lattice needs a bottom element")
            if top not in self._element_set:
                raise ValueError("lattice needs a top element")
            for i, a in enumerate(self.elements):
                for b in self.elements[i + 1:]:
                    if a | b not in self._element_set:
                        raise ValueError(f"join of {a:#x} and {b:#x} missing")
                    if a & b not in self._element_set:
                        raise ValueError(f"meet of {a:#x} and {b:#x} missing")

    def __eq__(self, other):
        return (isinstance(other, FiniteDistributiveLattice)
                and self.elements == other.elements)

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"FiniteDistributiveLattice({len(self.elements)} elements)"

    def __contains__(self, m):
        return m in self._element_set

    def __len__(self):
        return len(self.elements)


def open_set_lattice(space):
    return FiniteDistributiveLattice(space.opens, validate=False)


class LatticeMap:
    """A total table from source lattice elements to target elements."""

    __slots__ = ("source", "target", "table")

    def __init__(self, source, target, table):
        self.source = source
        self.target = target
        self.table = dict(table)
        missing = [a for a in source.elements if a not in self.table]
        if missing:
            raise ValueError(f"table not total, missing {missing[:3]}")
        for a, v in self.table.items():
            if a not in source:
                raise ValueError(f"table key {a:#x} not a source element")
            if v not in target:
                raise ValueError(f"table value {v:#x} not a target element")

    def __eq__(self, other):
        return (isinstance(other, LatticeMap) and self.source == other.source
                and self.target == other.target and self.table == other.table)

    def __repr__(self):
        return f"LatticeMap({len(self.source)} -> {len(self.target)})"

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
    top = m.source.top
    if table[top] != m.target.top:
        yield ("empty meet", top, top)
    elems = m.source.elements
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


def is_monotone(m):
    elems = m.source.elements
    return all(m.table[a] & ~m.table[b] == 0
               for a in elems for b in elems if a & ~b == 0)


def continuous_to_lattice_map(psi):
    """The preimage table of a continuous map, from codomain opens to domain opens."""
    source = open_set_lattice(psi.codomain)
    target = open_set_lattice(psi.domain)
    return LatticeMap(source, target, {u: psi.preimage(u) for u in source.elements})


def lattice_map_to_continuous(m, space_x, space_p):
    """Rebuild the point map from its preimage table; space_x must be sober.

    For each point p the union of all opens whose image misses p has an
    irreducible closed complement, and p goes to its unique generic point.
    """
    if m.source.elements != space_x.opens or m.target.elements != space_p.opens:
        raise DomainMismatch("table does not match the given open families")
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
        a_p = space_x.full ^ u_p
        if a_p not in generic:
            raise ReducibleClosedSet(
                f"complement for point {p} is not irreducible", point=p, carrier=a_p)
        assignment.append(generic[a_p])
    psi = ContinuousMap(space_p, space_x, assignment, validate=False)
    for u in space_x.opens:
        if psi.preimage(u) != m.table[u]:
            raise PreservationFailure(
                "reconstructed map does not reproduce the table", witness=("table", u, u))
    return psi
