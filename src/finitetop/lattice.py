"""Maps between open-set lattices and the correspondence with continuous maps.

The lattice of a finite space is its open family ordered by inclusion, so
joins are unions and meets are intersections and distributivity comes for
free; a lattice map is a table from the opens of one space to the opens of
another.  Preservation of joins and of finite meets is decided at the
irreducible opens, in time linear in the table.  A table that keeps both,
from the opens of a sober X to the opens of P, is the preimage table of a
unique continuous map P -> X, which ``action.reconstruct`` reads off the
values at the minimal opens.
"""

from __future__ import annotations

from .action import reconstruct
from .errors import NotSober, PreservationFailure
from .spaces import bits


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
    """Yield (kind, a) at each open a, in family order, whose law the table breaks.

    Join-irreducibles are join-prime and meet-irreducibles meet-prime in a
    finite distributive lattice (Birkhoff), so both laws are decided per
    open: every open a is the union of the minimal opens U_x over x in a,
    and the intersection of the opens X - cl(x) over x not in a.  The empty
    join breaks as ("join", 0), the empty meet as ("meet", full).
    """
    source, table = m.source, m.table
    points = range(source.size)
    at_rows = [table[source.minimal_open(x)] for x in points]
    at_coclosures = [table[source.full ^ source.closure(1 << x)] for x in points]
    for a in source.opens:
        value = table[a]
        join = 0
        for x in bits(a):
            join |= at_rows[x]
        if value != join:
            yield ("join", a)
        meet = m.target.full
        for x in bits(source.full ^ a):
            meet &= at_coclosures[x]
        if value != meet:
            yield ("meet", a)


def preserves_joins(m):
    """The table respects unions of every subset, the empty one included."""
    return not any(kind == "join" for kind, _ in _preservation_failures(m))


def preserves_finite_meets(m):
    """The table respects finite intersections, the empty one (top to top) included."""
    return not any(kind == "meet" for kind, _ in _preservation_failures(m))


def continuous_to_lattice_map(psi):
    """The preimage table of a continuous map, from codomain opens to domain opens."""
    return LatticeMap(psi.codomain, psi.domain,
                      {u: psi.preimage(u) for u in psi.codomain.opens})


def lattice_map_to_continuous(m):
    """Rebuild the point map P -> X from its preimage table; X must be sober.

    X is the source of the table and P its target.  A table that keeps joins
    and meets passes every check of ``reconstruct`` on its values at U_x.
    """
    space_x, space_p = m.source, m.target
    if not space_x.is_sober():
        raise NotSober("reconstruction needs a sober space of points")
    witness = next(_preservation_failures(m), None)
    if witness is not None:
        raise PreservationFailure(
            f"table fails {witness[0]} preservation", witness=witness)
    values = {x: m.table[space_x.minimal_open(x)] for x in range(space_x.size)}
    return reconstruct(space_x, values, space_p).psi
