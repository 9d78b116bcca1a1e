"""Filter completions: turning monotone open-set maps into honest actions.

A monotone table O(X) -> O(P) that fixes the endpoints need not come from
any continuous map into X.  It always comes from a continuous map into the
larger space of admissible filters on O(X): up-closed families of nonempty
opens, each of which contains X.  Points of X embed as their neighbourhood
filters.

The filters are the nonempty up-sets of the nonempty opens ordered by
inclusion, and the sets B_U = {filters containing U} are a subbasis of
their topology.  On a finite set the opens a subbasis generates are the
unions of finite intersections of its members, so the minimal open around
a filter F is the intersection of B_U over U in F, which is {G : G contains F}.
A finite topology is the Alexandrov topology of its minimal opens, so the
completion is the space whose rows are filter inclusion, and the filters
themselves are the up-sets of the inclusion order on the nonempty opens.
"""

from __future__ import annotations

from .action import ActionOverX
from .errors import (
    BadEndpoints,
    CapExceeded,
    DomainMismatch,
    NotMonotone,
    NotOpen,
)
from .spaces import (MAX_POINTS, ContinuousMap, FiniteSpace, _up_sets, bits,
                     family_key, mask_of)

OPENS_CAP = 16


class CompletionSpace:
    """The filter points over a base space plus their finite topology.

    Each point is a frozenset of base opens; basis[U] is the point mask of
    B_U, and the topology is the one these masks generate.
    """

    __slots__ = ("base", "points", "space", "basis", "_index")

    def __init__(self, base, points, space, basis):
        self.base = base
        self.points = tuple(points)
        self.space = space
        self.basis = dict(basis)
        self._index = {p: i for i, p in enumerate(self.points)}

    def index_of(self, contents):
        return self._index[frozenset(contents)]

    def __repr__(self):
        return f"CompletionSpace({len(self.points)} points over {self.base!r})"


def _filter_key(contents):
    return len(contents), sorted(map(family_key, contents))


def _assemble(base, filters):
    """Index the filters canonically and give them their topology.

    The minimal open around a filter is every filter containing it: the
    intersection of its B_U, or all points for an empty family.  These
    rows {G : G contains F} are reflexive and transitive by construction.
    """
    points = sorted(map(frozenset, filters), key=_filter_key)
    basis = {u: mask_of(i for i, p in enumerate(points) if u in p)
             for u in base.opens}
    rows = []
    for p in points:
        row = (1 << len(points)) - 1
        for u in p:
            row &= basis[u]
        rows.append(row)
    space = FiniteSpace._from_rows(len(points), rows)
    return CompletionSpace(base, points, space, basis)


def build_yprime(base):
    """All admissible filters on the opens of the base, topologized.

    Admissible: up-closed under inclusion, free of the empty set, containing
    the full set.  These are the nonempty up-sets of the nonempty opens, so
    an empty base has none.  Capped at 16 base opens and, since each filter
    is a point of the completion, at MAX_POINTS filters.
    """
    k = base.open_count()
    if k > OPENS_CAP:
        raise CapExceeded(f"completion capped at {OPENS_CAP} base opens",
                          opens=k, cap=OPENS_CAP)
    nonempty = [u for u in base.opens if u]
    inclusion = [mask_of(j for j, v in enumerate(nonempty) if u & ~v == 0)
                 for u in nonempty]
    ups = _up_sets(inclusion)
    # the empty up-set is no filter; each filter becomes a point
    if len(ups) - 1 > MAX_POINTS:
        raise CapExceeded(f"completion capped at {MAX_POINTS} filters",
                          filters=len(ups) - 1, cap=MAX_POINTS)
    return _assemble(base, [[nonempty[j] for j in bits(m)] for m in ups if m])


def neighborhood_filter_embedding(completion):
    """Send each base point to its filter of opens: the lifted identity table."""
    base = completion.base
    return from_discontinuous(completion, base, {u: u for u in base.opens}).psi


def from_discontinuous(completion, prim, table):
    """Lift a monotone endpoint-fixing table to an action over the completion.

    table maps every open of the base to an open of prim; each point p of
    prim goes to the filter of opens whose table value contains p.  So p
    lies in preimage(B_U) exactly when U is in that filter, that is when p
    lies in table[U]: the lift reproduces the table by construction.
    """
    base = completion.base
    missing = [u for u in base.opens if u not in table]
    if missing:
        raise ValueError(f"table is missing opens {missing[:3]}")
    if table[0] != 0 or table[base.full] != prim.full:
        raise BadEndpoints(
            "table must send the empty set to the empty set and the full to the full")
    for u in base.opens:
        if not prim.is_open(table[u]):
            raise NotOpen(f"table value at {sorted(bits(u))} is not open in prim")
    # every larger open is reached from u by adding one row at a time
    for u in base.opens:
        for x in bits(base.full & ~u):
            v = u | base.rows[x]
            if table[u] & ~table[v]:
                raise NotMonotone(
                    f"table not monotone at {sorted(bits(u))} within {sorted(bits(v))}",
                    witness=(u, v))
    assignment = []
    for p in range(prim.size):
        contents = frozenset(u for u in base.opens if table[u] >> p & 1)
        assignment.append(completion.index_of(contents))
    psi = ContinuousMap(prim, completion.space, assignment)
    return ActionOverX(completion.space, prim, psi)


def to_discontinuous(completion, action):
    """Read the table back off an action over the completion."""
    if action.base != completion.space:
        raise DomainMismatch("action does not live over this completion")
    return {u: action.psi.preimage(completion.basis[u])
            for u in completion.base.opens}
