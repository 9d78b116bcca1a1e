"""Filter completions: turning monotone open-set maps into honest actions.

A monotone table O(X) -> O(P) that fixes the endpoints need not come from
any continuous map into X.  It always comes from a continuous map into the
larger space of admissible filters on O(X): up-closed families of nonempty
opens containing X, with the sets B_U = {filters containing U} as a subbasis.
Points of X embed as their neighbourhood filters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import ActionOverX
from .errors import (
    BadEndpoints,
    CapExceeded,
    DomainMismatch,
    NotMonotone,
    NotOpen,
    NotWellDefined,
)
from .spaces import ContinuousMap, FiniteSpace, bits, family_key, validate_topology

OPENS_CAP = 16
POINTS_CAP = 1 << 14
COMPLETION_OPENS_CAP = 8192
VALIDATE_LIMIT = 512


@dataclass(frozen=True)
class FilterPoint:
    """A subset of the open family of the base space."""

    contents: frozenset

    def sort_key(self):
        return (len(self.contents),
                tuple(sorted((family_key(m) for m in self.contents))))

    def __contains__(self, u):
        return u in self.contents


class CompletionSpace:
    """The filter points over a base space plus their finite topology.

    basis[U] is the point mask of B_U; the topology is the closure of the
    basis under intersections and unions.
    """

    __slots__ = ("base", "points", "space", "basis", "_index")

    def __init__(self, base, points, space, basis):
        self.base = base
        self.points = tuple(points)
        self.space = space
        self.basis = dict(basis)
        self._index = {p.contents: i for i, p in enumerate(self.points)}

    def index_of(self, contents):
        return self._index[frozenset(contents)]

    def __repr__(self):
        return f"CompletionSpace({len(self.points)} points over {self.base!r})"


def _close_family(seeds, cap):
    """Smallest family containing the seeds closed under pairwise | and &."""
    fam = set(seeds)
    work = list(fam)
    while work:
        a = work.pop()
        for b in list(fam):
            for c in (a | b, a & b):
                if c not in fam:
                    if len(fam) >= cap:
                        raise CapExceeded(
                            f"completion topology exceeds {cap} opens")
                    fam.add(c)
                    work.append(c)
    return fam


def _assemble(base, filters):
    """Index the filters canonically and materialize their topology."""
    points = sorted((FilterPoint(frozenset(f)) for f in filters),
                    key=FilterPoint.sort_key)
    if len(points) > POINTS_CAP:
        raise CapExceeded(f"completion exceeds {POINTS_CAP} points")
    basis = {}
    for u in base.opens:
        m = 0
        for i, p in enumerate(points):
            if u in p.contents:
                m |= 1 << i
        basis[u] = m
    fam = _close_family(basis.values(), COMPLETION_OPENS_CAP)
    fam.add(0)
    fam.add((1 << len(points)) - 1)
    if len(fam) <= VALIDATE_LIMIT:
        space = validate_topology(len(points), fam)
    else:
        space = FiniteSpace(len(points), fam, validate=False)
    return CompletionSpace(base, points, space, basis)


def build_yprime(base):
    """All admissible filters on the opens of the base, topologized.

    Admissible: up-closed under inclusion, free of the empty set, containing
    the full set.  Capped at 16 base opens.
    """
    k = len(base.opens)
    if k > OPENS_CAP:
        raise CapExceeded(f"completion capped at {OPENS_CAP} base opens", opens=k)
    nonempty = [u for u in base.opens if u != 0]
    sup = []
    for u in nonempty:
        m = 0
        for j, v in enumerate(nonempty):
            if u & ~v == 0:
                m |= 1 << j
        sup.append(m)
    top = nonempty.index(base.full) if base.size else None
    filters = []
    for pick in range(1 << len(nonempty)):
        if top is not None and not pick >> top & 1:
            continue
        if top is None and pick == 0:
            continue
        if all(sup[j] & ~pick == 0 for j in bits(pick)):
            filters.append([nonempty[j] for j in bits(pick)])
    return _assemble(base, filters)


def neighborhood_filter_embedding(base, completion=None):
    """Send each point to the filter of opens around it."""
    comp = completion if completion is not None else build_yprime(base)
    if comp.base != base:
        raise DomainMismatch("completion was built over a different space")
    assignment = []
    for x in range(base.size):
        contents = frozenset(u for u in base.opens if u >> x & 1)
        assignment.append(comp.index_of(contents))
    return ContinuousMap(base, comp.space, assignment)


def from_discontinuous(completion, prim, table):
    """Lift a monotone endpoint-fixing table to an action over the completion.

    table maps every open of the base to an open of prim; each point p of
    prim goes to the filter of opens whose table value contains p.  The
    defining identity preimage(B_U) = table[U] is verified afterwards.
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
    for u in base.opens:
        for v in base.opens:
            if u & ~v == 0 and table[u] & ~table[v]:
                raise NotMonotone(
                    f"table not monotone at {sorted(bits(u))} within {sorted(bits(v))}",
                    witness=(u, v))
    assignment = []
    for p in range(prim.size):
        contents = frozenset(u for u in base.opens if table[u] >> p & 1)
        assignment.append(completion.index_of(contents))
    psi = ContinuousMap(prim, completion.space, assignment)
    for u in base.opens:
        if psi.preimage(completion.basis[u]) != table[u]:
            raise NotWellDefined("lifted action does not reproduce the table",
                                 carrier=u)
    return ActionOverX(completion.space, prim, psi)


def to_discontinuous(completion, action):
    """Read the table back off an action over the completion."""
    if action.base != completion.space:
        raise DomainMismatch("action does not live over this completion")
    return {u: action.psi.preimage(completion.basis[u])
            for u in completion.base.opens}
