"""Actions of a space on a lattice of ideals, modeled by a map of spaces.

An action is a pair (P, psi) with psi: P -> X continuous; the ideal attached
to an open U is its preimage.  Everything an algebra over X does in the
finite calculus - subquotients over locally closed sets, pushforward,
restriction, the composite P_Y, reconstruction from the minimal-open ideals,
and the canonical filtration - is expressed through preimages here.
"""

from __future__ import annotations

from .errors import (
    CompatibilityFailure,
    CoverFailure,
    DomainMismatch,
    NotOpen,
    NotSober,
    NotWellDefined,
)
from .lattice import LatticeMap, lattice_map_to_continuous
from .spaces import ContinuousMap, LocallyClosedSet, bits, mask_of


class ActionOverX:
    """A space of primitive points fibred over a base by a continuous map."""

    __slots__ = ("base", "prim", "psi")

    def __init__(self, base, prim, psi):
        if psi.domain != prim or psi.codomain != base:
            raise DomainMismatch("psi must map the primitive space to the base")
        self.base = base
        self.prim = prim
        self.psi = psi

    def __eq__(self, other):
        return (isinstance(other, ActionOverX) and self.base == other.base
                and self.prim == other.prim and self.psi == other.psi)

    def __hash__(self):
        return hash((self.base, self.prim, self.psi))

    def __repr__(self):
        return f"ActionOverX(base={self.base!r}, psi={self.psi.assignment})"


def _as_locally_closed(space, c):
    if isinstance(c, LocallyClosedSet):
        return c
    return space.locally_closed(c)


def ideal(action, u):
    """The open subset of the primitive space over an open of the base."""
    if not action.base.is_open(u):
        raise NotOpen(f"{sorted(bits(u))} is not open in the base", carrier=u)
    return action.psi.preimage(u)


def subquotient_support(action, c):
    """Support over a locally closed set, checked against every witness.

    Each witness pair (U, V) must give the same preimage difference, and
    any two witnesses (U1,V1), (U2,V2) must satisfy the exchange identity
    preim(U2) | preim(V1) == preim(U1) | preim(V2).  The support is returned
    as a locally closed set of the primitive space.
    """
    c = _as_locally_closed(action.base, c)
    witnesses = action.base.locally_closed_witnesses(c.carrier)
    pre = [(action.psi.preimage(u), action.psi.preimage(v)) for u, v in witnesses]
    carriers = {pu & ~pv for pu, pv in pre}
    if len(carriers) != 1:
        raise NotWellDefined(
            "support depends on the chosen witness", carrier=c.carrier)
    for i, (pu1, pv1) in enumerate(pre):
        for pu2, pv2 in pre[i + 1:]:
            if pu2 | pv1 != pu1 | pv2:
                raise NotWellDefined(
                    "witness exchange identity fails", carrier=c.carrier)
    return action.prim.locally_closed(carriers.pop())


def pushforward(f, action):
    """Transport an action along a continuous map of bases.

    The support over any locally closed C downstairs must equal the support
    over its preimage upstairs; this is checked for every C.
    """
    if f.domain != action.base:
        raise DomainMismatch("map must start at the base of the action")
    moved = ActionOverX(f.codomain, action.prim, action.psi.then(f))
    for c in f.codomain.locally_closed_sets():
        upstairs = action.base.locally_closed(f.preimage(c.carrier))
        if (subquotient_support(moved, c).carrier
                != action.psi.preimage(upstairs.carrier)):
            raise NotWellDefined(
                "pushforward support mismatch", carrier=c.carrier)
    return moved


def restrict(action, y):
    """Restrict to a locally closed piece of the base.

    The primitive space becomes the subspace over y, reindexed densely in
    the order of the original point indices; supports over locally closed
    subsets of y are unchanged, which is checked.
    """
    y = _as_locally_closed(action.base, y)
    base_sub, base_pts = action.base.subspace(y.carrier)
    base_pos = {p: i for i, p in enumerate(base_pts)}
    over = action.psi.preimage(y.carrier)
    prim_sub, prim_pts = action.prim.subspace(over)
    assignment = [base_pos[action.psi(p)] for p in prim_pts]
    small = ActionOverX(base_sub, prim_sub,
                        ContinuousMap(prim_sub, base_sub, assignment, validate=False))
    for c in base_sub.locally_closed_sets():
        big_carrier = mask_of(base_pts[i] for i in bits(c.carrier))
        got = subquotient_support(small, c).carrier
        lifted = mask_of(prim_pts[i] for i in bits(got))
        if lifted != action.psi.preimage(big_carrier):
            raise NotWellDefined("restriction support mismatch", carrier=c.carrier)
    return small


def is_tight(action):
    """Tight means the structure map is a homeomorphism."""
    return action.psi.is_homeomorphism()


def fiber_support(action, x):
    return action.psi.preimage(1 << x)


def p_functor(action, y):
    """Restrict to y, then push back in along the inclusion.

    The result lives over the original base again; its support over any
    locally closed Z is the original support over the intersection with y,
    checked pointwise over all of LC(X).
    """
    y = _as_locally_closed(action.base, y)
    small = restrict(action, y)
    _, incl = action.base.inclusion(y.carrier)
    result = pushforward(incl, small)
    pts = tuple(bits(action.psi.preimage(y.carrier)))
    for z in action.base.locally_closed_sets():
        meet = y.carrier & z.carrier
        got = subquotient_support(result, z).carrier
        lifted = mask_of(pts[i] for i in bits(got))
        if lifted != action.psi.preimage(meet):
            raise NotWellDefined("composite support mismatch", carrier=z.carrier)
    return result


class IdealAssignment:
    """Candidate minimal-open ideals: one subset of P per point of the base."""

    __slots__ = ("base", "values")

    def __init__(self, base, values):
        self.base = base
        self.values = dict(values)
        missing = [x for x in range(base.size) if x not in self.values]
        if missing:
            raise ValueError(f"no ideal assigned to points {missing[:3]}")

    def __eq__(self, other):
        return (isinstance(other, IdealAssignment)
                and self.base == other.base and self.values == other.values)


def minimal_ideals(action):
    """The assignment x -> ideal over the minimal open of x."""
    values = {x: action.psi.preimage(action.base.minimal_open(x))
              for x in range(action.base.size)}
    return IdealAssignment(action.base, values)


def reconstruct(assign, prim):
    """Rebuild the action whose minimal-open ideals are the given values.

    Checks, in order: the base is sober, every value is open, the values
    cover P, and the pairwise compatibility a_x & a_y = union of a_z over z
    in U_x & U_y.  Compatibility makes U -> union of a_x over x in U respect
    finite meets: it gives table[U] & table[V] within table[U & V], and its
    x = y case the reverse inclusion.  The lattice map is then converted
    back into a continuous map.
    """
    space = assign.base
    if not space.is_sober():
        raise NotSober("reconstruction needs a sober base")
    values = assign.values
    for x in range(space.size):
        if not prim.is_open(values[x]):
            raise NotOpen(f"value at point {x} is not open in P", point=x)
    cover = 0
    for x in range(space.size):
        cover |= values[x]
    if cover != prim.full:
        raise CoverFailure("assigned ideals do not cover P", union=cover)
    ups = space.rows
    for x in range(space.size):
        for y in range(x, space.size):
            expected = 0
            for z in bits(ups[x] & ups[y]):
                expected |= values[z]
            if values[x] & values[y] != expected:
                raise CompatibilityFailure(
                    f"ideals at {x} and {y} do not meet along the shared opens",
                    x=x, y=y)
    table = {}
    for u in space.opens:
        m = 0
        for x in bits(u):
            m |= values[x]
        table[u] = m
    psi = lattice_map_to_continuous(LatticeMap(space, prim, table))
    return ActionOverX(space, prim, psi)


def filtration_of_action(action):
    """Strata supports of the canonical filtration, with discreteness checks.

    For each stratum the support splits into point fibers, and every fiber
    must be open relative to the part of P over the not-yet-filtered rest
    of the base.
    """
    filt = action.base.canonical_filtration()
    out = []
    for j, stratum in enumerate(filt.strata):
        rest = action.base.full ^ filt.layers[j]
        over_rest = action.psi.preimage(rest)
        support = subquotient_support(action, action.base.locally_closed(stratum))
        pieces = 0
        for x in bits(stratum):
            fiber = fiber_support(action, x)
            if pieces & fiber:
                raise NotWellDefined("stratum fibers overlap", point=x)
            pieces |= fiber
            if action.psi.preimage(action.base.minimal_open(x)) & over_rest != fiber:
                raise NotWellDefined(
                    "fiber is not relatively open over the remaining base", point=x)
        if pieces != support.carrier:
            raise NotWellDefined("stratum support is not the union of its fibers")
        out.append(support)
    return out
