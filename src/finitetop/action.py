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
)
from .spaces import ContinuousMap, bits


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


def ideal(action, u):
    """The open subset of the primitive space over an open of the base."""
    if not action.base.is_open(u):
        raise NotOpen(f"{sorted(bits(u))} is not open in the base", carrier=u)
    return action.psi.preimage(u)


def subquotient_support(action, c):
    """Support over a locally closed mask c of the base: its preimage in P.

    For a witness U minus V = C the support is preim(U) minus preim(V),
    locally closed in P, and preimages keep differences, so every witness
    gives preim(C).  c is checked on the base.
    """
    action.base.locally_closed(c)
    return action.psi.preimage(c)


def pushforward(f, action):
    """Transport an action along a continuous map of bases.

    The moved action has structure map psi then f, and (psi then f)^-1 is
    psi^-1 after f^-1, so its support over C is the old support over f^-1(C).
    """
    if f.domain != action.base:
        raise DomainMismatch("map must start at the base of the action")
    return ActionOverX(f.codomain, action.prim, action.psi.then(f))


def restrict(action, y):
    """Restrict to a locally closed piece of the base.

    The primitive space becomes the subspace over y, reindexed densely in
    the order of the original point indices.  A point of it lies over a
    subset C of y exactly when its original lies in psi^-1(C), so supports
    over locally closed subsets of y are unchanged.
    """
    action.base.locally_closed(y)
    base_sub, base_pts = action.base.subspace(y)
    base_pos = {p: i for i, p in enumerate(base_pts)}
    prim_sub, prim_pts = action.prim.subspace(action.psi.preimage(y))
    assignment = [base_pos[action.psi(p)] for p in prim_pts]
    return ActionOverX(base_sub, prim_sub,
                       ContinuousMap(prim_sub, base_sub, assignment))


def is_tight(action):
    """Tight means the structure map is a homeomorphism."""
    return action.psi.is_homeomorphism()


def fiber_support(action, x):
    return action.psi.preimage(1 << x)


def p_functor(action, y):
    """Restrict to y, then push back in along the inclusion.

    The result lives over the original base again; a point over Z in it
    lies over Z & y in the restriction, so its support over Z is the
    original support over Z & y.  restrict checks y.
    """
    return pushforward(action.base.inclusion(y)[1], restrict(action, y))


def minimal_ideals(action):
    """{x: the ideal over the minimal open of x} for each point x of the base."""
    return {x: action.psi.preimage(action.base.minimal_open(x))
            for x in range(action.base.size)}


def reconstruct(base, values, prim):
    """The action of prim over base whose minimal-open ideals are values.

    values maps each point x of base to a mask of prim, a_x.  A point
    with no value raises ValueError.  Then checks, in order: the base is
    sober, every value is open, the values cover P, and the pairwise
    compatibility a_x & a_y = union of a_z over z in U_x & U_y.  By
    compatibility, a_x lies within a_y for y <= x, and a point p of
    a_x & a_y lies in some a_z with z above x and y.  So the points x with
    p in a_x, nonempty by the cover, are the closure of one point, psi(p),
    and p lies in a_x exactly when x <= psi(p).  Only the minimal opens are
    read, never the open family.
    """
    missing = [x for x in range(base.size) if x not in values]
    if missing:
        raise ValueError(f"no ideal assigned to points {missing[:3]}")
    if not base.is_sober():
        raise NotSober("reconstruction needs a sober base")
    for x in range(base.size):
        if not prim.is_open(values[x]):
            raise NotOpen(f"value at point {x} is not open in P", point=x)
    cover = 0
    for x in range(base.size):
        cover |= values[x]
    if cover != prim.full:
        raise CoverFailure("assigned ideals do not cover P", union=cover)
    ups = base.rows
    for x in range(base.size):
        for y in range(x, base.size):
            expected = 0
            for z in bits(ups[x] & ups[y]):
                expected |= values[z]
            if values[x] & values[y] != expected:
                raise CompatibilityFailure(
                    f"ideals at {x} and {y} do not meet along the shared opens",
                    x=x, y=y)
    below = [0] * prim.size  # below[p] = {x : p in a_x}
    for x in range(base.size):
        for p in bits(values[x]):
            below[p] |= 1 << x
    generic = {base.closure(1 << x): x for x in range(base.size)}
    psi = ContinuousMap(prim, base, [generic[base.closure(b)] for b in below])
    return ActionOverX(base, prim, psi)


def filtration_of_action(action):
    """Supports over the strata of the canonical filtration, as masks of P.

    A stratum is open in the closed rest of the base, so its support is its
    preimage: the disjoint union of the fibers over its points.  Each fiber
    is open in the part of P over the rest: a point x of the stratum is open
    in the rest, so psi^-1(U_x) & psi^-1(rest) = psi^-1({x}), the fiber.
    """
    return [action.psi.preimage(stratum)
            for stratum in action.base.canonical_filtration().strata]
