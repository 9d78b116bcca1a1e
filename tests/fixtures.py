"""Shared builders for group-theoretic test data, and writers for input files.

Unlike oracles.py these construct library objects, so they are fixtures,
not reference routes.  The verdicts about them still come from oracles.
No command emits maps, groups, homomorphisms, ideal assignments or data,
so their JSON writers live here, where tests build input files with them;
tests/test_jsonio.py reads each one back through the library's reader.
"""

from finitetop.intmat import IntMatrix
from finitetop.jsonio import carrier_key, indices, matrix_to_json, space_to_json
from finitetop.ktheory import (FGAbelianGroup, FiltratedKDatum, GradedGroup,
                               GroupHom, SixTermCycle)
from finitetop.spaces import bits, family_key
from oracles import diagonal_group, element_kernel, random_torsion_hom

# small torsion factors; products are kept at or below 36
DIVISOR_POOL = (2, 2, 3, 4, 5, 6, 8, 9, 12)


def random_divisors(rng, max_order=36):
    while True:
        divs = tuple(rng.choice(DIVISOR_POOL) for _ in range(rng.randint(1, 3)))
        order = 1
        for d in divs:
            order *= d
        if order <= max_order:
            return divs


def random_torsion_cycle(rng):
    """Six diagonal torsion groups with random well-defined maps around."""
    divs = [random_divisors(rng) for _ in range(6)]
    groups = [diagonal_group(d) for d in divs]
    maps = [GroupHom(groups[i], groups[(i + 1) % 6],
                     random_torsion_hom(rng, divs[i], divs[(i + 1) % 6]))
            for i in range(6)]
    return divs, SixTermCycle(groups, maps)


def random_zero_composite(rng, a_divs, b_divs, g_rows, c_divs):
    """Matrix A -> B whose columns lie in the element kernel of g.

    Column j is further restricted so that a_divs[j] times it dies in B,
    which is exactly well-definedness on the j-th relator.
    """
    ker = sorted(element_kernel(g_rows, b_divs, c_divs))
    cols = []
    for dj in a_divs:
        fits = [x for x in ker
                if all(dj * xi % di == 0 for xi, di in zip(x, b_divs))]
        cols.append(rng.choice(fits))
    return IntMatrix.from_columns(cols, rows=len(b_divs))


def point_count_datum(space):
    """Evenly graded datum: functions from the carrier to the integers.

    even(A) is free on the points of A, restriction and extension by zero
    give short exact sequences, the odd part vanishes.  Passes verification
    over any space.
    """
    zero = FGAbelianGroup.zero()
    assignment = {}
    for y in space.locally_closed_sets():
        assignment[y] = GradedGroup(FGAbelianGroup.free(y.bit_count()), zero)
    cycles = {}
    for y in assignment:
        yb = sorted(bits(y))
        for w in space.opens:
            u = y & w
            if (u, y) in cycles:
                continue
            rest = y & ~u
            ub, rb = sorted(bits(u)), sorted(bits(rest))
            incl = IntMatrix([[int(p == q) for q in ub] for p in yb],
                             len(yb), len(ub))
            proj = IntMatrix([[int(p == q) for q in yb] for p in rb],
                             len(rb), len(yb))
            eu, ey, er = (assignment[m].even for m in (u, y, rest))
            cycles[(u, y)] = SixTermCycle(
                (eu, ey, er, zero, zero, zero),
                (GroupHom(eu, ey, incl), GroupHom(ey, er, proj),
                 GroupHom.zero(er, zero), GroupHom.zero(zero, zero),
                 GroupHom.zero(zero, zero), GroupHom.zero(zero, eu)))
    return FiltratedKDatum(space, assignment, cycles)


def constant_zero_datum(space, special=None, group=None):
    """Zero groups and zero maps everywhere.

    When `special` is a carrier mask its even part becomes `group` instead,
    with all maps still zero; that seeds exactly one inconsistency.
    """
    zero = FGAbelianGroup.zero()
    plain = GradedGroup(zero, zero)
    assignment = {}
    for y in space.locally_closed_sets():
        assignment[y] = GradedGroup(group, zero) if y == special else plain
    cycles = {}
    for y in assignment:
        for w in space.opens:
            u = y & w
            if (u, y) in cycles:
                continue
            rest = y & ~u
            groups = (assignment[u].even, assignment[y].even,
                      assignment[rest].even, assignment[u].odd,
                      assignment[y].odd, assignment[rest].odd)
            maps = tuple(GroupHom.zero(groups[i], groups[(i + 1) % 6])
                         for i in range(6))
            cycles[(u, y)] = SixTermCycle(groups, maps)
    return FiltratedKDatum(space, assignment, cycles)


def random_torsion_datum(rng, space):
    """Diagonal torsion groups and random well-defined maps on every pair.

    Groups come from a small pool and each pair of groups has two candidate
    matrices, so equal nodes recur across cycles, each map a new object.
    """
    pool = ((), (2,), (2,), (4,), (2, 2))
    divs = {y: (rng.choice(pool), rng.choice(pool))
            for y in space.locally_closed_sets()}
    assignment = {y: GradedGroup(diagonal_group(e), diagonal_group(o))
                  for y, (e, o) in divs.items()}
    candidates = {}
    cycles = {}
    for y in assignment:
        for w in space.opens:
            u = y & w
            carriers = (u, y, y & ~u)
            d = [divs[m][0] for m in carriers] + [divs[m][1] for m in carriers]
            groups = [assignment[m].even for m in carriers] + [
                assignment[m].odd for m in carriers]
            maps = []
            for i in range(6):
                a, b = d[i], d[(i + 1) % 6]
                if (a, b) not in candidates:
                    candidates[(a, b)] = [random_torsion_hom(rng, a, b).entries
                                          for _ in range(2)]
                rows = rng.choice(candidates[(a, b)])
                maps.append(GroupHom(groups[i], groups[(i + 1) % 6],
                                     IntMatrix(rows, len(b), len(a))))
            cycles[(u, y)] = SixTermCycle(groups, maps)
    return FiltratedKDatum(space, assignment, cycles)


# -- JSON writers --------------------------------------------------------------


def map_to_json(f):
    return {"domain": space_to_json(f.domain),
            "codomain": space_to_json(f.codomain),
            "values": list(f.assignment)}


def assignment_to_json(assign, prim):
    return {"base": space_to_json(assign.base),
            "prim": space_to_json(prim),
            "values": {str(x): indices(m) for x, m in assign.values.items()}}


def group_to_json(group):
    return {"generators": group.generators,
            "relations": matrix_to_json(group.relations.transpose())}


def hom_to_json(f):
    return {"domain": group_to_json(f.domain),
            "codomain": group_to_json(f.codomain),
            "matrix": matrix_to_json(f.matrix)}


def graded_to_json(g):
    return {"even": group_to_json(g.even), "odd": group_to_json(g.odd)}


def datum_to_json(datum):
    groups = {carrier_key(m): graded_to_json(g)
              for m, g in sorted(datum.assignment.items(),
                                 key=lambda kv: family_key(kv[0]))}
    cycles = []
    for (u, y), cycle in sorted(datum.cycles.items(),
                                key=lambda p: (family_key(p[0][1]),
                                               family_key(p[0][0]))):
        cycles.append({"open": carrier_key(u), "set": carrier_key(y),
                       "maps": [matrix_to_json(h.matrix) for h in cycle.maps]})
    return {"space": space_to_json(datum.space),
            "groups": groups, "cycles": cycles}
