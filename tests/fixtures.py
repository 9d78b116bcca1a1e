"""Shared builders for group-theoretic test data, and writers for input files.

Unlike oracles.py these construct library objects, so they are fixtures,
not reference routes.  The verdicts about them still come from oracles.
No command emits maps, groups, homomorphisms, ideal assignments or data,
so their JSON writers live here, where tests build input files with them;
tests/test_jsonio.py reads each one back through the library's reader.
"""

from finitetop.intmat import IntMatrix
from finitetop.jsonio import (carrier_from_key, carrier_key, indices, matrix_to_json,
                              space_to_json)
from finitetop.ktheory import (FGAbelianGroup, FiltratedKDatum, GradedGroup,
                               GroupHom, SixTermCycle)
from finitetop.spaces import bits, family_key
from oracles import diagonal_group, element_kernel, plain, random_torsion_hom

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
    return divs, SixTermCycle(maps)


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


def zero_rows(gens):
    """Rows of the six zero matrices around groups with these generator counts."""
    return [[[0] * gens[i]] * gens[(i + 1) % 6] for i in range(6)]


def datum_rows(datum):
    """The six matrices of every cycle as rows, as FiltratedKDatum takes them."""
    return {pair: [list(h.matrix.entries) for h in cycle.maps]
            for pair, cycle in datum.cycles.items()}


def point_count_datum(space, modulus=0):
    """Evenly graded datum: functions from the carrier to the integers,
    or to Z/modulus when modulus is not 0.

    even(A) is free on the points of A (each point of order modulus),
    restriction and extension by zero give short exact sequences, the odd
    part vanishes.  Passes verification over any space.  Each pair's
    matrices are new lists.
    """
    zero = FGAbelianGroup.zero()
    assignment = {y: GradedGroup(diagonal_group((modulus,) * y.bit_count())
                                 if modulus else FGAbelianGroup.free(y.bit_count()),
                                 zero)
                  for y in space.locally_closed_sets()}
    maps = {}
    for y in assignment:
        yb = sorted(bits(y))
        for w in space.opens:
            ub, rb = sorted(bits(y & w)), sorted(bits(y & ~w))
            maps[(y & w, y)] = (
                [[int(p == q) for q in ub] for p in yb],
                [[int(p == q) for q in yb] for p in rb],
                [], [], [], [[]] * len(ub))
    return FiltratedKDatum(space, assignment, maps)


def constant_zero_datum(space, special=None, group=None):
    """Zero groups and zero maps everywhere.

    When `special` is a carrier mask its even part becomes `group` instead,
    with all maps still zero; that seeds exactly one inconsistency.
    """
    zero = FGAbelianGroup.zero()
    plain = GradedGroup(zero, zero)
    assignment = {y: GradedGroup(group, zero) if y == special else plain
                  for y in space.locally_closed_sets()}
    maps = {}
    for y in assignment:
        for w in space.opens:
            carriers = (y & w, y, y & ~w)
            maps[(y & w, y)] = zero_rows(
                [assignment[m].even.generators for m in carriers] + [0, 0, 0])
    return FiltratedKDatum(space, assignment, maps)


def random_torsion_datum(rng, space):
    """Diagonal torsion groups and random well-defined maps on every pair.

    Groups come from a small pool and each pair of groups has two candidate
    matrices, so equal maps recur across cycles.
    """
    pool = ((), (2,), (2,), (4,), (2, 2))
    divs = {y: (rng.choice(pool), rng.choice(pool))
            for y in space.locally_closed_sets()}
    assignment = {y: GradedGroup(diagonal_group(e), diagonal_group(o))
                  for y, (e, o) in divs.items()}
    candidates = {}
    maps = {}
    for y in assignment:
        for w in space.opens:
            u = y & w
            carriers = (u, y, y & ~u)
            d = [divs[m][0] for m in carriers] + [divs[m][1] for m in carriers]
            rows = []
            for i in range(6):
                a, b = d[i], d[(i + 1) % 6]
                if (a, b) not in candidates:
                    candidates[(a, b)] = [random_torsion_hom(rng, a, b).entries
                                          for _ in range(2)]
                rows.append(rng.choice(candidates[(a, b)]))
            maps[(u, y)] = rows
    return FiltratedKDatum(space, assignment, maps)


# -- JSON writers --------------------------------------------------------------


def map_to_json(f):
    return plain({"domain": space_to_json(f.domain),
                  "codomain": space_to_json(f.codomain),
                  "values": list(f.assignment)})


def assignment_to_json(base, values, prim):
    return plain({"base": space_to_json(base),
                  "prim": space_to_json(prim),
                  "values": {str(x): indices(m) for x, m in values.items()}})


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
    return {"space": plain(space_to_json(datum.space)),
            "groups": groups, "cycles": cycles}


def sierpinski_torsion_json():
    """Sierpinski data with even group Z/2 on {1} and odd group Z on the
    empty set and on {0}: map 2 of the cycles (0, {1}) and ({0}, {0, 1})
    is Z/2 -> Z, which is not well defined for the matrix [[1]].

    Returns the datum without cycles and cycle(open, set, bad=None), the
    cycle entry of zero matrices with map 2 replaced by bad."""
    z = {"generators": 1}
    zero = {"generators": 0}
    groups = {"": {"even": zero, "odd": z}, "0": {"even": zero, "odd": z},
              "1": {"even": {"generators": 1, "relations": [[2]]}, "odd": zero},
              "0,1": {"even": zero, "odd": zero}}

    def cycle(u, y, bad=None):
        rest = carrier_key(carrier_from_key(y, 2) & ~carrier_from_key(u, 2))
        du, dy, dr = groups[u], groups[y], groups[rest]
        sizes = [g["generators"] for g in (du["even"], dy["even"], dr["even"],
                                           du["odd"], dy["odd"], dr["odd"])]
        maps = zero_rows(sizes)
        if bad is not None:
            maps[2] = bad
        return {"open": u, "set": y, "maps": maps}

    return {"space": {"size": 2, "opens": [[], [0], [0, 1]]}, "groups": groups}, cycle
