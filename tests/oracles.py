"""Independent reference routes shared by the test modules.

Everything here is deliberately primitive: element-by-element arithmetic,
rejection sampling, brute-force scans.  Matching the library against these
is the point, so none of it may call back into the code path under test.
"""

import itertools
from math import gcd

from finitetop.completion import _assemble
from finitetop.enumeration import CensusRow, _labeled_spaces
from finitetop.errors import (CapExceeded, MissingEmpty, MissingFull,
                              NotClosedUnderIntersection, NotClosedUnderUnion,
                              NotContinuous, NotLocallyClosed, NotWellDefined,
                              ShapeMismatch)
from finitetop.intmat import IntMatrix
from finitetop.jsonio import PointSets
from finitetop.ktheory import DatumReport, FGAbelianGroup, GroupHom, verify_six_term
from finitetop.spaces import (ContinuousMap, FiniteSpace, _closure,
                              alexandrov_topology, bits, mask_of)


def plain(doc):
    """doc with each PointSets replaced by a list of index lists, read off
    bit by bit, and every other list, tuple and dict copied as it is."""
    if isinstance(doc, PointSets):
        return [[i for i in range(m.bit_length()) if m >> i & 1]
                for m in doc.masks]
    if isinstance(doc, dict):
        return {k: plain(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(map(plain, doc))
    return doc


def random_poset_space(rng, n):
    """Random T0 space: transitive closure of a shuffled acyclic relation."""
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [(perm[i], perm[j])
             for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.4]
    return alexandrov_topology(_closure(n, pairs))


def random_space(rng, n):
    """Random finite space, T0 not guaranteed."""
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
    return alexandrov_topology(_closure(n, pairs))


def random_continuous(rng, dom, cod, tries=60):
    """Random continuous map dom -> cod, or a constant map if sampling fails."""
    for _ in range(tries):
        assignment = [rng.randrange(cod.size) for _ in range(dom.size)]
        try:
            return ContinuousMap(dom, cod, assignment)
        except NotContinuous:
            continue
    return ContinuousMap(dom, cod, [rng.randrange(cod.size)] * dom.size)


def permuted_space(space, perm):
    """Relabel points by perm; the result is homeomorphic by construction."""
    opens = [mask_of(perm[i] for i in bits(u)) for u in space.opens]
    return FiniteSpace(space.size, opens)


def brute_locally_closed(space):
    """All differences of two opens, by direct scan."""
    out = set()
    for u in space.opens:
        for v in space.opens:
            out.add(u & ~v)
    return out


def brute_locally_closed_witnesses(space, s):
    """Every witness pair (U, V) of opens: V in U, U minus V = s."""
    return [(u, v) for u in space.opens for v in space.opens
            if v & ~u == 0 and u & ~v == s]


def closed_sets(space):
    """Complements of the opens, sorted by (popcount, value)."""
    return sorted((space.full ^ m for m in space.opens),
                  key=lambda m: (m.bit_count(), m))


def brute_closure(space, s):
    """Smallest closed superset by scanning the whole family."""
    return min((c for c in closed_sets(space) if s & ~c == 0),
               key=lambda c: c.bit_count())


def brute_interior(space, s):
    """Union of every open inside s."""
    inside = 0
    for m in space.opens:
        if m & ~s == 0:
            inside |= m
    return inside


def brute_minimal_open(space, x):
    """Intersection of every open containing x."""
    acc = space.full
    for m in space.opens:
        if m >> x & 1:
            acc &= m
    return acc


def brute_up_sets(size, rows, within=None):
    """Subsets of within, all points by default, holding the part in within
    of the row of each of their points, by (popcount, value)."""
    if within is None:
        within = (1 << size) - 1
    ups = [m for m in range(1 << size) if m & ~within == 0
           and all(rows[x] & within & ~m == 0 for x in bits(m))]
    return sorted(ups, key=lambda m: (m.bit_count(), m))


def recursive_up_sets(rows, within=None):
    """The up-sets of the preorder rows inside within by a binary recursion.

    The up-sets of the points left miss the lowest one, c, and all below
    it, or hold U_c; both ways hold at least one point, so the recursion
    is a full binary tree with one leaf per up-set.  Sorted by (popcount,
    value).
    """
    if within is None:
        within = (1 << len(rows)) - 1
    downs = [mask_of(y for y in bits(within) if rows[y] >> c & 1)
             for c in range(len(rows))]
    opens = []

    def rec(rest, cur):
        if not rest:
            opens.append(cur)
            return
        c = (rest & -rest).bit_length() - 1
        rec(rest & ~downs[c], cur)
        rec(rest & ~rows[c], cur | rows[c] & within)

    rec(within, 0)
    return sorted(opens, key=lambda m: (m.bit_count(), m))


def brute_check_family(size, family):
    """The open-family axioms by a pairwise scan, with FiniteSpace's errors.

    The first pair (a, b) in (popcount, value) order, a before b, whose
    union or else intersection is missing is the witness.
    """
    full = (1 << size) - 1
    fam = sorted(set(family), key=lambda m: (m.bit_count(), m))
    members = set(fam)
    for m in fam:
        if m & ~full:
            raise ValueError(f"open {m:#x} not within ground set of size {size}")
    if 0 not in members:
        raise MissingEmpty("empty set is not open")
    if full not in members:
        raise MissingFull("full set is not open")
    for i, a in enumerate(fam):
        for b in fam[i + 1:]:
            if a | b not in members:
                raise NotClosedUnderUnion("union is not open", witness=(a, b))
            if a & b not in members:
                raise NotClosedUnderIntersection(
                    "intersection is not open", witness=(a, b))


def fold_minimal_opens(size, family):
    """Rows of a family by the fold that names its first fault.

    The reference for FiniteSpace's refusals, down to the message and the
    witness.  After the ground set and the empty and the full set, row U_x
    folds as the AND of the members holding x in (popcount, value) order;
    the first step that leaves the family raises NotClosedUnderIntersection
    (row so far, member).  Then a | U_x must be a member for every member
    a and point x outside it, else NotClosedUnderUnion(a, U_x).
    """
    full = (1 << size) - 1
    family = sorted(set(family), key=lambda m: (m.bit_count(), m))
    for m in family:
        if m & ~full:
            raise ValueError(f"open {m:#x} not within ground set of size {size}")
    members = frozenset(family)
    if 0 not in members:
        raise MissingEmpty("empty set is not open")
    if full not in members:
        raise MissingFull("full set is not open")
    rows = [full] * size
    for m in family:
        for x in bits(m):
            meet = rows[x] & m
            if meet != rows[x] and meet not in members:
                raise NotClosedUnderIntersection(
                    f"intersection of {sorted(bits(rows[x]))} and "
                    f"{sorted(bits(m))} is not open", witness=(rows[x], m))
            rows[x] = meet
    for a in family:
        for x in bits(full & ~a):
            if a | rows[x] not in members:
                raise NotClosedUnderUnion(
                    f"union of {sorted(bits(a))} and {sorted(bits(rows[x]))} "
                    "is not open", witness=(a, rows[x]))
    return tuple(rows)


def brute_irreducible_closed_sets(space):
    """Nonempty closed sets that are not a union of two proper closed subsets."""
    closed = closed_sets(space)
    out = []
    for c in closed:
        if c == 0:
            continue
        proper = [d for d in closed if d != c and d & ~c == 0]
        if not any(d1 | d2 == c for d1 in proper for d2 in proper):
            out.append(c)
    return tuple(out)


def brute_is_sober(space):
    """Every irreducible closed set is the closure of exactly one point."""
    points = [brute_closure(space, 1 << x) for x in range(space.size)]
    return all(points.count(c) == 1 for c in brute_irreducible_closed_sets(space))


def brute_chain_length(space):
    """Points on the longest strict chain x < y < ... of a T0 space."""
    up = [row & ~(1 << x) for x, row in enumerate(space.rows)]
    memo = {}

    def h(x):
        if x not in memo:
            memo[x] = 1 + max((h(y) for y in bits(up[x])), default=0)
        return memo[x]

    return max((h(x) for x in range(space.size)), default=0)


def topologies_by_family_filter(n):
    """Keep every subset family closed under union and meet (tiny n only).

    Candidate families range over all subsets of the proper nonempty masks,
    in ascending order of the subset read as a binary number.
    """
    full = (1 << n) - 1
    proper = [m for m in range(1, full)]
    out = []
    for choice in range(1 << len(proper)):
        fam = [0, full] if n else [0]
        fam += [proper[k] for k in range(len(proper)) if choice >> k & 1]
        ok = True
        for a, b in itertools.combinations(fam, 2):
            if a | b not in fam or a & b not in fam:
                ok = False
                break
        if ok:
            out.append(FiniteSpace(n, fam))
    return out


def homeomorphism_oracle(x1, x2):
    """Search all bijections for one matching the open families (tiny n only)."""
    if x1.size != x2.size:
        return False
    fam2 = set(x2.opens)
    if len(x1.opens) != len(fam2):
        return False
    for perm in itertools.permutations(range(x1.size)):
        image = {sum(1 << perm[p] for p in bits(u)) for u in x1.opens}
        if image == fam2:
            return True
    return False


def brute_canonical_form(space):
    """canonical_form by trying every order inside each group of point keys.

    Same encoding, no twin classes and no relabeling cap: every
    permutation of every group is tried (rows wider than 8 points take
    (n + 7) // 8 bytes each, big-endian).
    """
    quotient, sizes = space, [1] * space.size
    if not space.is_t0():
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
    width = (n + 7) // 8
    best = None
    for combo in itertools.product(*(itertools.permutations(g) for g in groups)):
        perm = [0] * n
        for pos, x in enumerate(itertools.chain.from_iterable(combo)):
            perm[x] = pos
        new_rows = [0] * n
        for x in range(n):
            new_rows[perm[x]] = sum(1 << perm[y] for y in bits(adj[x]))
        enc = b"".join(r.to_bytes(width, "big") for r in new_rows)
        best = enc if best is None else min(best, enc)
    return bytes([n]) + sig + best


def labeled_census(n, connected=False, t0=False):
    """census(n, connected, t0) by visiting every labeled space (small n only)."""
    count, forms = 0, set()
    for space in _labeled_spaces(n, t0=t0):
        if connected and not space.is_connected():
            continue
        count += 1
        forms.add(brute_canonical_form(space))
    return CensusRow(n, connected, t0, count, tuple(sorted(forms)))


def build_power_space(base):
    """Every subset of the open family, topologized like the filter completion."""
    k = len(base.opens)
    if k > 8:
        raise CapExceeded("power space capped at 8 base opens", opens=k)
    return _assemble(base, [[base.opens[j] for j in bits(pick)]
                            for pick in range(1 << k)])


def brute_completion_opens(seeds, cap):
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


def brute_monotone_failure(base, table):
    """The first pair of opens (u, v), u within v, whose values are not nested.

    Every pair is scanned, u then v in family order; None for a monotone table.
    """
    for u in base.opens:
        for v in base.opens:
            if u & ~v == 0 and table[u] & ~table[v]:
                return (u, v)
    return None


def _poset_key(rows):
    """The least relabeled rows over orders that sort the points by key.

    A point's key is (up-set size, down-set size); an isomorphism keeps
    keys, so two posets get the same key exactly when they are isomorphic.
    """
    n = len(rows)
    downs = [sum(1 << y for y in range(n) if rows[y] >> x & 1) for x in range(n)]
    keys = [(rows[x].bit_count(), downs[x].bit_count()) for x in range(n)]
    groups = [[x for x in range(n) if keys[x] == k] for k in sorted(set(keys))]
    best = None
    for parts in itertools.product(*map(itertools.permutations, groups)):
        order = [x for part in parts for x in part]
        pos = {x: i for i, x in enumerate(order)}
        relabeled = tuple(sum(1 << pos[y] for y in bits(rows[x])) for x in order)
        if best is None or relabeled < best:
            best = relabeled
    return best


def t0_bases_by_open_count(max_opens):
    """{k: rows of each T0 space with k opens, one per homeomorphism class}.

    Every poset has a minimal point, so each one grows from a smaller one by
    a new minimal point p whose row is p plus an up-set S.  The up-sets of
    the grown poset are the old ones, and p with each old one holding S, so
    growth never lowers the count and stops past max_opens.
    """
    level = [((), [0])]  # the empty poset and its one up-set
    found = {}
    while level:
        grown = {}
        for rows, ups in level:
            found.setdefault(len(ups), []).append(rows)
            p = 1 << len(rows)
            for s in ups:
                above = [u for u in ups if s & ~u == 0]
                if len(ups) + len(above) <= max_opens:
                    new = rows + (s | p,)
                    grown.setdefault(_poset_key(new),
                                     (new, ups + [u | p for u in above]))
        level = list(grown.values())
    return found


def random_monotone_table(rng, base, prim):
    """Monotone endpoint-fixing table O(base) -> O(prim).

    Opens are visited smallest first, so every proper open subset already
    has a value; the new value is any open above their union.
    """
    table = {}
    for u in base.opens:
        if u == 0:
            table[u] = 0
            continue
        if u == base.full:
            table[u] = prim.full
            continue
        lower = 0
        for v in base.opens:
            if v != u and v & ~u == 0:
                lower |= table[v]
        table[u] = rng.choice([w for w in prim.opens if lower & ~w == 0])
    return table


def brute_preservation_failures(m):
    """Yield (kind, a, b) for each join or meet a lattice map's table breaks.

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


def brute_meet_failures(space, table):
    """Every pair of opens (u, v) whose table values do not meet at u & v."""
    return [(u, v) for u in space.opens for v in space.opens
            if table[u & v] != table[u] & table[v]]


# -- element-level arithmetic in products of cyclic groups ---------------------


def diagonal_group(divs):
    """Z/d1 + ... + Z/dk presented with the diagonal relation matrix."""
    n = len(divs)
    relators = [[divs[i] if j == i else 0 for j in range(n)] for i in range(n)]
    return FGAbelianGroup(n, IntMatrix.from_columns(relators, rows=n))


def elements(divs):
    return itertools.product(*(range(d) for d in divs))


def reduce_mod(vec, divs):
    return tuple(v % d for v, d in zip(vec, divs))


def apply_matrix(rows, vec):
    return tuple(sum(r[j] * vec[j] for j in range(len(vec))) for r in rows)


def element_image(rows, dom_divs, cod_divs):
    return {reduce_mod(apply_matrix(rows, x), cod_divs)
            for x in elements(dom_divs)}


def element_kernel(rows, dom_divs, cod_divs):
    zero = tuple(0 for _ in cod_divs)
    return {x for x in elements(dom_divs)
            if reduce_mod(apply_matrix(rows, x), cod_divs) == zero}


def element_exact(f_rows, g_rows, a_divs, b_divs, c_divs):
    """Exactness at the middle of A -f-> B -g-> C, elementwise."""
    return (element_image(f_rows, a_divs, b_divs)
            == element_kernel(g_rows, b_divs, c_divs))


def random_torsion_hom(rng, dom_divs, cod_divs):
    """A well-defined hom between diagonal torsion groups.

    The (i, j) entry must be a multiple of cod_i / gcd(dom_j, cod_i) for
    the generator relation dom_j * e_j = 0 to map to zero.
    """
    rows = []
    for ci in cod_divs:
        row = []
        for dj in dom_divs:
            step = ci // gcd(dj, ci)
            row.append(step * rng.randrange(gcd(dj, ci)))
        rows.append(row)
    return IntMatrix(tuple(tuple(r) for r in rows))


def brute_verify_datum(datum):
    """verify_datum without sharing: every node of every cycle decided afresh."""
    return DatumReport(tuple((pair, verify_six_term(cycle))
                             for pair, cycle in datum.cycles.items()))


def _diagonal_divisors(group):
    """(d1, ..., dk) when group is presented as Z/d1 + ... + Z/dk, else None."""
    n, rel = group.generators, group.relations
    if rel.cols != n:
        return None
    divs = tuple(rel.entries[i][i] for i in range(n))
    if any(d < 1 for d in divs) or any(rel.entries[i][j] for i in range(n)
                                       for j in range(n) if i != j):
        return None
    return divs


def _map_fault(domain, codomain, rows):
    """Why rows are not a map from domain to codomain, as (class, message, details).

    No rows into a group with no generators are the 0 x n matrix.  Between
    diagonal torsion groups, the map is well defined when each element and
    that element plus a relator go to the same element; when the codomain
    has no relators, when each relator goes to zero; otherwise GroupHom
    decides.
    """
    r = len(rows)
    c = len(rows[0]) if rows else (0 if codomain.generators else domain.generators)
    if (r, c) != (codomain.generators, domain.generators):
        return (ShapeMismatch, f"matrix is {r}x{c}, expected "
                f"{codomain.generators}x{domain.generators}", {})
    relators = domain.relations.transpose().entries
    dom_divs, cod_divs = _diagonal_divisors(domain), _diagonal_divisors(codomain)
    if dom_divs is not None and cod_divs is not None:
        respected = all(
            reduce_mod(apply_matrix(rows, x), cod_divs)
            == reduce_mod(apply_matrix(rows, [a + b for a, b in zip(x, rel)]), cod_divs)
            for x in elements(dom_divs) for rel in relators)
    elif not codomain.relations.cols:
        respected = all(not any(apply_matrix(rows, rel)) for rel in relators)
    else:
        try:
            GroupHom(domain, codomain, IntMatrix(rows, r, c))
            respected = True
        except NotWellDefined:
            respected = False
    if not respected:
        return (NotWellDefined, "matrix does not respect the domain relations", {})
    return None


def brute_datum_fault(space, assignment, maps):
    """The first of the five datum faults the README lists, read literally.

    assignment maps carrier masks to GradedGroups and maps gives each
    (open, set) pair of masks its six matrices as integer rows, both in
    file order.  Returns (error class, message, details), or None for a
    datum with no fault.  Locally closed sets are differences of two
    opens, and the opens of a set y are its intersections with the opens
    of the space, all found by scanning the open family.
    """
    def show(m):
        return sorted(bits(m))

    def by_size(m):
        return (m.bit_count(), m)

    closed_locally = brute_locally_closed(space)
    for c in assignment:
        if c not in closed_locally:
            return (NotLocallyClosed, f"{show(c)} is not open in its closure",
                    {"carrier": c})
    for s in sorted(closed_locally, key=by_size):
        if s not in assignment:
            return ShapeMismatch, f"no group assigned to {show(s)}", {"carrier": s}
    opens_in = {y: {y & w for w in space.opens} for y in closed_locally}
    for u, y in maps:
        if y not in closed_locally or u not in opens_in[y]:
            return (ShapeMismatch,
                    f"cycle ({show(u)}, {show(y)}) is not a relative-open pair",
                    {"pair": (u, y)})
    pairs = [(u, y) for y in sorted(closed_locally, key=by_size)
             for u in sorted(opens_in[y], key=by_size)]
    for u, y in pairs:
        if (u, y) not in maps:
            return (ShapeMismatch, f"missing cycle for ({show(u)}, {show(y)})",
                    {"pair": (u, y)})
    for u, y in pairs:
        gu, gy, gr = assignment[u], assignment[y], assignment[y & ~u]
        groups = (gu.even, gy.even, gr.even, gu.odd, gy.odd, gr.odd)
        for i, rows in enumerate(maps[(u, y)]):
            fault = _map_fault(groups[i], groups[(i + 1) % 6], rows)
            if fault is not None:
                return fault
    return None


# -- integer matrix references -------------------------------------------------


def determinant(matrix):
    """Bareiss fraction-free determinant of a square IntMatrix."""
    n = matrix.rows
    if n != matrix.cols:
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(r) for r in matrix.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def determinantal_divisors(matrix):
    """The diagonal of the Smith normal form, from the minors alone.

    The k-th determinantal divisor is the gcd of all k x k minors, and the
    k-th invariant factor is its quotient by the one before; once every
    k x k minor vanishes, so do all larger ones, and the factors are 0.
    """
    r, c = matrix.rows, matrix.cols
    factors = []
    before = 1
    for k in range(1, min(r, c) + 1):
        divisor = 0
        for rows in itertools.combinations(range(r), k):
            for cols in itertools.combinations(range(c), k):
                minor = IntMatrix([[matrix.entries[i][j] for j in cols]
                                   for i in rows])
                divisor = gcd(divisor, determinant(minor))
        factors.append(divisor // before if divisor else 0)
        if not divisor:
            factors += [0] * (min(r, c) - k)
            break
        before = divisor
    return tuple(factors)


def rational_rank(matrix):
    """Row-echelon rank over the rationals via fractions-free elimination."""
    from fractions import Fraction
    a = [[Fraction(v) for v in row] for row in matrix.entries]
    rank = 0
    cols = matrix.cols
    for col in range(cols):
        pivot = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = a[rank][col]
        for i in range(len(a)):
            if i != rank and a[i][col] != 0:
                factor = a[i][col] / inv
                a[i] = [x - factor * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == len(a):
            break
    return rank


def random_matrix(rng, rows, cols, bound=9):
    return IntMatrix(tuple(tuple(rng.randint(-bound, bound)
                                 for _ in range(cols))
                           for _ in range(rows)))
