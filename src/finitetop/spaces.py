"""Finite topological spaces with bitmask point sets.

Points are indices 0..n-1 and every subset is a machine-word bit mask.  A
finite topology and its specialisation preorder determine each other, so a
space stores one row per point, U_x; its opens are the unions of rows (the
up-sets of the preorder), listed only when a caller asks for them.

Order conventions used throughout the package:

* specialisation preorder: x <= y iff closure({x}) is contained in
  closure({y}), equivalently y lies in every open set containing x;
* the minimal open neighbourhood U_x is the intersection of all opens
  containing x, and U_x is exactly {y : x <= y};
* a drawn diagram edge a -> b states U_a is contained in U_b, equivalently
  b < a is a cover of the specialisation order.  ``hasse_edges`` and the DOT
  output both use this drawn direction.
"""

from __future__ import annotations

from collections import namedtuple
from math import inf

from .errors import (
    CapExceeded,
    DomainMismatch,
    MissingEmpty,
    MissingFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    NotContinuous,
    NotLocallyClosed,
    NotReflexive,
    NotT0,
    NotTransitive,
)

MAX_POINTS = 63
OPEN_FAMILY_CAP = 1 << 20


def bits(mask):
    """Yield the indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices):
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def family_key(mask):
    """The order of set families: by size, then numerically; see sorted_family."""
    return (mask.bit_count(), mask)


def sorted_family(masks):
    """The masks as a list in family_key order, by two sorts keyed in C."""
    out = sorted(masks)
    out.sort(key=int.bit_count)
    return out


def _downs(rows, within=None):
    """downs[c]: the points of within, all by default, whose row holds c,
    built in one pass over the rows' bits; downs[x] is the closure of x."""
    if within is None:
        within = (1 << len(rows)) - 1
    downs = [0] * len(rows)
    for x in bits(within):
        bit, row = 1 << x, rows[x] & within
        while row:  # bits() inlined: a generator step per bit costs a third
            low = row & -row
            downs[low.bit_length() - 1] |= bit
            row ^= low
    return downs


def _components(rows):
    """Connected components of a preorder, grown along the order both ways."""
    adj = [row | down for row, down in zip(rows, _downs(rows))]
    out = []
    rest = (1 << len(rows)) - 1
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            grown = comp
            for y in bits(frontier):
                grown |= adj[y]
            frontier, comp = grown & ~comp, grown
        out.append(comp)
        rest &= ~comp
    return tuple(out)


def _covers(rows):
    """Upper covers of each point x of a poset as masks, and |{y : y <= x}|."""
    strict = [row & ~(1 << x) for x, row in enumerate(rows)]
    covers, downs = [], [1] * len(rows)
    for up in strict:
        above = 0  # points over a point strictly above x: not covers
        for z in bits(up):
            above |= strict[z]
            downs[z] += 1
        covers.append(up & ~above)
    return covers, downs


def _minimal_opens(size, family, members):
    """Rows of a sorted family F = members: r_x is the first member holding x.

    Checked as FiniteSpace.__init__ says.  If F is closed under m | r_x and
    m & r_x, a member holding x meets r_x in a member no later than r_x, so
    in r_x: each member is a union of rows, and each union of rows is in F.
    """
    full = (1 << size) - 1
    if family and (min(family) < 0 or max(family) > full):
        bad = next(m for m in family if m & ~full)
        raise ValueError(f"open {bad:#x} not within ground set of size {size}")
    if 0 not in members:
        raise MissingEmpty("empty set is not open")
    if full not in members:
        raise MissingFull("full set is not open")
    rows, covered = [0] * size, 0
    for m in family:
        if covered == full:
            break
        if m & ~covered:
            for x in bits(m & ~covered):
                rows[x] = m
            covered |= m
    if all(members.issuperset(map(r.__or__, family))
           and members.issuperset(map(r.__and__, family)) for r in set(rows)):
        return tuple(rows)
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


def _up_sets(rows, within=None):
    """Every up-set of the preorder rows inside within, sorted by family_key.

    These are the opens of the subspace on within, all points by default.
    The up-sets of the points left miss the lowest one, c, and all below
    it, or hold U_c; both ways hold at least one, so the recursion is a
    full binary tree with one leaf per up-set.
    """
    if within is None:
        within = (1 << len(rows)) - 1
    downs = _downs(rows, within)
    opens = []

    def rec(rest, cur):
        if not rest:
            opens.append(cur)
            return
        c = (rest & -rest).bit_length() - 1
        rec(rest & ~downs[c], cur)
        rec(rest & ~rows[c], cur | rows[c] & within)

    rec(within, 0)
    return tuple(sorted_family(opens))


def _up_set_count(rows, cap=inf):
    """len(_up_sets(rows)), or cap + 1 if that is more, without listing.

    Up-set counts multiply over the connected components.  Within one, the
    count splits as _up_sets does, memoised on the points left; a sum that
    reaches cap + 1 stops there, since exact counting is #P-complete.
    """
    over = cap + 1
    downs = _downs(rows)
    memo = {0: 1}

    def count(rest):
        if rest not in memo:
            c = (rest & -rest).bit_length() - 1
            n = count(rest & ~downs[c])
            memo[rest] = n if n >= over else min(over, n + count(rest & ~rows[c]))
        return memo[rest]

    total = 1
    for comp in _components(rows):
        total = min(over, total * count(comp))
    return total


class FiniteSpace:
    """A finite point set {0..size-1} with a topology, stored as its minimal opens.

    ``rows[x]`` is U_x, the smallest open containing x.  ``opens`` lists the
    family sorted by (popcount, value), built on first use when the space
    came from rows; ``open_count()`` counts it without listing, at most
    once.  Equal rows mean equal families, so equality compares size and
    rows.  Display labels are ignored by equality.
    """

    __slots__ = ("size", "full", "rows", "labels", "_opens", "_count")

    def __init__(self, size, opens, labels=None):
        """The space on the open family opens, checked, deduplicated and sorted.

        A member that is not an exact int raises ValueError.  A family with
        the empty and the full set, closed under | and & with each row U_x
        (the first member holding x), is accepted after distinct rows times
        family size set lookups, in C.  Else a fold names the fault: U_x is
        the AND of the members holding x, in family order, the first step
        that leaves the family raising NotClosedUnderIntersection(row so far,
        member); then a missing a | U_x raises NotClosedUnderUnion(a, U_x).
        """
        self._fill(size, labels)
        opens = list(opens)
        if not {int}.issuperset(map(type, opens)):
            bad = next(m for m in opens if type(m) is not int)
            raise ValueError(f"open {bad!r} is not an integer")
        members = set(opens)
        self._opens = tuple(sorted_family(members))
        self._count = None
        self.rows = _minimal_opens(size, self._opens, members)

    @classmethod
    def _from_rows(cls, size, rows, labels=None, opens=None, count=None):
        """The space whose minimal opens are rows, a reflexive transitive relation.

        opens and count are its sorted open family and their number, if known.
        """
        space = cls.__new__(cls)
        space._fill(size, labels)
        space.rows, space._opens, space._count = tuple(rows), opens, count
        return space

    def _fill(self, size, labels):
        if not 0 <= size <= MAX_POINTS:
            raise CapExceeded(f"point count {size} outside 0..{MAX_POINTS}",
                              size=size, cap=MAX_POINTS)
        self.size = size
        self.full = (1 << size) - 1
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != size or len(set(map(str, labels))) != size:
                raise ValueError("labels must be unique as text and one per point")
        self.labels = labels

    @property
    def opens(self):
        """Every open, sorted by (popcount, value): the up-sets of the rows."""
        if self._opens is None:
            self._opens = _up_sets(self.rows)
        return self._opens

    def open_count(self):
        """len(opens), without listing them."""
        if self._opens is not None:
            return len(self._opens)
        if self._count is None:
            self._count = _up_set_count(self.rows)
        return self._count

    def with_labels(self, labels):
        """This space with display labels, sharing its rows and opens."""
        return FiniteSpace._from_rows(self.size, self.rows, labels, self._opens,
                                      self._count)

    # -- basic structure -------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FiniteSpace)
                and self.size == other.size and self.rows == other.rows)

    def __hash__(self):
        return hash((self.size, self.rows))

    def __repr__(self):
        rows = [sorted(bits(m)) for m in self.rows]
        return f"FiniteSpace(size={self.size}, rows={rows})"

    def label_of(self, x):
        return self.labels[x] if self.labels is not None else str(x)

    def is_open(self, m):
        """Opens are the up-sets: each point of m brings its whole row."""
        return not m & ~self.full and all(self.rows[x] & ~m == 0 for x in bits(m))

    def closure(self, s):
        """Smallest closed superset: every point whose minimal open meets s."""
        return mask_of(y for y, row in enumerate(self.rows) if row & s)

    def interior(self, s):
        """Largest open subset: the points whose minimal open lies in s."""
        return mask_of(x for x in bits(s) if self.rows[x] & ~s == 0)

    def minimal_open(self, x):
        """U_x, the intersection of all opens containing x."""
        return self.rows[x]

    # -- order structure --------------------------------------------------

    def is_t0(self):
        return len(set(self.rows)) == self.size

    def irreducible_closed_sets(self):
        """The distinct point closures: in a finite space, all the irreducible ones."""
        return tuple(sorted_family(set(_downs(self.rows))))

    def is_sober(self):
        """Finite spaces are sober exactly when they are T0."""
        return self.is_t0()

    def sobrification(self):
        """The T0 quotient: points are the irreducible closed sets.

        The map sends x to closure({x}) and U_x onto the minimal open of its
        image; the preimage map on opens is a lattice isomorphism.
        """
        irr = self.irreducible_closed_sets()
        index = {c: i for i, c in enumerate(irr)}
        assignment = [index[c] for c in _downs(self.rows)]
        rows = [0] * len(irr)
        for x, row in enumerate(self.rows):
            rows[assignment[x]] = mask_of(assignment[y] for y in bits(row))
        hat = FiniteSpace._from_rows(len(irr), rows)
        return hat, ContinuousMap(self, hat, assignment)

    def connected_components(self):
        return _components(self.rows)

    def is_connected(self):
        return len(self.connected_components()) == 1

    def subspace(self, s):
        """Subspace on the points of mask s; returns (space, original indices)."""
        pts = tuple(bits(s))
        pos = {p: i for i, p in enumerate(pts)}
        rows = [mask_of(pos[q] for q in bits(self.rows[p] & s)) for p in pts]
        labels = tuple(self.label_of(p) for p in pts) if self.labels is not None else None
        return FiniteSpace._from_rows(len(pts), rows, labels), pts

    def inclusion(self, s):
        """Subspace on mask s together with its inclusion map into this space."""
        sub, pts = self.subspace(s)
        return sub, ContinuousMap(sub, self, pts)

    # -- locally closed sets ----------------------------------------------

    def locally_closed_witness(self, s):
        """Canonical (U, V) with V in U and U minus V = s, or None."""
        cl = self.closure(s)
        u = self.full ^ (cl & ~s)
        if s & ~self.full or not self.is_open(u):
            return None
        return (u, u & (self.full ^ cl))

    def locally_closed(self, s):
        """The witness (U, V) of s, or NotLocallyClosed with s as details.carrier."""
        w = self.locally_closed_witness(s)
        if w is None:
            raise NotLocallyClosed(
                f"{sorted(bits(s))} is not open in its closure", carrier=s)
        return w

    def locally_closed_sets(self):
        """Each locally closed mask S once, by family_key, as U minus V.

        With U the up-closure of S, V is an up-set of the points of U
        strictly above another point of U, and each such V leaves an S.
        """
        strict = [mask_of(y for y in bits(row) if self.rows[y] != row)
                  for row in self.rows]
        carriers = []
        for u in self.opens:
            above = 0
            for x in bits(u):
                above |= strict[x]
            carriers += (u & ~v for v in _up_sets(self.rows, above))
        return tuple(sorted_family(carriers))

    # -- T0-only structure --------------------------------------------------

    def _require_t0(self, what):
        if not self.is_t0():
            raise NotT0(f"{what} requires a T0 space")

    def hasse_edges(self):
        """Cover edges in drawn direction: (a, b) states U_a in U_b, b < a."""
        self._require_t0("hasse diagram")
        covers, _ = _covers(self.rows)
        return tuple(sorted((a, b) for b, up in enumerate(covers) for a in bits(up)))

    def length(self):
        """Cardinality of the longest specialisation chain: the number of strata."""
        self._require_t0("length")
        return self.canonical_filtration().length

    def canonical_filtration(self):
        """Peel off the open (maximal) points of the remainder, level by level."""
        self._require_t0("canonical filtration")
        layers = [0]
        strata = []
        rest = self.full
        while rest:
            stratum = mask_of(x for x in bits(rest)
                              if self.rows[x] & rest == 1 << x)
            strata.append(stratum)
            layers.append(layers[-1] | stratum)
            rest &= ~stratum
        return Filtration(tuple(layers), tuple(strata))

    # -- stock spaces -------------------------------------------------------

    @classmethod
    def empty(cls):
        return cls._from_rows(0, ())

    @classmethod
    def point(cls):
        return cls._from_rows(1, (1,))

    @classmethod
    def discrete(cls, n):
        return alexandrov_topology([1 << x for x in range(n)])

    @classmethod
    def chaotic(cls, n):
        # only the two mandatory opens; non-T0 for n >= 2
        return cls._from_rows(n, [mask_of(range(n))] * n)

    @classmethod
    def chain(cls, n):
        """Opens are the initial segments; point 0 is the open point."""
        return cls._from_rows(n, [(2 << x) - 1 for x in range(n)])

    @classmethod
    def sierpinski(cls):
        return cls.chain(2)


def _closure(size, pairs):
    """Rows of the reflexive-transitive closure of the pairs (x, y), x <= y."""
    rows = [1 << x for x in range(size)]
    for x, y in pairs:
        rows[x] |= 1 << y
    # Warshall: after step y, paths through the points 0..y are closed
    for y in range(size):
        for x in range(size):
            if rows[x] >> y & 1:
                rows[x] |= rows[y]
    return rows


def alexandrov_topology(rows):
    """The space whose opens are the up-sets of the preorder with these rows.

    Row x is the mask {y : x <= y}, which becomes U_x; there are len(rows)
    points.  A row outside the points raises ValueError, a point missing
    from its own row NotReflexive, and x <= y <= z without x <= z
    NotTransitive(x, y, z), all rows checked for the first two before any
    for the third.  Opens are listed on first use.  k classes of
    equivalent points allow at most 2 ** k opens; past OPEN_FAMILY_CAP, the
    up-sets are counted up to one more, and CapExceeded refuses a count
    past the cap before any open is built.  A count within the cap is
    exact, and the space keeps it.  MAX_POINTS is checked last.
    """
    rows = tuple(rows)
    size = len(rows)
    full = (1 << size) - 1
    for x, row in enumerate(rows):
        if row & ~full:
            raise ValueError(f"row {x} mentions points outside 0..{size - 1}")
        if not row >> x & 1:
            raise NotReflexive(f"{x} is not related to itself", point=x)
    for x, row in enumerate(rows):
        for y in bits(row):
            if rows[y] & ~row:
                z = next(bits(rows[y] & ~row))
                raise NotTransitive(
                    f"{x}<={y} and {y}<={z} but not {x}<={z}", witness=(x, y, z))
    count = None
    if 1 << len(set(rows)) > OPEN_FAMILY_CAP:
        count = _up_set_count(rows, OPEN_FAMILY_CAP)
        if count > OPEN_FAMILY_CAP:
            raise CapExceeded(f"Alexandrov topology exceeds {OPEN_FAMILY_CAP} opens",
                              cap=OPEN_FAMILY_CAP)
    return FiniteSpace._from_rows(size, rows, count=count)


class ContinuousMap:
    """A point map whose preimage of every codomain open is open."""

    __slots__ = ("domain", "codomain", "assignment")

    def __init__(self, domain, codomain, assignment):
        self.domain = domain
        self.codomain = codomain
        self.assignment = tuple(assignment)
        if len(self.assignment) != domain.size:
            raise ValueError("need one image per domain point")
        if any(not 0 <= v < codomain.size for v in self.assignment):
            raise ValueError("image point out of range")
        # preimages keep unions, so the first open (family order) that fails is a row
        for u in sorted_family(set(codomain.rows)):
            if not domain.is_open(self.preimage(u)):
                raise NotContinuous(
                    f"preimage of open {sorted(bits(u))} is not open", witness=u)

    def __eq__(self, other):
        return (isinstance(other, ContinuousMap)
                and self.domain == other.domain
                and self.codomain == other.codomain
                and self.assignment == other.assignment)

    def __hash__(self):
        return hash((self.domain, self.codomain, self.assignment))

    def __repr__(self):
        return f"ContinuousMap({self.assignment})"

    def __call__(self, x):
        return self.assignment[x]

    def preimage(self, m):
        return mask_of(p for p, v in enumerate(self.assignment) if m >> v & 1)

    def image_mask(self, m):
        return mask_of(self.assignment[p] for p in bits(m))

    @classmethod
    def identity(cls, space):
        return cls(space, space, range(space.size))

    def then(self, other):
        """Composition self followed by other."""
        if other.domain != self.codomain:
            raise DomainMismatch("composition needs matching middle space")
        return ContinuousMap(self.domain, other.codomain,
                             [other.assignment[v] for v in self.assignment])

    def is_injective(self):
        return len(set(self.assignment)) == self.domain.size

    def is_open_map(self):
        # images keep unions, and the opens are unions of rows
        return all(self.codomain.is_open(self.image_mask(u)) for u in self.domain.rows)

    def is_homeomorphism(self):
        return (self.domain.size == self.codomain.size
                and self.is_injective() and self.is_open_map())


class Filtration(namedtuple("Filtration", "layers strata")):
    """Open layers empty = F_0 < F_1 < ... < F_len = X with strata X_j."""

    __slots__ = ()

    @property
    def length(self):
        return len(self.strata)

    def level_of_set(self, s):
        """Smallest j with s contained in layer j (0 for the empty set)."""
        for j, layer in enumerate(self.layers):
            if s & ~layer == 0:
                return j
        raise ValueError("set not contained in the top layer")


def space_from_edges(size, edges, labels=None):
    """Space generated by drawn edges: (a, b) declares b strictly below a.

    The reflexive-transitive closure of the edges becomes the specialisation
    preorder (so the input need not be a transitive reduction), and the
    topology is its Alexandrov family of up-sets.  An edge with an end
    outside 0..size - 1 raises ValueError.
    """
    edges = tuple(edges)
    for a, b in edges:
        if not (0 <= a < size and 0 <= b < size):
            raise ValueError(f"edge ({a}, {b}) mentions points outside 0..{size - 1}")
    space = alexandrov_topology(_closure(size, ((b, a) for a, b in edges)))
    return space if labels is None else space.with_labels(labels)


def hasse_dot(space):
    """Render the cover diagram in DOT, each label a quoted id with \\ and " escaped."""
    ids = [str(space.label_of(x)).replace("\\", "\\\\").replace('"', '\\"')
           for x in range(space.size)]
    lines = ["digraph hasse {"]
    for x in range(space.size):
        lines.append(f'  "{ids[x]}";')
    for a, b in space.hasse_edges():
        lines.append(f'  "{ids[a]}" -> "{ids[b]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
