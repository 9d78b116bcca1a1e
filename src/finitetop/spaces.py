"""Finite topological spaces with bitmask point sets.

Points are indices 0..n-1 and every subset is a machine-word bit mask, so a
space is its size plus the sorted tuple of open-set masks.  The open family
of a finite space is closed under pairwise union and intersection, which is
all the closure a finite family ever needs.

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

from dataclasses import dataclass
from math import prod

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
    # canonical iteration order for set families: by size, then numerically
    return (mask.bit_count(), mask)


class FiniteSpace:
    """A finite point set {0..size-1} with an explicit family of opens.

    The family is deduplicated and stored sorted by (popcount, value);
    equality of spaces is equality of size and sorted family.  Optional
    display labels are carried along for output but ignored by equality.
    """

    __slots__ = ("size", "opens", "full", "labels", "_open_set", "_min_open")

    def __init__(self, size, opens, labels=None, validate=True):
        if not 0 <= size <= MAX_POINTS:
            raise CapExceeded(f"point count {size} outside 0..{MAX_POINTS}", size=size)
        self.size = size
        self.full = (1 << size) - 1
        family = sorted(set(opens), key=family_key)
        self.opens = tuple(family)
        self._open_set = frozenset(family)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != size or len(set(labels)) != size:
                raise ValueError("labels must be unique and one per point")
        self.labels = labels
        if validate:
            self._check_family()
        self._min_open = None

    def _check_family(self):
        for m in self.opens:
            if m & ~self.full:
                raise ValueError(f"open {m:#x} not within ground set of size {self.size}")
        if 0 not in self._open_set:
            raise MissingEmpty("empty set is not open")
        if self.full not in self._open_set:
            raise MissingFull("full set is not open")
        fam = self.opens
        for i, a in enumerate(fam):
            for b in fam[i + 1:]:
                if a | b not in self._open_set:
                    raise NotClosedUnderUnion(
                        f"union of {sorted(bits(a))} and {sorted(bits(b))} is not open",
                        witness=(a, b))
                if a & b not in self._open_set:
                    raise NotClosedUnderIntersection(
                        f"intersection of {sorted(bits(a))} and {sorted(bits(b))} is not open",
                        witness=(a, b))

    # -- basic structure -------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FiniteSpace)
                and self.size == other.size and self.opens == other.opens)

    def __hash__(self):
        return hash((self.size, self.opens))

    def __repr__(self):
        sets = [sorted(bits(m)) for m in self.opens]
        return f"FiniteSpace(size={self.size}, opens={sets})"

    def label_of(self, x):
        return self.labels[x] if self.labels is not None else str(x)

    def is_open(self, m):
        return m in self._open_set

    def closed_sets(self):
        return tuple(sorted((self.full ^ m for m in self.opens), key=family_key))

    def closure(self, s):
        """Smallest closed superset: drop every open disjoint from s."""
        away = 0
        for m in self.opens:
            if m & s == 0:
                away |= m
        return self.full ^ away

    def interior(self, s):
        inside = 0
        for m in self.opens:
            if m & ~s == 0:
                inside |= m
        return inside

    def minimal_open(self, x):
        """U_x, the intersection of all opens containing x."""
        if self._min_open is None:
            table = []
            for p in range(self.size):
                acc = self.full
                for m in self.opens:
                    if m >> p & 1:
                        acc &= m
                table.append(acc)
            self._min_open = tuple(table)
        return self._min_open[x]

    # -- order structure --------------------------------------------------

    def specialization(self):
        """Specialisation preorder; row x is {y : x <= y} = U_x."""
        return Preorder(self.size, [self.minimal_open(x) for x in range(self.size)],
                        validate=False)

    def is_t0(self):
        return len({self.minimal_open(x) for x in range(self.size)}) == self.size

    def irreducible_closed_sets(self):
        """The distinct point closures: in a finite space, all the irreducible ones."""
        return tuple(sorted({self.closure(1 << x) for x in range(self.size)},
                            key=family_key))

    def is_sober(self):
        """Finite spaces are sober exactly when they are T0."""
        return self.is_t0()

    def sobrification(self):
        """The T0 quotient: points are the irreducible closed sets.

        The map sends x to closure({x}) and the opens of the result are the
        images of the opens here.  The preimage map on opens is a lattice
        isomorphism, tested as a property.
        """
        irr = self.irreducible_closed_sets()
        index = {c: i for i, c in enumerate(irr)}
        assignment = [index[self.closure(1 << x)] for x in range(self.size)]
        hat = FiniteSpace(len(irr), {mask_of(assignment[x] for x in bits(u))
                                     for u in self.opens}, validate=False)
        return hat, ContinuousMap(self, hat, assignment)

    def connected_components(self):
        rows = [self.minimal_open(x) for x in range(self.size)]
        adj = list(rows)
        for x in range(self.size):
            for y in bits(rows[x]):
                adj[y] |= 1 << x
        seen = 0
        out = []
        for x in range(self.size):
            if seen >> x & 1:
                continue
            comp = 1 << x
            frontier = 1 << x
            while frontier:
                grown = comp
                for y in bits(frontier):
                    grown |= adj[y]
                frontier = grown & ~comp
                comp = grown
            out.append(comp)
            seen |= comp
        return tuple(out)

    def is_connected(self):
        return len(self.connected_components()) == 1

    def subspace(self, s):
        """Subspace on the points of mask s; returns (space, original indices)."""
        pts = tuple(bits(s))
        pos = {p: i for i, p in enumerate(pts)}
        sub = {mask_of(pos[p] for p in bits(m & s)) for m in self.opens}
        labels = tuple(self.label_of(p) for p in pts) if self.labels is not None else None
        return FiniteSpace(len(pts), sub, labels=labels, validate=False), pts

    def inclusion(self, s):
        """Subspace on mask s together with its inclusion map into this space."""
        sub, pts = self.subspace(s)
        return sub, ContinuousMap(sub, self, pts, validate=False)

    # -- locally closed sets ----------------------------------------------

    def locally_closed_witness(self, s):
        """Canonical (U, V) with V in U and U minus V = s, or None."""
        cl = self.closure(s)
        u = self.full ^ (cl & ~s)
        if u not in self._open_set:
            return None
        v = u & (self.full ^ cl)
        return (u, v)

    def is_locally_closed(self, s):
        return self.locally_closed_witness(s) is not None

    def locally_closed(self, s):
        w = self.locally_closed_witness(s)
        if w is None:
            raise NotLocallyClosed(
                f"{sorted(bits(s))} is not open in its closure", carrier=s)
        return LocallyClosedSet(s, w[0], w[1])

    def locally_closed_sets(self):
        carriers = {u & ~v for u in self.opens for v in self.opens}
        return tuple(self.locally_closed(c) for c in sorted(carriers, key=family_key))

    def locally_closed_witnesses(self, s):
        """Every witness pair (U, V): V in U, U minus V = s."""
        out = []
        for u in self.opens:
            for v in self.opens:
                if v & ~u == 0 and u & ~v == s:
                    out.append((u, v))
        return out

    # -- T0-only structure --------------------------------------------------

    def _require_t0(self, what):
        if not self.is_t0():
            raise NotT0(f"{what} requires a T0 space")

    def hasse_edges(self):
        """Cover edges in drawn direction: (a, b) states U_a in U_b, b < a."""
        self._require_t0("hasse diagram")
        up = [self.minimal_open(x) & ~(1 << x) for x in range(self.size)]
        edges = []
        for b in range(self.size):
            for a in bits(up[b]):
                if not any(up[z] >> a & 1 for z in bits(up[b] & ~(1 << a))):
                    edges.append((a, b))
        return tuple(sorted(edges))

    def length(self):
        """Cardinality of the longest specialisation chain."""
        self._require_t0("length")
        up = [self.minimal_open(x) & ~(1 << x) for x in range(self.size)]
        memo = {}

        def h(x):
            if x not in memo:
                memo[x] = 1 + max((h(y) for y in bits(up[x])), default=0)
            return memo[x]

        return max((h(x) for x in range(self.size)), default=0)

    def canonical_filtration(self):
        """Peel off the open (maximal) points of the remainder, level by level."""
        self._require_t0("canonical filtration")
        layers = [0]
        strata = []
        rest = self.full
        while rest:
            stratum = mask_of(x for x in bits(rest)
                              if self.minimal_open(x) & rest == 1 << x)
            strata.append(stratum)
            layers.append(layers[-1] | stratum)
            rest &= ~stratum
        return Filtration(tuple(layers), tuple(strata))

    # -- stock spaces -------------------------------------------------------

    @classmethod
    def empty(cls):
        return cls(0, [0], validate=False)

    @classmethod
    def point(cls):
        return cls(1, [0, 1], validate=False)

    @classmethod
    def discrete(cls, n):
        return alexandrov_topology(Preorder.discrete(n))

    @classmethod
    def chaotic(cls, n):
        # only the two mandatory opens; non-T0 for n >= 2
        return cls(n, [0, (1 << n) - 1], validate=False)

    @classmethod
    def chain(cls, n):
        """Opens are the initial segments; point 0 is the open point."""
        return cls(n, [(1 << k) - 1 for k in range(n + 1)], validate=False)

    @classmethod
    def sierpinski(cls):
        return cls.chain(2)


def validate_topology(size, family, labels=None):
    """Check the open-family axioms and return the space (deduplicated, sorted)."""
    return FiniteSpace(size, family, labels=labels, validate=True)


class Preorder:
    """Reflexive transitive relation; row x is the up-set mask {y : x <= y}."""

    __slots__ = ("size", "leq")

    def __init__(self, size, rows, validate=True):
        self.size = size
        self.leq = tuple(rows)
        if len(self.leq) != size:
            raise ValueError("need one relation row per point")
        if validate:
            full = (1 << size) - 1
            for x, row in enumerate(self.leq):
                if row & ~full:
                    raise ValueError(f"row {x} mentions points outside 0..{size - 1}")
                if not row >> x & 1:
                    raise NotReflexive(f"{x} is not related to itself", point=x)
            for x, row in enumerate(self.leq):
                for y in bits(row):
                    if self.leq[y] & ~row:
                        z = next(bits(self.leq[y] & ~row))
                        raise NotTransitive(
                            f"{x}<={y} and {y}<={z} but not {x}<={z}", witness=(x, y, z))

    def __eq__(self, other):
        return (isinstance(other, Preorder)
                and self.size == other.size and self.leq == other.leq)

    def __hash__(self):
        return hash((self.size, self.leq))

    def __repr__(self):
        return f"Preorder(size={self.size}, pairs={self.pairs()})"

    def pairs(self):
        return [(x, y) for x in range(self.size) for y in bits(self.leq[x])]

    def up_set(self, x):
        return self.leq[x]

    def down_set(self, x):
        return mask_of(y for y in range(self.size) if self.leq[y] >> x & 1)

    @classmethod
    def generated_by(cls, size, pairs):
        """Reflexive-transitive closure of the given pairs."""
        rows = [1 << x for x in range(size)]
        for x, y in pairs:
            rows[x] |= 1 << y
        changed = True
        while changed:
            changed = False
            for x in range(size):
                acc = rows[x]
                for y in bits(rows[x]):
                    acc |= rows[y]
                if acc != rows[x]:
                    rows[x] = acc
                    changed = True
        return cls(size, rows, validate=False)

    @classmethod
    def discrete(cls, n):
        return cls(n, [1 << x for x in range(n)], validate=False)


def alexandrov_topology(pre, *, cap=OPEN_FAMILY_CAP):
    """The space whose opens are all up-closed subsets of the preorder.

    Equivalent points (x <= y <= x) enter or leave an up-set together, so the
    recursion runs over condensed classes, most-open classes first.  Raises
    CapExceeded past cap opens.  Up-set counts multiply over the connected
    components, and a component with k classes, m of them maximal, has at
    least max(k + 1, 2 ** m) up-sets: the empty one and one per principal
    up-set, or any union of maximal classes.  The product of these bounds
    refuses wide preorders before the recursion, with at_least in details.
    """
    n = pre.size
    rows = pre.leq
    geq = [pre.down_set(x) for x in range(n)]
    classes = []
    seen = 0
    for x in range(n):
        if seen >> x & 1:
            continue
        cls = rows[x] & geq[x]
        classes.append((rows[x].bit_count(), cls, rows[x] & ~cls))
        seen |= cls
    classes.sort()
    # k + 1 and 2 ** m are at most 2 ** k, so the bound is at most
    # 2 ** (all classes) and is skipped when that fits
    if 1 << len(classes) > cap:
        # a class comes after every class above it: one pass finds components
        components = []  # (points, classes, maximal classes)
        for _, cls, above in classes:
            merged, k, m = cls, 1, int(not above)
            rest = []
            for comp in components:
                if comp[0] & above:
                    merged |= comp[0]
                    k += comp[1]
                    m += comp[2]
                else:
                    rest.append(comp)
            rest.append((merged, k, m))
            components = rest
        at_least = prod(max(k + 1, 1 << m) for _, k, m in components)
        if at_least > cap:
            raise CapExceeded(f"Alexandrov topology exceeds {cap} opens",
                              cap=cap, at_least=at_least)
    opens = []

    def rec(i, cur):
        if i == len(classes):
            if len(opens) >= cap:
                raise CapExceeded(f"Alexandrov topology exceeds {cap} opens",
                                  cap=cap)
            opens.append(cur)
            return
        _, cls, above = classes[i]
        rec(i + 1, cur)
        if above & ~cur == 0:
            rec(i + 1, cur | cls)

    rec(0, 0)
    return FiniteSpace(n, opens, validate=False)


class ContinuousMap:
    """A point map whose preimage of every codomain open is open."""

    __slots__ = ("domain", "codomain", "assignment")

    def __init__(self, domain, codomain, assignment, validate=True):
        self.domain = domain
        self.codomain = codomain
        self.assignment = tuple(assignment)
        if len(self.assignment) != domain.size:
            raise ValueError("need one image per domain point")
        if any(not 0 <= v < codomain.size for v in self.assignment):
            raise ValueError("image point out of range")
        if validate:
            for u in codomain.opens:
                if self.preimage(u) not in domain._open_set:
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
        return cls(space, space, range(space.size), validate=False)

    def then(self, other):
        """Composition self followed by other."""
        if other.domain != self.codomain:
            raise DomainMismatch("composition needs matching middle space")
        return ContinuousMap(self.domain, other.codomain,
                             [other.assignment[v] for v in self.assignment],
                             validate=False)

    def is_injective(self):
        return len(set(self.assignment)) == self.domain.size

    def is_open_map(self):
        return all(self.image_mask(u) in self.codomain._open_set
                   for u in self.domain.opens)

    def is_homeomorphism(self):
        return (self.domain.size == self.codomain.size
                and self.is_injective() and self.is_open_map())


@dataclass(frozen=True)
class LocallyClosedSet:
    """A difference U minus V of opens; build via FiniteSpace.locally_closed."""

    carrier: int
    u: int
    v: int

    @property
    def witness(self):
        return (self.u, self.v)


@dataclass(frozen=True)
class Filtration:
    """Open layers empty = F_0 < F_1 < ... < F_len = X with strata X_j."""

    layers: tuple
    strata: tuple

    @property
    def length(self):
        return len(self.strata)

    def level_of(self, x):
        """1-based index of the stratum containing point x."""
        for j, s in enumerate(self.strata, start=1):
            if s >> x & 1:
                return j
        raise ValueError(f"point {x} not in any stratum")

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
    topology is its Alexandrov family of up-sets.
    """
    pre = Preorder.generated_by(size, ((b, a) for a, b in edges))
    space = alexandrov_topology(pre)
    if labels is not None:
        space = FiniteSpace(space.size, space.opens, labels=labels, validate=False)
    return space


def hasse_dot(space):
    """Render the cover diagram in DOT, one node per point, drawn direction."""
    lines = ["digraph hasse {"]
    for x in range(space.size):
        lines.append(f'  "{space.label_of(x)}";')
    for a, b in space.hasse_edges():
        lines.append(f'  "{space.label_of(a)}" -> "{space.label_of(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
