"""Finitely generated abelian groups by presentation, and exactness checking.

Groups are presentations (generators plus relator columns), never canonical
forms: equality is structural, isomorphism goes through Smith invariants.
On top sit graded groups, homomorphisms with well-definedness checks,
kernel/cokernel/image presentations, six-term cycles, filtrated data over a
finite space with the vanishing induction along the canonical filtration,
and the degenerate two-point long exact sequence.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (
    NotComposable,
    NotWellDefined,
    ShapeMismatch,
    SquareNotCommuting,
)
from .intmat import IntMatrix, _diagonal_solution, kernel_basis, smith_normal_form
from .spaces import _up_sets, bits, family_key, mask_of, sorted_family


class FGAbelianGroup:
    """Presentation of a finitely generated abelian group.

    relations is a (generators x relators) matrix whose columns are the
    relators.  Free rank and torsion coefficients come from the Smith
    normal form and are cached.
    """

    __slots__ = ("generators", "relations", "rank", "torsion")

    def __init__(self, generators, relations=None):
        if relations is None:
            relations = IntMatrix.zeros(generators, 0)
        if relations.rows != generators:
            raise ValueError("relations must have one row per generator")
        self.generators = generators
        self.relations = relations
        diag = smith_normal_form(relations)[1].diagonal()
        nonzero = [d for d in diag if d]
        self.rank = generators - len(nonzero)
        self.torsion = tuple(d for d in nonzero if d > 1)

    @classmethod
    def free(cls, n):
        return cls(n)

    @classmethod
    def zero(cls):
        return cls(0)

    @classmethod
    def cyclic(cls, d):
        return cls(1, IntMatrix([[d]]))

    @classmethod
    def direct_sum(cls, a, b):
        rel = IntMatrix(
            [list(row) + [0] * b.relations.cols for row in a.relations.entries]
            + [[0] * a.relations.cols + list(row) for row in b.relations.entries],
            a.generators + b.generators, a.relations.cols + b.relations.cols)
        return cls(a.generators + b.generators, rel)

    def invariants(self):
        return (self.rank, list(self.torsion))

    def is_zero(self):
        return self.rank == 0 and not self.torsion

    def order(self):
        """Number of elements, or None when infinite."""
        if self.rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def __eq__(self, other):
        return self is other or (isinstance(other, FGAbelianGroup)
                                 and self.generators == other.generators
                                 and self.relations == other.relations)

    def __hash__(self):
        return hash((self.generators, self.relations))

    def __repr__(self):
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return "FGAbelianGroup(" + (" + ".join(parts) if parts else "0") + ")"


class GradedGroup(namedtuple("GradedGroup", "even odd")):
    """A group in even degree and one in odd degree."""

    __slots__ = ()

    def is_zero(self):
        return self.even.is_zero() and self.odd.is_zero()


def _stray_column(columns, span):
    """Index of the first of the columns outside the column span of span, or
    None.  A zero column lies in every span, so only the others are tested;
    testing it makes datum checks 5.9% slower (BENCH_36.json extra.audit.zero_skip)."""
    for j, column in enumerate(columns):
        if any(column) and _diagonal_solution(span, column) is None:
            return j
    return None


class GroupHom:
    """Homomorphism given by a matrix on presentation generators.

    matrix is (codomain generators x domain generators); well-definedness
    means every domain relator maps into the span of codomain relators.
    columns holds the columns of matrix.
    """

    __slots__ = ("domain", "codomain", "matrix", "columns", "_reach", "_kernel")

    def __init__(self, domain, codomain, matrix):
        if matrix.rows != codomain.generators or matrix.cols != domain.generators:
            raise ShapeMismatch(
                f"matrix is {matrix.rows}x{matrix.cols}, expected "
                f"{codomain.generators}x{domain.generators}")
        if domain.relations.cols and _stray_column(
                map(matrix.apply, domain.relations.transpose().entries),
                codomain.relations) is not None:
            raise NotWellDefined("matrix does not respect the domain relations")
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        self.columns = matrix.transpose().entries
        self._reach = None
        self._kernel = None

    def reach(self):
        """[matrix | codomain relations], built at most once, factored once.

        A vector of the codomain lies in the image exactly when it lies in
        its column span, and the first domain.generators rows of its kernel
        generate the kernel of the map modulo domain relations.  Out of a
        zero group it is the codomain's relations, into a free group the
        matrix: the same objects, so their factorisations are shared; else
        datum checks are 3.8% slower (BENCH_36.json extra.audit.reach_shortcuts).
        """
        if not self.matrix.cols:
            return self.codomain.relations
        if not self.codomain.relations.cols:
            return self.matrix
        if self._reach is None:
            self._reach = self.matrix.hstack(self.codomain.relations)
        return self._reach

    def kernel_columns(self):
        """Columns that generate the kernel together with the domain
        relators, built once: the kernel of reach() cut to the domain."""
        if self._kernel is None:
            sols = kernel_basis(self.reach())
            self._kernel = sols.top(self.domain.generators).transpose().entries
        return self._kernel

    @classmethod
    def zero(cls, domain, codomain):
        return cls(domain, codomain, IntMatrix.zeros(codomain.generators,
                                                     domain.generators))

    @classmethod
    def identity(cls, group):
        return cls(group, group, IntMatrix.identity(group.generators))

    def __eq__(self, other):
        """Same presentations and same induced map (matrices may differ)."""
        return (isinstance(other, GroupHom)
                and self.domain == other.domain and self.codomain == other.codomain
                and _stray_column((self.matrix - other.matrix).transpose().entries,
                                  self.codomain.relations) is None)

    def __repr__(self):
        return f"GroupHom({self.domain!r} -> {self.codomain!r})"

    def __call__(self, coords):
        return self.matrix.apply(coords)


def _hom_from_rows(domain, codomain, rows):
    """The map given by the integer rows of its matrix.

    Rows cannot carry a column count: no rows and a codomain with no
    generators mean the 0 x domain.generators matrix.
    """
    if not rows and codomain.generators == 0:
        return GroupHom.zero(domain, codomain)
    return GroupHom(domain, codomain, IntMatrix(rows))


def compose(outer, inner):
    if inner.codomain != outer.domain:
        raise NotComposable("codomain of the inner map must equal the outer domain")
    return GroupHom(inner.domain, outer.codomain, outer.matrix @ inner.matrix)


def _subgroup_presentation(generating, ambient):
    """Present the subgroup of `ambient` generated by the columns of `generating`.

    Relations are all integer combinations of the columns that land in the
    relation span of the ambient presentation.
    """
    rel = kernel_basis(generating.hstack(ambient.relations))
    return FGAbelianGroup(generating.cols, rel.top(generating.cols))


def kernel(f):
    """The kernel subgroup with its inclusion into the domain."""
    gens = IntMatrix.from_columns(f.kernel_columns(), f.domain.generators).hstack(
        f.domain.relations)
    group = _subgroup_presentation(gens, f.domain)
    return group, GroupHom(group, f.domain, gens)


def cokernel(f):
    """Codomain with the image columns thrown in as extra relators."""
    group = FGAbelianGroup(f.codomain.generators,
                           f.codomain.relations.hstack(f.matrix))
    proj = GroupHom(f.codomain, group, IntMatrix.identity(f.codomain.generators))
    return group, proj


def image(f):
    """The image subgroup of the codomain with its inclusion."""
    group = _subgroup_presentation(f.matrix, f.codomain)
    return group, GroupHom(group, f.codomain, f.matrix)


class ExactnessReport(namedtuple("ExactnessReport", "ok reason witness",
                                  defaults=("", ()))):
    __slots__ = ()

    def __bool__(self):
        return self.ok


_EXACT = ExactnessReport(True)


def is_exact_at(f, g):
    """Exactness of A --f--> B --g--> C at B, with a witness when it fails.

    Checks that g after f induces zero, applying g to the columns of f,
    and that every kernel generator of g is hit by f modulo the relations
    of B.  The last kernel generators are B's relators, which are columns
    of f.reach() itself, so only g.kernel_columns() are tested.  Every
    exact node gets one shared report, a failing node its own.
    """
    if f.codomain != g.domain:
        raise NotComposable("maps do not meet at a common middle group")
    j = _stray_column(map(g.matrix.apply, f.columns), g.codomain.relations)
    if j is not None:
        return ExactnessReport(False, "composite is not zero", ("generator", j))
    kernel = g.kernel_columns()
    j = _stray_column(kernel, f.reach())
    if j is not None:
        return ExactnessReport(False, "kernel element not in the image",
                               ("kernel generator", kernel[j]))
    return _EXACT


class SixTermCycle:
    """Six maps in cyclic order, map i ending where map i + 1 starts.

    The groups of the cycle are the domains of its maps.
    """

    __slots__ = ("maps",)

    def __init__(self, maps):
        maps = tuple(maps)
        if len(maps) != 6:
            raise ShapeMismatch("a cycle needs six maps")
        for i in range(6):
            if maps[i].codomain != maps[(i + 1) % 6].domain:
                raise ShapeMismatch(f"map {i} does not end where map "
                                    f"{(i + 1) % 6} starts")
        self.maps = maps

    @property
    def groups(self):
        return tuple(m.domain for m in self.maps)

    def __eq__(self, other):
        return isinstance(other, SixTermCycle) and self.maps == other.maps


class CycleReport(namedtuple("CycleReport", "nodes")):
    __slots__ = ()

    @property
    def ok(self):
        return all(n.ok for n in self.nodes)

    def first_failure(self):
        for i, n in enumerate(self.nodes):
            if not n.ok:
                return i, n
        return None


def _cycle_nodes(cycle, decide):
    """decide(f, g) at each node of the cycle, node i between maps i - 1 and i."""
    return tuple([decide(cycle.maps[i - 1], cycle.maps[i]) for i in range(6)])


def verify_six_term(cycle):
    """Exactness verdict at each node of the cycle."""
    return CycleReport(_cycle_nodes(cycle, is_exact_at))


def _first_without_group(space, assignment):
    """The least locally closed mask by family_key with no group, or None.

    Taking a maximal class of equal rows from a locally closed set leaves
    an earlier one, so only 0 and each key k plus a class c with no point
    of k in its row are tested.
    """
    rows = space.rows
    classes = {row: mask_of(y for y in bits(row) if rows[y] == row) for row in rows}
    grown = {k | c for k in assignment for row, c in classes.items() if not row & k}
    grown.add(0)
    bare = [s for s in grown - assignment.keys() if space.locally_closed_witness(s)]
    return min(bare, key=family_key, default=None)


class FiltratedKDatum:
    """Graded groups over every locally closed subset plus their cycles.

    assignment maps carrier masks to GradedGroups; maps gives each pair
    (u, y), u relatively open in y, its six matrices as integer rows in
    cycle order.  The datum holds one object per distinct group: equal
    groups on several carriers, compared by value once per carrier, share
    one FGAbelianGroup, and carriers with the same two share a GradedGroup.
    It wires the maps into the six-term cycle on (even(u), even(y),
    even(y minus u), odd(u), odd(y), odd(y minus u)), building each
    distinct map once, keyed by the identities of its two groups and its
    rows, so the cycles that hold it share one GroupHom.  Pairs whose
    graded groups and rows object are the same, as datum_from_json gives
    every repeat of a maps list, share one SixTermCycle, wired once.

    The constructor raises each kind of fault before the next: an assigned
    carrier that is not locally closed (NotLocallyClosed), a locally
    closed set with no group (ShapeMismatch, the least by family_key,
    found from the keys, as details.carrier), a maps key that is not a
    relative-open pair, the first pair in pairs() order with no maps
    (both with details.pair), and last the first matrix, walking pairs()
    and each cycle in order, that is not a map between its groups
    (ShapeMismatch or NotWellDefined).  The datum keeps assignment in
    family_key order, cycles in pairs() order.
    """

    __slots__ = ("space", "assignment", "cycles")

    def __init__(self, space, assignment, maps):
        self.space = space
        for carrier in assignment:
            space.locally_closed(carrier)
        missing = _first_without_group(space, assignment)
        if missing is not None:
            raise ShapeMismatch(f"no group assigned to {sorted(bits(missing))}",
                                carrier=missing)
        # every locally closed set now has a group, and only those do; equal
        # groups become one object, so maps can be keyed by identity
        shared = {}
        by_parts = {}
        self.assignment = {}
        for c in sorted_family(assignment):
            g = assignment[c]
            g = GradedGroup(shared.setdefault(g.even, g.even),
                            shared.setdefault(g.odd, g.odd))
            self.assignment[c] = by_parts.setdefault((id(g.even), id(g.odd)), g)
        pairs = self.pairs()
        relative_open = set(pairs)
        for u, y in maps:
            if (u, y) not in relative_open:
                raise ShapeMismatch(
                    f"cycle ({sorted(bits(u))}, {sorted(bits(y))}) is not a "
                    "relative-open pair", pair=(u, y))
        # every key is now a pair, so some pair has no maps when keys are fewer
        if len(maps) < len(pairs):
            u, y = next(p for p in pairs if p not in maps)
            raise ShapeMismatch(
                f"missing cycle for ({sorted(bits(u))}, {sorted(bits(y))})",
                pair=(u, y))
        # maps keeps each rows object alive, the assignment each group
        built = {}
        wired = {}
        self.cycles = {}
        graded = self.assignment
        for u, y in pairs:
            gu, gy, gr = graded[u], graded[y], graded[y & ~u]
            rows = maps[(u, y)]
            key = (id(gu), id(gy), id(gr), id(rows))
            cycle = wired.get(key)
            if cycle is None:
                groups = (gu.even, gy.even, gr.even, gu.odd, gy.odd, gr.odd)
                if len(rows) != 6:
                    raise ShapeMismatch("a cycle needs six groups and six maps")
                homs = []
                for i, m in enumerate(rows):
                    a, b, m = groups[i], groups[(i + 1) % 6], tuple(map(tuple, m))
                    hom_key = (id(a), id(b), m)
                    hom = built.get(hom_key)
                    if hom is None:
                        hom = built[hom_key] = _hom_from_rows(a, b, m)
                    homs.append(hom)
                cycle = wired[key] = SixTermCycle(homs)
            self.cycles[(u, y)] = cycle

    def pairs(self):
        """All (u, y): y locally closed, u = y & w for an open w.

        The u for one y are the opens of the subspace on y.  Pairs come by
        y, then u, each in family_key order.
        """
        rows = self.space.rows
        return [(u, y) for y in self.assignment for u in _up_sets(rows, y)]


class DatumReport(namedtuple("DatumReport", "results")):
    """results holds ((u, y), CycleReport) pairs; ok reads each distinct one
    once, else datum checks are 3.4% slower (BENCH_36.json extra.audit.ok_dedup)."""

    __slots__ = ()

    @property
    def ok(self):
        return all(r.ok for r in {id(r): r for _, r in self.results}.values())


def verify_datum(datum):
    """Exactness of the cycle of every relative-open pair, in pairs() order.

    Neighbouring pairs share groups and maps, so one node turns up in many
    cycles.  The datum holds one object per distinct group and one
    GroupHom per distinct map and keeps each alive for the call, so the
    wiring check at a node is one identity test, each map builds its
    kernel generators once, and each distinct node is decided once, its
    verdict kept for this call only under the identities of its two maps.
    Pairs that share one SixTermCycle, or whose cycles meet equal
    verdicts, share one CycleReport, built for the first of them alone:
    each distinct cycle is decided once, else the datum commands are 6.2%
    slower (BENCH_36.json extra.audit.reports).
    """
    verdicts = {}
    reports = {}
    shared = {}

    def decide(f, g):
        key = (id(f), id(g))
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = is_exact_at(f, g)
        return verdict

    results = []
    for pair, cycle in datum.cycles.items():
        report = reports.get(id(cycle))
        if report is None:
            nodes = _cycle_nodes(cycle, decide)
            report = shared.get(nodes)
            if report is None:
                report = shared[nodes] = CycleReport(nodes)
            reports[id(cycle)] = report
        results.append((pair, report))
    return DatumReport(tuple(results))


class PropagationReport(namedtuple("PropagationReport", "ok deviation",
                                    defaults=((),))):
    """deviation is (carrier, (u, y) step) when not ok."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


def vanishing_propagation(datum):
    """Re-run the induction: zero on points forces zero on every carrier.

    Locally closed sets are walked by (filtration level, size).  The first
    carrier y whose assigned group is not zero is reported together with
    the split pair that forces it: the part of y in the previous filtration
    layer when that is not empty, else y minus its smallest point, and
    (0, y) when y has at most one point.
    """
    filt = datum.space.canonical_filtration()
    order = sorted(datum.assignment,
                   key=lambda s: (filt.level_of_set(s), s.bit_count(), s))
    for y in order:
        if datum.assignment[y].is_zero():
            continue
        below = y & filt.layers[filt.level_of_set(y) - 1]
        if below:
            step = (below, y)
        elif y.bit_count() > 1:
            step = (y & ~(y & -y), y)
        else:
            step = (0, y)
        return PropagationReport(False, (y, step))
    return PropagationReport(True)


class TwoPointReport(namedtuple("TwoPointReport",
                                 "delta kernel cokernel middle note",
                                 defaults=("",))):
    """delta with its kernel and cokernel; middle is None when ambiguous."""

    __slots__ = ()


def two_point_sequence(top, right, left, bottom):
    """Collapse the commuting square into its diagonal boundary map.

    delta = right after top (= bottom after left); returns its kernel and
    cokernel, and when the kernel is free the middle group of the extension
    cokernel >-> middle ->> kernel, which then splits.  A torsion kernel
    leaves the middle group undetermined and says so.
    """
    if right.domain != top.codomain:
        raise ShapeMismatch("right map must start where the top map ends")
    if bottom.domain != left.codomain:
        raise ShapeMismatch("bottom map must start where the left map ends")
    if left.domain != top.domain:
        raise ShapeMismatch("top and left maps must share their domain")
    if bottom.codomain != right.codomain:
        raise ShapeMismatch("right and bottom maps must share their codomain")
    diff = right.matrix @ top.matrix - bottom.matrix @ left.matrix
    j = _stray_column(diff.transpose().entries, right.codomain.relations)
    if j is not None:
        raise SquareNotCommuting("the two composites differ",
                                 witness=("generator", j, diff.column(j)))
    delta = compose(right, top)
    ker, _ = kernel(delta)
    coker, _ = cokernel(delta)
    if ker.torsion:
        return TwoPointReport(delta, ker, coker, None,
                              "kernel has torsion; the extension is ambiguous")
    return TwoPointReport(delta, ker, coker, FGAbelianGroup.direct_sum(coker, ker))
