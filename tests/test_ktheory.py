import random

import pytest

from finitetop import intmat, jsonio, kjsonio, ktheory
from finitetop.errors import (NotComposable, NotLocallyClosed, NotWellDefined,
                              ShapeMismatch, SquareNotCommuting)
from finitetop.intmat import IntMatrix, kernel_basis
from finitetop.ktheory import (CycleReport, FGAbelianGroup, FiltratedKDatum,
                               GradedGroup, GroupHom,
                               SixTermCycle, cokernel, compose, image,
                               is_exact_at, kernel, two_point_sequence,
                               vanishing_propagation, verify_datum,
                               verify_six_term)
from finitetop.spaces import FiniteSpace, family_key
from fixtures import (constant_zero_datum, datum_rows, datum_to_json,
                      point_count_datum, random_divisors, random_torsion_cycle,
                      random_torsion_datum, random_zero_composite, zero_rows)
from oracles import (brute_locally_closed, brute_verify_datum, diagonal_group,
                     element_exact, element_image, element_kernel,
                     random_poset_space, random_space, random_torsion_hom)

Z = FGAbelianGroup.free
CYCLIC = FGAbelianGroup.cyclic


def is_zero_hom(f):
    return f == GroupHom.zero(f.domain, f.codomain)


def exact_by_elements(f, g, a_divs, b_divs, c_divs):
    return element_exact(f.matrix.entries, g.matrix.entries,
                         a_divs, b_divs, c_divs)


# -- groups ---------------------------------------------------------------------


def test_group_invariants():
    assert Z(2).invariants() == (2, [])
    assert CYCLIC(6).invariants() == (0, [6])
    assert CYCLIC(1).is_zero()
    assert FGAbelianGroup.zero().invariants() == (0, [])
    assert FGAbelianGroup.direct_sum(Z(1), CYCLIC(2)).invariants() == (1, [2])
    # the presentation Z^2/(2e1, 3e2) smooths out to a single Z/6
    assert diagonal_group((2, 3)).invariants() == (0, [6])


def test_group_order():
    assert FGAbelianGroup.zero().order() == 1
    assert CYCLIC(4).order() == 4
    assert diagonal_group((2, 3, 4)).order() == 24
    assert Z(1).order() is None


def test_group_equality_is_structural():
    trivial = FGAbelianGroup(2, IntMatrix.identity(2))
    assert trivial.is_zero()
    assert trivial != FGAbelianGroup.zero()
    assert trivial.invariants() == FGAbelianGroup.zero().invariants()
    with pytest.raises(ValueError):
        FGAbelianGroup(2, IntMatrix([[3]]))


def test_groups_and_data_refuse_entries_that_are_not_integers():
    # Z/2.5 is not Z/2, and a datum given float or text rows is refused,
    # not truncated
    for bad in (2.5, "2", True):
        with pytest.raises(ValueError):
            CYCLIC(bad)
    space = FiniteSpace.sierpinski()
    good = point_count_datum(space)
    rows = datum_rows(good)
    for bad in (1.0, "1"):
        maps = {**rows, (1, 3): [[[bad], [0]]] + rows[(1, 3)][1:]}
        with pytest.raises(ValueError):
            FiltratedKDatum(space, good.assignment, maps)


def test_graded_group():
    assert GradedGroup(FGAbelianGroup.zero(), CYCLIC(1)).is_zero()
    assert not GradedGroup(Z(1), FGAbelianGroup.zero()).is_zero()


# -- homomorphisms ----------------------------------------------------------------


def test_hom_well_definedness():
    with pytest.raises(NotWellDefined):
        GroupHom(CYCLIC(2), Z(1), IntMatrix([[1]]))
    with pytest.raises(NotWellDefined):
        GroupHom(CYCLIC(2), CYCLIC(4), IntMatrix([[1]]))
    doubling = GroupHom(CYCLIC(2), CYCLIC(4), IntMatrix([[2]]))
    assert not is_zero_hom(doubling)
    with pytest.raises(ShapeMismatch):
        GroupHom(Z(2), Z(1), IntMatrix([[1]]))


def test_hom_equality_modulo_relations():
    a = GroupHom(Z(1), CYCLIC(3), IntMatrix([[1]]))
    b = GroupHom(Z(1), CYCLIC(3), IntMatrix([[4]]))
    assert a == b
    assert a != GroupHom(Z(1), CYCLIC(3), IntMatrix([[2]]))
    assert is_zero_hom(GroupHom(Z(1), CYCLIC(2), IntMatrix([[2]])))


def test_compose():
    double = GroupHom(Z(1), Z(1), IntMatrix([[2]]))
    triple = GroupHom(Z(1), Z(1), IntMatrix([[3]]))
    assert compose(double, triple).matrix == IntMatrix([[6]])
    assert compose(double, triple)((1,)) == (6,)
    with pytest.raises(NotComposable):
        compose(double, GroupHom.zero(Z(1), Z(2)))


def test_kernel_cokernel_image_of_doubling():
    double = GroupHom(Z(1), Z(1), IntMatrix([[2]]))
    assert kernel(double)[0].is_zero()
    assert cokernel(double)[0].invariants() == (0, [2])
    assert image(double)[0].invariants() == (1, [])


def test_kernel_of_reduction():
    red = GroupHom(CYCLIC(4), CYCLIC(2), IntMatrix([[1]]))
    grp, incl = kernel(red)
    assert grp.invariants() == (0, [2])
    assert is_zero_hom(compose(red, incl))
    assert cokernel(red)[0].is_zero()
    assert image(red)[0].invariants() == (0, [2])


def test_kernel_of_sum_map():
    add = GroupHom(Z(2), Z(1), IntMatrix([[1, 1]]))
    grp, incl = kernel(add)
    assert grp.invariants() == (1, [])
    assert is_zero_hom(compose(add, incl))
    assert cokernel(add)[0].is_zero()


def test_subgroup_orders_match_element_counts():
    rng = random.Random(900)
    for _ in range(60):
        a, b = random_divisors(rng), random_divisors(rng)
        f = GroupHom(diagonal_group(a), diagonal_group(b),
                     random_torsion_hom(rng, a, b))
        ker_n = len(element_kernel(f.matrix.entries, a, b))
        img_n = len(element_image(f.matrix.entries, a, b))
        assert kernel(f)[0].order() == ker_n
        assert image(f)[0].order() == img_n
        assert cokernel(f)[0].order() * img_n == diagonal_group(b).order()
        assert is_zero_hom(compose(f, kernel(f)[1]))
        assert is_zero_hom(compose(cokernel(f)[1], f))


# -- exactness against element enumeration ----------------------------------------


def test_split_sequences_are_exact():
    for d in (2, 3, 4, 6):
        for e in (2, 3, 5):
            a, b, c = diagonal_group((d,)), diagonal_group((d, e)), diagonal_group((e,))
            f = GroupHom(a, b, IntMatrix([[1], [0]]))
            g = GroupHom(b, c, IntMatrix([[0, 1]]))
            assert is_exact_at(f, g).ok
            assert exact_by_elements(f, g, (d,), (d, e), (e,))
            broken = GroupHom.zero(a, b)
            report = is_exact_at(broken, g)
            assert not report.ok
            assert report.reason == "kernel element not in the image"
            assert not exact_by_elements(broken, g, (d,), (d, e), (e,))


def test_exactness_matches_elements_on_random_pairs():
    rng = random.Random(901)
    checked = 0
    for _ in range(26):
        a, b, c = (random_divisors(rng) for _ in range(3))
        ga, gb, gc = (diagonal_group(d) for d in (a, b, c))
        g = GroupHom(gb, gc, random_torsion_hom(rng, b, c))
        # one unconstrained map and one with composite forced to zero
        free_f = GroupHom(ga, gb, random_torsion_hom(rng, a, b))
        tied_f = GroupHom(ga, gb,
                          random_zero_composite(rng, a, b, g.matrix.entries, c))
        for f in (free_f, tied_f):
            assert is_exact_at(f, g).ok == exact_by_elements(f, g, a, b, c)
            checked += 1
    assert checked >= 50


def test_exactness_requires_meeting_maps():
    with pytest.raises(NotComposable):
        is_exact_at(GroupHom.zero(Z(1), Z(2)), GroupHom.zero(Z(1), Z(1)))


def test_kernel_generator_witness_is_pinned():
    # B = Z^2 + Z/4 onto C = Z/6 + Z; f is zero, so the first kernel
    # generator of g is the witness
    b = FGAbelianGroup(3, IntMatrix([[0], [0], [4]]))
    c = FGAbelianGroup(2, IntMatrix([[6], [0]]))
    g = GroupHom(b, c, IntMatrix([[2, 3, 3], [1, 1, 0]]))
    report = is_exact_at(GroupHom.zero(Z(1), b), g)
    assert not report.ok
    assert report.reason == "kernel element not in the image"
    assert report.witness == ("kernel generator", (3, -3, 1))
    assert g((3, -3, 1)) == (0, 0)


def test_composite_not_zero_witness():
    ident = GroupHom.identity(Z(1))
    report = is_exact_at(ident, ident)
    assert not report.ok
    assert report.reason == "composite is not zero"
    assert report.witness == ("generator", 0)


# -- six-term cycles ---------------------------------------------------------------


def test_cycle_wiring():
    zero = FGAbelianGroup.zero()
    z = GroupHom.zero(zero, zero)
    with pytest.raises(ShapeMismatch) as err:
        SixTermCycle((z,) * 5)
    assert str(err.value) == "a cycle needs six maps"
    # map 3 ends in Z, where map 4 does not start
    with pytest.raises(ShapeMismatch) as err:
        SixTermCycle((z,) * 3 + (GroupHom.zero(zero, Z(1)),) + (z,) * 2)
    assert str(err.value) == "map 3 does not end where map 4 starts"
    cycle = SixTermCycle([z] * 6)
    assert cycle.maps == (z,) * 6 and cycle.groups == (zero,) * 6


def test_six_term_matches_elements():
    rng = random.Random(902)
    for _ in range(30):
        divs, cycle = random_torsion_cycle(rng)
        report = verify_six_term(cycle)
        expected = []
        for i in range(6):
            expected.append(exact_by_elements(
                cycle.maps[(i - 1) % 6], cycle.maps[i],
                divs[(i - 1) % 6], divs[i], divs[(i + 1) % 6]))
        assert [n.ok for n in report.nodes] == expected
        assert report.ok == all(expected)
        if report.first_failure() is not None:
            assert report.first_failure()[0] == expected.index(False)


def test_canonical_kernel_cokernel_cycle_is_exact():
    rng = random.Random(903)
    zero = FGAbelianGroup.zero()
    for _ in range(40):
        if rng.random() < 0.5:
            a, b = random_divisors(rng), random_divisors(rng)
            f = GroupHom(diagonal_group(a), diagonal_group(b),
                         random_torsion_hom(rng, a, b))
        else:
            rows, cols = rng.randint(0, 3), rng.randint(0, 3)
            m = IntMatrix([[rng.randint(-4, 4) for _ in range(cols)]
                           for _ in range(rows)], rows, cols)
            f = GroupHom(Z(cols), Z(rows), m)
        ker, incl = kernel(f)
        cok, proj = cokernel(f)
        cycle = SixTermCycle((incl, f, proj, GroupHom.zero(cok, zero),
                              GroupHom.zero(zero, zero), GroupHom.zero(zero, ker)))
        assert cycle.groups == (ker, f.domain, f.codomain, cok, zero, zero)
        assert verify_six_term(cycle).ok


# -- filtrated data ----------------------------------------------------------------


def test_pairs_are_relative_opens():
    # every relative open once, in order; equal rows in the non-T0 spaces
    # exercise the "strictly above" rule of the listing
    rng = random.Random(907)
    spaces = [random_poset_space(random.Random(904), 4)]
    spaces += [(random_space if i % 2 else random_poset_space)(rng, rng.randint(5, 7))
               for i in range(30)]
    for space in spaces:
        want = {(y & w, y) for y in brute_locally_closed(space)
                for w in space.opens}
        assert constant_zero_datum(space).pairs() == sorted(
            want, key=lambda p: (family_key(p[1]), family_key(p[0])))


def test_point_count_datum_verifies():
    for space in (FiniteSpace.sierpinski(), FiniteSpace.chain(3),
                  random_poset_space(random.Random(905), 4)):
        report = verify_datum(point_count_datum(space))
        assert report.ok
        assert all(rep.ok for _, rep in report.results)


def test_datum_refuses_carriers_and_pairs_it_never_checks():
    space = FiniteSpace.chain(3)
    good = constant_zero_datum(space)
    groups, cycles = good.assignment, dict.fromkeys(good.pairs(), [[]] * 6)
    # {0, 2} is not locally closed in the chain; ({1}, {0, 1}) has an open
    # that is not open in its set, (0, {0, 2}) a set that is not locally
    # closed, and ({2}, {0, 1}) an open outside its set
    odd = {**groups, 0b101: groups[0]}
    with pytest.raises(NotLocallyClosed) as err:
        FiltratedKDatum(space, odd, cycles)
    assert err.value.details == {"carrier": 0b101}
    for pair in ((0b010, 0b011), (0, 0b101), (0b100, 0b011)):
        with pytest.raises(ShapeMismatch) as err:
            FiltratedKDatum(space, groups, {**cycles, pair: cycles[(0, 0)]})
        assert err.value.details == {"pair": pair}
    # faults come carriers first, then missing groups, then pairs
    missing = {c: g for c, g in odd.items() if c != 0b001}
    stray = {**cycles, (0b010, 0b011): cycles[(0, 0)]}
    with pytest.raises(NotLocallyClosed):
        FiltratedKDatum(space, missing, stray)
    del missing[0b101]
    with pytest.raises(ShapeMismatch) as err:
        FiltratedKDatum(space, missing, stray)
    assert str(err.value) == "no group assigned to [0]"


def test_zero_datum_verifies_and_propagates():
    rng = random.Random(906)
    for _ in range(8):
        datum = constant_zero_datum(random_poset_space(rng, rng.randint(1, 4)))
        assert verify_datum(datum).ok
        assert vanishing_propagation(datum).ok


def test_seeded_flaw_is_caught():
    space = FiniteSpace.sierpinski()
    datum = constant_zero_datum(space, special=space.full, group=CYCLIC(2))
    report = verify_datum(datum)
    assert not report.ok
    failures = [(pair, rep) for pair, rep in report.results if not rep.ok]
    assert (1, 3) in [pair for pair, _ in failures]
    _, rep = failures[0]
    assert rep.first_failure()[1].reason == "kernel element not in the image"
    prop = vanishing_propagation(datum)
    assert not prop.ok
    assert prop.deviation == (3, (1, 3))


@pytest.mark.parametrize("space,carrier,step", [
    (FiniteSpace.sierpinski(), 0b00, (0b00, 0b00)),
    (FiniteSpace.sierpinski(), 0b10, (0b00, 0b10)),
    (FiniteSpace.sierpinski(), 0b11, (0b01, 0b11)),
    (FiniteSpace.discrete(2), 0b11, (0b10, 0b11)),
], ids=["empty", "one-point", "meets-lower-layer", "one-stratum"])
def test_propagation_deviation_names_the_split(space, carrier, step):
    # the split is along the lower layer when y meets it, else y minus its
    # lowest point, and (0, y) when y has at most one point
    datum = constant_zero_datum(space, special=carrier, group=Z(1))
    assert vanishing_propagation(datum).deviation == (carrier, step)


def test_propagation_flags_nonzero_point():
    space = FiniteSpace.sierpinski()
    datum = constant_zero_datum(space, special=2, group=Z(1))
    prop = vanishing_propagation(datum)
    assert not prop.ok
    assert prop.deviation[0] == 2


def test_datum_shape_errors():
    space = FiniteSpace.sierpinski()
    good = constant_zero_datum(space)
    groups, cycles = good.assignment, dict.fromkeys(good.pairs(), [[]] * 6)
    with pytest.raises(ShapeMismatch) as err:
        FiltratedKDatum(space, {k: v for k, v in groups.items() if k != 2}, cycles)
    assert str(err.value) == "no group assigned to [1]"
    assert err.value.details == {"carrier": 2}
    missing = {k: v for k, v in cycles.items() if k != (1, 3)}
    with pytest.raises(ShapeMismatch) as err:
        FiltratedKDatum(space, groups, missing)
    assert str(err.value) == "missing cycle for ([0], [0, 1])"
    assert err.value.details == {"pair": (1, 3)}
    # the point-count matrices do not fit zero groups; the first map of the
    # first pair that does not fit is the fault
    rich = datum_rows(point_count_datum(space))
    with pytest.raises(ShapeMismatch) as err:
        FiltratedKDatum(space, groups, {**cycles, (1, 3): rich[(1, 3)]})
    assert str(err.value) == "matrix is 2x1, expected 0x0"
    mixed = {**cycles, (3, 3): rich[(3, 3)],
             (1, 3): [[]] * 3 + [[[1]], [[2, 2]], []]}
    with pytest.raises(ShapeMismatch) as err:
        FiltratedKDatum(space, groups, mixed)
    assert str(err.value) == "matrix is 1x1, expected 0x0"
    with pytest.raises(ShapeMismatch) as err:
        FiltratedKDatum(space, groups, {**cycles, (0, 0): [[]] * 5})
    assert str(err.value) == "a cycle needs six groups and six maps"
    # every key is checked, then every pair has maps, before any map is built
    both = {**missing, (0, 3): rich[(0, 3)]}
    with pytest.raises(ShapeMismatch) as err:
        FiltratedKDatum(space, groups, both)
    assert err.value.details == {"pair": (1, 3)}
    with pytest.raises(ShapeMismatch) as err:
        FiltratedKDatum(space, groups, {**both, (2, 3): cycles[(0, 0)]})
    assert str(err.value) == "cycle ([1], [0, 1]) is not a relative-open pair"


def test_missing_group_is_decided_from_the_keys():
    # the least locally closed set with no group, found from the keys alone,
    # is the first of the listing that is not a key
    rng = random.Random(909)
    plain = GradedGroup(Z(0), Z(0))
    for i in range(60):
        space = (random_space if i % 2 else random_poset_space)(rng, rng.randint(1, 6))
        carriers = space.locally_closed_sets()
        for _ in range(5):
            keys = rng.sample(carriers, rng.randint(0, len(carriers)))
            missing = [c for c in carriers if c not in keys]
            with pytest.raises(ShapeMismatch) as err:
                FiltratedKDatum(space, dict.fromkeys(keys, plain), {})
            if missing:
                assert err.value.details == {"carrier": missing[0]}
            else:
                assert str(err.value).startswith("missing cycle")


def test_missing_group_refused_without_listing():
    # 20 unrelated points have 3^20 locally closed sets
    space = FiniteSpace.discrete(20)
    with pytest.raises(ShapeMismatch) as err:
        FiltratedKDatum(space, {}, {})
    assert err.value.details == {"carrier": 0}
    assert space._opens is None


def _nodes(datum):
    """(f, g) at every node of every cycle, in report order."""
    return [(cycle.maps[(i - 1) % 6], cycle.maps[i])
            for cycle in datum.cycles.values() for i in range(6)]


def _node_value(f, g):
    return (f.domain, f.codomain, f.matrix, g.codomain, g.matrix)


def _counting_is_exact_at(monkeypatch):
    calls = []

    def counted(f, g):
        calls.append(_node_value(f, g))
        return is_exact_at(f, g)

    monkeypatch.setattr(ktheory, "is_exact_at", counted)
    return calls


def test_verify_datum_matches_the_unshared_oracle(monkeypatch):
    rng = random.Random(909)
    data = [random_torsion_datum(rng, random_poset_space(rng, rng.randint(2, 4)))
            for _ in range(6)]
    data += [random_torsion_datum(rng, random_space(rng, 4)) for _ in range(2)]
    # one seeded defect in an otherwise exact datum
    flawed = random_poset_space(rng, 4)
    data.append(constant_zero_datum(flawed, special=flawed.full, group=CYCLIC(2)))
    verdicts = set()
    for datum in data:
        calls = _counting_is_exact_at(monkeypatch)
        report = verify_datum(datum)
        monkeypatch.undo()
        assert report == brute_verify_datum(datum)
        values = [_node_value(f, g) for f, g in _nodes(datum)]
        assert len(calls) == len(set(calls)) < len(values)
        assert set(calls) == set(values)
        verdicts.update(n.ok for _, rep in report.results for n in rep.nodes)
    assert verdicts == {True, False}
    assert not verify_datum(data[-1]).ok


def test_datum_builds_each_distinct_map_once(monkeypatch):
    # the point-count matrices are new lists on every pair, yet equal rows
    # between equal groups are one GroupHom, and each node is decided once
    rng = random.Random(910)
    spaces = [FiniteSpace.sierpinski(), FiniteSpace.chain(3)]
    spaces += [random_poset_space(rng, rng.randint(2, 4)) for _ in range(3)]
    for space in spaces:
        datum = point_count_datum(space)
        maps = [h for c in datum.cycles.values() for h in c.maps]
        distinct = {(h.domain, h.codomain, h.matrix) for h in maps}
        assert len({id(h) for h in maps}) == len(distinct) < len(maps)
        nodes = _nodes(datum)
        calls = _counting_is_exact_at(monkeypatch)
        report = verify_datum(datum)
        monkeypatch.undo()
        values = {_node_value(f, g) for f, g in nodes}
        assert len(calls) == len(set(calls)) == len(values) < len(nodes)
        assert report == brute_verify_datum(datum)


def test_datum_holds_one_object_per_distinct_group():
    # Z on {0} and Z on {1} come in as separate, equal objects: the datum
    # keeps one, and the identity maps on them in the cycles of (0, {0})
    # and (0, {1}) are one GroupHom between that one object
    space = FiniteSpace.discrete(2)
    datum = point_count_datum(space)
    assert datum.assignment[0b01].even is datum.assignment[0b10].even
    assert datum.assignment[0b01] is datum.assignment[0b10]
    groups = [g for graded in datum.assignment.values() for g in graded]
    assert len({id(g) for g in groups}) == len(set(groups)) == 3
    graded = list(datum.assignment.values())
    assert len({id(g) for g in graded}) == len(set(graded)) == 3
    f, g = datum.cycles[(0, 0b01)].maps[1], datum.cycles[(0, 0b10)].maps[1]
    assert f is g and f.domain is f.codomain is datum.assignment[0b01].even
    for (u, y), cycle in datum.cycles.items():
        gu, gy, gr = (datum.assignment[m] for m in (u, y, y & ~u))
        wired = (gu.even, gy.even, gr.even, gu.odd, gy.odd, gr.odd)
        assert all(h.domain is g for h, g in zip(cycle.maps, wired))


def test_verify_datum_shares_one_exact_verdict_and_one_report_per_verdicts(
        monkeypatch):
    # every exact node of every datum is one shared verdict; a failing node
    # keeps its own verdict and witness; cycles that meet equal verdicts
    # share one CycleReport, and DatumReport.ok reads each of them once
    rng = random.Random(913)
    flawed = FiniteSpace.sierpinski()
    data = [random_torsion_datum(rng, random_poset_space(rng, 4)) for _ in range(4)]
    data.append(constant_zero_datum(flawed, special=flawed.full, group=CYCLIC(2)))
    exact, failing = set(), []
    for datum in data:
        report = verify_datum(datum)
        assert report == brute_verify_datum(datum)
        reports = {id(rep): rep for _, rep in report.results}
        assert len(set(reports.values())) == len(reports)
        nodes = [n for rep in reports.values() for n in rep.nodes]
        exact.update(id(n) for n in nodes if n.ok)
        failing += [n for n in nodes if not n.ok]
        reads = []
        ok = CycleReport.ok
        monkeypatch.setattr(CycleReport, "ok",
                            property(lambda r: reads.append(r) or ok.fget(r)))
        assert report.ok == all(rep.ok for rep in reports.values())
        monkeypatch.undo()
        assert len(reads) <= len(reports)
    assert len(exact) == 1 and failing
    assert all(n.witness and n.reason and id(n) not in exact for n in failing)


def test_verify_datum_builds_each_kernel_once(monkeypatch):
    # every map is the second map of some node; its kernel generators are
    # built once however many nodes it closes
    datum = point_count_datum(random_poset_space(random.Random(3), 6))
    seconds = {id(h) for cycle in datum.cycles.values() for h in cycle.maps}
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return kernel_basis(matrix)

    monkeypatch.setattr(ktheory, "kernel_basis", counted)
    assert verify_datum(datum).ok
    nodes = {(id(f), id(g)) for f, g in _nodes(datum)}
    assert len(calls) == len(seconds) < len(nodes)


def test_reach_is_a_matrix_the_map_already_holds():
    # out of a zero group the reach is the codomain's relations, into a
    # free group the map's matrix: no new matrix, and their normal forms
    # are shared
    out_of_zero = GroupHom(FGAbelianGroup.zero(), CYCLIC(4), IntMatrix.zeros(1, 0))
    assert out_of_zero.reach() is out_of_zero.codomain.relations
    into_free = GroupHom(CYCLIC(2), Z(2), IntMatrix([[0], [0]]))
    assert into_free.reach() is into_free.matrix
    doubling = GroupHom(Z(1), CYCLIC(4), IntMatrix([[2]]))
    assert doubling.reach() is doubling.reach()
    assert doubling.reach() == IntMatrix([[2, 4]])


def test_datum_read_and_verified_with_a_pinned_factorisation_count(monkeypatch):
    # Z/6 on every point of the 6-point datum read from its file: each
    # distinct group is factored once when read, and each map's reach at
    # most once when verified, never when the map leaves a zero group
    raw = datum_to_json(point_count_datum(random_poset_space(random.Random(3), 6), 6))
    calls = []
    factor = intmat._factor

    def counted(matrix):
        calls.append(matrix)
        return factor(matrix)

    monkeypatch.setattr(intmat, "_factor", counted)
    datum = kjsonio.datum_from_json(raw)
    assert len(calls) == 7
    assert verify_datum(datum).ok
    assert len(calls) == 155
    assert len({id(m) for m in calls}) == len(calls)


def test_datum_read_from_json_wires_and_decides_each_distinct_cycle_once(
        monkeypatch):
    # the 6-point point-count datum read from its file: pairs whose six
    # groups are the same objects and whose maps texts are equal share one
    # SixTermCycle, and verify_datum reports on each shared cycle once
    raw = datum_to_json(point_count_datum(random_poset_space(random.Random(3), 6)))
    datum = kjsonio.datum_from_json(raw)
    keyed = {}
    for entry in raw["cycles"]:
        u, y = (jsonio.carrier_from_key(entry[k], datum.space.size)
                for k in ("open", "set"))
        gu, gy, gr = (datum.assignment[m] for m in (u, y, y & ~u))
        groups = (gu.even, gy.even, gr.even, gu.odd, gy.odd, gr.odd)
        cycle = datum.cycles[(u, y)]
        assert all(h.domain is g for h, g in zip(cycle.maps, groups))
        key = (tuple(map(id, groups)), str(entry["maps"]))
        assert keyed.setdefault(key, cycle) is cycle
    cycles = list(datum.cycles.values())
    assert len({id(c) for c in cycles}) == len(keyed) < len(cycles)
    calls = []
    nodes_of = ktheory._cycle_nodes

    def counted(cycle, decide):
        calls.append(cycle)
        return nodes_of(cycle, decide)

    monkeypatch.setattr(ktheory, "_cycle_nodes", counted)
    report = verify_datum(datum)
    monkeypatch.undo()
    assert len(calls) == len({id(c) for c in calls}) == len(keyed)
    assert report.ok and report == brute_verify_datum(datum)


def test_verify_datum_on_a_cycle_replaced_by_equal_new_maps():
    # maps equal in value to the datum's but new objects are decided on
    # their own, with the same verdicts
    rng = random.Random(911)
    flawed = FiniteSpace.sierpinski()
    data = [random_torsion_datum(rng, random_poset_space(rng, 3)) for _ in range(3)]
    data.append(constant_zero_datum(flawed, special=flawed.full, group=CYCLIC(2)))
    for datum in data:
        want = verify_datum(datum)
        for pair in datum.pairs()[::2]:
            cycle = datum.cycles[pair]
            copies = [GroupHom(h.domain, h.codomain, IntMatrix(h.matrix.entries,
                                                               h.matrix.rows,
                                                               h.matrix.cols))
                      for h in cycle.maps]
            datum.cycles[pair] = SixTermCycle(copies)
            assert not set(map(id, copies)) & set(map(id, cycle.maps))
        assert verify_datum(datum) == brute_verify_datum(datum) == want
    assert not want.ok


def test_verify_datum_keeps_nodes_apart_by_codomain():
    # Sierpinski data, Z on {0, 1} and Z/2 on {1}: node 1 of (0, {0, 1})
    # is 0 -> Z -[1]-> Z, node 1 of ({0}, {0, 1}) is 0 -> Z -[1]-> Z/2;
    # the matrices agree, the codomain relations do not
    space = FiniteSpace.sierpinski()
    zero = GradedGroup(Z(0), Z(0))
    assignment = {0: zero, 1: zero, 2: GradedGroup(CYCLIC(2), Z(0)),
                  3: GradedGroup(Z(1), Z(0))}
    maps = {}
    for u, y in constant_zero_datum(space).pairs():
        maps[(u, y)] = zero_rows([assignment[m].even.generators
                                  for m in (u, y, y & ~u)] + [0, 0, 0])
        if (u, y) in ((0, 3), (1, 3)):
            maps[(u, y)][1] = [[1]]
    datum = FiltratedKDatum(space, assignment, maps)
    report = dict(verify_datum(datum).results)
    f, g = datum.cycles[(0, 3)].maps[:2]
    f2, g2 = datum.cycles[(1, 3)].maps[:2]
    assert f is f2 and g.matrix == g2.matrix
    assert g.codomain != g2.codomain
    assert report[(0, 3)].nodes[1].ok
    node = report[(1, 3)].nodes[1]
    assert (node.ok, node.reason) == (False, "kernel element not in the image")
    assert verify_datum(datum) == brute_verify_datum(datum)


def test_datum_keys_follow_the_listing_order():
    space = random_poset_space(random.Random(908), 4)
    good = point_count_datum(space)
    datum = FiltratedKDatum(space, dict(reversed(good.assignment.items())),
                            dict(reversed(datum_rows(good).items())))
    assert list(datum.assignment) == list(space.locally_closed_sets())
    assert list(datum.cycles) == datum.pairs()
    assert [pair for pair, _ in verify_datum(datum).results] == datum.pairs()


# -- two-point sequences -----------------------------------------------------------


def test_two_point_doubling():
    ident = GroupHom.identity(Z(1))
    double = GroupHom(Z(1), Z(1), IntMatrix([[2]]))
    report = two_point_sequence(ident, double, double, ident)
    assert report.delta == double
    assert report.kernel.invariants() == (0, [])
    assert report.cokernel.invariants() == (0, [2])
    assert report.middle.invariants() == (0, [2])
    assert report.note == ""


def test_two_point_torsion_kernel_is_ambiguous():
    half = CYCLIC(2)
    zero_map = GroupHom.zero(half, half)
    ident = GroupHom.identity(half)
    report = two_point_sequence(zero_map, ident, zero_map, ident)
    assert report.kernel.invariants() == (0, [2])
    assert report.middle is None
    assert "ambiguous" in report.note


def test_two_point_rejects_non_commuting_square():
    ident = GroupHom.identity(Z(1))
    double = GroupHom(Z(1), Z(1), IntMatrix([[2]]))
    triple = GroupHom(Z(1), Z(1), IntMatrix([[3]]))
    with pytest.raises(SquareNotCommuting) as err:
        two_point_sequence(ident, double, ident, triple)
    assert err.value.details["witness"] == ("generator", 0, (-1,))


def test_two_point_wiring_errors():
    ident = GroupHom.identity(Z(1))
    other = GroupHom.identity(Z(2))
    with pytest.raises(ShapeMismatch):
        two_point_sequence(ident, other, ident, ident)
