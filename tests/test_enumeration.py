import itertools
import random

import pytest

from finitetop.completion import OPENS_CAP, build_yprime
from finitetop.enumeration import (CANONICAL_CAP, CENSUS_CAP, T0_CAP,
                                   TOPOLOGY_CAP, are_homeomorphic,
                                   canonical_form, census, connected_catalog,
                                   enumerate_labeled_t0,
                                   enumerate_labeled_topologies,
                                   space_from_canonical)
from finitetop import spaces
from finitetop.errors import CapExceeded
from finitetop.spaces import (MAX_POINTS, FiniteSpace, Preorder,
                              alexandrov_topology, bits, space_from_edges)
from oracles import (homeomorphism_oracle, permuted_space, random_poset_space,
                     random_space, topologies_by_family_filter)

# labeled topologies (OEIS A000798) and labeled T0 topologies, which are
# the labeled partial orders (A001035), by point count
TOPOLOGY_COUNTS = [1, 1, 4, 29, 355, 6942]
T0_COUNTS = [1, 1, 3, 19, 219, 4231]

# homeomorphism classes: all (A001930), T0 (posets, A000112) and
# connected T0 (connected posets, A000608)
CLASS_COUNTS = [1, 1, 3, 9, 33, 139]
T0_CLASS_COUNTS = [1, 1, 2, 5, 16, 63]
# the empty space has no components, so it does not count as connected;
# A000608 starts with 1 there
CONNECTED_T0_CLASS_COUNTS = [0, 1, 1, 3, 10, 44]


def test_labeled_counts_frozen():
    for n, want in enumerate(TOPOLOGY_COUNTS):
        assert len(enumerate_labeled_topologies(n)) == want
    for n, want in enumerate(T0_COUNTS):
        assert len(enumerate_labeled_t0(n)) == want


def test_census_builds_no_open_family(monkeypatch):
    # census, canonical_form and are_homeomorphic read the minimal opens;
    # listing the open family would go through spaces._up_sets
    def refuse(*args):
        raise AssertionError("an open family was built")

    monkeypatch.setattr(spaces, "_up_sets", refuse)
    assert census(4).class_count() == CLASS_COUNTS[4]
    assert census(4, connected=True, t0=True).class_count() == (
        CONNECTED_T0_CLASS_COUNTS[4])
    # four opens against two
    assert not are_homeomorphic(FiniteSpace.discrete(2), FiniteSpace.chaotic(2))
    fan = space_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert are_homeomorphic(fan, space_from_edges(5, [(3, 0), (3, 1), (3, 2), (3, 4)]))


def test_two_enumeration_routes_agree():
    # family filtering and preorder extension are independent algorithms;
    # they list the same spaces, each in its own order
    for n in range(5):
        by_filter = topologies_by_family_filter(n)
        labeled = enumerate_labeled_topologies(n)
        assert len(labeled) == len(by_filter)
        assert set(labeled) == set(by_filter)


def test_preorder_enumeration_is_duplicate_free():
    for n in range(5):
        rows_list = [s.rows for s in enumerate_labeled_topologies(n)]
        assert len(rows_list) == len(set(rows_list)) == TOPOLOGY_COUNTS[n]


def test_enumeration_refuses_negative_point_counts():
    # every route goes through the preorder generator, which would never
    # reach a negative depth
    for route in (enumerate_labeled_topologies, enumerate_labeled_t0, census,
                  lambda n: census(n, t0=True)):
        with pytest.raises(ValueError, match="nonnegative"):
            route(-1)


def test_enumeration_caps():
    with pytest.raises(CapExceeded):
        enumerate_labeled_topologies(6)
    with pytest.raises(CapExceeded):
        enumerate_labeled_t0(7)
    with pytest.raises(CapExceeded):
        census(7)
    with pytest.raises(CapExceeded):
        canonical_form(FiniteSpace.discrete(9))
    with pytest.raises(CapExceeded):
        are_homeomorphic(FiniteSpace.discrete(9), FiniteSpace.chaotic(9))


@pytest.mark.parametrize("refused,cap", [
    (lambda: enumerate_labeled_topologies(6), TOPOLOGY_CAP),
    (lambda: enumerate_labeled_t0(7), T0_CAP),
    (lambda: canonical_form(FiniteSpace.discrete(9)), CANONICAL_CAP),
    (lambda: census(7), CENSUS_CAP),
    (lambda: build_yprime(FiniteSpace.chain(OPENS_CAP)), OPENS_CAP),
    (lambda: FiniteSpace(MAX_POINTS + 1, [0]), MAX_POINTS),
], ids=["topologies", "t0", "canonical-form",
        "census", "completion-base-opens", "points"])
def test_every_refusal_names_its_cap(refused, cap):
    with pytest.raises(CapExceeded) as err:
        refused()
    assert err.value.details["cap"] == cap


# -- canonical forms -------------------------------------------------------------


def test_canonical_form_exhaustive_against_oracle():
    for n in range(4):
        spaces = enumerate_labeled_topologies(n)
        for a, b in itertools.combinations_with_replacement(spaces, 2):
            same = canonical_form(a) == canonical_form(b)
            assert same == homeomorphism_oracle(a, b)


def test_canonical_form_random_pairs():
    rng = random.Random(71)
    for _ in range(250):
        n = rng.randint(1, 5)
        a = random_space(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        b = permuted_space(a, perm)
        assert canonical_form(a) == canonical_form(b)
        assert are_homeomorphic(a, b)
    for _ in range(250):
        n = rng.randint(1, 4)
        a, b = random_space(rng, n), random_space(rng, n)
        assert (canonical_form(a) == canonical_form(b)) \
            == homeomorphism_oracle(a, b)


def test_canonical_form_roundtrip():
    for n in range(5):
        row = census(n)
        for form in row.classes:
            assert canonical_form(space_from_canonical(form)) == form


def blown_up(poset, sizes):
    """Point i of a poset becomes sizes[i] points with equal rows, in a block."""
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    block = [range(start, start + size) for start, size in zip(starts, sizes)]
    pairs = [(x, y) for i in range(poset.size) for j in bits(poset.rows[i])
             for x in block[i] for y in block[j]]
    return alexandrov_topology(Preorder.generated_by(sum(sizes), pairs))


def test_class_sizes_are_part_of_the_class():
    rng = random.Random(83)
    outcomes = set()
    for _ in range(80):
        m = rng.randint(2, 4)
        poset = random_poset_space(rng, m)
        sizes = [1] * m
        for _ in range(rng.randint(0, 6 - m)):
            sizes[rng.randrange(m)] += 1
        a = blown_up(poset, sizes)
        perm = list(range(a.size))
        rng.shuffle(perm)
        assert canonical_form(permuted_space(a, perm)) == canonical_form(a)
        moved = sizes[:]
        rng.shuffle(moved)
        b = blown_up(poset, moved)
        same = canonical_form(a) == canonical_form(b)
        assert same == homeomorphism_oracle(a, b)
        outcomes.add(same)
    assert outcomes == {True, False}
    # one class of eight points: no relabeling of it needs to be tried
    perm = list(range(8))
    rng.shuffle(perm)
    chaotic = FiniteSpace.chaotic(8)
    assert canonical_form(permuted_space(chaotic, perm)) == canonical_form(chaotic)


def test_are_homeomorphic_cheap_rejections():
    assert not are_homeomorphic(FiniteSpace.point(), FiniteSpace.discrete(2))
    assert not are_homeomorphic(FiniteSpace.discrete(2), FiniteSpace.chaotic(2))
    assert are_homeomorphic(FiniteSpace.chain(2), FiniteSpace.sierpinski())


# -- census -----------------------------------------------------------------------


def test_census_class_counts_frozen():
    for n in range(6):
        assert census(n).class_count() == CLASS_COUNTS[n]
        assert census(n).labeled_count == TOPOLOGY_COUNTS[n]
        assert census(n, t0=True).class_count() == T0_CLASS_COUNTS[n]
        assert census(n, t0=True).labeled_count == T0_COUNTS[n]
        assert (census(n, connected=True, t0=True).class_count()
                == CONNECTED_T0_CLASS_COUNTS[n])


def test_census_labeled_connected_counts():
    # reference values from the exponential-formula recurrence over posets
    assert census(3, connected=True, t0=True).labeled_count == 12
    assert census(4, connected=True, t0=True).labeled_count == 146
    assert census(5, connected=True, t0=True).labeled_count == 3060


@pytest.mark.slow
def test_census_six_points():
    assert census(6).class_count() == 718
    assert census(6).labeled_count == 209527
    row = census(6, t0=True)
    assert row.class_count() == 318
    assert row.labeled_count == 130023
    conn = census(6, connected=True, t0=True)
    assert conn.class_count() == 238
    assert conn.labeled_count == 101642


# -- the printed catalog -----------------------------------------------------------


def test_catalog_members_are_connected_t0_and_distinct():
    catalog = connected_catalog()
    assert len(catalog) == 12
    assert sum(1 for s in catalog if s.size == 3) == 3
    assert sum(1 for s in catalog if s.size == 4) == 9
    forms = set()
    for space in catalog:
        assert space.is_t0()
        assert space.is_connected()
        forms.add(canonical_form(space))
    assert len(forms) == 12


def test_catalog_three_point_complete():
    catalog_forms = {canonical_form(s) for s in connected_catalog() if s.size == 3}
    assert catalog_forms == set(census(3, connected=True, t0=True).classes)


def test_catalog_four_point_gap_is_known():
    # the four-point census has one class the printed list lacks
    catalog_forms = {canonical_form(s) for s in connected_catalog() if s.size == 4}
    census_forms = set(census(4, connected=True, t0=True).classes)
    assert catalog_forms <= census_forms
    missing = census_forms - catalog_forms
    gap = space_from_edges(4, ((0, 1), (1, 2), (3, 2)))
    assert missing == {canonical_form(gap)}
