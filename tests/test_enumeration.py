import itertools
import math
import os
import random
import subprocess
import sys
import threading

import pytest

from finitetop.completion import OPENS_CAP, build_yprime
from finitetop.enumeration import (CENSUS_CAP, RELABELING_CAP, T0_CAP,
                                   TOPOLOGY_CAP, are_homeomorphic,
                                   canonical_form, census, connected_catalog,
                                   enumerate_labeled_t0,
                                   enumerate_labeled_topologies,
                                   space_from_canonical)
from finitetop import enumeration, spaces
from finitetop.errors import CapExceeded
from finitetop.spaces import (MAX_POINTS, FiniteSpace, _closure,
                              alexandrov_topology, bits, space_from_edges)
from oracles import (brute_canonical_form, homeomorphism_oracle,
                     labeled_census, permuted_space, random_poset_space,
                     random_space, topologies_by_family_filter)

# labeled topologies (OEIS A000798), labeled T0 topologies, which are the
# labeled partial orders (A001035), and connected labeled partial orders
# (A001927), by point count
TOPOLOGY_COUNTS = [1, 1, 4, 29, 355, 6942, 209527, 9535241]
T0_COUNTS = [1, 1, 3, 19, 219, 4231, 130023, 6129859]
CONNECTED_T0_COUNTS = [0, 1, 2, 12, 146, 3060, 101642, 5106612]

# homeomorphism classes: all (A001930), T0 (posets, A000112) and
# connected T0 (connected posets, A000608)
CLASS_COUNTS = [1, 1, 3, 9, 33, 139, 718, 4535]
T0_CLASS_COUNTS = [1, 1, 2, 5, 16, 63, 318, 2045]
# the empty space has no components, so it does not count as connected;
# A000608 and A001927 start with 1 there
CONNECTED_T0_CLASS_COUNTS = [0, 1, 1, 3, 10, 44, 238, 1650]


def test_labeled_counts_frozen():
    for n in range(6):
        assert len(enumerate_labeled_topologies(n)) == TOPOLOGY_COUNTS[n]
        assert len(enumerate_labeled_t0(n)) == T0_COUNTS[n]


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


def two_chains(k):
    """k disjoint 2-chains: no twins, so k! * k! orders to try."""
    return space_from_edges(2 * k, [(2 * i + 1, 2 * i) for i in range(k)])


def test_enumeration_caps():
    with pytest.raises(CapExceeded):
        enumerate_labeled_topologies(6)
    with pytest.raises(CapExceeded):
        enumerate_labeled_t0(7)
    with pytest.raises(CapExceeded):
        census(8)
    # 9! * 9! orders, counted before any is tried
    with pytest.raises(CapExceeded) as err:
        canonical_form(two_chains(9))
    # each order relabels 18 points and 9 cover edges
    assert err.value.details == {"orders": 362880 ** 2, "steps": 362880 ** 2 * 27,
                                 "cap": RELABELING_CAP}
    perm = list(range(18))
    random.Random(5).shuffle(perm)
    with pytest.raises(CapExceeded):
        are_homeomorphic(two_chains(9), permuted_space(two_chains(9), perm))
    # five 2-chains try 5! * 5! orders, under the cap
    assert canonical_form(two_chains(5))[0] == 10
    # beside a complete bipartite block of 10 + 10 twins the same 14,400
    # orders each relabel 30 points and 105 cover edges, past the cap; built
    # from rows, since its open family has 2,047 * 3^5 members
    # point 2i lies below 2i + 1, and each of 10..19 below all of 20..29
    tops = sum(1 << x for x in range(20, 30))
    wide = FiniteSpace._from_rows(30, [1 << x | 1 << (x | 1) for x in range(10)]
                                  + [1 << x | tops for x in range(10, 20)]
                                  + [1 << x for x in range(20, 30)])
    with pytest.raises(CapExceeded) as err:
        canonical_form(wide)
    assert err.value.details == {"orders": 14400, "steps": 14400 * 135,
                                 "cap": RELABELING_CAP}


@pytest.mark.parametrize("refused,cap", [
    (lambda: enumerate_labeled_topologies(6), TOPOLOGY_CAP),
    (lambda: enumerate_labeled_t0(7), T0_CAP),
    (lambda: canonical_form(two_chains(9)), RELABELING_CAP),
    (lambda: census(8), CENSUS_CAP),
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


def test_canonical_form_matches_brute_search_labeled():
    # twin classes tried in one order each give the bytes of every order
    for n in range(6):
        for space in enumerate_labeled_topologies(n):
            assert canonical_form(space) == brute_canonical_form(space)


def test_canonical_form_matches_brute_search_random():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(0, 8)
        space = random_poset_space(rng, n) if rng.random() < 0.5 else random_space(rng, n)
        assert canonical_form(space) == brute_canonical_form(space)


def shapes(n):
    """Antichain, fan (one point below the rest), cofan and chain on n points.

    Built from their rows: past 20 points the first three have more opens
    than alexandrov_topology lists, and the canonical form reads rows only.
    """
    full = (1 << n) - 1
    rows = {"antichain": [1 << x for x in range(n)],
            "fan": [full] + [1 << x for x in range(1, n)],
            "cofan": [1] + [1 | 1 << x for x in range(1, n)],
            "chain": [full & ~((1 << x) - 1) for x in range(n)]}
    return {name: FiniteSpace._from_rows(n, r) for name, r in rows.items()}


def relabeled(space, perm):
    rows = [0] * space.size
    for x, row in enumerate(space.rows):
        rows[perm[x]] = sum(1 << perm[y] for y in bits(row))
    return FiniteSpace._from_rows(space.size, rows)


@pytest.mark.parametrize("n", [9, 20, 63])
def test_are_homeomorphic_past_eight_points(n):
    rng = random.Random(n)
    found = shapes(n)
    for name, space in found.items():
        perm = list(range(n))
        rng.shuffle(perm)
        assert are_homeomorphic(space, relabeled(space, perm)), name
    forms = [canonical_form(space) for space in found.values()]
    assert len(set(forms)) == len(forms)
    assert all(len(f) == 1 + 5 * n + n * ((n + 7) // 8) for f in forms)


def test_space_from_canonical_past_eight_points():
    rng = random.Random(17)
    poset = random_poset_space(rng, 12)
    # four points of the poset become classes of two
    space = blown_up(poset, [2] * 4 + [1] * 8)
    form = canonical_form(space)
    back = space_from_canonical(form)
    assert back.size == 16 and canonical_form(back) == form
    assert form == brute_canonical_form(space)


def blown_up(poset, sizes):
    """Point i of a poset becomes sizes[i] points with equal rows, in a block."""
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    block = [range(start, start + size) for start, size in zip(starts, sizes)]
    pairs = [(x, y) for i in range(poset.size) for j in bits(poset.rows[i])
             for x in block[i] for y in block[j]]
    return alexandrov_topology(_closure(sum(sizes), pairs))


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


def assert_census_matches_oeis(n):
    row = census(n)
    assert (row.class_count(), row.labeled_count) == (CLASS_COUNTS[n], TOPOLOGY_COUNTS[n])
    row = census(n, t0=True)
    assert (row.class_count(), row.labeled_count) == (T0_CLASS_COUNTS[n], T0_COUNTS[n])
    row = census(n, connected=True, t0=True)
    assert (row.class_count(), row.labeled_count) == (
        CONNECTED_T0_CLASS_COUNTS[n], CONNECTED_T0_COUNTS[n])


def test_census_class_counts_frozen():
    for n in range(7):
        assert_census_matches_oeis(n)


def test_census_labeled_connected_counts():
    # the exponential formula: a labeled poset is a set of connected ones
    # on the blocks of a partition of its points
    for n in range(1, len(T0_COUNTS)):
        split = sum(math.comb(n - 1, k - 1) * CONNECTED_T0_COUNTS[k] * T0_COUNTS[n - k]
                    for k in range(1, n + 1))
        assert split == T0_COUNTS[n]
    assert census(3, connected=True, t0=True).labeled_count == 12
    assert census(4, connected=True, t0=True).labeled_count == 146
    assert census(5, connected=True, t0=True).labeled_count == 3060


@pytest.mark.parametrize("n", [*range(6), pytest.param(6, marks=pytest.mark.slow)])
def test_class_census_matches_labeled_census(n):
    for connected, t0 in itertools.product((False, True), repeat=2):
        assert census(n, connected, t0) == labeled_census(n, connected, t0)


@pytest.mark.slow
def test_census_seven_points():
    assert_census_matches_oeis(7)


# -- the poset ladder every census call shares --------------------------------


@pytest.mark.parametrize("k", [*range(7), pytest.param(7, marks=pytest.mark.slow)])
def test_poset_level_holds_each_class_once_with_its_form_and_automorphisms(k):
    level = enumeration._poset_level(k)
    # one poset per class (A000112), and with |Aut| each class counts its
    # labelings: together the labeled posets (A001035)
    assert len(level) == T0_CLASS_COUNTS[k]
    assert sum(math.factorial(k) // aut for _, _, aut in level) == T0_COUNTS[k]
    assert len({form for form, _, _ in level}) == len(level)
    for form, rows, aut in level:
        assert enumeration._canonical(rows, (1,) * k) == (form, aut)
    assert enumeration._poset_level(k) is level


def test_census_canonizes_only_compositions_below_n_once_the_level_exists(monkeypatch):
    n = 5
    census(n)
    calls = []

    def counting(rows, sizes):
        calls.append(len(rows))
        return canonize(rows, sizes)

    canonize = enumeration._canonical
    monkeypatch.setattr(enumeration, "_canonical", counting)
    assert census(n, t0=True).class_count() == T0_CLASS_COUNTS[n]
    assert census(n, connected=True, t0=True).class_count() == (
        CONNECTED_T0_CLASS_COUNTS[n])
    assert calls == []
    # one search per class on k < n points and composition of n into k parts
    assert census(n).class_count() == CLASS_COUNTS[n]
    assert len(calls) == sum(T0_CLASS_COUNTS[k] * math.comb(n - 1, k - 1)
                             for k in range(1, n))
    assert max(calls) == n - 1


def test_connected_census_decides_each_class_once(monkeypatch):
    n = 5
    first = census(n, connected=True, t0=True)
    first_all = census(n, connected=True)
    calls = []

    def counting(rows):
        calls.append(rows)
        return components(rows)

    components = enumeration._components
    monkeypatch.setattr(enumeration, "_components", counting)
    assert census(n, connected=True, t0=True) == first
    assert first.class_count() == CONNECTED_T0_CLASS_COUNTS[n]
    assert census(n, connected=True) == first_all
    assert calls == []


# sha256 of the rows (n, connected, t0, labeled_count, classes) of every
# slice with n <= 5, sorted, as the census gave them before its levels
# were shared
SLICES_UP_TO_FIVE_SHA256 = (
    "24d5d74b7d8e720d099029558a421ea4f943ff11af63215d4089b72fddbf7945")
SLICES_DIGEST = """
import hashlib, sys
from finitetop.enumeration import census
slices = [(n, c, t) for n in range(6) for c in (False, True) for t in (False, True)]
if sys.argv[1] == "descending":
    slices.reverse()
rows = sorted(tuple(census(*s)) for s in slices)
print(hashlib.sha256(repr(rows).encode()).hexdigest())
"""


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_census_rows_do_not_depend_on_call_order(order):
    src = os.path.dirname(os.path.dirname(enumeration.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", SLICES_DIGEST, order],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == SLICES_UP_TO_FIVE_SHA256


def test_census_threads_growing_the_levels_together_agree():
    def calls():
        return census(6, t0=True), census(5)

    alone = calls()
    enumeration._poset_level.cache_clear()
    start = threading.Barrier(4, timeout=60)
    results = [None] * 4

    def work(i):
        start.wait()
        results[i] = calls()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [alone] * 4


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
