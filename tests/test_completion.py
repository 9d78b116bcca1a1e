import itertools
import random

import pytest

from finitetop.action import ActionOverX
from finitetop.completion import (OPENS_CAP, build_yprime, from_discontinuous,
                                  neighborhood_filter_embedding,
                                  to_discontinuous)
from finitetop.enumeration import are_homeomorphic
from finitetop.errors import (BadEndpoints, CapExceeded, DomainMismatch,
                              NotMonotone, NotOpen)
from finitetop.spaces import (MAX_POINTS, ContinuousMap, FiniteSpace,
                              alexandrov_topology, space_from_edges)
from oracles import (brute_completion_opens, brute_monotone_failure,
                     build_power_space, random_continuous,
                     random_monotone_table, random_poset_space, random_space,
                     t0_bases_by_open_count)


def sample_bases(rng, count, max_points=4):
    out = []
    while len(out) < count:
        base = random_space(rng, rng.randint(1, max_points))
        if len(base.opens) <= OPENS_CAP:
            out.append(base)
    return out


def test_discrete_two_frozen():
    comp = build_yprime(FiniteSpace.discrete(2))
    assert len(comp.points) == 4
    assert comp.space.opens == (0, 8, 10, 12, 14, 15)
    assert comp.space.hasse_edges() == ((1, 0), (2, 0), (3, 1), (3, 2))
    diamond = space_from_edges(4, ((0, 1), (0, 2), (1, 3), (2, 3)))
    assert are_homeomorphic(comp.space, diamond)


def test_points_are_admissible_filters():
    rng = random.Random(7)
    for base in sample_bases(rng, 12):
        comp = build_yprime(base)
        for p in comp.points:
            assert base.full in p
            assert 0 not in p
            for u in p:
                for v in base.opens:
                    if u & ~v == 0:
                        assert v in p
        assert len(set(comp.points)) == len(comp.points)


def test_basis_is_monotone():
    rng = random.Random(8)
    for base in sample_bases(rng, 12):
        comp = build_yprime(base)
        for u in base.opens:
            assert comp.space.is_open(comp.basis[u])
            for v in base.opens:
                if u & ~v == 0:
                    assert comp.basis[u] & ~comp.basis[v] == 0
                assert comp.basis[u] & comp.basis[v] & ~comp.basis[u | v] == 0


def test_embedding_pulls_basis_back():
    rng = random.Random(9)
    for base in sample_bases(rng, 12):
        comp = build_yprime(base)
        iota = neighborhood_filter_embedding(comp)
        for u in base.opens:
            assert iota.preimage(comp.basis[u]) == u
        # the subspace topology induced on the image is the original one
        assert {iota.preimage(w) for w in comp.space.opens} == set(base.opens)


def test_embedding_injective_on_t0():
    rng = random.Random(10)
    for _ in range(12):
        base = random_poset_space(rng, rng.randint(1, 4))
        iota = neighborhood_filter_embedding(build_yprime(base))
        assert len(set(iota.assignment)) == base.size


def test_sierpinski_completion_is_itself():
    base = FiniteSpace.sierpinski()
    comp = build_yprime(base)
    iota = neighborhood_filter_embedding(comp)
    assert len(comp.points) == 2
    assert sorted(iota.assignment) == [0, 1]
    assert are_homeomorphic(comp.space, base)


def test_chain_completion_is_itself():
    base = FiniteSpace.chain(3)
    comp = build_yprime(base)
    assert len(comp.points) == 3
    assert are_homeomorphic(comp.space, base)


def test_chaotic_collapses_to_a_point():
    comp = build_yprime(FiniteSpace.chaotic(2))
    iota = neighborhood_filter_embedding(comp)
    assert len(comp.points) == 1
    assert iota.assignment == (0, 0)


def test_point_completion():
    comp = build_yprime(FiniteSpace.point())
    assert len(comp.points) == 1
    assert comp.space.opens == (0, 1)


def test_lift_roundtrip_random_tables():
    rng = random.Random(11)
    for base in sample_bases(rng, 20):
        comp = build_yprime(base)
        prim = random_space(rng, rng.randint(1, 5))
        table = random_monotone_table(rng, base, prim)
        act = from_discontinuous(comp, prim, table)
        assert act.base == comp.space
        assert to_discontinuous(comp, act) == table


def test_continuous_input_lands_in_embedded_copy():
    rng = random.Random(12)
    for base in sample_bases(rng, 20):
        comp = build_yprime(base)
        iota = neighborhood_filter_embedding(comp)
        prim = random_space(rng, rng.randint(1, 5))
        g = random_continuous(rng, prim, base)
        table = {u: g.preimage(u) for u in base.opens}
        act = from_discontinuous(comp, prim, table)
        assert act.psi.assignment == tuple(iota.assignment[g(p)]
                                           for p in range(prim.size))


def test_lift_rejects_missing_opens():
    comp = build_yprime(FiniteSpace.sierpinski())
    with pytest.raises(ValueError):
        from_discontinuous(comp, FiniteSpace.point(), {0: 0})


def test_lift_rejects_bad_endpoints():
    base = FiniteSpace.sierpinski()
    comp = build_yprime(base)
    prim = FiniteSpace.discrete(2)
    with pytest.raises(BadEndpoints):
        from_discontinuous(comp, prim, {0: 0, 1: 1, 3: 1})


def test_lift_rejects_non_open_values():
    base = FiniteSpace.sierpinski()
    comp = build_yprime(base)
    prim = FiniteSpace.sierpinski()
    with pytest.raises(NotOpen):
        from_discontinuous(comp, prim, {0: 0, 1: 2, 3: 3})


def test_lift_rejects_non_monotone_table():
    base = FiniteSpace.chain(3)
    comp = build_yprime(base)
    prim = FiniteSpace.sierpinski()
    with pytest.raises(NotMonotone) as err:
        from_discontinuous(comp, prim, {0: 0, 1: 3, 3: 0, 7: 3})
    assert err.value.details["witness"] == (1, 3)


def test_monotone_check_matches_the_pair_scan():
    # monotone tables, and tables with one value moved, over 0-5-point bases;
    # the witnesses may differ, since the pair scan reads other pairs first
    rng = random.Random(14)
    completions, refused = {}, 0
    for _ in range(3000):
        n = rng.randint(0, 5)
        base = rng.choice((random_space, random_poset_space))(rng, n)
        if base not in completions:
            try:
                completions[base] = build_yprime(base)
            except CapExceeded:
                completions[base] = None
        comp = completions[base]
        if comp is None:
            continue
        prim = random_space(rng, rng.randint(1, 5) if n else 0)
        table = random_monotone_table(rng, base, prim)
        inner = [u for u in base.opens if u not in (0, base.full)]
        if inner and rng.random() < 0.5:
            table[rng.choice(inner)] = rng.choice(prim.opens)
        failure = brute_monotone_failure(base, table)
        if failure is None:
            assert to_discontinuous(comp, from_discontinuous(comp, prim, table)) == table
            continue
        refused += 1
        with pytest.raises(NotMonotone) as err:
            from_discontinuous(comp, prim, table)
        u, v = err.value.details["witness"]
        assert u & ~v == 0 and table[u] & ~table[v]
    assert refused > 100


def test_readback_rejects_foreign_action():
    base = FiniteSpace.sierpinski()
    comp = build_yprime(base)
    act = ActionOverX(base, base, ContinuousMap.identity(base))
    with pytest.raises(DomainMismatch):
        to_discontinuous(comp, act)


def test_yprime_cap():
    with pytest.raises(CapExceeded):
        build_yprime(FiniteSpace.discrete(5))


# distributive lattices by element count, 1 to 16 (OEIS A006982); each is
# the open lattice of one T0 space up to homeomorphism (Birkhoff), and a
# non-T0 base has the open lattice of its T0 quotient
DISTRIBUTIVE_LATTICES = [1, 1, 1, 2, 3, 5, 8, 15, 26, 47, 82, 151, 269, 494,
                         891, 1639]
# the base whose completion has the most opens: 63 filters, 6,445 opens
WORST_BASE = (1, 2, 4, 9, 27, 47)


def test_worst_base_completion_opens():
    base = alexandrov_topology(WORST_BASE)
    assert base.open_count() == OPENS_CAP
    comp = build_yprime(base)
    assert len(comp.points) == MAX_POINTS
    assert len(comp.space.opens) == 6445


@pytest.mark.slow
def test_every_admitted_base_completes_within_the_worst():
    by_count = t0_bases_by_open_count(OPENS_CAP)
    assert [len(by_count[k]) for k in range(1, OPENS_CAP + 1)] == DISTRIBUTIVE_LATTICES
    largest, refused = 0, 0
    for rows in itertools.chain.from_iterable(by_count.values()):
        try:
            comp = build_yprime(alexandrov_topology(rows))
        except CapExceeded as err:
            assert set(err.details) == {"filters", "cap"}
            assert err.details["cap"] == MAX_POINTS
            refused += 1
            continue
        largest = max(largest, comp.space.open_count())
    assert refused == 16
    assert largest == 6445


def test_yprime_filter_cap_names_cap():
    # each filter is a point, so 166 filters are refused before the
    # completion's topology is built
    with pytest.raises(CapExceeded) as err:
        build_yprime(FiniteSpace.discrete(4))
    assert err.value.details == {"filters": 166, "cap": MAX_POINTS}
    assert str(err.value) == f"completion capped at {MAX_POINTS} filters"


def assert_matches_subbasis_closure(comp):
    n = len(comp.points)
    closure = brute_completion_opens(comp.basis.values(), 8192)
    assert set(comp.space.opens) == closure | {0, (1 << n) - 1}
    assert FiniteSpace(n, comp.space.opens) == comp.space


def test_opens_are_the_subbasis_closure():
    rng = random.Random(13)
    bases = [FiniteSpace.point(), FiniteSpace.chaotic(2),
             FiniteSpace.discrete(2), FiniteSpace.chain(3)]
    bases += sample_bases(rng, 40, max_points=5)
    for base in bases:
        assert_matches_subbasis_closure(build_yprime(base))
    assert_matches_subbasis_closure(build_power_space(FiniteSpace.discrete(2)))


def test_power_space():
    comp = build_power_space(FiniteSpace.discrete(2))
    assert len(comp.points) == 16
    for u in FiniteSpace.discrete(2).opens:
        assert comp.space.is_open(comp.basis[u])
    with pytest.raises(CapExceeded):
        build_power_space(FiniteSpace.chain(8))
