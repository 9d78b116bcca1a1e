import random

import pytest

from finitetop.action import ActionOverX
from finitetop.completion import (COMPLETION_OPENS_CAP, OPENS_CAP,
                                  _assemble, build_yprime, from_discontinuous,
                                  neighborhood_filter_embedding,
                                  to_discontinuous)
from finitetop.enumeration import are_homeomorphic
from finitetop.errors import (BadEndpoints, CapExceeded, DomainMismatch,
                              NotMonotone, NotOpen)
from finitetop.spaces import (MAX_POINTS, ContinuousMap, FiniteSpace,
                              space_from_edges, validate_topology)
from oracles import (brute_completion_opens, build_power_space,
                     random_continuous, random_monotone_table,
                     random_poset_space, random_space)


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
        iota = neighborhood_filter_embedding(base, comp)
        for u in base.opens:
            assert iota.preimage(comp.basis[u]) == u
        # the subspace topology induced on the image is the original one
        assert {iota.preimage(w) for w in comp.space.opens} == set(base.opens)


def test_embedding_injective_on_t0():
    rng = random.Random(10)
    for _ in range(12):
        base = random_poset_space(rng, rng.randint(1, 4))
        iota = neighborhood_filter_embedding(base)
        assert len(set(iota.assignment)) == base.size


def test_sierpinski_completion_is_itself():
    base = FiniteSpace.sierpinski()
    comp = build_yprime(base)
    iota = neighborhood_filter_embedding(base, comp)
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
    iota = neighborhood_filter_embedding(FiniteSpace.chaotic(2))
    assert len(comp.points) == 1
    assert iota.assignment == (0, 0)


def test_point_completion():
    comp = build_yprime(FiniteSpace.point())
    assert len(comp.points) == 1
    assert comp.space.opens == (0, 1)


def test_embedding_rejects_foreign_completion():
    comp = build_yprime(FiniteSpace.discrete(2))
    with pytest.raises(DomainMismatch):
        neighborhood_filter_embedding(FiniteSpace.chain(2), comp)


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
        iota = neighborhood_filter_embedding(base, comp)
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


def test_readback_rejects_foreign_action():
    base = FiniteSpace.sierpinski()
    comp = build_yprime(base)
    act = ActionOverX(base, base, ContinuousMap.identity(base))
    with pytest.raises(DomainMismatch):
        to_discontinuous(comp, act)


def test_yprime_cap():
    with pytest.raises(CapExceeded):
        build_yprime(FiniteSpace.discrete(5))


def test_yprime_topology_cap_names_cap():
    # the empty family, 13 singletons and the family of all 13 opens: one
    # component with one maximal point passes the up-front bound, and its
    # 8,194 up-sets are refused while the opens are built
    base = FiniteSpace.chain(12)
    filters = [[], *([u] for u in base.opens), base.opens]
    with pytest.raises(CapExceeded) as err:
        _assemble(base, filters)
    assert err.value.details == {"cap": COMPLETION_OPENS_CAP}
    assert str(err.value) == (
        f"Alexandrov topology exceeds {COMPLETION_OPENS_CAP} opens")


def test_yprime_filter_cap_names_cap():
    # each filter is a point, so 166 filters are refused before the
    # completion's topology is built
    with pytest.raises(CapExceeded) as err:
        build_yprime(FiniteSpace.discrete(4))
    assert err.value.details == {"filters": 166, "cap": MAX_POINTS}
    assert str(err.value) == f"completion capped at {MAX_POINTS} filters"


def assert_matches_subbasis_closure(comp):
    n = len(comp.points)
    closure = brute_completion_opens(comp.basis.values(), COMPLETION_OPENS_CAP)
    assert set(comp.space.opens) == closure | {0, (1 << n) - 1}
    assert validate_topology(n, comp.space.opens) == comp.space


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
