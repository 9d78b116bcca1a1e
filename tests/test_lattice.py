import random

import pytest

from finitetop.errors import NotSober, PreservationFailure
from finitetop.lattice import (LatticeMap, continuous_to_lattice_map,
                               lattice_map_to_continuous,
                               preserves_finite_meets, preserves_joins)
from finitetop.spaces import ContinuousMap, FiniteSpace
from oracles import random_continuous, random_poset_space


def test_lattice_map_totality():
    x = FiniteSpace.sierpinski()
    with pytest.raises(ValueError):
        LatticeMap(x, x, {0: 0, 1: 1})
    with pytest.raises(ValueError):
        LatticeMap(x, x, {0: 0, 1: 2, 3: 3})


def test_preservation_predicates():
    x = FiniteSpace.sierpinski()
    ident = LatticeMap(x, x, {a: a for a in x.opens})
    assert preserves_joins(ident)
    assert preserves_finite_meets(ident)

    to_top = LatticeMap(x, x, {a: 3 for a in x.opens})
    assert not preserves_joins(to_top)  # empty join breaks
    assert preserves_finite_meets(to_top)

    disc = FiniteSpace.discrete(2)
    crush = LatticeMap(disc, disc, {0: 0, 1: 0, 2: 0, 3: 3})
    assert not preserves_joins(crush)

    # joins hold, the meet of the two points does not
    point = FiniteSpace.point()
    spread = LatticeMap(disc, point, {0: 0, 1: 1, 2: 1, 3: 1})
    assert preserves_joins(spread)
    assert not preserves_finite_meets(spread)
    # joins and pairwise meets hold, the empty meet does not
    to_bottom = LatticeMap(disc, point, {0: 0, 1: 0, 2: 0, 3: 0})
    assert preserves_joins(to_bottom)
    assert not preserves_finite_meets(to_bottom)


def test_preimage_map_preserves_everything():
    rng = random.Random(91)
    for _ in range(60):
        dom = random_poset_space(rng, rng.randint(1, 5))
        cod = random_poset_space(rng, rng.randint(1, 5))
        psi = random_continuous(rng, dom, cod)
        m = continuous_to_lattice_map(psi)
        assert m.source == cod
        assert m.target == dom
        assert preserves_joins(m)
        assert preserves_finite_meets(m)


def test_map_lattice_roundtrip():
    rng = random.Random(93)
    for _ in range(100):
        p = random_poset_space(rng, rng.randint(1, 5))
        x = random_poset_space(rng, rng.randint(1, 5))
        psi = random_continuous(rng, p, x)
        back = lattice_map_to_continuous(continuous_to_lattice_map(psi))
        assert back == psi


def test_lattice_map_roundtrip():
    rng = random.Random(97)
    for _ in range(60):
        p = random_poset_space(rng, rng.randint(1, 4))
        x = random_poset_space(rng, rng.randint(1, 4))
        psi = random_continuous(rng, p, x)
        m = continuous_to_lattice_map(psi)
        again = continuous_to_lattice_map(lattice_map_to_continuous(m))
        assert again == m


def test_reconstruction_needs_sober_point_space():
    # the generic point lives in x, so x is the space that must be sober
    x = FiniteSpace.chaotic(2)
    p = FiniteSpace.point()
    table = {0: 0, 3: 1}
    m = LatticeMap(x, p, table)
    with pytest.raises(NotSober):
        lattice_map_to_continuous(m)


def test_reconstruction_rejects_broken_tables():
    p = FiniteSpace.point()
    # the first failure in scan order: empty join, empty meet, then the
    # join and the meet of each pair; in the discrete three-point space the
    # pair (1, 2) breaks its meet before (1, 4) breaks its join
    for x, table, first in (
            (FiniteSpace.discrete(2), {0: 0, 1: 0, 2: 0, 3: 1}, ("join", 1, 2)),
            (FiniteSpace.discrete(3),
             {0: 0, 1: 1, 2: 1, 4: 0, 3: 1, 5: 0, 6: 0, 7: 1}, ("meet", 1, 2)),
            (FiniteSpace.sierpinski(), {0: 1, 1: 1, 3: 1}, ("empty join", 0, 0)),
            (FiniteSpace.discrete(2), {0: 0, 1: 0, 2: 0, 3: 0}, ("empty meet", 3, 3)),
    ):
        m = LatticeMap(x, p, table)
        with pytest.raises(PreservationFailure) as err:
            lattice_map_to_continuous(m)
        assert err.value.details["witness"] == first
        assert str(err.value) == f"table fails {first[0]} preservation"


def test_collapse_to_closed_point():
    # the map sending everything to the closed point of the chain
    x = FiniteSpace.sierpinski()
    p = FiniteSpace.point()
    table = {0: 0, 1: 0, 3: 1}
    m = LatticeMap(x, p, table)
    psi = lattice_map_to_continuous(m)
    assert psi.assignment == (1,)


def test_ninth_case_ideal_table():
    x = FiniteSpace(4, [0, 0b0001, 0b0010, 0b0011, 0b0111, 0b1010, 0b1011, 0b1111])
    psi = ContinuousMap.identity(x)
    m = continuous_to_lattice_map(psi)
    assert m.table[0b0111] == 0b0111
    assert m.table[0b1010] == 0b1010
    assert m.table[0b0111] & m.table[0b1010] == 0b0010
    assert m.table[0b0111] | m.table[0b1010] == x.full
