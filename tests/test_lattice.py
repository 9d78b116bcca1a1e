import random

import pytest

from finitetop.errors import NotSober, PreservationFailure
from finitetop.lattice import (LatticeMap, continuous_to_lattice_map,
                               lattice_map_to_continuous,
                               preserves_finite_meets, preserves_joins)
from finitetop.spaces import ContinuousMap, FiniteSpace, bits
from oracles import (brute_preservation_failures, random_continuous,
                     random_monotone_table, random_poset_space, random_space)


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
    # the first failure in family order, "join" before "meet" at each open;
    # the empty join fails at the empty open, the empty meet at the full one
    for x, table, first in (
            (FiniteSpace.discrete(2), {0: 0, 1: 0, 2: 0, 3: 1}, ("join", 3)),
            (FiniteSpace.discrete(3),
             {0: 0, 1: 1, 2: 1, 4: 0, 3: 1, 5: 0, 6: 0, 7: 1}, ("meet", 1)),
            (FiniteSpace.sierpinski(), {0: 1, 1: 1, 3: 1}, ("join", 0)),
            (FiniteSpace.discrete(2), {0: 0, 1: 0, 2: 0, 3: 0}, ("meet", 3)),
    ):
        m = LatticeMap(x, p, table)
        with pytest.raises(PreservationFailure) as err:
            lattice_map_to_continuous(m)
        assert err.value.details["witness"] == first
        assert str(err.value) == f"table fails {first[0]} preservation"


def _random_table(rng, source, target, kind):
    if kind == "monotone":
        return random_monotone_table(rng, source, target)
    if kind == "unions":
        at_rows = [rng.choice(target.opens) for _ in range(source.size)]
        table = {}
        for a in source.opens:
            table[a] = 0
            for x in bits(a):
                table[a] |= at_rows[x]
        return table
    # only an empty space maps into an empty source
    if kind == "perturbed" and (source.size or not target.size):
        table = continuous_to_lattice_map(
            random_continuous(rng, target, source)).table
        table[rng.choice(source.opens)] = rng.choice(target.opens)
        return table
    return {a: rng.choice(target.opens) for a in source.opens}


def test_predicates_match_the_pair_scan():
    rng = random.Random(101)
    kinds = ("monotone", "unions", "arbitrary", "perturbed")
    verdicts = set()
    rebuilt = 0
    for i in range(4000):
        n = rng.randint(0, 5)
        source = (random_poset_space if i // 4 % 2 else random_space)(rng, n)
        target = random_poset_space(rng, rng.randint(0, 4))
        m = LatticeMap(source, target, _random_table(rng, source, target, kinds[i % 4]))
        failures = list(brute_preservation_failures(m))
        joins = not any(kind.endswith("join") for kind, _, _ in failures)
        meets = not any(kind.endswith("meet") for kind, _, _ in failures)
        assert preserves_joins(m) == joins
        assert preserves_finite_meets(m) == meets
        verdicts.add((joins, meets))
        if not source.is_sober():
            continue
        if joins and meets:
            assert continuous_to_lattice_map(lattice_map_to_continuous(m)) == m
            rebuilt += 1
        else:
            with pytest.raises(PreservationFailure):
                lattice_map_to_continuous(m)
    assert len(verdicts) == 4
    assert rebuilt > 500


class _CountingTable(dict):
    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_preservation_reads_the_table_linearly():
    x = FiniteSpace.discrete(8)
    bound = len(x.opens) * (x.size + 2)
    for predicate in (preserves_joins, preserves_finite_meets):
        m = continuous_to_lattice_map(ContinuousMap.identity(x))
        m.table = _CountingTable(m.table)
        assert predicate(m)
        assert 0 < m.table.reads <= bound


def test_discrete_twelve_round_trips():
    x = FiniteSpace.discrete(12)
    psi = ContinuousMap.identity(x)
    m = continuous_to_lattice_map(psi)
    assert len(m.table) == 4096
    assert lattice_map_to_continuous(m) == psi


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
