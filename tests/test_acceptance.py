"""End-to-end checks of the shipped guarantees, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one verdict line per
criterion.  Each block re-derives its expectations from first principles
(exhaustive enumeration, element arithmetic, fraction-free determinants)
rather than trusting the code under test.
"""

import random
import time
from contextlib import contextmanager

from finitetop.action import (ActionOverX, fiber_support, filtration_of_action,
                              ideal, minimal_ideals, reconstruct,
                              subquotient_support)
from finitetop.completion import (build_yprime, from_discontinuous,
                                  neighborhood_filter_embedding,
                                  to_discontinuous)
from finitetop.enumeration import (canonical_form, census, connected_catalog,
                                   enumerate_labeled_t0,
                                   enumerate_labeled_topologies,
                                   space_from_canonical)
from finitetop.intmat import IntMatrix, smith_normal_form
from finitetop.ktheory import (FGAbelianGroup, GroupHom, cokernel, is_exact_at,
                               kernel, vanishing_propagation, verify_datum,
                               verify_six_term, SixTermCycle)
from finitetop.lattice import (continuous_to_lattice_map,
                               lattice_map_to_continuous)
from finitetop.spaces import (ContinuousMap, FiniteSpace, alexandrov_topology,
                              bits)
from fixtures import (constant_zero_datum, random_divisors,
                      random_torsion_cycle, random_zero_composite)
from oracles import (brute_chain_length, brute_is_sober,
                     brute_locally_closed_witnesses, determinant,
                     diagonal_group, element_exact, random_continuous,
                     random_matrix, random_monotone_table,
                     random_poset_space, random_space, random_torsion_hom)


@contextmanager
def criterion(tag, desc):
    try:
        yield
    except BaseException:
        print(f"[{tag} FAIL] {desc}")
        raise
    print(f"[{tag} PASS] {desc}")


def ninth_space():
    return FiniteSpace(4, [0, 0b0001, 0b0010, 0b0011, 0b0111,
                           0b1010, 0b1011, 0b1111])


def random_action(rng, nx=5, np=5):
    base = random_space(rng, rng.randint(1, nx))
    prim = random_space(rng, rng.randint(1, np))
    return ActionOverX(base, prim, random_continuous(rng, prim, base))


def test_c01_correspondences_and_sobrification():
    with criterion("C01", "preorder/space, map/table, and sobrification "
                          "roundtrips"):
        start = time.monotonic()
        for n in range(5):
            for space in enumerate_labeled_topologies(n):
                assert alexandrov_topology(space.rows) == space
        rng = random.Random(1001)
        for _ in range(200):
            x = random_poset_space(rng, rng.randint(1, 5))
            p = random_poset_space(rng, rng.randint(1, 5))
            psi = random_continuous(rng, p, x)
            table = continuous_to_lattice_map(psi)
            assert lattice_map_to_continuous(table) == psi
            again = continuous_to_lattice_map(
                lattice_map_to_continuous(table))
            assert again.table == table.table
        for n in range(4):
            for space in enumerate_labeled_topologies(n):
                hat, iota = space.sobrification()
                assert brute_is_sober(hat)
                assert len(hat.opens) == len(space.opens)
                assert {iota.preimage(w) for w in hat.opens} == set(space.opens)
                hat2, iota2 = hat.sobrification()
                assert hat2.size == hat.size
                assert sorted(iota2.assignment) == list(range(hat.size))
                assert {iota2.preimage(w) for w in hat2.opens} == set(hat.opens)
        assert time.monotonic() - start < 10


def test_c02_sober_equals_t0_exhaustively():
    with criterion("C02", "sober and T0 coincide on every topology with at "
                          "most 4 points"):
        start = time.monotonic()
        counts = []
        for n in range(5):
            spaces = enumerate_labeled_topologies(n)
            counts.append(len(spaces))
            for space in spaces:
                sober = brute_is_sober(space)
                assert sober == space.is_t0()
                assert space.is_sober() == sober
        assert counts == [1, 1, 4, 29, 355]
        assert time.monotonic() - start < 30


def test_c03_census_and_catalog():
    with criterion("C03", "three-point census has 3 classes and the catalog "
                          "fixtures are distinct census members"):
        row3 = census(3, connected=True, t0=True)
        assert row3.class_count() == 3
        catalog = connected_catalog()
        assert len(catalog) == 12
        forms = [canonical_form(s) for s in catalog]
        assert len(set(forms)) == 12
        for space, form in zip(catalog, forms):
            assert space.is_t0() and space.is_connected()
            in_census = census(space.size, connected=True, t0=True).classes
            assert form in in_census
        gap = set(census(4, connected=True, t0=True).classes) - set(forms)
        shapes = [space_from_canonical(f).hasse_edges() for f in sorted(gap)]
        print(f"[C03 note] 4-point connected T0 census has {len(gap)} "
              f"class(es) beyond the catalog, with cover edges {shapes}")


def test_c04_subquotient_supports_are_witness_independent():
    with criterion("C04", "subquotient supports agree across witnesses and "
                          "satisfy the exchange identity"):
        rng = random.Random(1004)
        for _ in range(100):
            act = random_action(rng)
            psi = act.psi
            for y in act.base.locally_closed_sets():
                witnesses = brute_locally_closed_witnesses(act.base, y)
                supports = {psi.preimage(u) & ~psi.preimage(v)
                            for u, v in witnesses}
                assert supports == {subquotient_support(act, y)}
                for u1, v1 in witnesses:
                    for u2, v2 in witnesses:
                        assert (psi.preimage(u2) | psi.preimage(v1)
                                == psi.preimage(u1) | psi.preimage(v2))


def test_c05_reconstruction():
    with criterion("C05", "actions over sober bases are recovered exactly "
                          "from their minimal ideals"):
        rng = random.Random(1005)
        for _ in range(200):
            base = random_poset_space(rng, rng.randint(1, 5))
            prim = random_space(rng, rng.randint(1, 5))
            act = ActionOverX(base, prim, random_continuous(rng, prim, base))
            assert reconstruct(base, minimal_ideals(act), prim).psi == act.psi
        x = ninth_space()
        act = ActionOverX(x, x, ContinuousMap.identity(x))
        ideals = [ideal(act, x.minimal_open(p)) for p in range(4)]
        assert ideals[0] & ~ideals[2] == 0
        assert ideals[0] & ideals[3] == 0
        assert ideals[1] == ideals[2] & ideals[3]
        assert ideals[2] | ideals[3] == x.full


def test_c06_completion():
    with criterion("C06", "the two-point discrete completion is the diamond "
                          "and table lifting is a bijection"):
        comp = build_yprime(FiniteSpace.discrete(2))
        assert len(comp.points) == 4
        assert comp.space.opens == (0, 8, 10, 12, 14, 15)
        assert comp.space.hasse_edges() == ((1, 0), (2, 0), (3, 1), (3, 2))
        rng = random.Random(1006)
        bases = []
        while len(bases) < 100:
            base = random_space(rng, rng.randint(1, 4))
            if len(base.opens) <= 8:
                bases.append(base)
        for base in bases:
            comp = build_yprime(base)
            prim = random_space(rng, rng.randint(1, 5))
            table = random_monotone_table(rng, base, prim)
            act = from_discontinuous(comp, prim, table)
            assert to_discontinuous(comp, act) == table
            iota = neighborhood_filter_embedding(comp)
            g = random_continuous(rng, prim, base)
            lifted = from_discontinuous(
                comp, prim, {u: g.preimage(u) for u in base.opens})
            assert lifted.psi.assignment == tuple(iota.assignment[g(q)]
                                                  for q in range(prim.size))


def test_c07_canonical_filtration():
    with criterion("C07", "filtration strata: two singleton strata on the "
                          "two-point connected space, counts match lengths, "
                          "actions split along strata"):
        sier = FiniteSpace.sierpinski()
        assert sier.canonical_filtration().strata == (0b01, 0b10)
        for n in range(6):
            for space in enumerate_labeled_t0(n):
                filt = space.canonical_filtration()
                assert len(filt.strata) == brute_chain_length(space)
        rng = random.Random(1007)
        for _ in range(100):
            base = random_poset_space(rng, rng.randint(1, 5))
            prim = random_space(rng, rng.randint(1, 5))
            act = ActionOverX(base, prim, random_continuous(rng, prim, base))
            filt = base.canonical_filtration()
            supports = filtration_of_action(act)
            assert len(supports) == len(filt.strata)
            seen = 0
            for j, sup in enumerate(supports):
                expected = (act.psi.preimage(filt.layers[j + 1])
                            & ~act.psi.preimage(filt.layers[j]))
                assert sup == expected
                union = 0
                for x in bits(filt.strata[j]):
                    piece = fiber_support(act, x)
                    assert union & piece == 0
                    union |= piece
                assert union == expected
                assert seen & expected == 0
                seen |= expected
            assert seen == act.prim.full


def test_c08_smith_normal_form():
    with criterion("C08", "normal forms on 500 random integer matrices: "
                          "exact transforms, unimodularity, divisibility"):
        start = time.monotonic()
        u, d, v = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
        assert d.diagonal() == (1, 6)
        rng = random.Random(1008)
        for _ in range(500):
            m = random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6),
                              bound=9)
            u, d, v = smith_normal_form(m)
            assert (u @ m) @ v == d
            assert abs(determinant(u)) == 1
            assert abs(determinant(v)) == 1
            diag = d.diagonal()
            for i in range(d.rows):
                for j in range(d.cols):
                    if i != j:
                        assert d.entries[i][j] == 0
            for a, b in zip(diag, diag[1:]):
                assert a >= 0 and b >= 0
                assert b == 0 or (a and b % a == 0)
        assert time.monotonic() - start < 5


def test_c09_exactness_against_element_arithmetic():
    with criterion("C09", "exactness verdicts match element enumeration on "
                          "small torsion groups; kernel/cokernel cycles pass"):
        rng = random.Random(1009)
        checked = 0
        for _ in range(26):
            a, b, c = (random_divisors(rng) for _ in range(3))
            ga, gb, gc = (diagonal_group(d) for d in (a, b, c))
            g = GroupHom(gb, gc, random_torsion_hom(rng, b, c))
            free_f = GroupHom(ga, gb, random_torsion_hom(rng, a, b))
            tied_f = GroupHom(ga, gb, random_zero_composite(
                rng, a, b, g.matrix.entries, c))
            for f in (free_f, tied_f):
                want = element_exact(f.matrix.entries, g.matrix.entries,
                                     a, b, c)
                assert is_exact_at(f, g).ok == want
                checked += 1
        assert checked >= 50
        for _ in range(30):
            divs, cycle = random_torsion_cycle(rng)
            report = verify_six_term(cycle)
            for i in range(6):
                want = element_exact(cycle.maps[(i - 1) % 6].matrix.entries,
                                     cycle.maps[i].matrix.entries,
                                     divs[(i - 1) % 6], divs[i],
                                     divs[(i + 1) % 6])
                assert report.nodes[i].ok == want
        zero = FGAbelianGroup.zero()
        for _ in range(30):
            a, b = random_divisors(rng), random_divisors(rng)
            f = GroupHom(diagonal_group(a), diagonal_group(b),
                         random_torsion_hom(rng, a, b))
            ker, incl = kernel(f)
            cok, proj = cokernel(f)
            cycle = SixTermCycle((incl, f, proj, GroupHom.zero(cok, zero),
                                  GroupHom.zero(zero, zero), GroupHom.zero(zero, ker)))
            assert verify_six_term(cycle).ok


def test_c10_vanishing_propagation():
    with criterion("C10", "zero data propagate to zero everywhere; a seeded "
                          "inconsistency is rejected with its witness pair"):
        rng = random.Random(1010)
        for _ in range(20):
            space = random_poset_space(rng, rng.randint(1, 4))
            datum = constant_zero_datum(space)
            assert verify_datum(datum).ok
            assert vanishing_propagation(datum).ok
            assert all(datum.assignment[y].is_zero()
                       for y in space.locally_closed_sets())
        sier = FiniteSpace.sierpinski()
        flawed = constant_zero_datum(sier, special=sier.full,
                                     group=FGAbelianGroup.cyclic(2))
        report = verify_datum(flawed)
        assert not report.ok
        assert (1, 3) in [pair for pair, rep in report.results if not rep.ok]
        prop = vanishing_propagation(flawed)
        assert not prop.ok
        assert prop.deviation == (3, (1, 3))
