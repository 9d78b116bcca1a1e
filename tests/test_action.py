import random

import pytest

from finitetop.action import (ActionOverX, fiber_support, filtration_of_action,
                              ideal, is_tight, minimal_ideals, p_functor,
                              pushforward, reconstruct, restrict,
                              subquotient_support)
from finitetop.errors import (CompatibilityFailure, CoverFailure, DomainMismatch,
                              NotOpen, NotSober)
from finitetop import spaces
from finitetop.spaces import ContinuousMap, FiniteSpace, bits, mask_of
from oracles import (brute_locally_closed_witnesses, brute_meet_failures,
                     random_continuous, random_poset_space, random_space)


def ninth_space():
    return FiniteSpace(4, [0, 0b0001, 0b0010, 0b0011, 0b0111,
                           0b1010, 0b1011, 0b1111])


def ninth_action():
    x = ninth_space()
    return ActionOverX(x, x, ContinuousMap.identity(x))


def random_action(rng, nx=5, np=5):
    base = random_space(rng, rng.randint(1, nx))
    prim = random_space(rng, rng.randint(1, np))
    return ActionOverX(base, prim, random_continuous(rng, prim, base))


def test_action_wiring():
    x = ninth_space()
    with pytest.raises(DomainMismatch):
        ActionOverX(x, x, ContinuousMap(x, FiniteSpace.point(), [0, 0, 0, 0]))


def test_ideals_of_ninth_case():
    act = ninth_action()
    x = act.base
    ideals = [ideal(act, x.minimal_open(p)) for p in range(4)]
    assert ideals[0] & ~ideals[2] == 0           # I1 inside I3
    assert ideals[0] & ideals[3] == 0            # I1 meets I4 trivially
    assert ideals[1] == ideals[2] & ideals[3]    # I2 is redundant
    assert ideals[2] | ideals[3] == x.full       # I3 and I4 cover


def test_ideal_requires_open():
    act = ninth_action()
    with pytest.raises(NotOpen):
        ideal(act, 0b0100)


def test_subquotient_witnesses_agree():
    rng = random.Random(101)
    for _ in range(40):
        act = random_action(rng)
        psi = act.psi
        for y in act.base.locally_closed_sets():
            carriers = set()
            witnesses = brute_locally_closed_witnesses(act.base, y)
            for u, v in witnesses:
                carriers.add(psi.preimage(u) & ~psi.preimage(v))
            assert len(carriers) == 1
            got = subquotient_support(act, y)
            assert carriers == {got}
            # exchange identity between any two witnesses
            for u1, v1 in witnesses:
                for u2, v2 in witnesses:
                    assert (psi.preimage(u2) | psi.preimage(v1)
                            == psi.preimage(u1) | psi.preimage(v2))


def test_support_carrier_is_locally_closed_in_prim():
    rng = random.Random(103)
    for _ in range(20):
        act = random_action(rng)
        for y in act.base.locally_closed_sets():
            sup = subquotient_support(act, y)
            assert act.prim.locally_closed_witness(sup) is not None


def test_pushforward_along_identity_and_collapse():
    act = ninth_action()
    same = pushforward(ContinuousMap.identity(act.base), act)
    assert same == act
    point = FiniteSpace.point()
    collapsed = pushforward(ContinuousMap(act.base, point, [0, 0, 0, 0]), act)
    assert collapsed.base == point
    assert subquotient_support(collapsed, 1) == act.prim.full


def test_pushforward_needs_matching_base():
    act = ninth_action()
    wrong = ContinuousMap.identity(FiniteSpace.point())
    with pytest.raises(DomainMismatch):
        pushforward(wrong, act)


def test_restrict_to_open_and_closed_pieces():
    act = ninth_action()
    open_part = restrict(act, 0b1010)        # the open set {1, 3}
    assert open_part.base.size == 2
    assert is_tight(open_part)
    closed_part = restrict(act, 0b1100)      # the closed set {2, 3}
    assert closed_part.base.size == 2
    assert set(closed_part.base.opens) == {0, 1, 2, 3}


def test_restrict_preserves_supports():
    rng = random.Random(107)
    for _ in range(25):
        act = random_action(rng, 4, 4)
        for y in act.base.locally_closed_sets():
            if y == 0:
                continue
            small = restrict(act, y)
            base_pts = tuple(bits(y))
            _, prim_pts = act.prim.subspace(act.psi.preimage(y))
            # supports over locally closed subsets of y lift to the old ones
            for c in small.base.locally_closed_sets():
                got = subquotient_support(small, c)
                lifted = mask_of(prim_pts[i] for i in bits(got))
                big = mask_of(base_pts[i] for i in bits(c))
                assert lifted == act.psi.preimage(big)


def test_p_functor_supports():
    act = ninth_action()
    part = p_functor(act, 0b1010)
    assert part.base == act.base
    pts = tuple(bits(act.psi.preimage(0b1010)))
    for z in act.base.locally_closed_sets():
        got = subquotient_support(part, z)
        lifted = mask_of(pts[i] for i in bits(got))
        assert lifted == act.psi.preimage(z & 0b1010)


def assert_support_is_witness_independent(act, c):
    """Every witness of c gives the support, and any two exchange."""
    psi = act.psi
    pre = [(psi.preimage(u), psi.preimage(v))
           for u, v in brute_locally_closed_witnesses(act.base, c)]
    assert {pu & ~pv for pu, pv in pre} == {subquotient_support(act, c)}
    for pu1, pv1 in pre:
        for pu2, pv2 in pre:
            assert pu2 | pv1 == pu1 | pv2


def test_pushforward_and_p_functor_supports_are_preimages():
    # the identities pushforward and p_functor rely on instead of checking
    rng = random.Random(131)
    for _ in range(100):
        act = random_action(rng, 4, 5)
        psi = act.psi
        # (psi then f)^-1(C) = psi^-1(f^-1(C))
        f = random_continuous(rng, act.base, random_space(rng, rng.randint(1, 4)))
        moved = pushforward(f, act)
        for c in f.codomain.locally_closed_sets():
            assert_support_is_witness_independent(moved, c)
            assert subquotient_support(moved, c) == psi.preimage(f.preimage(c))
        # the support over Z is the old support over Z & y
        y = rng.choice(act.base.locally_closed_sets())
        part = p_functor(act, y)
        pts = tuple(bits(psi.preimage(y)))
        for z in act.base.locally_closed_sets():
            assert_support_is_witness_independent(part, z)
            got = subquotient_support(part, z)
            assert mask_of(pts[i] for i in bits(got)) == psi.preimage(z & y)


def test_tightness():
    assert is_tight(ninth_action())
    x = ninth_space()
    sier = FiniteSpace.sierpinski()
    squash = ActionOverX(sier, x, ContinuousMap(x, sier, [0, 0, 0, 1]))
    assert not is_tight(squash)


def test_fiber_support():
    act = ninth_action()
    assert fiber_support(act, 2) == 0b0100


# -- reconstruction ----------------------------------------------------------------


def test_reconstruct_recovers_ninth_case():
    act = ninth_action()
    rebuilt = reconstruct(act.base, minimal_ideals(act), act.prim)
    assert rebuilt == act


def test_reconstruct_roundtrip_random():
    rng = random.Random(109)
    for _ in range(60):
        base = random_poset_space(rng, rng.randint(1, 5))
        prim = random_space(rng, rng.randint(1, 5))
        act = ActionOverX(base, prim, random_continuous(rng, prim, base))
        rebuilt = reconstruct(base, minimal_ideals(act), prim)
        assert rebuilt.psi == act.psi


def test_reconstruct_builds_no_open_family(monkeypatch):
    # psi is read off the ideals at the minimal opens; listing the 2^20
    # opens of the base would go through spaces._up_sets
    def refuse(*args):
        raise AssertionError("an open family was built")

    base = FiniteSpace.discrete(20)
    act = ActionOverX(base, base, ContinuousMap.identity(base))
    monkeypatch.setattr(spaces, "_up_sets", refuse)
    assert reconstruct(base, minimal_ideals(act), base) == act


def test_reconstruct_random_assignments_meet_or_refuse():
    # the compatibility check alone makes the assembled table respect meets
    rng = random.Random(127)
    accepted = 0
    for _ in range(3000):
        base = random_space(rng, rng.randint(1, 4))
        prim = random_space(rng, rng.randint(1, 3))
        values = {x: (rng.choice(prim.opens) if rng.random() < 0.9
                      else rng.randrange(1 << prim.size))
                  for x in range(base.size)}
        try:
            act = reconstruct(base, values, prim)
        except (NotSober, NotOpen, CoverFailure, CompatibilityFailure):
            continue
        accepted += 1
        table = {u: mask_of(p for x in bits(u) for p in bits(values[x]))
                 for u in base.opens}
        assert {u: act.psi.preimage(u) for u in base.opens} == table
        assert brute_meet_failures(base, table) == []
    assert accepted > 100


def test_reconstruct_requires_sober_base():
    base = FiniteSpace.chaotic(2)
    with pytest.raises(NotSober):
        reconstruct(base, {0: 3, 1: 3}, FiniteSpace.chaotic(2))


def test_reconstruct_rejects_non_open_value():
    x = ninth_space()
    values = {0: 0b0100, 1: 0b0010, 2: 0b0111, 3: 0b1010}
    with pytest.raises(NotOpen) as err:
        reconstruct(x, values, x)
    assert err.value.details["point"] == 0


def test_reconstruct_rejects_non_cover():
    x = ninth_space()
    values = {0: 0b0001, 1: 0b0010, 2: 0b0011, 3: 0b1010}
    with pytest.raises(CoverFailure) as err:
        reconstruct(x, values, x)
    assert err.value.details["union"] == 0b1011


def test_reconstruct_rejects_incompatible_ideals():
    x = ninth_space()
    values = {0: 0b0001, 1: 0b0010, 2: 0b0111, 3: 0b1011}
    with pytest.raises(CompatibilityFailure) as err:
        reconstruct(x, values, x)
    assert (err.value.details["x"], err.value.details["y"]) == (0, 3)


def test_assignment_totality():
    x = ninth_space()
    with pytest.raises(ValueError, match=r"no ideal assigned to points \[2, 3\]"):
        reconstruct(x, {0: 1, 1: 2}, x)
    # a missing point is refused first, before the base is found not sober
    with pytest.raises(ValueError, match=r"no ideal assigned to points \[1\]"):
        reconstruct(FiniteSpace.chaotic(2), {0: 3}, x)


# -- filtration --------------------------------------------------------------------


def test_filtration_of_ninth_case():
    act = ninth_action()
    supports = filtration_of_action(act)
    assert supports == [0b0011, 0b1100]


def test_filtration_partition_property():
    rng = random.Random(113)
    for _ in range(40):
        base = random_poset_space(rng, rng.randint(1, 5))
        prim = random_space(rng, rng.randint(1, 5))
        act = ActionOverX(base, prim, random_continuous(rng, prim, base))
        filt = base.canonical_filtration()
        supports = filtration_of_action(act)
        assert len(supports) == len(filt.strata)
        for j, sup in enumerate(supports):
            # the j-th support is the ideal gap between consecutive layers
            expected = (act.psi.preimage(filt.layers[j + 1])
                        & ~act.psi.preimage(filt.layers[j]))
            assert sup == expected
            # fibers are disjoint, each open over the part of P above the
            # unfiltered rest of the base, and together the support
            over_rest = act.psi.preimage(base.full ^ filt.layers[j])
            union = 0
            for x in bits(filt.strata[j]):
                piece = fiber_support(act, x)
                assert union & piece == 0
                assert act.psi.preimage(base.minimal_open(x)) & over_rest == piece
                union |= piece
            assert union == expected
