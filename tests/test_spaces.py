import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitetop.errors import (CapExceeded, MissingEmpty, MissingFull,
                              NotClosedUnderIntersection,
                              NotClosedUnderUnion, NotContinuous, NotLocallyClosed,
                              NotReflexive, NotT0, NotTransitive)
from finitetop import spaces
from finitetop.cli import main
from finitetop.jsonio import preorder_to_json
from finitetop.spaces import (MAX_POINTS, OPEN_FAMILY_CAP, ContinuousMap,
                              FiniteSpace, _closure, alexandrov_topology, bits,
                              family_key, hasse_dot, mask_of, sorted_family,
                              space_from_edges)
from oracles import (brute_chain_length, brute_check_family, brute_closure,
                     brute_interior, brute_irreducible_closed_sets,
                     brute_is_sober, brute_locally_closed,
                     brute_locally_closed_witnesses, brute_minimal_open,
                     brute_up_sets, fold_minimal_opens, random_poset_space,
                     random_space)

from finitetop.enumeration import enumerate_labeled_topologies


def spaces_up_to(n):
    for k in range(n + 1):
        yield from enumerate_labeled_topologies(k)


# -- family axioms -------------------------------------------------------------


def test_family_axioms_rejected_with_witnesses():
    with pytest.raises(MissingEmpty):
        FiniteSpace(1, [1])
    with pytest.raises(MissingFull):
        FiniteSpace(2, [0, 1])
    with pytest.raises(NotClosedUnderUnion) as err:
        FiniteSpace(3, [0, 1, 2, 7])
    assert err.value.details["witness"] == (1, 2)
    with pytest.raises(NotClosedUnderIntersection) as err:
        FiniteSpace(3, [0, 3, 5, 7])
    assert err.value.details["witness"] == (3, 5)


def _refusal(check, size, family):
    try:
        check(size, family)
    except (MissingEmpty, MissingFull, NotClosedUnderUnion,
            NotClosedUnderIntersection) as exc:
        return exc
    return None


def assert_validator_matches_scan(size, family):
    got = _refusal(FiniteSpace, size, family)
    want = _refusal(brute_check_family, size, family)
    assert (got is None) == (want is None), (size, family)
    members = set(family)
    if isinstance(got, (NotClosedUnderUnion, NotClosedUnderIntersection)):
        a, b = got.details["witness"]
        joined = a | b if isinstance(got, NotClosedUnderUnion) else a & b
        assert a in members and b in members and joined not in members
    elif got is not None:
        assert type(got) is type(want)


def test_validator_matches_pairwise_scan_exhaustive():
    for n in range(5):
        for choice in range(1 << (1 << n)):
            assert_validator_matches_scan(n, list(bits(choice)))


def assert_validator_matches_fold(size, family):
    """The reference fold names the same fault, or gives the same rows."""
    got = _refusal(FiniteSpace, size, family)
    want = _refusal(fold_minimal_opens, size, family)
    assert type(got) is type(want), (size, family)
    if got is None:
        assert FiniteSpace(size, family).rows == fold_minimal_opens(size, family)
    else:
        assert str(got) == str(want) and got.details == want.details


def test_validator_matches_pairwise_scan_random():
    rng = random.Random(19)
    cases = []
    for i in range(1000):
        if i % 2:
            # a topology with one or two sets toggled
            family = set(random_space(rng, 5).opens)
            for _ in range(rng.randint(1, 2)):
                family ^= {rng.randrange(32)}
        else:
            family = {m for m in range(32) if rng.random() < 0.3} | {0, 31}
        cases.append((5, family))
    rng = random.Random(29)
    for _ in range(400):
        # on 6-9 points, a topology with one or two members dropped or sets added
        n = rng.randint(6, 9)
        family = set(random_space(rng, n).opens)
        for _ in range(rng.randint(1, 2)):
            family ^= {rng.choice(sorted(family)) if rng.random() < 0.5
                       else rng.randrange(1 << n)}
        cases.append((n, family))
    for size, family in cases:
        assert_validator_matches_scan(size, sorted(family))
        assert_validator_matches_fold(size, sorted(family))


def test_validator_linear_on_discrete_family():
    # 65,536 opens: a pairwise scan would test over two billion pairs
    space = FiniteSpace.discrete(16)
    assert FiniteSpace(16, space.opens) == space


@pytest.mark.parametrize("size, opens, named", [
    (1, [False, True], "False"),
    (1, [0, 1, 1.0], "1.0"),   # equal to a member, so a set would drop it
    (1, [0, 1.0], "1.0"),
    (2, [0, 3, "1"], "'1'"),   # a sort would fail on it first
])
def test_family_members_must_be_exact_ints(size, opens, named):
    with pytest.raises(ValueError) as err:
        FiniteSpace(size, opens)
    assert str(err.value) == f"open {named} is not an integer"


def test_validator_calls_bits_at_most_once_per_point(monkeypatch):
    rng = random.Random(31)
    tops = [random_poset_space(rng, 8), random_space(rng, 9),
            FiniteSpace.discrete(12), FiniteSpace.chaotic(5), FiniteSpace(0, [0])]
    calls = []

    def counted(mask):
        calls.append(mask)
        return bits(mask)

    monkeypatch.setattr(spaces, "bits", counted)
    for space in tops:
        opens = space.opens
        calls.clear()
        assert FiniteSpace(space.size, opens).rows == space.rows
        assert len(calls) <= space.size


def test_family_deduplicated_and_sorted():
    space = FiniteSpace(2, [3, 0, 1, 1, 3])
    assert space.opens == (0, 1, 3)


masks = st.integers(0, 2 ** 63 - 1)
# small masks tie on bit count often; repeats and 0 must keep their places
families = st.one_of(
    st.lists(st.one_of(st.integers(0, 15), masks), max_size=24),
    st.lists(masks, max_size=8).map(lambda xs: xs + xs[::2] + [0, 0]),
    st.sets(masks, max_size=12),
    st.lists(masks, max_size=12).map(tuple))


@settings(max_examples=300, deadline=None)
@given(families)
def test_sorted_family_is_sorted_by_family_key(family):
    got = sorted_family(family)
    assert type(got) is list
    assert got == sorted(family, key=family_key)
    assert sorted_family(iter(family)) == got


def test_labels_checked():
    with pytest.raises(ValueError):
        FiniteSpace(2, [0, 1, 3], labels=("a",))
    with pytest.raises(ValueError):
        FiniteSpace(2, [0, 1, 3], labels=("a", "a"))
    # labels print in DOT and JSON, so 1 and "1" are the same label
    with pytest.raises(ValueError):
        FiniteSpace.sierpinski().with_labels((1, "1"))


# -- closure and interior --------------------------------------------------------


def test_closure_interior_against_scan():
    for space in spaces_up_to(3):
        for s in range(1 << space.size):
            assert space.closure(s) == brute_closure(space, s)
            assert space.interior(s) == brute_interior(space, s)
            assert space.interior(s) == space.full ^ space.closure(space.full ^ s)
            assert space.is_open(s) == (s in space.opens)


def test_minimal_open_is_smallest():
    for space in spaces_up_to(3):
        for x in range(space.size):
            smallest = min((u for u in space.opens if u >> x & 1),
                           key=lambda u: u.bit_count())
            assert space.minimal_open(x) == smallest == brute_minimal_open(space, x)


# -- preorders -------------------------------------------------------------------


def test_preorder_validation():
    with pytest.raises(NotReflexive) as err:
        alexandrov_topology([1, 1])
    assert err.value.details == {"point": 1}
    with pytest.raises(NotTransitive) as err:
        alexandrov_topology([0b011, 0b110, 0b100])
    assert err.value.details["witness"] == (0, 1, 2)
    assert str(err.value) == "0<=1 and 1<=2 but not 0<=2"
    # the checks come in order: range and reflexivity row by row, then
    # transitivity, the open cap and the point cap
    with pytest.raises(ValueError, match="row 1 mentions points outside 0..1"):
        alexandrov_topology([0b01, 0b100])
    with pytest.raises(NotReflexive) as err:
        alexandrov_topology([0b011, 0b110, 0b000])
    assert err.value.details == {"point": 2}
    with pytest.raises(NotTransitive):
        alexandrov_topology([0b011, 0b110, 0b100] + [1 << x for x in range(3, 64)])
    with pytest.raises(CapExceeded) as err:
        alexandrov_topology([1 << x for x in range(MAX_POINTS + 1)])
    assert err.value.details == {"cap": OPEN_FAMILY_CAP}
    with pytest.raises(CapExceeded) as err:
        alexandrov_topology([(1 << x) - 1 for x in range(1, MAX_POINTS + 2)])
    assert err.value.details == {"size": MAX_POINTS + 1, "cap": MAX_POINTS}


def test_space_from_edges_closes():
    # drawn edges (a, b) put b below a; the order is their transitive closure
    assert _closure(3, [(0, 1), (1, 2)])[0] == 0b111
    assert space_from_edges(3, [(1, 0), (2, 1)]).rows == (0b111, 0b110, 0b100)


@pytest.mark.parametrize("edge", [(0, -1), (-1, 0), (0, 5)])
def test_space_from_edges_refuses_points_outside(edge):
    # a negative index would wrap round to a point from the end, and an
    # index past the last point would fail inside the closure
    message = re.escape(f"edge {edge} mentions points outside 0..2")
    with pytest.raises(ValueError, match=message):
        space_from_edges(3, [edge])


def test_preorder_space_roundtrip_exhaustive():
    # every topology on <= 3 points comes from exactly one preorder
    for space in spaces_up_to(3):
        assert alexandrov_topology(space.rows) == space


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_preorder_roundtrip_random(data):
    n = data.draw(st.integers(1, 6))
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    rows = _closure(n, pairs)
    assert alexandrov_topology(rows).rows == tuple(rows)


def test_opens_are_up_sets():
    rng = random.Random(5)
    for _ in range(30):
        space = random_poset_space(rng, 5)
        rows = [space.minimal_open(x) for x in range(space.size)]
        for u in space.opens:
            assert all(rows[x] & ~u == 0 for x in bits(u))


def test_down_table_is_the_point_closures_within():
    # downs[c] is the closure of c for every c, and inside within the points
    # of within whose row holds c; preorders with equal rows included
    rng = random.Random(33)
    for _ in range(40):
        space = random_space(rng, rng.randint(1, 6))
        rows = space.rows
        downs = spaces._downs(rows)
        assert downs == [brute_closure(space, 1 << c) for c in range(space.size)]
        within = rng.getrandbits(space.size)
        downs = spaces._downs(rows, within)
        for c in bits(within):
            assert downs[c] == mask_of(x for x in bits(within) if rows[x] >> c & 1)
        assert spaces._components(rows) == brute_components(space)


def brute_components(space):
    # label each point by the least point it is joined to, relaxed along
    # every comparable pair until nothing moves
    n = space.size
    label = list(range(n))
    moved = True
    while moved:
        moved = False
        for x in range(n):
            for y in bits(space.rows[x]):
                if label[x] != label[y]:
                    label[x] = label[y] = min(label[x], label[y])
                    moved = True
    return tuple(mask_of(x for x in range(n) if label[x] == k)
                 for k in sorted(set(label)))


def test_alexandrov_open_cap(monkeypatch):
    # the count stops at cap + 1: an antichain exactly at the cap is exact
    assert spaces._up_set_count((0b001, 0b010, 0b100), 8) == 8
    # one point more: 2 ** 4 up-sets, counted to 9
    assert spaces._up_set_count((0b0001, 0b0010, 0b0100, 0b1000), 8) == 9
    # a 2-chain beside two points: 3 * 2 * 2 = 12 up-sets
    assert spaces._up_set_count((0b0001, 0b0010, 0b0100, 0b1001), 8) == 9
    # three maximal points over one point: 2 ** 3 + 1 = 9 up-sets
    fan = (0b0001, 0b0010, 0b0100, 0b1111)
    assert spaces._up_set_count(fan, 8) == 9
    assert spaces._up_set_count(fan, 9) == 9
    # a 20-point antichain sits exactly at the cap: admitted, and left unlisted
    refuse_listing(monkeypatch)
    antichain = FiniteSpace.discrete(20)
    assert antichain.open_count() == OPEN_FAMILY_CAP
    assert antichain._opens is None


def refuse_listing(monkeypatch):
    def refuse(*args):
        raise AssertionError("up-sets were listed")

    monkeypatch.setattr(spaces, "_up_sets", refuse)


def test_alexandrov_bound_multiplies_components(monkeypatch):
    # 11 disjoint 3-point chains: only 2 ** 11 by their maximal classes, but
    # each chain has 4 up-sets, so 4 ** 11 passes the cap
    rows = []
    for c in range(11):
        rows += [0b111 << 3 * c, 0b110 << 3 * c, 0b100 << 3 * c]
    refuse_listing(monkeypatch)
    with pytest.raises(CapExceeded) as err:
        alexandrov_topology(rows)
    assert err.value.details == {"cap": OPEN_FAMILY_CAP}
    assert str(err.value) == f"Alexandrov topology exceeds {OPEN_FAMILY_CAP} opens"
    assert spaces._up_set_count(rows[:6], 16) == 16


def bipartite(rng, low, high):
    """low minimal points, then high maximal ones, each over three minimal."""
    pairs = [(m, low + t) for t in range(high) for m in rng.sample(range(low), 3)]
    return _closure(low + high, pairs)


def test_alexandrov_refuses_hostile_preorders_before_listing(monkeypatch):
    refuse_listing(monkeypatch)
    hostile = [
        # 20 points below one top: 2 ** 20 + 1 opens
        _closure(21, [(x, 20) for x in range(20)]),
        # one point below 20: 2 ** 20 + 1 opens
        _closure(21, [(0, x) for x in range(1, 21)]),
        bipartite(random.Random(31), 31, 31),
        [1 << x for x in range(40)],
    ]
    for rows in hostile:
        with pytest.raises(CapExceeded) as err:
            alexandrov_topology(rows)
        assert err.value.details == {"cap": OPEN_FAMILY_CAP}
    # within the cap: counted, accepted and left unlisted
    space = alexandrov_topology(bipartite(random.Random(15), 15, 15))
    assert 1 << 15 < space.open_count() <= OPEN_FAMILY_CAP
    assert space._opens is None


@pytest.mark.parametrize("labeled", [False, True])
def test_info_counts_the_up_sets_once(tmp_path, capsys, monkeypatch, labeled):
    # past the 2 ** classes gate, the count that decides the cap is the
    # count info prints
    space = alexandrov_topology(bipartite(random.Random(15), 15, 15))
    doc = {"preorder": preorder_to_json(space)}
    if labeled:
        doc["points"] = [f"p{x}" for x in range(space.size)]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    count, calls = spaces._up_set_count, []
    monkeypatch.setattr(spaces, "_up_set_count",
                        lambda *args: calls.append(args) or count(*args))
    assert main(["info", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["opens"] == count(space.rows)
    assert len(calls) == 1


def random_interleaved_preorder(rng, n):
    """Random preorders on blocks of points, with the points shuffled."""
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, 3)))
    blocks = [range(a, b) for a, b in zip([0] + cuts, cuts + [n])]
    pairs = [(rng.choice(block), rng.choice(block))
             for block in blocks for _ in range(len(block))]
    perm = list(range(n))
    rng.shuffle(perm)
    return _closure(n, [(perm[x], perm[y]) for x, y in pairs])


def test_up_sets_and_counts_match_subset_scan():
    rng = random.Random(9)
    rows = [space.rows for space in spaces_up_to(4)]
    rows += [tuple(random_interleaved_preorder(rng, rng.randint(5, 10)))
             for _ in range(300)]
    for leq in rows:
        size = len(leq)
        want = brute_up_sets(size, leq)
        n = len(want)
        space = FiniteSpace._from_rows(size, leq)
        assert space.open_count() == n
        assert list(space.opens) == want
        for cap in (0, 1, n - 1, n):
            assert spaces._up_set_count(leq, cap) == min(cap + 1, n)


def test_open_count_matches_opens():
    rng = random.Random(29)
    spaces = [FiniteSpace.empty(), FiniteSpace.discrete(0)]
    spaces += [random_space(rng, rng.randint(1, 7)) for _ in range(150)]
    spaces += [random_poset_space(rng, rng.randint(1, 7)) for _ in range(150)]
    for space in spaces:
        fresh = FiniteSpace._from_rows(space.size, space.rows)
        assert fresh.open_count() == len(space.opens)
        # an open family that is already listed is counted as listed
        assert space.open_count() == len(space.opens)


def test_open_count_leaves_opens_unbuilt(monkeypatch):
    refuse_listing(monkeypatch)
    antichain = FiniteSpace.discrete(20)
    assert antichain.open_count() == 1 << 20
    assert antichain._opens is None
    # 11 disjoint 3-point chains: one factor of 4 per chain
    rows = []
    for c in range(11):
        rows += [0b111 << 3 * c, 0b110 << 3 * c, 0b100 << 3 * c]
    chains = FiniteSpace._from_rows(33, rows)
    assert chains.open_count() == 4 ** 11
    assert chains._opens is None
    # one point below 19 unrelated ones: 2 ** 19 opens without it, one with it
    fan = alexandrov_topology(_closure(20, [(0, x) for x in range(1, 20)]))
    assert fan.open_count() == (1 << 19) + 1


# -- stock spaces ----------------------------------------------------------------


def test_stock_spaces():
    assert FiniteSpace.empty().opens == (0,)
    assert FiniteSpace.point().opens == (0, 1)
    assert len(FiniteSpace.discrete(3).opens) == 8
    assert FiniteSpace.chaotic(3).opens == (0, 7)
    chain = FiniteSpace.chain(4)
    assert chain.length() == 4
    assert chain.hasse_edges() == ((0, 1), (1, 2), (2, 3))
    assert FiniteSpace.sierpinski().opens == (0, 1, 3)


def test_t0_and_sober_examples():
    assert FiniteSpace.sierpinski().is_t0()
    assert FiniteSpace.sierpinski().is_sober()
    assert brute_is_sober(FiniteSpace.sierpinski())
    assert not FiniteSpace.chaotic(2).is_t0()
    assert not FiniteSpace.chaotic(2).is_sober()
    assert not brute_is_sober(FiniteSpace.chaotic(2))


def test_irreducible_closed_sets_match_scan():
    for space in spaces_up_to(4):
        assert space.irreducible_closed_sets() == brute_irreducible_closed_sets(space)
    rng = random.Random(29)
    for _ in range(200):
        space = random_space(rng, rng.randint(5, 7))
        assert space.irreducible_closed_sets() == brute_irreducible_closed_sets(space)


# -- sobrification ---------------------------------------------------------------


def test_sobrification_of_sober_space_is_identity_like():
    space = FiniteSpace.sierpinski()
    hat, iota = space.sobrification()
    assert brute_is_sober(hat)
    assert hat.size == space.size
    assert iota.is_homeomorphism()


def test_sobrification_collapses_chaotic():
    hat, iota = FiniteSpace.chaotic(3).sobrification()
    assert brute_is_sober(hat)
    assert hat.size == 1
    assert iota.assignment == (0, 0, 0)


def test_sobrification_open_lattice_preserved():
    for space in spaces_up_to(3):
        hat, iota = space.sobrification()
        assert brute_is_sober(hat)
        pulled = {iota.preimage(u) for u in hat.opens}
        assert pulled == set(space.opens)
        assert len(hat.opens) == len(space.opens)


# -- subspaces and locally closed sets -------------------------------------------


def test_subspace_topology():
    rng = random.Random(11)
    for _ in range(25):
        space = random_poset_space(rng, 5)
        s = rng.randrange(1 << space.size)
        sub, pts = space.subspace(s)
        expected = {mask_of(i for i, p in enumerate(pts) if u >> p & 1)
                    for u in space.opens}
        assert set(sub.opens) == expected


def test_locally_closed_matches_brute_force():
    # equal rows in the random non-T0 spaces exercise the "strictly above" rule
    rng = random.Random(12)
    randoms = [(random_space if i % 2 else random_poset_space)(rng, rng.randint(5, 7))
               for i in range(40)]
    for space in [*spaces_up_to(3), *randoms]:
        carriers = list(space.locally_closed_sets())
        assert carriers == sorted(brute_locally_closed(space), key=family_key)
        for s in range(1 << space.size):
            assert (space.locally_closed_witness(s) is not None) == (s in carriers)


def test_locally_closed_witness_laws():
    rng = random.Random(24)
    for space in [FiniteSpace.chain(3), *(random_space(rng, 5) for _ in range(10))]:
        for s in space.locally_closed_sets():
            u, v = space.locally_closed(s)
            assert space.is_open(u) and space.is_open(v)
            assert v & ~u == 0 and u & ~v == s
    # outside the ground set nothing is locally closed
    for s in (0b101, 0b1000, 0b1001):
        with pytest.raises(NotLocallyClosed) as err:
            FiniteSpace.chain(3).locally_closed(s)
        assert err.value.details == {"carrier": s}


def test_all_witnesses_give_same_difference():
    rng = random.Random(23)
    for _ in range(20):
        space = random_poset_space(rng, 5)
        for y in space.locally_closed_sets():
            for u, v in brute_locally_closed_witnesses(space, y):
                assert u & ~v == y


# -- order diagrams --------------------------------------------------------------


def test_hasse_requires_t0():
    with pytest.raises(NotT0):
        FiniteSpace.chaotic(2).hasse_edges()
    with pytest.raises(NotT0):
        FiniteSpace.chaotic(2).length()
    with pytest.raises(NotT0):
        FiniteSpace.chaotic(2).canonical_filtration()


def test_space_from_edges_roundtrip():
    edge_sets = [((0, 1), (1, 2)), ((0, 1), (0, 2)), ((0, 1), (2, 1)),
                 ((0, 1), (0, 2), (1, 3), (2, 3))]
    for edges in edge_sets:
        n = 1 + max(max(e) for e in edges)
        space = space_from_edges(n, edges)
        assert space.hasse_edges() == tuple(sorted(edges))


def test_hasse_dot_output():
    dot = hasse_dot(FiniteSpace.chain(2))
    assert dot.startswith("digraph")
    assert '"0" -> "1";' in dot


def test_hasse_edges_match_cover_relation():
    rng = random.Random(37)
    for _ in range(25):
        space = random_poset_space(rng, 6)
        ups = [space.minimal_open(x) for x in range(space.size)]
        edges = set(space.hasse_edges())
        for a in range(space.size):
            for b in range(space.size):
                if a == b:
                    continue
                strictly = ups[a] & ~ups[b] == 0 and ups[a] != ups[b]
                cover = strictly and not any(
                    ups[a] & ~ups[z] == 0 and ups[z] & ~ups[b] == 0
                    for z in range(space.size)
                    if z != a and z != b and ups[z] != ups[a] != ups[b])
                assert ((a, b) in edges) == cover


# -- filtration ------------------------------------------------------------------


def test_sierpinski_strata():
    filt = FiniteSpace.sierpinski().canonical_filtration()
    assert filt.strata == (0b01, 0b10)
    assert filt.layers == (0, 0b01, 0b11)
    assert filt.length == 2


def test_strata_partition_and_levels():
    rng = random.Random(41)
    for _ in range(30):
        space = random_poset_space(rng, 6)
        filt = space.canonical_filtration()
        union = 0
        for stratum in filt.strata:
            assert union & stratum == 0
            union |= stratum
        assert union == space.full
        assert filt.length == brute_chain_length(space)
        for j, stratum in enumerate(filt.strata):
            for x in bits(stratum):
                assert filt.level_of_set(1 << x) == j + 1


def test_level_of_set():
    filt = FiniteSpace.chain(3).canonical_filtration()
    assert filt.level_of_set(0) == 0
    assert filt.level_of_set(0b001) == 1
    assert filt.level_of_set(0b011) == 2
    assert filt.level_of_set(0b110) == 3


# -- continuous maps -------------------------------------------------------------


def test_continuity_validation():
    chain = FiniteSpace.chain(2)
    with pytest.raises(NotContinuous) as err:
        ContinuousMap(chain, chain, [1, 0])
    assert err.value.details["witness"] == 1


def test_map_algebra():
    chain = FiniteSpace.chain(3)
    ident = ContinuousMap.identity(chain)
    assert ident.is_homeomorphism()
    collapse = ContinuousMap(chain, FiniteSpace.point(), [0, 0, 0])
    assert (ident.then(collapse)).assignment == (0, 0, 0)
    assert collapse.preimage(1) == 0b111
    assert collapse.image_mask(0b010) == 1


def test_monotone_iff_continuous():
    rng = random.Random(57)
    for _ in range(20):
        dom = random_poset_space(rng, 4)
        cod = random_poset_space(rng, 4)
        for _ in range(10):
            values = [rng.randrange(4) for _ in range(4)]
            try:
                f = ContinuousMap(dom, cod, values)
                continuous = True
            except NotContinuous:
                continuous = False
            ups_d = [dom.minimal_open(x) for x in range(4)]
            ups_c = [cod.minimal_open(x) for x in range(4)]
            monotone = all(ups_c[values[y]] & ~ups_c[values[x]] == 0
                           for x in range(4) for y in bits(ups_d[x]))
            assert continuous == monotone


def test_connected_components():
    assert len(FiniteSpace.discrete(3).connected_components()) == 3
    assert FiniteSpace.chain(4).is_connected()
    two_chains = space_from_edges(4, [(0, 1), (2, 3)])
    assert two_chains.connected_components() == (0b0011, 0b1100)
