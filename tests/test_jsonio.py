import hashlib
import io
import json
import random
import sys
from collections import Counter

import pytest

from finitetop import ajsonio, cli, jsonio, kjsonio
from finitetop.action import ActionOverX
from finitetop.cli import main
from finitetop.errors import (CapExceeded, InputFormatError, NotContinuous,
                              NotTransitive, NotWellDefined, ShapeMismatch)
from finitetop.intmat import IntMatrix
from finitetop.ktheory import (FGAbelianGroup, GradedGroup, GroupHom, SixTermCycle,
                               is_exact_at, two_point_sequence, verify_datum,
                               verify_six_term)
from finitetop.spaces import (MAX_POINTS, OPEN_FAMILY_CAP, ContinuousMap,
                              FiniteSpace, alexandrov_topology)
from fixtures import (assignment_to_json, constant_zero_datum, datum_rows,
                      datum_to_json, graded_to_json, group_to_json, hom_to_json,
                      map_to_json, point_count_datum, random_torsion_datum,
                      sierpinski_torsion_json)
from oracles import (brute_datum_fault, brute_locally_closed, plain,
                     random_continuous, random_poset_space, random_space)

SIERPINSKI_JSON = {"size": 2, "opens": [[], [0], [0, 1]]}


def test_space_roundtrip():
    rng = random.Random(600)
    for _ in range(20):
        space = random_space(rng, rng.randint(0, 5))
        assert jsonio.space_from_json(plain(jsonio.space_to_json(space))) == space


def test_space_labels():
    obj = dict(SIERPINSKI_JSON, points=["a", "b"])
    space = jsonio.space_from_json(obj)
    assert space.labels == ("a", "b")
    assert jsonio.space_to_json(space)["points"] == ["a", "b"]
    with pytest.raises(InputFormatError):
        jsonio.space_from_json(dict(SIERPINSKI_JSON, points="ab"))


def test_space_label_errors():
    preorder = {"preorder": {"size": 2, "leq": [[1, 0]]}}
    for labels in ([1, 1], [1, "1"], [[1], [2]], ["a"], ["a", "b", "c"],
                   [True, False], [1.5, 2], [None, "b"], [{"a": 1}, "b"]):
        for base in (SIERPINSKI_JSON, preorder):
            with pytest.raises(InputFormatError):
                jsonio.space_from_json(dict(base, points=labels))
    # strings and integers may mix as long as they print differently
    space = jsonio.space_from_json(dict(preorder, points=[1, "2"]))
    assert space.labels == (1, "2")


def test_space_from_preorder_form():
    # opens are up-sets, so the top of the order is the open point
    obj = {"preorder": {"size": 2, "leq": [[1, 0]]}}
    assert jsonio.space_from_json(obj) == FiniteSpace.sierpinski()
    # the diagonal is implied, an empty leq list gives the discrete space
    assert (jsonio.space_from_json({"preorder": {"size": 2}})
            == FiniteSpace.discrete(2))


def test_preorder_form_reads_points_inside_or_beside_not_both():
    inside = {"preorder": {"size": 2, "leq": [[1, 0]], "points": ["a", "b"]}}
    beside = {"preorder": {"size": 2, "leq": [[1, 0]]}, "points": ["a", "b"]}
    for obj in (inside, beside):
        space = jsonio.space_from_json(obj)
        assert space == FiniteSpace.sierpinski() and space.labels == ("a", "b")
    # a null list is no labels, wherever it stands
    assert jsonio.space_from_json(dict(inside, points=None)).labels == ("a", "b")
    with pytest.raises(InputFormatError, match="both beside and inside"):
        jsonio.space_from_json(dict(inside, points=["a", "b"]))
    # labels inside are checked as labels beside are
    for labels in (["a"], [1, "1"], "ab"):
        with pytest.raises(InputFormatError):
            jsonio.space_from_json(
                {"preorder": {"size": 2, "leq": [[1, 0]], "points": labels}})


def test_preorder_roundtrip():
    rng = random.Random(601)
    for _ in range(20):
        space = random_space(rng, rng.randint(1, 5))
        back = jsonio.space_from_json({"preorder": jsonio.preorder_to_json(space)})
        assert back == alexandrov_topology(space.rows) == space


def test_space_schema_errors():
    for bad in (
            [],                                           # not an object
            {"opens": [[]]},                              # no size
            {"size": -1, "opens": [[]]},
            {"size": 2},                                  # no opens
            {"size": 2, "opens": "xx"},
            {"size": 2, "opens": [[0, 2], [0, 1], []]},   # index out of range
            {"size": 2, "opens": [[0, 0], [0, 1], []]},   # duplicate index
            {"size": 2, "opens": [[0.5], [0, 1], []]},    # not an integer
            {"preorder": {"size": 2, "leq": [[0]]}},
            {"preorder": {"size": 2, "leq": [[0, 5]]}},
            {"preorder": {"size": 0, "leq": 2}},          # leq not a list
            {"preorder": {"size": 2, "leq": {"0": 1}}},
    ):
        with pytest.raises(InputFormatError):
            jsonio.space_from_json(bad)


# the messages of _mask, open by open, whichever route the reader takes
MALFORMED_OPENS = [
    (2, [[], [True], [0, 1]], "open set entry must be an integer"),
    (2, [[], [0.0], [0, 1]], "open set entry must be an integer"),
    (2, [[], ["0"], [0, 1]], "open set entry must be an integer"),
    (2, [[], [-1], [0, 1]], "open set index -1 out of range for size 2"),
    (2, [[], [2], [0, 1]], "open set index 2 out of range for size 2"),
    (2, [[], [10 ** 30], [0, 1]],
     f"open set index {10 ** 30} out of range for size 2"),
    (0, [[0]], "open set index 0 out of range for size 0"),
    (2, [[], [1, 1], [0, 1]], "open set repeats index 1"),
    (2, [[0, 0, 9], []], "open set repeats index 0"),
    (2, [[], 1, [0, 1]], "open set must be a list of point indices"),
    (2, [[], "01", [0, 1]], "open set must be a list of point indices"),
    (2, [[], {"0": 1}, [0, 1]], "open set must be a list of point indices"),
    # a fault in the third open, after two good ones
    (3, [[], [0], [0, "2"], [0, 1, 2]], "open set entry must be an integer"),
    (3, [[], [0], [3], [0, 1, 2]], "open set index 3 out of range for size 3"),
    # two faults: the first in list order wins
    (2, [[], [0, 5], [True]], "open set index 5 out of range for size 2"),
    (2, [[], [1, 1], 7], "open set repeats index 1"),
    (2, [[], [True, 5], [0, 1]], "open set entry must be an integer"),
]


@pytest.mark.parametrize("size, opens, message", MALFORMED_OPENS)
def test_malformed_opens_keep_their_messages(size, opens, message):
    with pytest.raises(InputFormatError) as err:
        jsonio.space_from_json({"size": size, "opens": opens})
    assert str(err.value) == message


def test_well_formed_opens_are_read_without_a_per_entry_step(monkeypatch):
    def refuse(*args):
        raise AssertionError("an open was read index by index")

    rng = random.Random(8)
    spaces = [random_poset_space(rng, 8), random_space(rng, 8),
              FiniteSpace.discrete(12), FiniteSpace(0, [0])]
    docs = [plain(jsonio.space_to_json(space)) for space in spaces]
    monkeypatch.setattr(jsonio, "_mask", refuse)
    for space, doc in zip(spaces, docs):
        got = jsonio.space_from_json(doc)
        assert got.rows == alexandrov_topology(space.rows).rows
        assert got.opens == space.opens


def test_space_size_cap(monkeypatch):
    cap = MAX_POINTS
    # the full relation on 63 points is one chaotic class with two opens
    full = [[x, y] for x in range(cap) for y in range(cap)]
    assert jsonio.space_from_json(
        {"preorder": {"size": cap, "leq": full}}) == FiniteSpace.chaotic(cap)

    def refuse(*args):
        raise AssertionError("built a space over the cap")

    monkeypatch.setattr(jsonio, "alexandrov_topology", refuse)
    monkeypatch.setattr(jsonio, "FiniteSpace", refuse)
    for n in (cap + 1, 3000, 10 ** 12):
        for obj in ({"size": n, "opens": [[]]}, {"preorder": {"size": n}}):
            with pytest.raises(CapExceeded) as err:
                jsonio.space_from_json(obj)
            assert isinstance(err.value, InputFormatError)
            assert err.value.details == {"size": n, "cap": cap}


def test_opens_list_cap(monkeypatch):
    cap = OPEN_FAMILY_CAP
    monkeypatch.setattr(jsonio, "_mask", None)  # refused before any open is read
    with pytest.raises(CapExceeded) as err:
        jsonio.space_from_json({"size": 1, "opens": [[]] * (cap + 1)})
    assert isinstance(err.value, InputFormatError)
    assert err.value.details == {"opens": cap + 1, "cap": cap}


def test_preorder_transitivity_is_a_domain_error():
    with pytest.raises(NotTransitive):
        jsonio.space_from_json(
            {"preorder": {"size": 3, "leq": [[0, 1], [1, 2]]}})


def test_map_roundtrip_and_errors():
    rng = random.Random(602)
    for _ in range(20):
        dom = random_space(rng, rng.randint(1, 4))
        cod = random_space(rng, rng.randint(1, 4))
        f = random_continuous(rng, dom, cod)
        assert jsonio.map_from_json(map_to_json(f)) == f
    base = {"domain": SIERPINSKI_JSON, "codomain": SIERPINSKI_JSON}
    with pytest.raises(InputFormatError):
        jsonio.map_from_json(dict(base, values=[0]))
    with pytest.raises(InputFormatError):
        jsonio.map_from_json(dict(base, values=[0, 7]))
    with pytest.raises(NotContinuous):
        jsonio.map_from_json({
            "domain": {"size": 2, "opens": [[], [0, 1]]},
            "codomain": SIERPINSKI_JSON, "values": [0, 1]})


# int() reads each of these as a number: 10, 1, 1, 1, 1 and 1
NOT_DIGITS = ("1_0", "+1", " 1", "1 ", "\u0661", "\uff11")


def test_action_roundtrip_and_errors():
    rng = random.Random(603)
    for _ in range(20):
        base = random_space(rng, rng.randint(1, 4))
        prim = random_space(rng, rng.randint(1, 4))
        act = ActionOverX(base, prim, random_continuous(rng, prim, base))
        back = ajsonio.action_from_json(plain(ajsonio.action_to_json(act)))
        assert back.base == act.base and back.psi == act.psi
    with pytest.raises(InputFormatError):
        ajsonio.action_from_json({"base": SIERPINSKI_JSON,
                                  "prim": SIERPINSKI_JSON, "psi": [0]})


def test_assignment_roundtrip_and_errors():
    space = FiniteSpace.sierpinski()
    obj = {"base": SIERPINSKI_JSON, "prim": SIERPINSKI_JSON,
           "values": {"0": [0], "1": [0, 1]}}
    base, values, prim = ajsonio.assignment_from_json(obj)
    assert base == prim == space
    assert values == {0: 0b01, 1: 0b11}
    assert assignment_to_json(base, values, prim) == obj
    for values in ({"0": [0]},                       # missing point 1
                   {"0": [0], "1": [0, 1], "x": []},
                   {"0": [0], "7": [0, 1]},
                   {"0": [0], "1" * 5000: [0, 1]},
                   *({"0": [0], bad: [0, 1]} for bad in NOT_DIGITS)):
        with pytest.raises(InputFormatError):
            ajsonio.assignment_from_json(dict(obj, values=values))


def test_assignment_refuses_a_point_given_twice():
    obj = {"base": SIERPINSKI_JSON, "prim": SIERPINSKI_JSON,
           "values": {"0": [0], "1": [0, 1]}}
    for again in ("00", "000"):
        values = dict(obj["values"], **{again: [0, 1]})
        with pytest.raises(InputFormatError) as err:
            ajsonio.assignment_from_json(dict(obj, values=values))
        assert str(err.value) == f"assignment key {again!r} repeats base point 0"


def test_matrix_roundtrip_and_errors():
    m = IntMatrix([[1, -2], [3, 4]])
    rows = jsonio.matrix_to_json(m)
    assert jsonio.matrix_rows(rows) is rows
    assert IntMatrix(rows) == m
    assert jsonio.matrix_rows([]) == [] and jsonio.matrix_rows([[], []]) == [[], []]
    for bad, message in (("x", "matrix must be a list of rows"),
                         ([[1], [1, 2]], "matrix rows have differing lengths"),
                         ([[1], "x"], "matrix rows must be lists"),
                         ([[1.5]], "matrix entry must be an integer"),
                         ([[True]], "matrix entry must be an integer"),
                         # entries are checked row by row before the lengths
                         ([[1, 2], [None]], "matrix entry must be an integer"),
                         ([[1, 2], [3]], "matrix rows have differing lengths")):
        with pytest.raises(InputFormatError) as err:
            jsonio.matrix_rows(bad)
        assert str(err.value) == message


def test_group_roundtrip_and_errors():
    group = FGAbelianGroup(2, IntMatrix([[2, 0], [0, 3]]))
    assert kjsonio.group_from_json(group_to_json(group)) == group
    assert kjsonio.group_from_json({"generators": 1}) == FGAbelianGroup.free(1)
    assert kjsonio.invariants_to_json(group) == {"rank": 0, "torsion": [6]}
    with pytest.raises(InputFormatError):
        kjsonio.group_from_json({"generators": -1})
    with pytest.raises(InputFormatError):
        kjsonio.group_from_json({"generators": 2, "relations": [[2]]})


def test_group_generator_cap():
    cap = kjsonio.GENERATORS_CAP
    assert kjsonio.group_from_json({"generators": cap}).rank == cap
    # refused before anything of that size is built
    for n in (cap + 1, 10 ** 12):
        with pytest.raises(CapExceeded) as err:
            kjsonio.group_from_json({"generators": n})
        assert isinstance(err.value, InputFormatError)
        assert err.value.details == {"generators": n, "cap": cap}


def test_group_relation_cap():
    cap = kjsonio.GENERATORS_CAP
    group = kjsonio.group_from_json({"generators": 1, "relations": [[2]] * cap})
    assert kjsonio.invariants_to_json(group) == {"rank": 0, "torsion": [2]}
    # refused before any relator is read, so malformed ones are never reached
    for relations in ([[2]] * (cap + 1), [["x"]] * (cap + 1), [[2]] * 2000):
        with pytest.raises(CapExceeded) as err:
            kjsonio.group_from_json({"generators": 1, "relations": relations})
        assert isinstance(err.value, InputFormatError)
        assert err.value.details == {"relations": len(relations), "cap": cap}


def test_hom_roundtrip():
    f = GroupHom(FGAbelianGroup.cyclic(2), FGAbelianGroup.cyclic(4),
                 IntMatrix([[2]]))
    assert kjsonio.hom_from_json(hom_to_json(f)) == f


def test_hom_zero_row_coercion():
    # [] cannot say how many columns a 0 x n matrix has; the codomain does
    f = kjsonio.hom_from_json({"domain": {"generators": 2},
                               "codomain": {"generators": 0}, "matrix": []})
    assert f.matrix.rows == 0 and f.matrix.cols == 2


def test_cycle_roundtrip():
    zero = {"generators": 0, "relations": []}
    torsion = {"generators": 1, "relations": [[2]]}
    # a 0 x 0 matrix is [], a 1 x 0 matrix is [[]]
    cycle = kjsonio.cycle_from_json({
        "groups": [torsion, torsion, zero, zero, zero, zero],
        "maps": [[[1]], [], [], [], [], [[]]]})
    assert verify_six_term(cycle).ok
    for bad in ({"groups": [zero] * 5, "maps": [[]] * 6},
                {"groups": [zero] * 6, "maps": [[]] * 5}):
        with pytest.raises(InputFormatError):
            kjsonio.cycle_from_json(bad)


def test_square_parsing():
    ident = {"domain": {"generators": 1}, "codomain": {"generators": 1},
             "matrix": [[1]]}
    double = dict(ident, matrix=[[2]])
    top, right, left, bottom = kjsonio.square_from_json(
        {"top": ident, "right": double, "left": double, "bottom": ident})
    report = two_point_sequence(top, right, left, bottom)
    assert kjsonio.two_point_to_json(report) == {
        "delta": [[2]], "kernel": {"rank": 0, "torsion": []},
        "cokernel": {"rank": 0, "torsion": [2]},
        "middle": {"rank": 0, "torsion": [2]}, "note": ""}


def oracle_indices(m):
    return [i for i in range(m.bit_length()) if m >> i & 1]


@pytest.mark.parametrize("mask", [0, 1, 2, 3, 2 ** 62, 2 ** 63 - 1, 2 ** 63,
                                  2 ** 200 + 1])
def test_indices_of_edge_masks(mask):
    assert jsonio.indices(mask) == oracle_indices(mask)


def test_indices_of_random_masks():
    rng = random.Random(29)
    for width in (1, 7, 8, 16, 63, 64, 65, 300):
        for _ in range(50):
            mask = rng.getrandbits(width)
            assert jsonio.indices(mask) == oracle_indices(mask)


def test_carrier_keys():
    assert jsonio.carrier_key(0) == ""
    assert jsonio.carrier_key(0b101) == "0,2"
    assert jsonio.carrier_from_key("", 3) == 0
    assert jsonio.carrier_from_key("0,2", 3) == 0b101
    for bad in ("0,x", "5", "0,0"):
        with pytest.raises(InputFormatError):
            jsonio.carrier_from_key(bad, 3)
    for bad in (*NOT_DIGITS, "1" * 5000):
        for key in (bad, f"0,{bad}"):
            with pytest.raises(InputFormatError):
                jsonio.carrier_from_key(key, 12)
    with pytest.raises(InputFormatError):
        jsonio.carrier_from_key(3, 3)


def test_datum_roundtrip():
    rng = random.Random(604)
    for space in (FiniteSpace.sierpinski(), random_poset_space(rng, 3)):
        datum = point_count_datum(space)
        back = kjsonio.datum_from_json(datum_to_json(datum))
        assert back.space == datum.space
        assert back.assignment == datum.assignment
        assert back.cycles == datum.cycles
        assert verify_datum(back).ok


def test_datum_schema_errors():
    # {0, 2} is not locally closed in the three-point chain, so no group
    # was ever assigned to it: the cycle is not a relative-open pair
    chained = datum_to_json(constant_zero_datum(FiniteSpace.chain(3)))
    orphan = dict(chained, cycles=chained["cycles"]
                  + [{"open": "", "set": "0,2", "maps": [[]] * 6}])
    with pytest.raises(ShapeMismatch) as err:
        kjsonio.datum_from_json(orphan)
    assert str(err.value) == "cycle ([], [0, 2]) is not a relative-open pair"
    assert err.value.details == {"pair": (0, 5)}
    # the matrices of a cycle on a pair that is not relative-open are read
    # before the datum is checked
    torn = dict(orphan, cycles=chained["cycles"]
                + [{"open": "", "set": "0,2", "maps": [[]] * 5 + [[1]]}])
    with pytest.raises(InputFormatError) as err:
        kjsonio.datum_from_json(torn)
    assert str(err.value) == "cycle map 5 rows must be lists"
    # dropping a carrier's group leaves a locally closed set uncovered,
    # whether or not the cycles that reach it are dropped too
    datum = datum_to_json(constant_zero_datum(FiniteSpace.sierpinski()))
    pruned = dict(datum, groups={k: v for k, v in datum["groups"].items()
                                 if k != "1"})
    keep = []
    for c in datum["cycles"]:
        u = jsonio.carrier_from_key(c["open"], 2)
        y = jsonio.carrier_from_key(c["set"], 2)
        if 2 not in (u, y, y & ~u):
            keep.append(c)
    assert len(keep) < len(datum["cycles"])
    for cycles in (keep, datum["cycles"]):
        with pytest.raises(ShapeMismatch) as err:
            kjsonio.datum_from_json(dict(pruned, cycles=cycles))
        assert str(err.value) == "no group assigned to [1]"
        assert err.value.details == {"carrier": 2}


def test_datum_faults_come_input_then_keys_then_maps():
    frame, cycle = sierpinski_torsion_json()
    zeros = [cycle(u, y) for u, y in (("", ""), ("", "0"), ("0", "0"), ("", "1"),
                                      ("1", "1"), ("", "0,1"), ("0", "0,1"),
                                      ("0,1", "0,1"))]
    first = cycle("", "1", bad=[[1]])
    again = cycle("0", "0,1", bad=[[1]])
    torn = cycle("", "0")
    torn["maps"][4] = [1]
    not_well_defined = (NotWellDefined, "matrix does not respect the domain relations")
    # every matrix is read before the datum is checked, wherever it stands
    for cycles in ([first, torn, again], [torn, first, again], [first, torn]):
        with pytest.raises(InputFormatError) as err:
            kjsonio.datum_from_json(dict(frame, cycles=cycles))
        assert str(err.value) == "cycle map 4 rows must be lists"
    # a carrier with no group and a missing cycle come before any map fault,
    # here ({0}, {0, 1}) after the map of (0, {1}) that is not well defined
    no_whole = {k: g for k, g in frame["groups"].items() if k != "0,1"}
    unwalked = [first if (c["open"], c["set"]) == ("", "1") else c
                for c in zeros if (c["open"], c["set"]) != ("0", "0,1")]
    for groups, cycles, message in (
            (frame["groups"], [first], "missing cycle for ([], [])"),
            (frame["groups"], unwalked, "missing cycle for ([0], [0, 1])"),
            (no_whole, unwalked, "no group assigned to [0, 1]")):
        with pytest.raises(ShapeMismatch) as err:
            kjsonio.datum_from_json(dict(frame, groups=groups, cycles=cycles))
        assert str(err.value) == message
    # map faults come in pairs() order, (0, {1}) before ({0}, {0, 1}), and
    # within a cycle in cycle order, whatever the order of the file
    wide = cycle("", "1")
    wide["maps"][1] = [[0, 0]]
    late = cycle("", "1", bad=[[1]])
    late["maps"][4] = [[0]]
    shape = cycle("0", "0,1")
    shape["maps"][0] = [[1]]
    for changed, (kind, message) in (
            ([first, again], not_well_defined),
            ([shape, first], not_well_defined),
            ([late, shape], not_well_defined),
            ([shape, wide], (ShapeMismatch, "matrix is 1x2, expected 1x1")),
            ([shape], (ShapeMismatch, "matrix is 1x1, expected 0x0"))):
        given = {(c["open"], c["set"]): c for c in changed}
        cycles = [given.get((c["open"], c["set"]), c) for c in zeros]
        for order in (cycles, cycles[::-1]):
            with pytest.raises(kind) as err:
                kjsonio.datum_from_json(dict(frame, cycles=order))
            assert type(err.value) is kind and str(err.value) == message
    # twice the matrix [[0]] on Z/2 -> Z is one map, built once
    datum = kjsonio.datum_from_json(dict(frame, cycles=zeros))
    assert datum.cycles[(0, 2)].maps[2] is datum.cycles[(1, 3)].maps[2]


def _insert(rng, table, key, value):
    """Give key its value in table at a random place of the table's order."""
    items = list(table.items())
    items.insert(rng.randint(0, len(items)), (key, value))
    table.clear()
    table.update(items)


def _mutate(rng, space, assignment, maps):
    """One of seven mutations of a datum's groups and cycles, in place.

    They delete a group, add a group on a set that is not locally closed,
    delete a cycle, add a cycle on a pair that is not relative-open, give
    a matrix one more row, make a map unlikely to be well defined, or ask
    for a malformed value in the file, by returning True.
    """
    kind = rng.randrange(7)
    closed_locally = brute_locally_closed(space)
    everything = range(1 << space.size)
    if kind == 0 and assignment:
        del assignment[rng.choice(list(assignment))]
    elif kind == 1:
        stray = [s for s in everything if s not in closed_locally]
        if stray:
            zero = FGAbelianGroup.zero()
            _insert(rng, assignment, rng.choice(stray), GradedGroup(zero, zero))
    elif kind == 2 and maps:
        del maps[rng.choice(list(maps))]
    elif kind == 3:
        stray = [(u, y) for y in everything for u in everything
                 if (u, y) not in maps and (y not in closed_locally
                                            or all(u != y & w for w in space.opens))]
        if stray:
            _insert(rng, maps, rng.choice(stray), [[] for _ in range(6)])
    elif kind == 4 and maps:
        rows = rng.choice(list(maps.values()))
        i = rng.randrange(6)
        rows[i] = rows[i] + [[0] * (len(rows[i][0]) if rows[i] else rng.randint(0, 2))]
    elif kind == 5:
        # a matrix of ones out of a group with relators is seldom well
        # defined; with no such group, a relator is added to one
        fits = []
        for (u, y), rows in maps.items():
            carriers = (u, y, y & ~u)
            if all(c in assignment for c in carriers):
                groups = [assignment[c].even for c in carriers]
                groups += [assignment[c].odd for c in carriers]
                fits += [(rows, i, groups[(i + 1) % 6].generators, groups[i].generators)
                         for i in range(6) if groups[i].relations.cols]
        if fits:
            rows, i, r, c = rng.choice(fits)
            rows[i] = [[1] * c for _ in range(r)]
        else:
            free = [c for c, g in assignment.items() if g.even.generators]
            if free:
                c = rng.choice(free)
                n = assignment[c].even.generators
                twice = IntMatrix.from_columns([[2] + [0] * (n - 1)], rows=n)
                assignment[c] = assignment[c]._replace(even=FGAbelianGroup(n, twice))
    return kind == 6


def _spoil(rng, doc):
    """Put a value into doc that is not an integer, or rows of two lengths."""
    spots = [(g, part) for g in doc["groups"].values() for part in ("even", "odd")]
    cells = [(entry["maps"], i) for entry in doc["cycles"] for i in range(6)]
    if cells and (not spots or rng.random() < 0.7):
        matrices, i = rng.choice(cells)
        rows = [list(r) for r in matrices[i]]
        if rows and rows[0] and rng.random() < 0.5:
            rows[rng.randrange(len(rows))][0] = 1.5
        else:
            width = len(rows[0]) if rows else 0
            rows += [[0] * (width + 1), [0] * width]
        matrices[i] = rows
    elif spots:
        g, part = rng.choice(spots)
        g[part] = dict(g[part], generators=str(g[part]["generators"]))


def _first_format_fault(doc):
    """The message of the first malformed value _spoil can leave, in reading order."""
    for g in doc["groups"].values():
        if any(type(g[part]["generators"]) is not int for part in ("even", "odd")):
            return "generators must be an integer"
    for entry in doc["cycles"]:
        for i, m in enumerate(entry["maps"]):
            if any(type(v) is not int for row in m for v in row):
                return f"cycle map {i} entry must be an integer"
            if len({len(r) for r in m}) > 1:
                return f"cycle map {i} rows have differing lengths"
    return None


def test_datum_faults_match_the_oracle(monkeypatch, capsys):
    # mutated point-count, zero and torsion data on spaces of at most five
    # points, T0 and not: datum_from_json refuses the first fault the
    # README lists, or malformed input before all of them, and the command
    # exits with 1 or 2 and the same error
    rng = random.Random(620)
    seen = Counter()
    for k in range(30):
        space = (random_space if k % 2 else random_poset_space)(rng, rng.randint(1, 5))
        seeds = [point_count_datum(space), constant_zero_datum(space),
                 random_torsion_datum(rng, space)]
        for seed in seeds:
            for _ in range(3):
                assignment = dict(seed.assignment)
                maps = {pair: [[list(row) for row in m] for m in rows]
                        for pair, rows in datum_rows(seed).items()}
                spoil = False
                for _ in range(rng.randint(1, 3)):
                    spoil = _mutate(rng, space, assignment, maps) or spoil
                doc = {"space": plain(jsonio.space_to_json(space)),
                       "groups": {jsonio.carrier_key(c): graded_to_json(g)
                                  for c, g in assignment.items()},
                       "cycles": [{"open": jsonio.carrier_key(u),
                                   "set": jsonio.carrier_key(y), "maps": rows}
                                  for (u, y), rows in maps.items()]}
                if spoil:
                    _spoil(rng, doc)
                message = _first_format_fault(doc)
                if message is not None:
                    want = InputFormatError, message, None
                    error = {"error": "input", "message": message}
                else:
                    want = brute_datum_fault(space, assignment, maps)
                    if want is None:
                        kjsonio.datum_from_json(doc)
                        seen["none"] += 1
                        continue
                    error = {"error": want[0].__name__, "message": want[1],
                             "details": json.loads(json.dumps(want[2]))}
                with pytest.raises(want[0]) as err:
                    kjsonio.datum_from_json(doc)
                assert type(err.value) is want[0] and str(err.value) == want[1]
                if want[2] is not None:
                    assert err.value.details == want[2]
                monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
                assert main(["ktheory", "datum-verify", "-"]) == (
                    1 if message is None else 2)
                assert json.loads(capsys.readouterr().err) == error
                # ShapeMismatch faults are told apart by their first word
                seen[want[1].split()[0] if want[0] is ShapeMismatch
                     else want[0].__name__] += 1
    # every fault comes up, and so do data with no fault
    assert set(seen) >= {"none", "InputFormatError", "NotLocallyClosed",
                         "NotWellDefined", "no", "cycle", "missing", "matrix"}, seen


def test_datum_interning_matches_maps_built_one_by_one():
    rng = random.Random(611)
    data = [point_count_datum(FiniteSpace.sierpinski()),
            constant_zero_datum(FiniteSpace.chain(3), special=0b010,
                                group=FGAbelianGroup.cyclic(2))]
    data += [point_count_datum(random_poset_space(rng, rng.randint(2, 4)))
             for _ in range(4)]
    for datum in data:
        raw = datum_to_json(datum)
        parsed = kjsonio.datum_from_json(raw)
        built = {}
        for entry in raw["cycles"]:
            u = jsonio.carrier_from_key(entry["open"], datum.space.size)
            y = jsonio.carrier_from_key(entry["set"], datum.space.size)
            groups = datum.cycles[(u, y)].groups
            built[(u, y)] = SixTermCycle([kjsonio.hom_from_json({
                "domain": group_to_json(groups[i]),
                "codomain": group_to_json(groups[(i + 1) % 6]),
                "matrix": entry["maps"][i]}) for i in range(6)])
        assert list(parsed.cycles) == list(built)
        for pair, cycle in parsed.cycles.items():
            assert cycle == built[pair]


def test_datum_reads_each_distinct_presentation_once(monkeypatch):
    # even(A) is Z^|A| on every carrier A: carriers of one size share one
    # group object, built and factored once, and every map of every cycle
    # runs between the assignment's own objects
    rng = random.Random(612)
    data = [point_count_datum(random_poset_space(rng, 4)),
            random_torsion_datum(rng, random_poset_space(rng, 4))]
    for datum in data:
        raw = datum_to_json(datum)
        given = {(g["generators"], json.dumps(g.get("relations", [])))
                 for graded in raw["groups"].values() for g in graded.values()}
        inits = []
        init = FGAbelianGroup.__init__

        def counted(self, *args):
            inits.append(args)
            init(self, *args)

        monkeypatch.setattr(FGAbelianGroup, "__init__", counted)
        parsed = kjsonio.datum_from_json(raw)
        monkeypatch.undo()
        assert len(inits) == len(given) < 2 * len(raw["groups"])
        groups = [g for graded in parsed.assignment.values() for g in graded]
        assert len({id(g) for g in groups}) == len(set(groups)) == len(given)
        for (u, y), cycle in parsed.cycles.items():
            gu, gy, gr = (parsed.assignment[m] for m in (u, y, y & ~u))
            wired = (gu.even, gy.even, gr.even, gu.odd, gy.odd, gr.odd)
            assert all(h.domain is g for h, g in zip(cycle.maps, wired))


def test_datum_tells_repeated_maps_texts_apart_by_value_and_groups(monkeypatch,
                                                                    capsys):
    # on two unrelated points with Z on each, the cycles of (0, {1}) and
    # ({1}, {1}) repeat the maps texts of (0, {0}) and ({0}, {0}), which
    # hold 1s; true and 1.0 equal 1 as values but give other marshal bytes,
    # and are refused where they stand
    doc = datum_to_json(point_count_datum(FiniteSpace.discrete(2)))
    entries = {(c["open"], c["set"]): c for c in doc["cycles"]}
    assert entries[("1", "1")]["maps"] == entries[("0", "0")]["maps"]
    assert entries[("1", "1")]["maps"][0] == [[1]]
    message = "cycle map 0 entry must be an integer"
    for bad in (True, 1.0):
        spoiled = json.loads(json.dumps(doc))
        next(c for c in spoiled["cycles"]
             if (c["open"], c["set"]) == ("1", "1"))["maps"][0] = [[bad]]
        with pytest.raises(InputFormatError) as err:
            kjsonio.datum_from_json(spoiled)
        assert str(err.value) == message
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spoiled)))
        assert main(["ktheory", "datum-verify", "-"]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "input",
                                                       "message": message}
    # Z^2 on {1}: the maps text of (0, {0}) is a map on Z and repeats on
    # (0, {1}), where its first matrix is 1 x 0 into Z^2
    wide = dict(doc, groups=dict(doc["groups"], **{"1": {
        "even": {"generators": 2}, "odd": {"generators": 0}}}))
    assert entries[("", "1")]["maps"] == entries[("", "0")]["maps"]
    with pytest.raises(ShapeMismatch) as err:
        kjsonio.datum_from_json(wide)
    assert str(err.value) == "matrix is 1x0, expected 2x0"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(wide)))
    assert main(["ktheory", "datum-verify", "-"]) == 1
    assert json.loads(capsys.readouterr().err)["message"] == str(err.value)


def huge_maps_datum():
    # the two-point datum with 10**4400 for the 1 of the maps texts on
    # ({0}, {0}) and ({1}, {1}), which repeat each other
    doc = datum_to_json(point_count_datum(FiniteSpace.discrete(2)))
    for c in doc["cycles"]:
        if c["open"] in ("0", "1") and c["set"] == c["open"]:
            c["maps"][0] = [[10 ** 4400]]
    return doc


def test_datum_reads_integers_past_the_int_to_str_limit():
    # json.loads refuses such literals, but a caller may put them in: the
    # maps lists are told apart by their marshal bytes, which have no such
    # limit, so the repeat shares the first one's rows
    doc = huge_maps_datum()
    datum = kjsonio.datum_from_json(doc)
    maps = datum.cycles[(0b01, 0b01)].maps, datum.cycles[(0b10, 0b10)].maps
    assert maps[0][0].matrix.entries == maps[1][0].matrix.entries == ((10 ** 4400,),)
    assert maps[0] is maps[1]
    assert not verify_datum(datum).ok


def test_datum_reads_a_maps_list_marshal_cannot_write():
    # rows in a list subclass, which json.loads never gives, have no marshal
    # bytes: each such maps list is read on its own, to the same datum
    class Rows(list):
        pass

    datum = point_count_datum(FiniteSpace.discrete(2))
    doc = datum_to_json(datum)
    for c in doc["cycles"]:
        c["maps"] = [Rows(m) for m in c["maps"]]
    parsed = kjsonio.datum_from_json(doc)
    assert parsed.cycles == datum.cycles
    assert verify_datum(parsed) == verify_datum(datum)


def test_datum_verify_with_integers_past_the_int_to_str_limit(monkeypatch, capsys):
    # the exit code, length and sha256 of the report on stderr as written
    # when maps lists were keyed by str(maps) and lists past the limit were
    # read alone
    monkeypatch.setattr(cli, "_read_json", lambda path: huge_maps_datum())
    assert main(["ktheory", "datum-verify", "d.json"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err) == 7947
    assert hashlib.sha256(err.encode()).hexdigest() == (
        "e90af63b51962c8e3e249b39db1c535fab817a467d9e233d126e02964bcb07b1")


def test_datum_refuses_a_carrier_or_cycle_given_twice():
    datum = datum_to_json(point_count_datum(FiniteSpace.sierpinski()))
    groups = dict(datum["groups"], **{"1,0": datum["groups"]["0,1"]})
    with pytest.raises(InputFormatError) as err:
        kjsonio.datum_from_json(dict(datum, groups=groups))
    assert str(err.value) == "group key '1,0' repeats carrier [0, 1]"
    whole = next(c for c in datum["cycles"] if (c["open"], c["set"]) == ("", "0,1"))
    for again in (whole, dict(whole, set="1,0")):
        with pytest.raises(InputFormatError) as err:
            kjsonio.datum_from_json(dict(datum, cycles=datum["cycles"] + [again]))
        assert str(err.value) == (f"cycle ('', {again['set']!r}) "
                                  "repeats the pair ([], [0, 1])")


def test_report_serializers():
    f = GroupHom.identity(FGAbelianGroup.free(1))
    report = is_exact_at(f, f)
    assert json.dumps(kjsonio.exactness_to_json(report), sort_keys=True) == (
        '{"ok": false, "reason": "composite is not zero", '
        '"witness": ["generator", 0]}')
    datum = constant_zero_datum(FiniteSpace.sierpinski(), special=3,
                                group=FGAbelianGroup.cyclic(2))
    rep = kjsonio.datum_report_to_json(verify_datum(datum))
    assert rep["ok"] is False
    assert {"open", "set", "report"} <= set(rep["results"][0])
    from finitetop.ktheory import vanishing_propagation
    prop = kjsonio.propagation_to_json(vanishing_propagation(datum))
    assert prop == {"ok": False,
                    "deviation": {"carrier": [0, 1], "step": [[0], [0, 1]]}}
    ok_prop = kjsonio.propagation_to_json(
        vanishing_propagation(constant_zero_datum(FiniteSpace.sierpinski())))
    assert ok_prop == {"ok": True, "deviation": None}


def test_error_serialization():
    with pytest.raises(NotContinuous) as err:
        ContinuousMap(FiniteSpace.chaotic(2), FiniteSpace.sierpinski(), [0, 1])
    out = jsonio.error_to_json(err.value)
    assert out["error"] == "NotContinuous"
    assert isinstance(out["message"], str)
    assert isinstance(out["details"], dict)
