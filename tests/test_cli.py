import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys

import pytest

import finitetop
from finitetop.action import ActionOverX, minimal_ideals
from finitetop.cli import main
from finitetop.intmat import GENERATORS_CAP, IntMatrix
from finitetop.jsonio import space_from_json, space_to_json
from finitetop.spaces import (OPEN_FAMILY_CAP, ContinuousMap, FiniteSpace,
                              alexandrov_topology)
from fixtures import (assignment_to_json, constant_zero_datum, datum_rows,
                      datum_to_json, point_count_datum, random_torsion_datum,
                      sierpinski_torsion_json)
from oracles import homeomorphism_oracle, plain, random_poset_space
from finitetop import kjsonio
from finitetop.ktheory import FGAbelianGroup, FiltratedKDatum, verify_datum

SIERPINSKI = {"size": 2, "opens": [[], [0], [0, 1]], "points": [1, 2]}
DISCRETE2 = {"size": 2, "opens": [[], [0], [1], [0, 1]]}
# two chaotic blocks side by side: neither T0 nor sober
TWO_BLOCKS = {"size": 4, "opens": [[], [0, 1], [2, 3], [0, 1, 2, 3]]}
# a 5-point poset with 13 opens; its completion has 39 points and 563 opens
POSET5 = {"size": 5, "opens": [[], [0], [1], [2], [0, 1], [0, 2], [1, 2],
                               [0, 1, 2], [0, 1, 3], [0, 2, 4], [0, 1, 2, 3],
                               [0, 1, 2, 4], [0, 1, 2, 3, 4]]}
# test_completion.WORST_BASE: the base whose completion has the most opens
WORST = plain(space_to_json(alexandrov_topology((1, 2, 4, 9, 27, 47))))
NINTH = {"size": 4, "opens": [[], [0], [1], [0, 1], [0, 1, 2], [1, 3],
                              [0, 1, 3], [0, 1, 2, 3]]}
NINTH_ACTION = {"base": NINTH, "prim": NINTH, "psi": [0, 1, 2, 3]}
NINTH_IDEALS = {"base": NINTH, "prim": NINTH,
                "values": {"0": [0], "1": [1], "2": [0, 1, 2], "3": [1, 3]}}
# NINTH over the two-point chain: each fiber holds two points
FILTRATED = {"base": {"size": 2, "opens": [[], [0], [0, 1]]}, "prim": NINTH,
             "psi": [0, 0, 1, 1]}
TO_POINT = {"domain": NINTH, "codomain": {"size": 1, "opens": [[], [0]]},
            "values": [0, 0, 0, 0]}
LABELED_DIAMOND = {"size": 4, "leq": [[1, 0], [2, 0], [3, 0], [3, 1], [3, 2]],
                   "points": ["a", "b", "c", "d"]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jfile(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# -- validate / info / soberify --------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    code, out, err = run(capsys, "validate", jfile(tmp_path, "s.json", SIERPINSKI))
    assert code == 0 and err == ""
    assert json.loads(out) == {"ok": True, "opens": 3, "size": 2}


def test_validate_domain_failure(tmp_path, capsys):
    bad = {"size": 3, "opens": [[], [0], [1], [0, 1, 2]]}
    code, out, err = run(capsys, "validate", jfile(tmp_path, "s.json", bad))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "NotClosedUnderUnion"


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text("{nope")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize("content", [
    b"[" * 100_000,
    b"9" * 5_000,
    b"\xff\xfe[]",
], ids=["deep-nesting", "long-integer", "not-utf8"])
def test_undecodable_json_exits_2(tmp_path, capsys, content):
    # past the recursion limit, past the integer digit limit, and a UTF-16
    # byte order mark where UTF-8 is read
    path = tmp_path / "s.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "input"


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.json")
    assert code == 2
    assert json.loads(err)["error"] == "io"


def test_info_labeled_sierpinski(tmp_path, capsys):
    code, out, _ = run(capsys, "info", jfile(tmp_path, "s.json", SIERPINSKI))
    assert code == 0
    assert json.loads(out) == {
        "size": 2, "opens": 3, "t0": True, "sober": True, "connected": True,
        "components": [[1, 2]], "length": 2, "strata": [[1], [2]]}


def test_info_non_t0(tmp_path, capsys):
    chaotic = {"size": 2, "opens": [[], [0, 1]]}
    code, out, _ = run(capsys, "info", jfile(tmp_path, "s.json", chaotic))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["t0"] is False and parsed["sober"] is False
    assert parsed["length"] is None and parsed["strata"] is None


def test_info_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(SIERPINSKI)))
    code, out, _ = run(capsys, "info", "-")
    assert code == 0
    assert json.loads(out)["sober"] is True


@pytest.mark.parametrize("space", [
    {"preorder": {"size": 3000}},
    {"preorder": {"size": 64}},
    {"size": 64, "opens": [[]]},
])
def test_info_refuses_oversized_space(tmp_path, capsys, space):
    code, out, err = run(capsys, "info", jfile(tmp_path, "s.json", space))
    assert code == 2 and out == ""
    parsed = json.loads(err)
    assert parsed["error"] == "input" and "63" in parsed["message"]
    size = space.get("preorder", space)["size"]
    assert parsed["details"] == {"size": size, "cap": 63}


def test_info_refuses_overlong_opens_list(tmp_path, capsys):
    space = {"size": 1, "opens": [[]] * (OPEN_FAMILY_CAP + 1)}
    code, out, err = run(capsys, "info", jfile(tmp_path, "s.json", space))
    assert code == 2 and out == ""
    parsed = json.loads(err)
    assert parsed["error"] == "input"
    assert str(OPEN_FAMILY_CAP) in parsed["message"]
    assert parsed["details"] == {"opens": OPEN_FAMILY_CAP + 1,
                                 "cap": OPEN_FAMILY_CAP}


def test_info_refuses_wide_preorder_before_building(tmp_path, capsys):
    # 40 unrelated points: 2 ** 40 opens, refused from a count that stops
    # one past the cap
    space = {"preorder": {"size": 40}}
    code, out, err = run(capsys, "info", jfile(tmp_path, "s.json", space))
    assert code == 1 and out == ""
    parsed = json.loads(err)
    assert parsed["error"] == "CapExceeded"
    assert parsed["details"] == {"cap": OPEN_FAMILY_CAP}


def test_twenty_point_antichain_is_counted_not_listed(tmp_path, capsys):
    # 2 ** 20 opens, the most a preorder may have; only their number is read
    path = jfile(tmp_path, "s.json", {"preorder": {"size": 20}})
    code, out, err = run(capsys, "info", path)
    assert code == 0 and err == ""
    assert len(out) == 777
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "381cd1fc87a328f946c0066121451f930ccb3f61c6c09de65ed2d0d0654e0994")
    assert run(capsys, "validate", path) == (
        0, '{\n  "ok": true,\n  "opens": 1048576,\n  "size": 20\n}\n', "")
    assert run(capsys, "complete", path) == (
        1, "", '{\n  "details": {\n    "cap": 16,\n    "opens": 1048576\n  },\n'
               '  "error": "CapExceeded",\n'
               '  "message": "completion capped at 16 base opens"\n}\n')


# json.loads keeps the last of two equal keys, so each of these would
# lose a value in silence
@pytest.mark.parametrize("argv,text,key", [
    (["info"], '{"size": 1, "opens": [[], [0]], "size": 2}', "size"),
    (["action", "reconstruct"],
     '{"base": %s, "prim": %s, "values": {"0": [0], "1": [0, 1], "0": [0, 1]}}'
     % (json.dumps(SIERPINSKI), json.dumps(SIERPINSKI)), "0"),
])
def test_repeated_json_key_is_refused(tmp_path, capsys, argv, text, key):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "input",
                               "message": f"JSON object repeats the key {key!r}"}


def test_plain_input_errors_carry_no_details(tmp_path, capsys):
    space = {"preorder": {"size": 0, "leq": 2}}
    code, out, err = run(capsys, "info", jfile(tmp_path, "s.json", space))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "input",
                               "message": "leq must be a list of [x, y] pairs"}


def test_soberify_collapses_chaotic(tmp_path, capsys):
    chaotic = {"size": 2, "opens": [[], [0, 1]]}
    code, out, _ = run(capsys, "soberify", jfile(tmp_path, "s.json", chaotic))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["space"]["size"] == 1
    assert parsed["map"] == [0, 0]
    assert parsed["closed_sets"] == [[0, 1]]


# -- alexandrov -------------------------------------------------------------------


def test_alexandrov_both_directions(tmp_path, capsys):
    pre = jfile(tmp_path, "p.json", {"size": 2, "leq": [[1, 0]]})
    code, out, _ = run(capsys, "alexandrov", "--from-preorder", pre)
    assert code == 0
    assert json.loads(out) == {"size": 2, "opens": [[], [0], [0, 1]]}
    spc = jfile(tmp_path, "s.json", {"size": 2, "opens": [[], [0], [0, 1]]})
    code, out, _ = run(capsys, "alexandrov", "--to-preorder", spc)
    assert code == 0
    assert json.loads(out) == {"size": 2, "leq": [[1, 0]]}


def test_alexandrov_keeps_display_labels(tmp_path, capsys):
    # a labeled space prints its labels beside size and leq, and the bare
    # preorder form that --to-preorder writes reads them back
    spc = jfile(tmp_path, "s.json", dict(SIERPINSKI, points=["a", "b"]))
    code, out, _ = run(capsys, "alexandrov", "--to-preorder", spc)
    assert code == 0
    assert out == json.dumps({"leq": [[1, 0]], "points": ["a", "b"], "size": 2},
                             indent=2) + "\n"
    code, out, _ = run(capsys, "alexandrov", "--from-preorder",
                       jfile(tmp_path, "p.json", json.loads(out)))
    assert code == 0
    assert json.loads(out) == dict(SIERPINSKI, points=["a", "b"])
    bad = jfile(tmp_path, "b.json", {"size": 2, "leq": [[1, 0]], "points": ["a"]})
    code, _, err = run(capsys, "alexandrov", "--from-preorder", bad)
    assert code == 2 and json.loads(err)["error"] == "input"


def test_wrapped_preorder_reads_labels_inside_it(tmp_path, capsys):
    wrapped = {"preorder": {"size": 2, "leq": [[1, 0]], "points": ["a", "b"]}}
    path = jfile(tmp_path, "w.json", wrapped)
    code, out, err = run(capsys, "info", path)
    assert code == 0 and err == ""
    assert json.loads(out)["components"] == [["a", "b"]]
    code, out, _ = run(capsys, "alexandrov", "--from-preorder", path)
    assert code == 0
    assert json.loads(out) == dict(SIERPINSKI, points=["a", "b"])
    twice = jfile(tmp_path, "t.json", dict(wrapped, points=["c", "d"]))
    for argv in (["info", twice], ["alexandrov", "--from-preorder", twice]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "input",
            "message": "points is given both beside and inside preorder"}


def test_alexandrov_needs_exactly_one_direction(tmp_path):
    path = jfile(tmp_path, "p.json", {"size": 1})
    for argv in (["alexandrov", path],
                 ["alexandrov", "--from-preorder", "--to-preorder", path]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


# -- enumerate ---------------------------------------------------------------------


def test_enumerate_census_three_points(capsys):
    code, out, _ = run(capsys, "enumerate", "--points", "3", "--connected",
                       "--t0", "--up-to-homeo")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["count"] == 3 and parsed["labeled"] == 12
    assert len(parsed["spaces"]) == 3


def test_enumerate_labeled(capsys):
    code, out, _ = run(capsys, "enumerate", "--points", "2")
    parsed = json.loads(out)
    assert code == 0 and parsed["count"] == 4 == len(parsed["spaces"])
    code, out, _ = run(capsys, "enumerate", "--points", "2", "--t0")
    assert json.loads(out)["count"] == 3


def test_enumerate_up_to_homeo_lists_distinct_classes(capsys):
    code, out, _ = run(capsys, "enumerate", "--points", "4", "--up-to-homeo")
    spaces = [space_from_json(s) for s in json.loads(out)["spaces"]]
    assert code == 0 and len(spaces) == 33
    for a, b in itertools.combinations(spaces, 2):
        assert not homeomorphism_oracle(a, b)


def test_enumerate_table(capsys):
    code, out, _ = run(capsys, "enumerate", "--points", "3", "--connected",
                       "--t0", "--up-to-homeo", "--table")
    assert code == 0
    assert out.strip().endswith("count: 3  labeled: 12")


@pytest.mark.parametrize("flags", [(), ("--t0",), ("--up-to-homeo",),
                                   ("--up-to-homeo", "--t0")])
def test_enumerate_refuses_negative_points(capsys, flags):
    with pytest.raises(SystemExit) as exit_info:
        main(["enumerate", "--points", "-1", *flags])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--points must be nonnegative, got -1" in captured.err


def test_enumerate_has_no_workers_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["enumerate", "--points", "2", "--workers", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


# -- hasse / complete --------------------------------------------------------------


def test_hasse_edges_and_dot(tmp_path, capsys):
    chain = jfile(tmp_path, "c.json",
                  {"size": 3, "opens": [[], [0], [0, 1], [0, 1, 2]]})
    code, out, _ = run(capsys, "hasse", chain)
    assert code == 0
    assert json.loads(out) == {"edges": [[0, 1], [1, 2]]}
    code, out, _ = run(capsys, "hasse", chain, "--dot")
    assert code == 0
    assert out.startswith("digraph") and '"0" -> "1";' in out


def test_hasse_dot_refuses_labels_that_print_alike(tmp_path, capsys):
    # 1 and "1" would both print as the DOT node "1"
    space = jfile(tmp_path, "s.json", {"size": 2, "opens": [[], [0], [0, 1]],
                                       "points": [1, "1"]})
    code, out, err = run(capsys, "hasse", space, "--dot")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "input",
                               "message": "point labels must be unique as text"}


def test_hasse_dot_escapes_labels(tmp_path, capsys):
    quoted = r'"(?:[^"\\]|\\.)*"'
    statement = re.compile(rf"  {quoted}(?: -> {quoted})?;")
    opens = [[], [0], [0, 1]]
    for points, body in (
            (['a"b', "c\\"], ['"a\\"b"', '"c\\\\"']),
            (["x", "y z"], ['"x"', '"y z"'])):
        space = jfile(tmp_path, "s.json", {"size": 2, "opens": opens, "points": points})
        code, out, _ = run(capsys, "hasse", space, "--dot")
        assert code == 0
        lines = out.splitlines()
        assert lines[1:-1] == [f"  {body[0]};", f"  {body[1]};",
                               f"  {body[0]} -> {body[1]};"]
        assert all(statement.fullmatch(line) for line in lines[1:-1])


def test_hasse_requires_t0(tmp_path, capsys):
    chaotic = jfile(tmp_path, "c.json", {"size": 2, "opens": [[], [0, 1]]})
    code, _, err = run(capsys, "hasse", chaotic)
    assert code == 1
    assert json.loads(err)["error"] == "NotT0"


def test_complete_discrete_two(tmp_path, capsys):
    code, out, _ = run(capsys, "complete", jfile(tmp_path, "d.json", DISCRETE2))
    assert code == 0
    assert json.loads(out) == {
        "space": {"size": 4, "opens": [[], [3], [1, 3], [2, 3],
                                       [1, 2, 3], [0, 1, 2, 3]]},
        "embedding": [1, 2],
        "filters": [[[0, 1]], [[0], [0, 1]], [[1], [0, 1]],
                    [[0], [1], [0, 1]]]}


def test_complete_refuses_large_topology(tmp_path, capsys):
    discrete4 = {"size": 4, "opens": [[i for i in range(4) if m >> i & 1]
                                      for m in range(16)]}
    code, out, err = run(capsys, "complete", jfile(tmp_path, "d.json", discrete4))
    assert code == 1 and out == ""
    # 166 filters: each would be a point, past the 63-point cap
    assert json.loads(err) == {"error": "CapExceeded",
                               "message": "completion capped at 63 filters",
                               "details": {"filters": 166, "cap": 63}}


# -- action -----------------------------------------------------------------------


def test_action_check(tmp_path, capsys):
    path = jfile(tmp_path, "a.json", NINTH_ACTION)
    code, out, _ = run(capsys, "action", "check", path)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["ok"] is True and parsed["tight"] is True
    assert parsed["ideals"] == {"0": [0], "1": [1], "2": [0, 1, 2],
                                "3": [1, 3]}


def test_action_restrict(tmp_path, capsys):
    path = jfile(tmp_path, "a.json", NINTH_ACTION)
    code, out, _ = run(capsys, "action", "restrict", path, "--set", "1,3")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["base_points"] == [1, 3]
    assert parsed["action"]["base"]["size"] == 2


def test_action_restrict_needs_set(tmp_path):
    path = jfile(tmp_path, "a.json", NINTH_ACTION)
    with pytest.raises(SystemExit) as err:
        main(["action", "restrict", path])
    assert err.value.code == 2


def test_action_pushforward(tmp_path, capsys):
    path = jfile(tmp_path, "a.json", NINTH_ACTION)
    point = {"size": 1, "opens": [[], [0]]}
    mp = jfile(tmp_path, "m.json",
               {"domain": NINTH, "codomain": point, "values": [0, 0, 0, 0]})
    code, out, _ = run(capsys, "action", "pushforward", path, mp)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["base"] == point and parsed["psi"] == [0, 0, 0, 0]
    with pytest.raises(SystemExit):
        main(["action", "pushforward", path])


def test_action_filtrate(tmp_path, capsys):
    path = jfile(tmp_path, "a.json", NINTH_ACTION)
    code, out, _ = run(capsys, "action", "filtrate", path)
    assert code == 0
    parsed = json.loads(out)
    assert [row["support"] for row in parsed["strata"]] == [[0, 1], [2, 3]]
    assert parsed["layers"][-1] == [0, 1, 2, 3]


def test_action_reconstruct(tmp_path, capsys):
    base = FiniteSpace(4, [0, 0b0001, 0b0010, 0b0011, 0b0111,
                           0b1010, 0b1011, 0b1111])
    act = ActionOverX(base, base, ContinuousMap.identity(base))
    path = jfile(tmp_path, "r.json",
                 assignment_to_json(base, minimal_ideals(act), base))
    code, out, _ = run(capsys, "action", "reconstruct", path)
    assert code == 0
    assert json.loads(out)["psi"] == [0, 1, 2, 3]


def test_action_reconstruct_failure_exits_one(tmp_path, capsys):
    bad = {"base": SIERPINSKI, "prim": SIERPINSKI,
           "values": {"0": [], "1": [0]}}
    code, _, err = run(capsys, "action", "reconstruct",
                       jfile(tmp_path, "r.json", bad))
    assert code == 1
    assert "error" in json.loads(err)


def test_action_reconstruct_refuses_repeated_point(tmp_path, capsys):
    # "0" and "00" both name base point 0
    twice = {"base": SIERPINSKI, "prim": SIERPINSKI,
             "values": {"0": [0], "1": [0, 1], "00": [0, 1]}}
    code, out, err = run(capsys, "action", "reconstruct",
                         jfile(tmp_path, "r.json", twice))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "input",
                               "message": "assignment key '00' repeats base point 0"}


# -- ktheory ----------------------------------------------------------------------


def test_ktheory_snf(tmp_path, capsys):
    path = jfile(tmp_path, "m.json", {"matrix": [[2, 0], [0, 3]]})
    code, out, _ = run(capsys, "ktheory", "snf", path)
    assert code == 0
    assert json.loads(out)["D"] == [[1, 0], [0, 6]]
    bare = jfile(tmp_path, "b.json", [[4]])
    code, out, _ = run(capsys, "ktheory", "snf", bare)
    assert code == 0 and json.loads(out)["D"] == [[4]]


def loads_past_the_digit_limit(text):
    """json.loads with the interpreter's int-to-str limit lifted."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return json.loads(text)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_ktheory_snf_writes_integers_past_the_digit_limit(tmp_path, capsys):
    # the transforms of 121-digit entries pass 4,300 digits, the default
    # int-to-str limit, which guards reading input and not writing results
    rng = random.Random(2)
    a = [[rng.randrange(10**120, 10**121) for _ in range(2)] for _ in range(2)]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run(capsys, "ktheory", "snf", jfile(tmp_path, "m.json", a))
    assert code == 0 and err == ""
    assert max(map(len, re.findall(r"\d+", out))) > 4300
    doc = loads_past_the_digit_limit(out)
    u, d, v = (IntMatrix(doc[k]) for k in "UDV")
    assert u @ IntMatrix(a) @ v == d
    # writing lifts the limit for itself alone: input is still refused
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    long = tmp_path / "long.json"
    long.write_text("[[" + "1" * 5000 + "]]")
    code, out, err = run(capsys, "ktheory", "snf", str(long))
    assert (code, out) == (2, "") and "invalid JSON" in err


@pytest.mark.parametrize("rows,cols", [(GENERATORS_CAP + 1, 1), (1, GENERATORS_CAP + 1)])
def test_ktheory_snf_refuses_a_matrix_past_the_cap(tmp_path, capsys, rows, cols):
    path = jfile(tmp_path, "m.json", [[1] * cols for _ in range(rows)])
    code, out, err = run(capsys, "ktheory", "snf", path)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "input",
        "message": ("snf matrices are capped at 64 rows and columns, "
                    f"got {rows} x {cols}"),
        "details": {"rows": rows, "columns": cols, "cap": GENERATORS_CAP}}
    # a matrix at the cap is factored
    at_cap = [[1] * min(cols, 64) for _ in range(min(rows, 64))]
    code, out, err = run(capsys, "ktheory", "snf", jfile(tmp_path, "m.json", at_cap))
    assert code == 0 and err == ""


def test_ktheory_exact(tmp_path, capsys):
    z = {"generators": 1, "relations": []}
    mod2 = {"generators": 1, "relations": [[2]]}
    good = {"f": {"domain": z, "codomain": z, "matrix": [[2]]},
            "g": {"domain": z, "codomain": mod2, "matrix": [[1]]}}
    code, out, err = run(capsys, "ktheory", "exact",
                         jfile(tmp_path, "e.json", good))
    assert code == 0 and err == ""
    assert json.loads(out)["ok"] is True
    bad = dict(good, f={"domain": z, "codomain": z, "matrix": [[4]]})
    code, out, err = run(capsys, "ktheory", "exact",
                         jfile(tmp_path, "e2.json", bad))
    assert code == 1 and out == ""
    assert json.loads(err)["ok"] is False


@pytest.mark.parametrize("pair,name", [
    ({"f": 3, "g": {}}, "f"),
    ({"f": {"domain": {"generators": 1}, "codomain": {"generators": 1},
            "matrix": [[1]]}, "g": [1]}, "g"),
    ({}, "f"),
])
def test_ktheory_exact_names_the_map_it_refuses(tmp_path, capsys, pair, name):
    code, out, err = run(capsys, "ktheory", "exact", jfile(tmp_path, "e.json", pair))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "input",
                               "message": f"{name} map must be a JSON object"}


Z1 = {"generators": 1, "relations": []}
Z2 = {"generators": 2, "relations": []}
ONE = {"domain": Z1, "codomain": Z1, "matrix": [[1]]}
NO_CYCLES = {"space": SIERPINSKI, "groups": {}}


def square(**sides):
    return {"top": ONE, "right": ONE, "left": ONE, "bottom": ONE, **sides}


@pytest.mark.parametrize("argv,doc,code,reason", [
    (["ktheory", "datum-verify"], dict(NO_CYCLES, cycles={}), 2,
     {"error": "input", "message": "datum needs a cycles list"}),
    (["ktheory", "datum-verify"],
     dict(NO_CYCLES, cycles=[{"open": "", "set": "", "maps": [[]] * 5}]), 2,
     {"error": "input", "message": "each cycle entry needs six maps"}),
    (["action", "check"], {"base": SIERPINSKI, "prim": SIERPINSKI, "psi": [0, 2]}, 2,
     {"error": "input", "message": "psi value 2 out of range"}),
    (["ktheory", "exact"], [ONE, ONE], 2,
     {"error": "input", "message": "expected an object with f and g"}),
    (["ktheory", "two-point"],
     square(right={"domain": Z2, "codomain": Z1, "matrix": [[1, 0]]}), 1,
     {"error": "ShapeMismatch", "details": {},
      "message": "right map must start where the top map ends"}),
    (["ktheory", "two-point"],
     square(bottom={"domain": Z2, "codomain": Z1, "matrix": [[1, 0]]}), 1,
     {"error": "ShapeMismatch", "details": {},
      "message": "bottom map must start where the left map ends"}),
    (["ktheory", "two-point"],
     square(left={"domain": Z2, "codomain": Z1, "matrix": [[1, 0]]}), 1,
     {"error": "ShapeMismatch", "details": {},
      "message": "top and left maps must share their domain"}),
    (["ktheory", "two-point"],
     square(bottom={"domain": Z1, "codomain": Z2, "matrix": [[1], [0]]}), 1,
     {"error": "ShapeMismatch", "details": {},
      "message": "right and bottom maps must share their codomain"}),
], ids=["datum-cycles", "cycle-maps", "psi-range", "exact-object",
        "square-right", "square-bottom", "square-left", "square-codomain"])
def test_refusals_name_their_fault(tmp_path, capsys, argv, doc, code, reason):
    got, out, err = run(capsys, *argv, jfile(tmp_path, "d.json", doc))
    assert (got, out) == (code, "")
    assert json.loads(err) == reason


def test_ktheory_six_term(tmp_path, capsys):
    zero = {"generators": 0, "relations": []}
    mod2 = {"generators": 1, "relations": [[2]]}
    cycle = {"groups": [mod2, mod2, zero, zero, zero, zero],
             "maps": [[[1]], [], [], [], [], [[]]]}
    code, out, err = run(capsys, "ktheory", "six-term",
                         jfile(tmp_path, "c.json", cycle))
    assert code == 0 and err == ""
    assert json.loads(out)["first_failure"] is None
    broken = dict(cycle, maps=[[[0]], [], [], [], [], [[]]])
    code, out, err = run(capsys, "ktheory", "six-term",
                         jfile(tmp_path, "c2.json", broken))
    assert code == 1 and out == ""
    assert json.loads(err)["first_failure"] == 0


RELATIONS_PAST_CAP = {"error": "input",
                      "message": "groups are capped at 64 relations, got 65",
                      "details": {"relations": 65, "cap": GENERATORS_CAP}}


def test_six_term_caps_the_relations_of_a_group(tmp_path, capsys):
    # Z/2 given by copies of its one relator: 64 are read, 65 are refused
    zero = {"generators": 0}
    mod2 = {"generators": 1, "relations": [[2]] * GENERATORS_CAP}
    cycle = {"groups": [mod2, mod2, zero, zero, zero, zero],
             "maps": [[[1]], [], [], [], [], [[]]]}
    code, out, err = run(capsys, "ktheory", "six-term",
                         jfile(tmp_path, "c64.json", cycle))
    assert code == 0 and err == ""
    assert json.loads(out)["first_failure"] is None
    mod2["relations"].append([2])
    code, out, err = run(capsys, "ktheory", "six-term",
                         jfile(tmp_path, "c65.json", cycle))
    assert (code, out) == (2, "")
    assert json.loads(err) == RELATIONS_PAST_CAP


def test_datum_verify_caps_the_relations_of_a_group(tmp_path, capsys):
    datum = datum_to_json(point_count_datum(FiniteSpace.sierpinski()))
    code, plain, err = run(capsys, "ktheory", "datum-verify",
                           jfile(tmp_path, "d.json", datum))
    assert code == 0 and err == ""
    # the zero relator repeated 64 times presents the same group
    even = datum["groups"]["0"]["even"]
    assert even == {"generators": 1, "relations": []}
    even["relations"] = [[0]] * GENERATORS_CAP
    code, out, err = run(capsys, "ktheory", "datum-verify",
                         jfile(tmp_path, "d64.json", datum))
    assert (code, out, err) == (0, plain, "")
    even["relations"].append([0])
    code, out, err = run(capsys, "ktheory", "datum-verify",
                         jfile(tmp_path, "d65.json", datum))
    assert (code, out) == (2, "")
    assert json.loads(err) == RELATIONS_PAST_CAP


def test_ktheory_datum_verify(tmp_path, capsys):
    space = FiniteSpace.sierpinski()
    rich = jfile(tmp_path, "ok.json", datum_to_json(point_count_datum(space)))
    code, out, _ = run(capsys, "ktheory", "datum-verify", rich)
    assert code == 0
    parsed = json.loads(out)
    # point groups are nonzero, so the vanishing bootstrap does not apply
    assert parsed["ok"] is True and parsed["propagation"] is None
    zero = jfile(tmp_path, "z.json", datum_to_json(constant_zero_datum(space)))
    code, out, _ = run(capsys, "ktheory", "datum-verify", zero)
    assert code == 0
    assert json.loads(out)["propagation"] == {"ok": True, "deviation": None}


def test_ktheory_datum_verify_refuses_repeated_carrier(tmp_path, capsys):
    datum = datum_to_json(point_count_datum(FiniteSpace.sierpinski()))
    datum["groups"]["1,0"] = datum["groups"]["0,1"]
    code, out, err = run(capsys, "ktheory", "datum-verify",
                         jfile(tmp_path, "d.json", datum))
    assert code == 2 and out == ""
    assert json.loads(err)["message"] == "group key '1,0' repeats carrier [0, 1]"


def test_ktheory_datum_verify_rejects_seeded_flaw(tmp_path, capsys):
    space = FiniteSpace.sierpinski()
    datum = constant_zero_datum(space, special=space.full,
                                group=FGAbelianGroup.cyclic(2))
    path = jfile(tmp_path, "bad.json", datum_to_json(datum))
    code, out, err = run(capsys, "ktheory", "datum-verify", path)
    assert code == 1 and out == ""
    parsed = json.loads(err)
    assert parsed["ok"] is False
    assert parsed["propagation"]["deviation"] == {"carrier": [0, 1],
                                                  "step": [[0], [0, 1]]}
    failures = [r for r in parsed["cycles"]["results"]
                if not r["report"]["ok"]]
    assert any(r["open"] == "0" and r["set"] == "0,1" for r in failures)


ZERO_GRADED = {"even": {"generators": 0, "relations": []},
               "odd": {"generators": 0, "relations": []}}


def test_ktheory_datum_verify_on_a_space_that_is_not_t0(tmp_path, capsys):
    # on the chaotic two-point space only "" and "0,1" are locally closed
    datum = datum_to_json(constant_zero_datum(FiniteSpace.chaotic(2)))
    assert sorted(datum["groups"]) == ["", "0,1"] and len(datum["cycles"]) == 3
    code, out, err = run(capsys, "ktheory", "datum-verify",
                         jfile(tmp_path, "d.json", datum))
    assert code == 0 and err == ""
    parsed = json.loads(out)
    assert parsed["ok"] is True and parsed["propagation"] is None
    assert len(parsed["cycles"]["results"]) == 3
    # groups on the points are groups on sets that are not locally closed
    datum["groups"].update({"0": ZERO_GRADED, "1": ZERO_GRADED})
    code, out, err = run(capsys, "ktheory", "datum-verify",
                         jfile(tmp_path, "p.json", datum))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "NotLocallyClosed",
                               "message": "[0] is not open in its closure",
                               "details": {"carrier": 1}}


def test_ktheory_datum_verify_refuses_what_it_would_not_check(tmp_path, capsys):
    chain = datum_to_json(constant_zero_datum(FiniteSpace.chain(3)))
    groups = dict(chain["groups"], **{"0,2": ZERO_GRADED})
    stray = {"open": "2", "set": "0,2", "maps": [[]] * 6}
    not_open = {"open": "1", "set": "0,1", "maps": [[]] * 6}
    carrier = {"error": "NotLocallyClosed",
               "message": "[0, 2] is not open in its closure",
               "details": {"carrier": 5}}
    pair = {"error": "ShapeMismatch",
            "message": "cycle ([1], [0, 1]) is not a relative-open pair",
            "details": {"pair": [2, 3]}}
    # {0, 2} has no group here: the cycle is refused as a pair (exit 1),
    # not as unreadable input
    no_group = {"error": "ShapeMismatch",
                "message": "cycle ([2], [0, 2]) is not a relative-open pair",
                "details": {"pair": [4, 5]}}
    # a carrier that is not locally closed comes before a pair that is not
    # relative-open
    for groups, extra, error in ((groups, [stray], carrier),
                                 (groups, [not_open], carrier),
                                 (chain["groups"], [not_open], pair),
                                 (chain["groups"], [stray], no_group)):
        datum = dict(chain, groups=groups, cycles=chain["cycles"] + extra)
        code, out, err = run(capsys, "ktheory", "datum-verify",
                             jfile(tmp_path, "d.json", datum))
        assert code == 1 and out == ""
        assert json.loads(err) == error


def test_ktheory_datum_verify_refuses_a_missing_cycle(tmp_path, capsys):
    datum = datum_to_json(constant_zero_datum(FiniteSpace.sierpinski()))
    datum["cycles"] = [c for c in datum["cycles"]
                       if (c["open"], c["set"]) != ("0", "0,1")]
    code, out, err = run(capsys, "ktheory", "datum-verify",
                         jfile(tmp_path, "d.json", datum))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ShapeMismatch",
                               "message": "missing cycle for ([0], [0, 1])",
                               "details": {"pair": [1, 3]}}


def test_ktheory_datum_verify_names_a_carrier_with_no_group(tmp_path, capsys):
    sierpinski = datum_to_json(constant_zero_datum(FiniteSpace.sierpinski()))
    # without "1", with the cycles that reach {1} dropped or kept
    no_one = dict(sierpinski,
                  groups={k: g for k, g in sierpinski["groups"].items() if k != "1"})
    pruned = dict(no_one, cycles=[c for c in sierpinski["cycles"]
                                  if "1" not in (c["open"], c["set"])
                                  and (c["open"], c["set"]) != ("0", "0,1")])
    empty = {"space": {"preorder": {"size": 20}}, "groups": {}, "cycles": []}
    one = {"error": "ShapeMismatch", "message": "no group assigned to [1]",
           "details": {"carrier": 2}}
    for datum, error in ((pruned, one), (no_one, one),
                         (empty, {"error": "ShapeMismatch",
                                  "message": "no group assigned to []",
                                  "details": {"carrier": 0}})):
        code, out, err = run(capsys, "ktheory", "datum-verify",
                             jfile(tmp_path, "d.json", datum))
        assert code == 1 and out == ""
        assert json.loads(err) == error


def test_ktheory_datum_verify_reads_input_before_faults(tmp_path, capsys):
    # a map that is not well defined, on ({}, {1}), and a malformed map 4
    frame, cycle = sierpinski_torsion_json()
    bad = cycle("", "1", bad=[[1]])
    torn = cycle("", "0")
    torn["maps"][4] = [1]
    # the malformed matrix is input (exit 2), though the file gives it later
    code, out, err = run(capsys, "ktheory", "datum-verify",
                         jfile(tmp_path, "a.json", dict(frame, cycles=[bad, torn])))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "input",
                               "message": "cycle map 4 rows must be lists"}
    # a missing cycle (fault 4) comes before the map that is not well defined
    code, out, err = run(capsys, "ktheory", "datum-verify",
                         jfile(tmp_path, "b.json", dict(frame, cycles=[bad])))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ShapeMismatch",
                               "message": "missing cycle for ([], [])",
                               "details": {"pair": [0, 0]}}


def test_ktheory_two_point(tmp_path, capsys):
    z = {"generators": 1, "relations": []}
    ident = {"domain": z, "codomain": z, "matrix": [[1]]}
    double = {"domain": z, "codomain": z, "matrix": [[2]]}
    square = {"top": ident, "right": double, "left": double, "bottom": ident}
    code, out, _ = run(capsys, "ktheory", "two-point",
                       jfile(tmp_path, "s.json", square))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["cokernel"] == {"rank": 0, "torsion": [2]}
    assert parsed["middle"] == {"rank": 0, "torsion": [2]}


# -- stability and packaging -------------------------------------------------------


def test_output_bytes_stable(tmp_path, capsys):
    path = jfile(tmp_path, "s.json", SIERPINSKI)
    outs = {run(capsys, "info", path)[1] for _ in range(3)}
    assert len(outs) == 1


def test_info_rejects_repeated_labels(tmp_path, capsys):
    space = {"size": 2, "opens": [[], [0], [0, 1]], "points": [1, 1]}
    code, out, err = run(capsys, "info", jfile(tmp_path, "s.json", space))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "input"


def test_info_rejects_unhashable_labels(tmp_path, capsys):
    space = {"size": 2, "opens": [[], [0], [0, 1]], "points": [[1], [2]]}
    code, out, err = run(capsys, "info", jfile(tmp_path, "s.json", space))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "input"


def test_ktheory_refuses_oversized_group(tmp_path, capsys):
    huge = {"generators": 10 ** 12}
    pair = {"f": {"domain": huge, "codomain": huge, "matrix": []},
            "g": {"domain": huge, "codomain": huge, "matrix": []}}
    code, out, err = run(capsys, "ktheory", "exact",
                         jfile(tmp_path, "e.json", pair))
    assert code == 2 and out == ""
    parsed = json.loads(err)
    assert parsed["error"] == "input" and "64" in parsed["message"]
    assert parsed["details"] == {"generators": 10 ** 12, "cap": 64}


def test_ktheory_datum_verify_defect_bytes(tmp_path, capsys):
    # point-count datum over the Sierpinski space with the inclusion of
    # the cycle ({0}, {0, 1}) replaced by zero
    space = FiniteSpace.sierpinski()
    good = point_count_datum(space)
    maps = datum_rows(good)
    maps[(0b01, 0b11)][0] = [[0], [0]]
    datum = FiltratedKDatum(space, good.assignment, maps)
    path = jfile(tmp_path, "defect.json", datum_to_json(datum))
    code, out, err = run(capsys, "ktheory", "datum-verify", path)
    assert code == 1 and out == ""
    failures = [r for r in json.loads(err)["cycles"]["results"]
                if not r["report"]["ok"]]
    assert [(r["open"], r["set"]) for r in failures] == [("0", "0,1")]
    assert failures[0]["report"]["first_failure"] == 0
    assert [n["witness"] for n in failures[0]["report"]["nodes"][:2]] == [
        ["kernel generator", [1]], ["kernel generator", [1, 0]]]
    # every byte of the report is pinned, not just its parsed content
    assert len(err) == 7127
    assert (hashlib.sha256(err.encode()).hexdigest()
            == "50b7fbbb28d1e4a51fefac2ce195448765d4a421ecfe6deab6e856b01bd7a4ad")


def large_point_count_datum():
    return point_count_datum(random_poset_space(random.Random(3), 6))


def eight_point_datum():
    return point_count_datum(random_poset_space(random.Random(3), 8))


def large_torsion_datum():
    return random_torsion_datum(random.Random(7), random_poset_space(random.Random(7), 5))


# exit code, length and sha256 of the report as json.dumps(indent=2) wrote it:
# on stdout for the exact point-count datum, on stderr for the torsion datum
@pytest.mark.parametrize("make,code,length,digest", [
    (large_point_count_datum, 0, 290148,
     "e34023bd318212da53f5bbb2f143730371831932d0159b661490f93e21b30d95"),
    (large_torsion_datum, 1, 145383,
     "db6342899c8dff218f6099ce477096397f00e359194cb6e8cc3b35421ad6b461"),
    (eight_point_datum, 0, 2046251,
     "226e3ecf6f0319965bd96bad74161a546a6cc6b6f41571a60747143da5f4bcc6"),
])
def test_ktheory_datum_verify_large_report_bytes(tmp_path, capsys, make, code,
                                                 length, digest):
    path = jfile(tmp_path, "d.json", datum_to_json(make()))
    got, out, err = run(capsys, "ktheory", "datum-verify", path)
    report, empty = (out, err) if code == 0 else (err, out)
    assert got == code and empty == ""
    assert len(report) == length
    assert hashlib.sha256(report.encode()).hexdigest() == digest


@pytest.mark.parametrize("make", [large_point_count_datum, large_torsion_datum])
def test_datum_report_shares_one_object_per_verdict(make):
    # verify_datum shares each distinct node's verdict, and the JSON report
    # shares one node object per verdict and one cycle object per tuple of
    # verdicts, so the writer writes each once
    report = verify_datum(make())
    doc = kjsonio.datum_report_to_json(report)
    node_objects = {}
    cycle_objects = {}
    for (_, cycle), result in zip(report.results, doc["results"]):
        verdicts = tuple(map(id, cycle.nodes))
        assert cycle_objects.setdefault(verdicts, result["report"]) is result["report"]
        for verdict, node in zip(cycle.nodes, result["report"]["nodes"]):
            assert node_objects.setdefault(id(verdict), node) is node
            assert node == kjsonio.exactness_to_json(verdict)
    assert len({id(n) for n in node_objects.values()}) == len(node_objects)
    assert len(cycle_objects) < len(doc["results"])


# sha256 and length of stdout as the subset-family and closed-set scans
# produced them; the point-closure and preorder routes must keep every byte
PINNED_STDOUT = [
    # labeled spaces in generation order
    (["enumerate", "--points", "4"], 123933,
     "7207296a3208335ced566aa573aaccb670ec09ec96feed150498a147e1f96cc7"),
    (["enumerate", "--points", "3", "--connected"], 3850,
     "23538f321ee20d83b90751eab8912d91feda081e23358c7f20582eabc6179530"),
    (["soberify", TWO_BLOCKS], 284,
     "c22914f4f248ed51058dea9b7c0aa7c0c4007ab885beb029ee2397fa28a0307b"),
    (["info", TWO_BLOCKS], 203,
     "ee1743541d2fddf208b95c3e57bbcabb8d0414434e7dae16a9290fe4a2fd8ec1"),
    # as the subset scan and the pairwise closure of the subbasis built them
    (["complete", DISCRETE2], 640,
     "6d486d329089a1faeadaafc6edd8459e3fb3d844ad306c8dbd21af1cda1832d7"),
    (["complete", POSET5], 150563,
     "583c9f79203ac2059c819b66b913ea4de6aa6eb1b1a24b163df78f71aee73530"),
    # T0 classes print as the cover-edge representatives, in canonical order
    (["enumerate", "--points", "5", "--t0", "--up-to-homeo"], 43168,
     "c4eca86769f145abdc7fcc7beb011cba0d24daebcaa7fe3c56823da0912f1b0e"),
    # every class prints its T0 quotient with each point expanded into a
    # block of consecutive points
    (["enumerate", "--points", "4", "--up-to-homeo"], 11324,
     "d21bcd670e9befb9ad86f99b4b9f735af9aaf0467d5fd43139218e5a97cd5845"),
    # labeled T0 spaces in generation order
    (["enumerate", "--points", "4", "--t0"], 87317,
     "25b0d4c299052d7a8ed3f2abe5c683b92c3662fe4b85b3b7f71d470cd903e54c"),
    # the largest admitted completion, 63 filters and 6,445 opens, as its
    # index lists were written one integer at a time
    (["complete", WORST], 2391971,
     "ffbd8419bf25dde1cc4a5a08b614e4541bdf6619cc0a35d88df341f8fb3732b2"),
    # documents whose spaces, layers and fibers were written as index lists
    (["action", "filtrate", FILTRATED], 440,
     "daf1bc90818e65296fdecdc01d09c209eb0f83a12ec4488bd882c9407d4084f1"),
    (["action", "filtrate", NINTH_ACTION], 529,
     "91ef8f2a98d89da008fadf2829f51c2ea61bc36c16ab2d4051360ea40bcf8706"),
    (["action", "restrict", NINTH_ACTION, "--set", "1,3"], 438,
     "d9ad17a800392a76dc3b668990c505b16e989113286e4d405e780df63a49d26c"),
    (["action", "pushforward", NINTH_ACTION, TO_POINT], 485,
     "45352d244cc6996af558ce641c9d17384f4325f59a7e739b73a9c64749e5995f"),
    (["action", "reconstruct", NINTH_IDEALS], 746,
     "2cbcaf8d8ac08fdb402cec286155efacd68055233b6e3480e274eb67c201aa42"),
    (["alexandrov", "--from-preorder", LABELED_DIAMOND], 263,
     "4d473ea61c8ea41b0e60009081b81b20365e489deb340dab53f7b82b6f92f78b"),
    (["enumerate", "--points", "6", "--up-to-homeo"], 585621,
     "6e4bc928e33d89238d0a28ee95dee8f7d6ff5d87dba9c044865622ef5cf626a1"),
]


@pytest.mark.parametrize("argv,length,digest", PINNED_STDOUT)
def test_stdout_bytes_pinned(tmp_path, capsys, argv, length, digest):
    argv = [jfile(tmp_path, f"{i}.json", a) if isinstance(a, dict) else a
            for i, a in enumerate(argv)]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert len(out) == length
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def run_fresh(*argv):
    """The command line in a new interpreter that imports this test's package."""
    src = os.path.dirname(os.path.dirname(finitetop.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=60)


def test_module_entry_point(tmp_path):
    path = jfile(tmp_path, "s.json", SIERPINSKI)
    # runpy warns when importing the package has already imported cli
    proc = run_fresh("-W", "error", "-m", "finitetop.cli", "info", path)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["strata"] == [[1], [2]]


def test_one_parser_answers_like_a_fresh_process(tmp_path, capsys, monkeypatch):
    # help text wraps at COLUMNS, which the child inherits
    monkeypatch.setenv("COLUMNS", "80")
    files = {"space": jfile(tmp_path, "s.json", SIERPINSKI),
             "action": jfile(tmp_path, "a.json", NINTH_ACTION),
             "matrix": jfile(tmp_path, "m.json", [[4, 6], [2, 2]])}
    calls = [
        ["info", "{space}"],
        ["action", "restrict", "{action}"],
        ["action", "restrict", "{action}", "--set", "1,3"],
        ["enumerate", "--points", "-1"],
        ["enumerate", "--points", "2", "--table"],
        ["transmogrify", "{space}"],
        ["--help"],
        ["ktheory", "snf", "{matrix}"],
        ["ktheory", "--help"],
        ["action", "pushforward", "{action}"],
        ["hasse", "{space}", "--dot"],
    ]
    for argv in calls:
        argv = [arg.format(**files) for arg in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors and --help
            code = exc.code
        captured = capsys.readouterr()
        proc = run_fresh("-m", "finitetop.cli", *argv)
        assert (code, captured.out, captured.err) == (
            proc.returncode, proc.stdout, proc.stderr), argv
