"""Bounded fuzzing of the command line, in process.

Every subcommand gets valid documents with one part replaced by small
random JSON, or random JSON outright; one seed document repeats a key.
Whatever the input, ``main`` must let no exception escape and keep the
output rule: exit 0 writes nothing to standard error; exit 1 writes
nothing to standard output and one JSON object to standard error, an
error or a report whose "ok" is false; exit 2 writes nothing to standard
output and, when ``main`` returns it rather than argparse, an "input" or
"io" error object to standard error.  Sizes stay small so each call is
cheap: integers lie in -2..6, ``complete`` sees at most 3 points
and ``enumerate`` at most 4, apart from seeds the caps refuse before any
work (a five-point discrete base with 32 opens for ``complete``, eight
points for ``enumerate``).  The canonical form has no command of its own,
so its relabeling refusal is fuzzed in the library: spaces near the cap,
as they are or with a few order pairs dropped or added.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitetop.cli import main
from finitetop.enumeration import (RELABELING_CAP, canonical_form,
                                   space_from_canonical)
from finitetop.errors import CapExceeded
from finitetop.spaces import FiniteSpace, _closure, alexandrov_topology
from fixtures import constant_zero_datum, datum_to_json, point_count_datum

KEYS = ("size", "opens", "points", "preorder", "leq", "base", "prim", "psi",
        "values", "domain", "codomain", "matrix", "generators", "relations",
        "f", "g", "groups", "maps", "even", "odd", "space", "cycles", "open",
        "set", "top", "right", "left", "bottom")


def small_json(top):
    leaves = (st.none() | st.booleans() | st.integers(-2, top)
              | st.sampled_from(["", "0", "0,1", "x"]))
    return st.recursive(
        leaves,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4)),
        max_leaves=12)


def paths(doc, prefix=()):
    """Every position inside a document, the whole document included."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from paths(value, prefix + (i,))


def replaced(doc, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(doc, dict):
        return {**doc, head: replaced(doc[head], rest, value)}
    return [replaced(v, rest, value) if i == head else v for i, v in enumerate(doc)]


@st.composite
def mutated(draw, seeds, top=6):
    """A seed as it is, with one part replaced, or random JSON outright."""
    doc = draw(st.sampled_from(seeds))
    choice = draw(st.integers(0, 7))
    if choice == 0:
        return draw(small_json(top))
    if choice <= 2:
        return doc
    path = draw(st.sampled_from(list(paths(doc))))
    return replaced(doc, path, draw(st.integers(-2, top) | small_json(top)))


class Twice(dict):
    """A JSON object whose text gives its first key again, last."""

    def items(self):
        pairs = list(super().items())
        return pairs + pairs[:1]


Z = {"generators": 1, "relations": []}
MOD2 = {"generators": 1, "relations": [[2]]}
ZERO = {"generators": 0, "relations": []}
SIERPINSKI = {"size": 2, "opens": [[], [0], [0, 1]], "points": ["a", "b"]}
NINTH = {"size": 4, "opens": [[], [0], [1], [0, 1], [0, 1, 2], [1, 3],
                              [0, 1, 3], [0, 1, 2, 3]]}
V_SHAPE = {"preorder": {"size": 3, "leq": [[0, 1], [2, 1]]}}
SPACES = [SIERPINSKI, NINTH, V_SHAPE,
          {"size": 2, "opens": [[], [0, 1]]}, Twice(SIERPINSKI)]
# five unrelated points have 32 opens, past the 16-open cap of complete
SMALL_SPACES = [{"preorder": {"size": 5}}, SIERPINSKI, V_SHAPE,
                {"size": 3, "opens": [[], [0], [0, 1, 2]]}]
ACTIONS = [{"base": NINTH, "prim": NINTH, "psi": [0, 1, 2, 3]},
           {"base": SIERPINSKI, "prim": V_SHAPE, "psi": [1, 0, 1]}]
ASSIGNMENTS = [{"base": NINTH, "prim": NINTH,
                "values": {"0": [0], "1": [1], "2": [0, 1, 2], "3": [1, 3]}},
               {"base": SIERPINSKI, "prim": SIERPINSKI,
                "values": {"0": [0], "1": [0, 1]}}]
MAPS = [{"domain": NINTH, "codomain": {"size": 1, "opens": [[], [0]]},
         "values": [0, 0, 0, 0]}]
HOM = {"domain": Z, "codomain": Z, "matrix": [[2]]}
POINT_COUNT = datum_to_json(point_count_datum(FiniteSpace.sierpinski()))
# the chaotic two-point space has groups on "" and "0,1" only: its points
# are not locally closed; the fourth datum spells the key "1" as "0_1"; the
# last has 3^20 locally closed sets and no group, refused from its keys
DATA = [POINT_COUNT,
        datum_to_json(constant_zero_datum(FiniteSpace.sierpinski())),
        datum_to_json(constant_zero_datum(FiniteSpace.chaotic(2))),
        dict(POINT_COUNT, groups={"0_1" if key == "1" else key: group
                                  for key, group in POINT_COUNT["groups"].items()}),
        {"space": {"preorder": {"size": 20}}, "groups": {}, "cycles": []}]
DOCS = {
    "snf": [{"matrix": [[2, 0], [0, 3]]}, [[4, 6], [2, 2]]],
    "exact": [{"f": HOM, "g": {"domain": Z, "codomain": MOD2, "matrix": [[1]]}}],
    "six-term": [{"groups": [MOD2, MOD2, ZERO, ZERO, ZERO, ZERO],
                  "maps": [[[1]], [], [], [], [], [[]]]}],
    "datum-verify": DATA,
    "two-point": [{"top": HOM, "right": HOM, "left": HOM, "bottom": HOM}],
}


@st.composite
def command(draw):
    """(argv, documents to write for it) for one random subcommand."""
    kind = draw(st.sampled_from(
        ("validate", "info", "soberify", "hasse", "to-preorder",
         "from-preorder", "complete", "enumerate", "action", "ktheory")))
    if kind == "enumerate":
        flags = draw(st.lists(st.sampled_from(
            ("--connected", "--t0", "--up-to-homeo", "--table", "--json")),
            unique=True, max_size=4))
        points = draw(st.integers(-2, 4) | st.just(8))
        return ["enumerate", "--points", str(points), *flags], []
    if kind in ("validate", "info", "soberify", "hasse"):
        extra = ["--dot"] if kind == "hasse" and draw(st.booleans()) else []
        return [kind, "{0}", *extra], [draw(mutated(SPACES))]
    if kind == "to-preorder":
        return ["alexandrov", "--to-preorder", "{0}"], [draw(mutated(SPACES))]
    if kind == "from-preorder":
        seeds = [V_SHAPE, V_SHAPE["preorder"]]
        return ["alexandrov", "--from-preorder", "{0}"], [draw(mutated(seeds))]
    if kind == "complete":
        return ["complete", "{0}"], [draw(mutated(SMALL_SPACES, top=3))]
    if kind == "action":
        mode = draw(st.sampled_from(
            ("check", "restrict", "pushforward", "filtrate", "reconstruct")))
        if mode == "reconstruct":
            return ["action", mode, "{0}"], [draw(mutated(ASSIGNMENTS))]
        argv = ["action", mode, "{0}"]
        docs = [draw(mutated(ACTIONS))]
        if mode == "pushforward" and draw(st.integers(0, 5)):
            argv.append("{1}")
            docs.append(draw(mutated(MAPS)))
        if mode == "restrict" and draw(st.integers(0, 5)):
            argv += ["--set", draw(st.sampled_from(("0", "0,1", "", "2,3", "x", "9")))]
        return argv, docs
    mode = draw(st.sampled_from(sorted(DOCS)))
    return ["ktheory", mode, "{0}"], [draw(mutated(DOCS[mode]))]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=command())
def test_cli_survives_bounded_fuzz(workdir, case):
    argv, docs = case
    names = []
    for i, doc in enumerate(docs):
        path = workdir / f"doc{i}.json"
        path.write_text(json.dumps(doc))
        names.append(str(path))
    argv = [arg.format(*names) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            assert exc.code == 2 and out.getvalue() == "", (argv, docs)
            return
    assert code in (0, 1, 2), (argv, docs)
    if code == 0:
        assert err.getvalue() == "", (argv, docs)
        return
    assert out.getvalue() == "", (argv, docs)
    reason = json.loads(err.getvalue())
    assert isinstance(reason, dict), (argv, docs)
    if code == 1:
        assert "error" in reason or reason.get("ok") is False, (argv, docs)
    else:
        assert reason["error"] in ("input", "io"), (argv, docs)


def two_chains(k):
    """Order pairs of k disjoint 2-chains: k! * k! relabelings, no twins."""
    return 2 * k, [(2 * i, 2 * i + 1) for i in range(k)]


# five chains are answered (216,000 steps); six and nine are refused
ORDER_SEEDS = [two_chains(5), two_chains(6), two_chains(9)]


@st.composite
def near_the_relabeling_cap(draw):
    size, pairs = draw(st.sampled_from(ORDER_SEEDS))
    kept = [p for p in pairs if draw(st.integers(0, 7))]
    point = st.integers(0, size - 1)
    added = draw(st.lists(st.tuples(point, point), max_size=2))
    return size, kept + added


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=near_the_relabeling_cap())
def test_canonical_form_answers_or_refuses_from_its_count(case):
    size, pairs = case
    space = alexandrov_topology(_closure(size, pairs))
    try:
        form = canonical_form(space)
    except CapExceeded as exc:
        assert exc.details["cap"] == RELABELING_CAP < exc.details["steps"]
    else:
        assert canonical_form(space_from_canonical(form)) == form
