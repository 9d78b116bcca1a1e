"""The command line's JSON writer against json.dumps(sort_keys=True, indent=2).

Every command writes through ``cli._dumps``, so its text must be the
standard library's byte for byte: sorted keys, ASCII with \\u escapes,
two-space indent, the same key conversion and the same exception class
for what neither can write.  Documents share sub-objects at one depth and
at several, since the writer copies a container met again at a depth as
text.  A PointSets, which json.dumps cannot write, must come out as the
standard library writes its sets as index lists, read off bit by bit.
"""

import contextlib
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitetop.cli import _dumps
from finitetop.jsonio import PointSets
from oracles import plain

# lone surrogates, C0 controls, DEL, a line separator and a non-BMP character
ODD_CHARACTERS = "\ud800\udbff\udc00\udfff\x00\x1f\x7f\u2028\U0001f600\xe9\\\""

strings = st.text(st.one_of(st.characters(), st.sampled_from(ODD_CHARACTERS)),
                  max_size=8)
numbers = st.one_of(st.integers(), st.floats(), st.booleans(),
                    # past the 4,300-digit int-to-str limit
                    st.integers(-9, 9).map(lambda k: k * 10 ** 4300 + k))
scalars = st.one_of(st.none(), numbers, strings)
# the keys of one object have one family, since json.dumps sorts them:
# strings; numbers (bool, int and float compare with each other); or None
key_families = [strings, numbers, st.none()]


def stdlib(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


@contextlib.contextmanager
def digit_limit_lifted():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def outcome(write, obj):
    """The text written, or the class of the exception raised."""
    try:
        with digit_limit_lifted():
            return write(obj)
    except Exception as exc:
        return type(exc)


def containers(children, keys):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        *[st.dictionaries(k, children, max_size=4) for k in keys])


def trees(leaves, keys):
    return st.recursive(leaves, lambda children: containers(children, keys),
                        max_leaves=12)


SHARED = object()


def placed(tree, shared):
    """The tree with each SHARED leaf replaced by the one object shared."""
    if tree is SHARED:
        return shared
    if isinstance(tree, dict):
        return {k: placed(v, shared) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return type(tree)(placed(v, shared) for v in tree)
    return tree


def documents(leaves=scalars, keys=key_families):
    """Trees whose leaves include one shared container, which also appears
    twice at one depth and once a level deeper."""
    def document(shared, tree):
        tree = placed(tree, shared)
        return {"tree": tree, "twice": [shared, shared], "deeper": [[shared]]}
    # hypothesis prints a strategy's arguments, so the shared object, whose
    # integers may pass the digit limit, is put in after drawing
    return st.builds(document, containers(trees(leaves, keys), keys),
                     trees(st.one_of(leaves, st.just(SHARED)), keys))


@settings(max_examples=150, deadline=None)
@given(documents())
def test_writer_writes_what_json_dumps_writes(doc):
    with digit_limit_lifted():
        assert _dumps(doc) == stdlib(doc)


class Count(int):
    """A trivial int subclass, which json.dumps writes as the int it is."""


# past the 4,300-digit int-to-str limit
huge_ints = st.integers(-9, 9).map(lambda k: k * 10 ** 4300 + k)
plain_ints = st.one_of(st.integers(), huge_ints)
# plain ints among items that send a list item by item: json.dumps writes
# true, not 1, and 1.0, not 1
int_like = st.one_of(plain_ints, st.booleans(), st.integers().map(Count),
                     st.floats())


def flat(items):
    return st.one_of(st.lists(items, max_size=6),
                     st.lists(items, max_size=6).map(tuple))


def int_documents():
    """Flat lists and tuples of ints, alone or mixed with int-like items,
    and one list of plain ints shared at one depth and at two."""
    def document(lists, shared):
        return {"lists": lists, "twice": [shared, shared],
                "deeper": [[shared], shared]}
    return st.builds(document,
                     st.lists(st.one_of(flat(plain_ints), flat(int_like)),
                              max_size=6),
                     st.lists(plain_ints, min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(int_documents())
def test_writer_writes_int_lists_as_json_dumps_writes(doc):
    with digit_limit_lifted():
        assert _dumps(doc) == stdlib(doc)


def rows(items):
    """Lists of rows, some empty: all lists, or lists and tuples mixed."""
    row = st.lists(items, max_size=4)
    mixed = st.one_of(row, row.map(tuple))
    return st.one_of(st.lists(row, max_size=5), st.lists(mixed, max_size=5))


def row_documents():
    """Lists of int rows, alone, with int-like items or tuples among them,
    nested three deep as the filters of a completion, and one row list
    shared at one depth and at two."""
    def document(tables, filters, shared):
        return {"tables": tables, "filters": filters,
                "twice": [shared, shared], "deeper": [[shared], shared]}
    tables = st.lists(st.one_of(rows(plain_ints), rows(int_like)), max_size=4)
    return st.builds(document, tables,
                     st.lists(st.lists(st.lists(plain_ints, max_size=3),
                                       max_size=3), max_size=3),
                     st.lists(st.lists(plain_ints, max_size=3), max_size=3))


@settings(max_examples=200, deadline=None)
@given(row_documents())
def test_writer_writes_lists_of_int_rows_as_json_dumps_writes(doc):
    with digit_limit_lifted():
        assert _dumps(doc) == stdlib(doc)


# masks of point sets on up to 63 points, with the empty set and the top point
masks = st.one_of(st.integers(0, (1 << 63) - 1), st.sampled_from([0, 1 << 62]))
point_sets = st.lists(masks, max_size=5).map(PointSets)


def point_set_documents():
    """PointSets inside dicts, lists and tuples, and one PointSets shared
    twice at one depth and once a level deeper."""
    def document(shared, tree):
        return {"tree": tree, "twice": [shared, shared], "deeper": [[shared]]}
    return st.builds(document, point_sets,
                     trees(st.one_of(scalars, point_sets), key_families))


@settings(max_examples=200, deadline=None)
@given(point_set_documents())
def test_writer_writes_point_sets_as_json_dumps_writes_their_index_lists(doc):
    with digit_limit_lifted():
        assert _dumps(doc) == stdlib(plain(doc))


@pytest.mark.parametrize("doc", [
    PointSets([]), PointSets([0]), [PointSets([0, 1 << 62, (1 << 63) - 1])],
    ({"opens": PointSets([0, 5, 3])}, PointSets([]))])
def test_writer_writes_the_point_set_edge_cases(doc):
    assert _dumps(doc) == stdlib(plain(doc))


def test_point_sets_are_not_written_as_numbers():
    # json.dumps cannot write a PointSets, so no writer puts masks out as
    # ints; _dumps refuses a mask that is not a set of points 0..62
    with pytest.raises(TypeError):
        json.dumps(PointSets([1, 2]))
    with pytest.raises(TypeError):
        json.dumps({"opens": PointSets([])})
    for mask in (-1, 1 << 63):
        with pytest.raises(ValueError):
            _dumps({"opens": PointSets([0, mask])})


INF = float("inf")
SHARED_ROWS = [[0, 1], [], [2]]


@pytest.mark.parametrize("doc", [
    [float("nan"), INF, -INF, -0.0, 1e16, 1.5, 10 ** 20],
    {float("nan"): 0, INF: 1, -INF: 2, 0.5: 3, 2: 4, -0.0: 5},
    {True: 0}, {False: "f", 2: "two"}, {None: []}, {"": {}, "é": ()},
    [[[]], [{}], ({"a": ()},)], "\ud800\x00é",
    [True, 1], (False, 0), [Count(3), 1], [1.0, 1], [[1, 2], [True]], (0, -2),
    [[]], [[], []], [[], [0], [0, 1]], [[1], [False]], [[2], [Count(2)]],
    [[0], [1.0]], [[1], [10 ** 4300 + 1]], [(0, 1), [2]], [(0,), ()],
    [[[], [0]], [[1]], []], [SHARED_ROWS, SHARED_ROWS, [SHARED_ROWS]]])
def test_writer_writes_the_edge_cases_json_dumps_writes(doc):
    # non-finite floats print as NaN and Infinity, even as keys, and
    # bool and None keys as true, false and null; a list goes in one join
    # only when every item is exactly an int, or a list of such lists
    with digit_limit_lifted():
        assert _dumps(doc) == stdlib(doc)


@settings(max_examples=100, deadline=None)
@given(scalars)
def test_writer_writes_a_bare_scalar(value):
    with digit_limit_lifted():
        assert _dumps(value) == stdlib(value)


unwritable = st.sampled_from([object(), {1, 2}, b"bytes", 1j, frozenset()])
any_keys = st.one_of(strings, numbers, st.none(), st.tuples(st.integers()))


@settings(max_examples=100, deadline=None)
@given(documents(leaves=st.one_of(scalars, unwritable), keys=[any_keys]))
def test_writer_fails_as_json_dumps_fails(doc):
    # keys of mixed families fail to sort, a tuple key cannot be written,
    # and neither can a set, bytes or a complex number
    assert outcome(_dumps, doc) == outcome(stdlib, doc)


@pytest.mark.parametrize("doc", [
    {1: 0, "a": 0}, {None: 0, 0: 0}, {(1,): 0}, [object()], {"a": {1, 2}},
    {"k": [1, {2: b"x"}]}])
def test_writer_raises_the_class_json_dumps_raises(doc):
    assert outcome(stdlib, doc) is TypeError
    assert outcome(_dumps, doc) is TypeError


def test_writer_needs_the_digit_limit_lifted():
    # the writer prints integers with int.__repr__, which keeps the limit;
    # cli._emit lifts it around the call
    big = [10 ** 5000]
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        with pytest.raises(ValueError):
            _dumps(big)
    with digit_limit_lifted():
        assert _dumps(big) == stdlib(big)
