"""JSON wire formats for spaces, maps, point sets, matrix rows and errors.

Point sets travel as sorted lists of 0-based indices (a family is written
from a PointSets of masks) or as comma-joined keys, and matrices as
row-major integer lists.  Structural problems raise
InputFormatError; inputs that parse but fail a mathematical check (a
family that is not a topology, a map that is not continuous) raise the
usual FinitetopError subclasses so callers can tell the two apart.  A
space with more than MAX_POINTS points and an opens list longer than
OPEN_FAMILY_CAP are refused with InputCapExceeded, which is both kinds,
before anything is built for them.

Nothing here needs the group or action modules, so the space commands
load none of them; their formats live in ``kjsonio`` and ``ajsonio``.
"""

from itertools import chain, compress, count, repeat

from .errors import InputCapExceeded, InputFormatError
from .spaces import (MAX_POINTS, OPEN_FAMILY_CAP, ContinuousMap, FiniteSpace,
                     alexandrov_topology, bits)


def _obj(value, what):
    if not isinstance(value, dict):
        raise InputFormatError(f"{what} must be a JSON object")
    return value


def _int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(f"{what} must be an integer")
    return value


def _size(obj, what):
    n = _int(obj.get("size"), f"{what} size")
    if n < 0:
        raise InputFormatError(f"{what} size must be nonnegative")
    if n > MAX_POINTS:
        raise InputCapExceeded(
            f"spaces are capped at {MAX_POINTS} points, got {n}",
            size=n, cap=MAX_POINTS)
    return n


def _mask(value, size, what):
    if not isinstance(value, list):
        raise InputFormatError(f"{what} must be a list of point indices")
    m = 0
    for v in value:
        i = _int(v, f"{what} entry")
        if not 0 <= i < size:
            raise InputFormatError(f"{what} index {i} out of range for size {size}")
        if m >> i & 1:
            raise InputFormatError(f"{what} repeats index {i}")
        m |= 1 << i
    return m


def _masks(opens, size):
    """Masks of opens: in C for lists of distinct ints in range, else by _mask,
    which is 47% slower on census space reads (BENCH_36.json extra.audit.masks_in_c)."""
    if ({list}.issuperset(map(type, opens))
            and {int}.issuperset(map(type, chain.from_iterable(opens)))
            and set(range(size)).issuperset(chain.from_iterable(opens))):
        masks = list(map(sum, map(map, repeat(_POWERS.__getitem__), opens)))
        if sum(map(int.bit_count, masks)) == sum(map(len, opens)):  # repeats carry
            return masks
    return [_mask(u, size, "open set") for u in opens]


def _labels(value, size):
    """Display labels: None, or strings or integers, one per point, unique as text."""
    if value is None:
        return None
    if not isinstance(value, list) or len(value) != size:
        raise InputFormatError(f"points must list one label per point ({size})")
    for label in value:
        if isinstance(label, bool) or not isinstance(label, (str, int)):
            raise InputFormatError(
                f"point label {label!r} is not a string or an integer")
    if len(set(map(str, value))) != size:
        raise InputFormatError("point labels must be unique as text")
    return tuple(value)


def _index(text):
    """The point index that text spells in ASCII digits alone, else None."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # past the interpreter's digit limit
        return None


_BIT = bytes.maketrans(b"01", b"\x00\x01")
_POWERS = [1 << i for i in range(MAX_POINTS)]


def _bit_bytes(mask):
    """mask >= 0 as bytes 0 and 1, low bit first, for compress to select by."""
    return bin(mask)[:1:-1].encode().translate(_BIT)


def indices(mask):
    """The indices of the set bits of mask >= 0, ascending, as a list, in C."""
    return list(compress(count(), _bit_bytes(mask)))


class PointSets:
    """A family of point sets as masks, which ``cli._dumps`` writes as index
    lists; not a list, so ``json.dumps`` refuses it, never writing a mask."""

    __slots__ = ("masks",)

    def __init__(self, masks):
        self.masks = tuple(masks)


# -- spaces and maps -----------------------------------------------------------


def space_from_json(obj):
    """A space, either as an open-set family or as a preorder.

    {"size": n, "opens": [[0], [0, 1], ...]}  or
    {"preorder": {"size": n, "leq": [[x, y], ...]}}   (diagonal implied)

    Either form may carry "points", a list of display labels: strings or
    integers, one per point, no two with the same text.  The preorder form
    carries it beside "preorder" or inside it, beside "size", not both.
    """
    obj = _obj(obj, "space")
    if "preorder" in obj:
        pre = _obj(obj["preorder"], "preorder")
        n = _size(pre, "preorder")
        outer, inner = obj.get("points"), pre.get("points")
        if outer is not None and inner is not None:
            raise InputFormatError(
                "points is given both beside and inside preorder")
        labels = _labels(inner if outer is None else outer, n)
        leq = pre.get("leq", [])
        if not isinstance(leq, list):
            raise InputFormatError("leq must be a list of [x, y] pairs")
        rows = [1 << x for x in range(n)]
        for pair in leq:
            if not isinstance(pair, list) or len(pair) != 2:
                raise InputFormatError("leq entries must be [x, y] pairs")
            x = _int(pair[0], "leq point")
            y = _int(pair[1], "leq point")
            if not (0 <= x < n and 0 <= y < n):
                raise InputFormatError(f"leq pair [{x}, {y}] out of range")
            rows[x] |= 1 << y
        space = alexandrov_topology(rows)
        return space if labels is None else space.with_labels(labels)
    n = _size(obj, "space")
    labels = _labels(obj.get("points"), n)
    opens = obj.get("opens")
    if not isinstance(opens, list):
        raise InputFormatError("space needs an opens list")
    if len(opens) > OPEN_FAMILY_CAP:
        raise InputCapExceeded(
            f"open families are capped at {OPEN_FAMILY_CAP} sets, got {len(opens)}",
            opens=len(opens), cap=OPEN_FAMILY_CAP)
    masks = _masks(opens, n)
    del obj, opens  # the parsed lists go before the family is checked
    return FiniteSpace(n, masks, labels)


def space_to_json(space):
    """{"size": n, "opens": PointSets}, with "points" for a labeled space."""
    out = {"size": space.size, "opens": PointSets(space.opens)}
    if space.labels is not None:
        out["points"] = list(space.labels)
    return out


def preorder_to_json(space):
    """The specialisation preorder of space: x <= y for each y in U_x, y != x.

    A labeled space keeps its labels as "points" beside size and leq.
    """
    out = {"size": space.size,
           "leq": [[x, y] for x, row in enumerate(space.rows)
                   for y in bits(row) if x != y]}
    if space.labels is not None:
        out["points"] = list(space.labels)
    return out


def map_from_json(obj):
    """{"domain": space, "codomain": space, "values": [f(0), f(1), ...]}"""
    obj = _obj(obj, "map")
    domain = space_from_json(_obj(obj.get("domain"), "map domain"))
    codomain = space_from_json(_obj(obj.get("codomain"), "map codomain"))
    values = obj.get("values")
    if not isinstance(values, list) or len(values) != domain.size:
        raise InputFormatError("map values must list one point per domain point")
    values = [_int(v, "map value") for v in values]
    for v in values:
        if not 0 <= v < codomain.size:
            raise InputFormatError(f"map value {v} out of range")
    return ContinuousMap(domain, codomain, values)


# -- matrices ------------------------------------------------------------------


def matrix_rows(value, what="matrix"):
    """value, once checked to be rows of integers, all lists of one length."""
    if not isinstance(value, list):
        raise InputFormatError(f"{what} must be a list of rows")
    for row in value:
        if not isinstance(row, list):
            raise InputFormatError(f"{what} rows must be lists")
        for v in row:
            if type(v) is not int:
                raise InputFormatError(f"{what} entry must be an integer")
    if len({len(r) for r in value}) > 1:
        raise InputFormatError(f"{what} rows have differing lengths")
    return value


def matrix_to_json(m):
    return [list(row) for row in m.entries]


# -- point sets as keys --------------------------------------------------------


def carrier_key(mask):
    return ",".join(str(i) for i in indices(mask))


def carrier_from_key(key, size):
    if not isinstance(key, str):
        raise InputFormatError("carrier keys must be strings")
    if key == "":
        return 0
    parts = [_index(piece) for piece in key.split(",")]
    if None in parts:
        raise InputFormatError(f"bad carrier key {key!r}")
    return _mask(parts, size, f"carrier {key!r}")


# -- errors --------------------------------------------------------------------


def error_to_json(exc):
    return {"error": exc.name, "message": str(exc.args[0]) if exc.args else "",
            "details": exc.details}
