"""JSON wire formats for actions over a base and their ideal assignments.

Both are spaces plus point data, in the formats of ``jsonio``; nothing
here needs group code, so the action commands load none of it.
"""

from .action import ActionOverX
from .errors import InputFormatError
from .jsonio import _index, _int, _mask, _obj, space_from_json, space_to_json
from .spaces import ContinuousMap


def action_from_json(obj):
    """{"base": space, "prim": space, "psi": [values of the structure map]}"""
    obj = _obj(obj, "action")
    base = space_from_json(_obj(obj.get("base"), "action base"))
    prim = space_from_json(_obj(obj.get("prim"), "action prim"))
    values = obj.get("psi")
    if not isinstance(values, list) or len(values) != prim.size:
        raise InputFormatError("psi must list one base point per prim point")
    values = [_int(v, "psi value") for v in values]
    for v in values:
        if not 0 <= v < base.size:
            raise InputFormatError(f"psi value {v} out of range")
    return ActionOverX(base, prim, ContinuousMap(prim, base, values))


def action_to_json(action):
    return {"base": space_to_json(action.base),
            "prim": space_to_json(action.prim),
            "psi": list(action.psi.assignment)}


def assignment_from_json(obj):
    """{"base": space, "prim": space, "values": {"x": [prim indices], ...}}

    Returns (base, values, prim), values mapping each base point to a mask
    of prim.  Keys are base point indices written in ASCII digits; every
    base point must appear, and only once.
    """
    obj = _obj(obj, "assignment")
    base = space_from_json(_obj(obj.get("base"), "assignment base"))
    prim = space_from_json(_obj(obj.get("prim"), "assignment prim"))
    raw = _obj(obj.get("values"), "assignment values")
    values = {}
    for key, val in raw.items():
        x = _index(key)
        if x is None:
            raise InputFormatError(f"assignment key {key!r} is not a point index")
        if not 0 <= x < base.size:
            raise InputFormatError(f"assignment key {x} out of range")
        if x in values:
            raise InputFormatError(f"assignment key {key!r} repeats base point {x}")
        values[x] = _mask(val, prim.size, f"ideal at {x}")
    missing = [x for x in range(base.size) if x not in values]
    if missing:
        raise InputFormatError(f"assignment misses base points {missing}")
    return base, values, prim
