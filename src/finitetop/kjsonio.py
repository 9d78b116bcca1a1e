"""JSON wire formats for groups and filtrated K-theory data.

Groups are presentations whose relations travel as a list of relator
vectors (one per relation, each of length ``generators``); homomorphisms
and six-term cycles are built on them, a filtrated datum is parsed into
groups and checked matrix rows for FiltratedKDatum to build, and the
reports of the exactness checks are written back.  Spaces, point sets
and matrix rows use the formats of ``jsonio``, with its split between
InputFormatError and the mathematical FinitetopError subclasses.  A group
with more than GENERATORS_CAP generators or relations is refused with
InputCapExceeded before anything is built for it.
"""

import marshal

from .errors import InputCapExceeded, InputFormatError
from .intmat import GENERATORS_CAP, IntMatrix
from .jsonio import (_int, _obj, carrier_from_key, carrier_key, indices,
                     matrix_rows, matrix_to_json, space_from_json)
from .ktheory import (FGAbelianGroup, FiltratedKDatum, GradedGroup, SixTermCycle,
                      _hom_from_rows)


# -- matrices and groups -------------------------------------------------------


def _presentation(obj):
    """(generators, relator columns as tuples) of a group object, checked."""
    obj = _obj(obj, "group")
    n = _int(obj.get("generators"), "generators")
    if n < 0:
        raise InputFormatError("generators must be nonnegative")
    if n > GENERATORS_CAP:
        raise InputCapExceeded(
            f"groups are capped at {GENERATORS_CAP} generators, got {n}",
            generators=n, cap=GENERATORS_CAP)
    relations = obj.get("relations", [])
    k = len(relations) if isinstance(relations, list) else 0
    if k > GENERATORS_CAP:
        raise InputCapExceeded(
            f"groups are capped at {GENERATORS_CAP} relations, got {k}",
            relations=k, cap=GENERATORS_CAP)
    relators = matrix_rows(relations, "relations")
    if relators and len(relators[0]) != n:
        raise InputFormatError("each relation needs one coordinate per generator")
    return n, tuple(map(tuple, relators))


def _group(presentation):
    n, relators = presentation
    return FGAbelianGroup(n, IntMatrix.from_columns(relators, rows=n))


def group_from_json(obj):
    """{"generators": n, "relations": [[c1, ..., cn], ...]}  (relations optional)"""
    return _group(_presentation(obj))


def invariants_to_json(group):
    rank, torsion = group.invariants()
    return {"rank": rank, "torsion": list(torsion)}


def hom_from_json(obj):
    """{"domain": group, "codomain": group, "matrix": [[...], ...]}"""
    obj = _obj(obj, "hom")
    domain = group_from_json(_obj(obj.get("domain"), "hom domain"))
    codomain = group_from_json(_obj(obj.get("codomain"), "hom codomain"))
    return _hom_from_rows(domain, codomain, matrix_rows(obj.get("matrix"), "matrix"))


def cycle_from_json(obj):
    """{"groups": [six groups], "maps": [six matrices]}"""
    obj = _obj(obj, "cycle")
    groups = obj.get("groups")
    maps = obj.get("maps")
    if not isinstance(groups, list) or len(groups) != 6:
        raise InputFormatError("a cycle needs exactly six groups")
    if not isinstance(maps, list) or len(maps) != 6:
        raise InputFormatError("a cycle needs exactly six maps")
    groups = [group_from_json(_obj(g, "cycle group")) for g in groups]
    return SixTermCycle([
        _hom_from_rows(groups[i], groups[(i + 1) % 6],
                       matrix_rows(maps[i], f"cycle map {i}"))
        for i in range(6)])


def square_from_json(obj):
    """{"top": hom, "right": hom, "left": hom, "bottom": hom}"""
    obj = _obj(obj, "square")
    out = []
    for side in ("top", "right", "left", "bottom"):
        out.append(hom_from_json(_obj(obj.get(side), f"{side} map")))
    return tuple(out)


# -- filtrated data ------------------------------------------------------------


def datum_from_json(obj):
    """A filtrated family of graded groups with its six-term cycles.

    {"space": space,
     "groups": {"0,1": {"even": group, "odd": group}, ...},
     "cycles": [{"open": "0", "set": "0,1", "maps": [six matrices]}, ...]}

    Carrier keys are comma-joined point indices in ASCII digits, "" for
    the empty set.  No carrier and no (open, set) pair may be given twice.
    Every group is read and every matrix checked before the datum is
    built, so malformed input is refused before any fault of the datum;
    FiltratedKDatum then checks the carriers and pairs, wires the cycles
    and builds their maps.  Each distinct key string is parsed once, and
    each distinct presentation is built and factored once: carriers with
    equal groups share one FGAbelianGroup.  Each distinct maps list, told
    apart by its marshal bytes, is checked and turned into one tuple of
    row tuples once, which the cycles that repeat it share, so
    FiltratedKDatum wires each distinct cycle once.  A list that marshal
    refuses, holding a list subclass, say, is read on its own.
    """
    obj = _obj(obj, "datum")
    space = space_from_json(_obj(obj.get("space"), "datum space"))
    masks = {}
    groups = {}

    def carrier(key):
        # a key that is not a string may not hash; carrier_from_key refuses it
        mask = masks.get(key) if type(key) is str else None
        if mask is None:
            mask = masks[key] = carrier_from_key(key, space.size)
        return mask

    def group(value, what):
        presentation = _presentation(_obj(value, what))
        g = groups.get(presentation)
        if g is None:
            g = groups[presentation] = _group(presentation)
        return g

    raw_groups = _obj(obj.get("groups"), "datum groups")
    assignment = {}
    for key, val in raw_groups.items():
        c = carrier(key)
        if c in assignment:
            raise InputFormatError(
                f"group key {key!r} repeats carrier {indices(c)}")
        val = _obj(val, "graded group")
        assignment[c] = GradedGroup(group(val.get("even"), "even part"),
                                    group(val.get("odd"), "odd part"))
    raw_cycles = obj.get("cycles")
    if not isinstance(raw_cycles, list):
        raise InputFormatError("datum needs a cycles list")
    read = {}
    cycles = {}
    for entry in raw_cycles:
        entry = _obj(entry, "cycle entry")
        u = carrier(entry.get("open"))
        y = carrier(entry.get("set"))
        if (u, y) in cycles:
            raise InputFormatError(
                f"cycle ({entry.get('open')!r}, {entry.get('set')!r}) repeats "
                f"the pair ({indices(u)}, {indices(y)})")
        maps = entry.get("maps")
        if not isinstance(maps, list) or len(maps) != 6:
            raise InputFormatError("each cycle entry needs six maps")
        # the bytes tell true and 1.0 from 1, and version 2 writes no
        # back-references: equal bytes were checked where first met
        try:
            packed = marshal.dumps(maps, 2)
        except ValueError:
            packed = id(maps)
        rows = read.get(packed)
        if rows is None:
            rows = read[packed] = tuple(
                tuple(map(tuple, matrix_rows(m, f"cycle map {i}")))
                for i, m in enumerate(maps))
        cycles[(u, y)] = rows
    return FiltratedKDatum(space, assignment, cycles)


# -- reports -------------------------------------------------------------------


def exactness_to_json(report):
    return {"ok": report.ok, "reason": report.reason, "witness": report.witness}


def cycle_report_to_json(report, node_to_json=exactness_to_json):
    first = report.first_failure()
    return {"ok": report.ok,
            "nodes": [node_to_json(n) for n in report.nodes],
            "first_failure": None if first is None else first[0]}


def datum_report_to_json(report):
    """The report with one node object per distinct verdict.

    verify_datum shares one verdict per distinct node, one for all exact
    nodes, and one CycleReport per tuple of verdicts, so node objects are
    keyed by the verdicts' identities and cycle objects by the reports':
    shared, each is written once.  Each carrier's key is named once.
    """
    nodes = {}
    cycles = {}
    names = {}

    def node_to_json(n):
        out = nodes.get(id(n))
        if out is None:
            out = nodes[id(n)] = exactness_to_json(n)
        return out

    def name(mask):
        key = names.get(mask)
        if key is None:
            key = names[mask] = carrier_key(mask)
        return key

    results = []
    for (u, y), rep in report.results:
        cycle = cycles.get(id(rep))
        if cycle is None:
            cycle = cycles[id(rep)] = cycle_report_to_json(rep, node_to_json)
        results.append({"open": name(u), "set": name(y), "report": cycle})
    return {"ok": report.ok, "results": results}


def propagation_to_json(report):
    if report.ok:
        return {"ok": True, "deviation": None}
    carrier, (u, y) = report.deviation
    return {"ok": False,
            "deviation": {"carrier": indices(carrier),
                          "step": [indices(u), indices(y)]}}


def two_point_to_json(report):
    return {"delta": matrix_to_json(report.delta.matrix),
            "kernel": invariants_to_json(report.kernel),
            "cokernel": invariants_to_json(report.cokernel),
            "middle": (None if report.middle is None
                       else invariants_to_json(report.middle)),
            "note": report.note}
