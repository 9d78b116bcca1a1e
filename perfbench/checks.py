"""Compare a command's output with the op's expected result.

``check(op, code, out, err)`` returns True when the output matches.  It
reads the output the way a user would (the JSON on stdout or stderr) and
never calls finitetop.  Any mismatch, including output that does not
parse, is a failed op.
"""

import json


def _sets(lists):
    return sorted(sorted(x) for x in lists)


def _info(e, o):
    return (o["size"] == e["size"] and o["opens"] == e["opens"]
            and o["t0"] == e["t0"] and o["sober"] == e["t0"]
            and o["connected"] == e["connected"]
            and _sets(o["components"]) == e["components"]
            and o["length"] == e["length"] and o["strata"] == e["strata"])


def _soberify(e, o):
    closed = o["closed_sets"]
    return (_sets(closed) == _sets(e["closed_sets"])
            and o["space"]["size"] == len(e["closed_sets"])
            and [closed[i] for i in o["map"]] == e["closures"])


def _complete(e, o):
    return (len(o["filters"]) == e["points"] == o["space"]["size"]
            and len(o["space"]["opens"]) == e["opens"]
            and sorted(_sets(f) for f in o["filters"]) == e["filters"])


def _action_check(e, o):
    return o["ok"] is True and o["tight"] == e["tight"] and o["ideals"] == e["ideals"]


def _reconstruct(e, o):
    return (o["psi"] == e["psi"] and _sets(o["base"]["opens"]) == _sets(e["base"])
            and _sets(o["prim"]["opens"]) == _sets(e["prim"]))


def _snf(e, o):
    """U·A·V = D, D diagonal with d_i | d_(i+1), U and V unimodular."""
    a, u, d, v = e["matrix"], o["U"], o["D"], o["V"]
    if _mul(_mul(u, a), v) != d:
        return False
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    off = any(d[i][j] for i in range(len(d)) for j in range(len(d[i])) if i != j)
    chain = all(y % x == 0 if x else y == 0 for x, y in zip(diag, diag[1:]))
    return (not off and chain and all(x >= 0 for x in diag)
            and abs(_det(u)) == 1 and abs(_det(v)) == 1)


def _mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def _datum(e, o):
    failing = [[r["open"], r["set"]] for r in o["cycles"]["results"]
               if not r["report"]["ok"]]
    if failing != e["failing"] or o["ok"] != (e["code"] == 0):
        return False
    if any(r["report"]["first_failure"] != 1 for r in o["cycles"]["results"]
           if not r["report"]["ok"]):
        return False
    if e["propagation"]:
        return o["propagation"] == {"ok": True, "deviation": None}
    return o["propagation"] is None


JSON_CHECKS = {
    "info": _info,
    "validate": lambda e, o: o == e,
    "soberify": _soberify,
    "hasse": lambda e, o: o == e,
    "from_preorder": lambda e, o: (o["size"] == e["size"]
                                   and _sets(o["opens"]) == _sets(e["opens"])),
    "to_preorder": lambda e, o: (o["size"] == e["size"]
                                 and _sets(o["leq"]) == _sets(e["leq"])),
    "action_check": _action_check,
    "action_filtrate": lambda e, o: o == e,
    "action_reconstruct": _reconstruct,
    "complete": _complete,
    "snf": _snf,
    "census": lambda e, o: (o["count"] == e["count"] and o["labeled"] == e["labeled"]
                            and len(o["spaces"]) == e["count"]),
    "datum": _datum,
}


def check(op, code, out, err):
    """True when the command's exit code and output match the op's expectation."""
    kind, expect = op["check"], op["expect"]
    try:
        if kind == "refused":
            return code == expect["code"] and json.loads(err)["error"] == expect["error"]
        if kind == "datum":
            wanted = expect["code"]
            return code == wanted and _datum(expect, json.loads(out if wanted == 0 else err))
        return code == 0 and JSON_CHECKS[kind](expect, json.loads(out))
    except (ValueError, KeyError, TypeError, IndexError):
        return False
