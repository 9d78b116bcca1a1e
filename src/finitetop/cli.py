"""Batch command line: spaces in, JSON (or DOT) out.

Exit codes: 0 on success, 1 when a mathematical check fails (the reason
goes to standard error as JSON), 2 for malformed input or usage, 141
(128 + SIGPIPE) with nothing written when standard output closes early.
File arguments accept "-" for standard input.  All JSON output has sorted
keys, so identical inputs give identical bytes.  A JSON object that gives
one key twice is malformed input.

A command returns its result, a JSON document or text, and ``main``
alone writes it: text and documents go to standard output with exit 0,
except a document whose top-level "ok" is false, which goes to standard
error with exit 1.

Each command imports the modules it runs when it starts, so a command on
spaces loads no enumeration, completion, action or group code, an action
command no group code, and a group command no action code.
"""

import argparse
import json
import os
import sys
from functools import cache
from itertools import compress
from json.encoder import encode_basestring_ascii as _string

from . import jsonio
from .errors import FinitetopError, InputCapExceeded, InputFormatError
from .jsonio import PointSets, _bit_bytes, _obj, indices
from .spaces import MAX_POINTS, bits, hasse_dot, sorted_family


def _json_object(pairs):
    """The object of the (key, value) pairs, refusing a key given twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise InputFormatError(f"JSON object repeats the key {key!r}")
            seen.add(key)
    return obj


def _read_json(path):
    # undecodable bytes, over-long integer literals and over-deep nesting
    # are malformed input too, not just syntax errors
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        return json.loads(text, object_pairs_hook=_json_object)
    except (ValueError, RecursionError) as exc:
        raise InputFormatError(f"invalid JSON in {path}: {exc}")


def _key_text(k):
    # json.dumps turns these keys into the text it writes for them as values
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {k.__class__.__name__}")


_INT = {int}  # the item types of a list that is written in one join


def _dumps(obj):
    """The text of json.dumps(obj, sort_keys=True, indent=2), written faster,
    with each PointSets in obj written as the list of its sets' index lists.

    The standard library encodes in C only when indent is None.  This
    writer lays out the containers itself, appending to one list, and
    leaves strings and other scalars to the C encoder; it raises the
    TypeError json.dumps raises for a value or a key it cannot write.  A
    PointSets goes out in one piece straight from its masks: the bit
    bytes of each mask select its index texts, made once per depth, in C;
    a mask below 0 or with a bit at MAX_POINTS or past raises ValueError.
    A list or tuple of plain ints is written in one join; a bool or an
    int subclass among the items sends them item by item, since
    json.dumps writes those otherwise.  An object, not a list, met again
    at a depth where it was written before is copied as text, so a verdict
    shared by many cycles is written once; written anew, it makes the
    datum commands 45% slower (BENCH_36.json extra.audit.object_memo).  A
    document that contains itself ends in RecursionError, where json.dumps
    raises ValueError.
    """
    out = []
    put = out.append
    breaks = ["\n"]
    index_texts = {}  # depth of a PointSets -> the texts of its indices
    # (id, depth) -> (start, end) of the object's chunks in out, then its
    # text once it is met again; held keeps every id in use for the call,
    # and the memo holds ints alone, which the garbage collector skips
    memo = {}
    held = []

    def value(v, depth, lead):
        # lead, the text before v on its line, and v as one chunk if it can
        t = type(v)
        if t is str:
            put(lead + _string(v))
        elif t is int:
            put(lead + int.__repr__(v))
        elif t is bool:
            put(lead + ("true" if v else "false"))
        elif v is None:
            put(lead + "null")
        elif not isinstance(v, (list, tuple, dict)):
            # a PointSets; floats, subclasses and what cannot be written:
            # json.dumps without indent writes a scalar, or raises, in C
            put(lead + (point_sets(v.masks, depth) if t is PointSets
                        else json.dumps(v)))
        elif v:
            put(lead)
            container(v, depth)
        else:
            put(lead + ("{}" if isinstance(v, dict) else "[]"))

    def point_sets(masks, depth):
        # a set's bit bytes select its index texts, each with the comma and
        # line break before it, from the texts of its depth
        if not masks:
            return "[]"
        if min(masks) < 0 or max(masks) >> MAX_POINTS:
            raise ValueError(f"a point set mask must lie in [0, 2**{MAX_POINTS})")
        while len(breaks) < depth + 3:
            breaks.append(breaks[-1] + "  ")
        inner = breaks[depth + 1]
        texts = index_texts.get(depth)
        if texts is None:
            deep = "," + breaks[depth + 2]
            texts = index_texts[depth] = tuple([deep + str(i) for i in range(MAX_POINTS)])
        tail = inner + "]"
        return "[" + inner + ("," + inner).join([
            "[" + "".join(compress(texts, _bit_bytes(m)))[1:] + tail if m else "[]"
            for m in masks]) + breaks[depth] + "]"

    def container(o, depth):
        if len(breaks) == depth + 1:
            breaks.append(breaks[depth] + "  ")
        inner = breaks[depth + 1]
        sep = "," + inner
        if not isinstance(o, dict):
            if set(map(type, o)) == _INT:  # not one bool: True is not 1
                put("[" + inner + sep.join(map(int.__repr__, o)) + breaks[depth] + "]")
                return
            head = "[" + inner
            for v in o:
                value(v, depth + 1, head)
                head = sep
            put(breaks[depth] + "]")
            return
        key = (id(o), depth)
        seen = memo.get(key)
        if seen is not None:
            if type(seen) is tuple:
                seen = memo[key] = "".join(out[seen[0]:seen[1]])
            put(seen)
            return
        start = len(out)
        head = "{" + inner
        for k, v in sorted(o.items()):
            key_text = _string(k if type(k) is str else _key_text(k))
            value(v, depth + 1, head + key_text + ": ")
            head = sep
        put(breaks[depth] + "}")
        memo[key] = (start, len(out))
        held.append(o)

    value(obj, 0, "")
    return "".join(out)


def _emit(obj, stream=None):
    # computed integers, such as Smith normal form transforms, may pass the
    # interpreter's int-to-str limit, which guards parsing input alone
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        print(_dumps(obj), file=stream or sys.stdout)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _names(space, mask):
    if space.labels is not None:
        return [space.labels[i] for i in bits(mask)]
    return indices(mask)


# -- space commands ------------------------------------------------------------


def _cmd_validate(args):
    space = jsonio.space_from_json(_read_json(args.space))
    return {"ok": True, "size": space.size, "opens": space.open_count()}


def _cmd_info(args):
    space = jsonio.space_from_json(_read_json(args.space))
    t0 = space.is_t0()
    filt = space.canonical_filtration() if t0 else None
    components = space.connected_components()
    return {
        "size": space.size,
        "opens": space.open_count(),
        "t0": t0,
        "sober": space.is_sober(),
        "connected": len(components) == 1,
        "components": [_names(space, c) for c in components],
        "length": filt.length if t0 else None,
        "strata": [_names(space, s) for s in filt.strata] if t0 else None,
    }


def _cmd_soberify(args):
    space = jsonio.space_from_json(_read_json(args.space))
    hat, iota = space.sobrification()
    return {"space": jsonio.space_to_json(hat),
            "map": list(iota.assignment),
            "closed_sets": [_names(space, c)
                            for c in space.irreducible_closed_sets()]}


def _cmd_alexandrov(args):
    obj = _read_json(args.file)
    if args.from_preorder:
        if isinstance(obj, dict) and "preorder" not in obj:
            obj = {"preorder": obj}
        return jsonio.space_to_json(jsonio.space_from_json(obj))
    return jsonio.preorder_to_json(jsonio.space_from_json(obj))


def _cmd_enumerate(args):
    from .enumeration import (census, enumerate_labeled_t0,
                              enumerate_labeled_topologies, space_from_canonical)
    if args.up_to_homeo:
        row = census(args.points, connected=args.connected, t0=args.t0)
        spaces = [space_from_canonical(f) for f in row.classes]
        count, labeled = row.class_count(), row.labeled_count
    else:
        if args.t0:
            spaces = list(enumerate_labeled_t0(args.points))
        else:
            spaces = list(enumerate_labeled_topologies(args.points))
        if args.connected:
            spaces = [s for s in spaces if s.is_connected()]
        count = labeled = len(spaces)
    if args.table:
        lines = [f"{'idx':>5}  {'points':>6}  {'opens':>5}  {'t0':>5}  connected"]
        lines += [f"{i:>5}  {s.size:>6}  {s.open_count():>5}  "
                  f"{str(s.is_t0()).lower():>5}  {str(s.is_connected()).lower()}"
                  for i, s in enumerate(spaces)]
        lines.append(f"count: {count}  labeled: {labeled}")
        return "".join(line + "\n" for line in lines)
    return {"count": count, "labeled": labeled,
            "spaces": [jsonio.space_to_json(s) for s in spaces]}


def _cmd_hasse(args):
    space = jsonio.space_from_json(_read_json(args.space))
    if args.dot:
        return hasse_dot(space)
    return {"edges": [list(e) for e in space.hasse_edges()]}


def _cmd_complete(args):
    from .completion import build_yprime, neighborhood_filter_embedding
    space = jsonio.space_from_json(_read_json(args.space))
    completion = build_yprime(space)
    emb = neighborhood_filter_embedding(completion)
    return {"space": jsonio.space_to_json(completion.space),
            "embedding": list(emb.assignment),
            "filters": [PointSets(sorted_family(p)) for p in completion.points]}


# -- action commands -----------------------------------------------------------


def _cmd_action(args):
    from . import ajsonio
    from .action import (filtration_of_action, fiber_support, is_tight,
                         minimal_ideals, pushforward, reconstruct, restrict)
    action = None
    if args.mode in ("check", "restrict", "pushforward", "filtrate"):
        action = ajsonio.action_from_json(_read_json(args.file))
    if args.mode == "check":
        return {"ok": True, "tight": is_tight(action),
                "ideals": {str(x): indices(m)
                           for x, m in sorted(minimal_ideals(action).items())}}
    if args.mode == "restrict":
        carrier = jsonio.carrier_from_key(args.set, action.base.size)
        small = restrict(action, carrier)
        return {"action": ajsonio.action_to_json(small),
                "base_points": indices(carrier),
                "prim_points": indices(action.psi.preimage(carrier))}
    if args.mode == "pushforward":
        f = jsonio.map_from_json(_read_json(args.extra))
        return ajsonio.action_to_json(pushforward(f, action))
    if args.mode == "filtrate":
        filt = action.base.canonical_filtration()
        supports = filtration_of_action(action)
        rows = []
        for stratum, sup in zip(filt.strata, supports):
            rows.append({"stratum": indices(stratum),
                         "support": indices(sup),
                         "fibers": PointSets(fiber_support(action, x)
                                             for x in bits(stratum))})
        return {"layers": PointSets(filt.layers), "strata": rows}
    base, values, prim = ajsonio.assignment_from_json(_read_json(args.file))
    return ajsonio.action_to_json(reconstruct(base, values, prim))


# -- group commands ------------------------------------------------------------


def _cmd_ktheory(args):
    obj = _read_json(args.file)
    if args.mode == "snf":
        from .intmat import GENERATORS_CAP, IntMatrix, smith_normal_form
        if isinstance(obj, dict):
            obj = obj.get("matrix")
        rows = jsonio.matrix_rows(obj)
        cols = len(rows[0]) if rows else 0
        if max(len(rows), cols) > GENERATORS_CAP:
            raise InputCapExceeded(
                f"snf matrices are capped at {GENERATORS_CAP} rows and "
                f"columns, got {len(rows)} x {cols}",
                rows=len(rows), columns=cols, cap=GENERATORS_CAP)
        u, d, v = smith_normal_form(IntMatrix(rows))
        return {"U": jsonio.matrix_to_json(u), "D": jsonio.matrix_to_json(d),
                "V": jsonio.matrix_to_json(v)}
    from . import kjsonio
    from .ktheory import (is_exact_at, two_point_sequence,
                          vanishing_propagation, verify_datum, verify_six_term)
    if args.mode == "exact":
        if not isinstance(obj, dict):
            raise InputFormatError("expected an object with f and g")
        f, g = (kjsonio.hom_from_json(_obj(obj.get(k), f"{k} map")) for k in "fg")
        return kjsonio.exactness_to_json(is_exact_at(f, g))
    if args.mode == "six-term":
        return kjsonio.cycle_report_to_json(
            verify_six_term(kjsonio.cycle_from_json(obj)))
    if args.mode == "datum-verify":
        datum = kjsonio.datum_from_json(obj)
        cycles = verify_datum(datum)
        out = {"cycles": kjsonio.datum_report_to_json(cycles),
               "propagation": None, "ok": cycles.ok}
        # the vanishing bootstrap needs a zero group on every point (so T0)
        if datum.space.is_t0() and all(datum.assignment[1 << x].is_zero()
                                       for x in range(datum.space.size)):
            prop = vanishing_propagation(datum)
            out["propagation"] = kjsonio.propagation_to_json(prop)
            out["ok"] = cycles.ok and prop.ok
        return out
    top, right, left, bottom = kjsonio.square_from_json(obj)
    return kjsonio.two_point_to_json(two_point_sequence(top, right, left, bottom))


# -- wiring --------------------------------------------------------------------


@cache
def build_parser():
    """The argument parser, built once per process: uncached, the datum
    commands take 33% longer (BENCH_36.json extra.audit.build_parser)."""
    parser = argparse.ArgumentParser(
        prog="finitetop",
        description="Finite topological spaces, lattice actions, and "
                    "exact-sequence bookkeeping.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check that a file describes a topology")
    p.add_argument("space")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("info", help="basic invariants of a space")
    p.add_argument("space")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("soberify", help="space of irreducible closed sets")
    p.add_argument("space")
    p.set_defaults(func=_cmd_soberify)

    p = sub.add_parser("alexandrov",
                       help="convert between preorders and their open-set spaces")
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--from-preorder", action="store_true")
    direction.add_argument("--to-preorder", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=_cmd_alexandrov)

    p = sub.add_parser("enumerate", help="list spaces on a fixed point count")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--t0", action="store_true")
    p.add_argument("--up-to-homeo", action="store_true")
    form = p.add_mutually_exclusive_group()
    form.add_argument("--json", dest="table", action="store_false")
    form.add_argument("--table", dest="table", action="store_true")
    p.set_defaults(func=_cmd_enumerate, table=False)

    p = sub.add_parser("hasse", help="cover edges of a T0 space")
    p.add_argument("space")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=_cmd_hasse)

    p = sub.add_parser("complete",
                       help="filter completion and the embedding into it")
    p.add_argument("space")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("action", help="operations on actions over a base space")
    p.add_argument("mode", choices=("check", "restrict", "pushforward",
                                    "filtrate", "reconstruct"))
    p.add_argument("file")
    p.add_argument("extra", nargs="?",
                   help="map file for pushforward")
    p.add_argument("--set", default=None,
                   help="carrier for restrict, comma-joined indices")
    p.set_defaults(func=_cmd_action)

    p = sub.add_parser("ktheory", help="integer matrix and exactness checks")
    p.add_argument("mode", choices=("snf", "exact", "six-term",
                                    "datum-verify", "two-point"))
    p.add_argument("file")
    p.set_defaults(func=_cmd_ktheory)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "mode", None) == "restrict" and args.set is None:
        parser.error("restrict needs --set")
    if getattr(args, "mode", None) == "pushforward" and args.extra is None:
        parser.error("pushforward needs a map file")
    if getattr(args, "points", 0) < 0:
        parser.error(f"--points must be nonnegative, got {args.points}")
    try:
        out = args.func(args)
        if not isinstance(out, str) and not out.get("ok", True):
            _emit(out, stream=sys.stderr)
            return 1
        try:
            if isinstance(out, str):
                sys.stdout.write(out)
            else:
                _emit(out)
            sys.stdout.flush()
        except BrokenPipeError:
            # the rest of the buffer goes nowhere, as in the signal docs' note
            # on SIGPIPE; main also runs in other programs, so sets no handler
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            return 141
        return 0
    except InputFormatError as exc:
        out = {"error": "input", "message": str(exc)}
        if isinstance(exc, FinitetopError):  # an input cap names its limit
            out["details"] = exc.details
        _emit(out, stream=sys.stderr)
        return 2
    except OSError as exc:
        _emit({"error": "io", "message": str(exc)}, stream=sys.stderr)
        return 2
    except FinitetopError as exc:
        _emit(jsonio.error_to_json(exc), stream=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
