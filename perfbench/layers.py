"""Outside-in tracing: wrap finitetop's public functions and record spans.

Each wrapper records a span (name, parent, start, end, raised) in flat
arrays.  The spans of one op stay in memory until the op ends, when
``fold`` turns them into per-name call counts, self time and raised
counts; that keeps memory bounded by the largest op, not the run.

Self time of a span is its duration minus the durations of its direct
children.  Calls nest on one thread, so children never overlap and the
sum of their durations is the part of the parent they cover.

A few bit helpers (``spaces.bits`` and friends) are left unwrapped: they
run millions of times per op, so wrapping them would mostly measure the
wrapper.  Their time counts as self time of whichever function called
them.
"""

import functools
import inspect
from array import array
from time import perf_counter

MODULES = ("enumeration", "spaces", "intmat", "ktheory", "jsonio",
           "completion", "action", "lattice", "cli")

SKIP = {"spaces.bits", "spaces.mask_of", "spaces.family_key",
        "jsonio.indices", "jsonio.carrier_key"}

# Class methods traced besides module-level functions; __init__ is
# reported as ``init``.
METHODS = {
    "intmat": {"IntMatrix": ("__init__",)},
    "ktheory": {"GroupHom": ("__init__",), "FGAbelianGroup": ("__init__",)},
    "spaces": {"FiniteSpace": ("irreducible_closed_sets",)},
}

# (inner, outer): calls of inner made from inside a call of outer, for
# ratios such as Smith normal forms per exactness check.
NESTED = (("intmat.smith_normal_form", "ktheory.is_exact_at"),
          ("intmat.smith_normal_form", "ktheory.verify_six_term"),
          ("enumeration.canonical_form", "enumeration.census"))

ROOT = -1


class Spans:
    """Flat span storage for one op at a time."""

    def __init__(self):
        self.names = []
        self.ids = {}
        self.clear()

    def clear(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = set()
        self.current = ROOT

    def name_id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, name_id):
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.current = index
        self.start.append(perf_counter())
        return index

    def close(self, index, raised=False):
        self.end[index] = perf_counter()
        self.current = self.parent[index]
        if raised:
            self.raised.add(index)

    def __len__(self):
        return len(self.start)


def self_times(parent, start, end):
    """Self time of every span: duration minus its direct children's."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p != ROOT:
            own[p] -= end[i] - start[i]
    return own


def has_ancestor(parent, name, index, target):
    p = parent[index]
    while p != ROOT:
        if name[p] == target:
            return True
        p = parent[p]
    return False


class Tracer:
    """Installs wrappers and accumulates per-name totals across ops."""

    def __init__(self):
        self.spans = Spans()
        self.calls = {}
        self.self_s = {}
        self.raised = {}
        self.extra = {}  # counts gathered from arguments and results
        self.span_count = 0
        self._hooks = {}

    # -- installation -------------------------------------------------------

    def install(self, package):
        """Wrap every traced callable and patch each module that holds it."""
        modules = [getattr(package, m) for m in MODULES]
        replaced = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in SKIP
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                replaced[fn] = self._wrap(fn, name)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    label = "init" if meth == "__init__" else meth
                    setattr(cls, meth,
                            self._wrap(vars(cls)[meth], f"{short}.{cls_name}.{label}"))
        for mod in modules + [package]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(mod, attr, replaced[value])

    def hook(self, name, fn):
        """fn(args, result) returns {counter: amount} to add after a call."""
        self._hooks[name] = fn

    def _wrap(self, fn, name):
        spans = self.spans
        ident = spans.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = spans.open(ident)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.close(index, raised=True)
                raise
            spans.close(index)
            hook = tracer._hooks.get(name)
            if hook is not None:
                tracer.add(hook(args, result))
            return result

        return wrapper

    # -- accumulation -------------------------------------------------------

    def add(self, counts):
        for key, value in counts.items():
            if key.endswith(".max"):
                self.extra[key] = max(self.extra.get(key, 0), value)
            else:
                self.extra[key] = self.extra.get(key, 0) + value

    def begin_op(self):
        self.spans.clear()
        return self.spans.open(self.spans.name_id("bench.op"))

    def end_op(self, root):
        """Close the op's root span and fold its spans into the totals."""
        spans = self.spans
        spans.close(root)
        own = self_times(spans.parent, spans.start, spans.end)
        names = spans.names
        for i, ident in enumerate(spans.name):
            key = names[ident]
            self.calls[key] = self.calls.get(key, 0) + 1
            self.self_s[key] = self.self_s.get(key, 0.0) + own[i]
        for i in spans.raised:
            key = names[spans.name[i]]
            self.raised[key] = self.raised.get(key, 0) + 1
        for inner, outer in NESTED:
            self._nested(inner, outer)
        self.span_count += len(spans)
        spans.clear()

    def _nested(self, inner, outer):
        """Count calls of inner made from inside a call of outer."""
        spans = self.spans
        if inner not in spans.ids or outer not in spans.ids:
            return
        a, b = spans.ids[inner], spans.ids[outer]
        n = sum(1 for i, ident in enumerate(spans.name)
                if ident == a and has_ancestor(spans.parent, spans.name, i, b))
        key = f"{inner}@{outer}"
        self.extra[key] = self.extra.get(key, 0) + n

    def table(self):
        """Everything recorded, as one flat dict of plain numbers."""
        out = {}
        for key in self.calls:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_s[key]
            out[f"{key}.raised"] = self.raised.get(key, 0)
        out.update(self.extra)
        out["trace.spans"] = self.span_count
        return out
