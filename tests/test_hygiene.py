"""Hygiene: public names resolve, imports are live and local, docs match code."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import finitetop
from finitetop import completion, enumeration, kjsonio, spaces
from finitetop.cli import main

PACKAGE = pathlib.Path(finitetop.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = pathlib.Path(__file__).parent
ROOT = TESTS.parent


def test_public_names_resolve():
    missing = [name for name in finitetop.__all__ if not hasattr(finitetop, name)]
    assert missing == []
    assert len(set(finitetop.__all__)) == len(finitetop.__all__)


def fresh(code, *args):
    """Run code in a new interpreter that imports this package; its stdout as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_names_and_modules_resolve_on_first_use():
    found = fresh("""
import json, pathlib, sys
import finitetop
alone = sorted(m for m in sys.modules if m.startswith("finitetop."))
star = {}
exec("from finitetop import *", star)
package = pathlib.Path(finitetop.__file__).parent
modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
print(json.dumps({
    "alone": alone,
    "unbound": [n for n in finitetop.__all__ if n not in star],
    "modules": [getattr(finitetop, m).__name__ for m in modules],
    "expected": ["finitetop." + m for m in modules],
    "undir": sorted(set(finitetop.__all__ + modules) - set(dir(finitetop))),
}))
""")
    assert found["alone"] == [] and found["unbound"] == [] and found["undir"] == []
    assert found["modules"] == found["expected"]


LOADED = """
import contextlib, io, json, sys
bare = set(sys.modules)
from finitetop.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - bare)]))
"""
NOT_FOR_SPACES = {f"finitetop.{m}" for m in (
    "action", "lattice", "completion", "enumeration", "intmat", "ktheory",
    "kjsonio")} | {"dataclasses"}


def test_each_command_loads_only_what_it_runs(tmp_path):
    space = tmp_path / "s.json"
    space.write_text('{"size": 2, "opens": [[], [0], [0, 1]]}')
    loaded = {}
    for argv in (["info"], ["validate"], ["hasse"], ["soberify"],
                 ["alexandrov", "--to-preorder"]):
        code, loaded[argv[0]] = fresh(LOADED, *argv, str(space))
        assert code == 0
        assert NOT_FOR_SPACES.isdisjoint(loaded[argv[0]]), argv
    matrix = tmp_path / "m.json"
    matrix.write_text("[[2, 0], [0, 3]]")
    code, snf = fresh(LOADED, "ktheory", "snf", str(matrix))
    assert code == 0
    assert set(snf) - set(loaded["info"]) == {"finitetop.intmat"}
    # reconstruct reads psi off the ideals, so no command loads the lattice
    cycle = tmp_path / "c.json"
    cycle.write_text(json.dumps({"groups": [{"generators": 0, "relations": []}] * 6,
                                 "maps": [[]] * 6}))
    sierpinski = json.loads(space.read_text())
    action = tmp_path / "a.json"
    action.write_text(json.dumps({"base": sierpinski, "prim": sierpinski,
                                  "psi": [0, 1]}))
    for argv in (["ktheory", "six-term", str(cycle)],
                 ["action", "check", str(action)]):
        code, modules = fresh(LOADED, *argv)
        assert code == 0
        assert "finitetop.lattice" not in modules, argv


# functions that may import package modules: command entry points load what
# they run, and the package resolves its names on first use
LOCAL_IMPORTS = re.compile(r"cli\.py:(_cmd_\w+|main)|__init__\.py:__getattr__")


def package_imports(func):
    """Lines in a function body that import a finitetop module."""
    for node in ast.walk(func):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "finitetop"):
            yield node.lineno
        elif isinstance(node, ast.Import) and any(
                a.name.split(".")[0] == "finitetop" for a in node.names):
            yield node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("import_module", "__import__")):
            yield node.lineno


def test_package_imports_sit_at_module_top():
    # an import inside a per-node helper runs on every node it visits
    local = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{path.name}:{node.name}"
                local += [(where, line) for line in package_imports(node)
                          if not LOCAL_IMPORTS.fullmatch(where)]
    assert local == []


def imported_names(tree):
    """(bound name, line) for every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def used_names(tree):
    """Names read anywhere in the module, and the strings listed in __all__.

    An __all__ computed from other names reads those names, so only a
    literal list adds strings.
    """
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [(name, line) for name, line in imported_names(tree)
              if name not in used]
    assert unused == []


def test_private_helpers_have_callers():
    """Each _name function or class in the package is used outside its body."""
    defined, used = [], []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and re.match(r"_[^_]", node.name)):
                defined.append((path.name, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                used.append((path.name, name, node.lineno))
    idle = [(module, name) for module, name, first, last in defined
            if not any(n == name and not (m == module and first <= line <= last)
                       for m, n, line in used)]
    assert defined and idle == []


def test_public_callables_take_no_switches():
    # constructors always check and each construction has one cap, so no
    # public function or method takes a validate or cap parameter
    switches = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]
        for scope in scopes:
            for node in scope.body:
                if (isinstance(node, ast.FunctionDef)
                        and not re.match(r"_[^_]", node.name)):
                    a = node.args
                    names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
                    switches += [(path.name, node.name, p)
                                 for p in sorted(names & {"validate", "cap"})]
    assert switches == []


def test_library_scans_no_power_set():
    # exhaustive subset scans are second routes; they live in tests/oracles.py
    scans = [(path.name, node.lineno) for path in MODULES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "range"
             and any(isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.LShift)
                     for arg in node.args)]
    assert scans == []


# CI installs only pytest and hypothesis beside the package itself
ALLOWED_IMPORTS = ({"finitetop", "pytest", "hypothesis"}
                   | {path.stem for path in TESTS.glob("*.py")})


def imported_modules(tree):
    """(top-level module, line) for every absolute import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imports_need_no_third_party_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    foreign = [(name, line) for name, line in imported_modules(tree)
               if name not in sys.stdlib_module_names
               and name not in ALLOWED_IMPORTS]
    assert foreign == []


# construction column of the README caps table -> (the constant, its unit)
README_CAPS = {
    "labeled topology enumeration": (enumeration.TOPOLOGY_CAP, "points"),
    "labeled T0 enumeration": (enumeration.T0_CAP, "points"),
    "census up to homeomorphism": (enumeration.CENSUS_CAP, "points"),
    "canonical forms": (enumeration.RELABELING_CAP, "relabeling steps"),
    "topology built from a preorder": (spaces.OPEN_FAMILY_CAP, "opens"),
    "filter completion": (completion.OPENS_CAP, "base opens"),
    "filter completion filters": (spaces.MAX_POINTS, "filters"),
    "spaces read from JSON": (spaces.MAX_POINTS, "points"),
    "open lists read from JSON": (spaces.OPEN_FAMILY_CAP, "sets"),
    "groups read from JSON": (kjsonio.GENERATORS_CAP, "generators"),
}


def readme_caps():
    """{construction: (value, unit)} from the README table under "| construction"."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines)
                 if re.match(r"\|\s*construction\s*\|", line))
    out = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        name, cap = (cell.strip() for cell in line.strip("|").split("|"))
        m = re.fullmatch(r"(?:(\d+)|2\^(\d+)) ([a-zA-Z ]+?)(?: \(exit \d\))?", cap)
        assert m, f"unreadable cap {cap!r} for {name!r}"
        value = int(m[1]) if m[1] else 1 << int(m[2])
        out[name] = (value, m[3])
    return out


def test_readme_caps_table_matches_constants():
    assert readme_caps() == README_CAPS


def readme_worked_example():
    """(s.json text, the printed lines) from the README's worked example."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Worked example\n\n```sh\n(.*?)```", text, re.S)[1]
    m = re.fullmatch(r"\$ cat > s\.json <<'EOF'\n(.*?)EOF\n"
                     r"\$ finitetop info s\.json\n(.*)", block, re.S)
    assert m, "the worked example no longer writes s.json and runs info on it"
    return m[1], m[2]


def test_readme_worked_example_output(tmp_path, capsys, monkeypatch):
    space, printed = readme_worked_example()
    (tmp_path / "s.json").write_text(space, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["info", "s.json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == printed
