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
from finitetop import completion, enumeration, intmat, spaces
from finitetop.cli import build_parser, main
from fixtures import constant_zero_datum, datum_to_json

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
SIERPINSKI = {"size": 2, "opens": [[], [0], [0, 1]]}
Z = {"generators": 1, "relations": []}
DOUBLE = {"domain": Z, "codomain": Z, "matrix": [[2]]}
INPUTS = {
    "space": SIERPINSKI,
    "preorder": {"size": 2, "leq": [[1, 0]]},
    "action": {"base": SIERPINSKI, "prim": SIERPINSKI, "psi": [0, 1]},
    "map": {"domain": SIERPINSKI, "codomain": SIERPINSKI, "values": [0, 1]},
    "ideals": {"base": SIERPINSKI, "prim": SIERPINSKI,
               "values": {"0": [0], "1": [0, 1]}},
    "matrix": [[2, 0], [0, 3]],
    "pair": {"f": DOUBLE, "g": {"domain": Z, "codomain": {"generators": 1,
                                                          "relations": [[2]]},
                                "matrix": [[1]]}},
    "cycle": {"groups": [{"generators": 0}] * 6, "maps": [[]] * 6},
    "datum": datum_to_json(constant_zero_datum(spaces.FiniteSpace.chain(2))),
    "square": {side: DOUBLE for side in ("top", "right", "left", "bottom")},
}
ACTIONS = {"action", "ajsonio"}
GROUPS = {"intmat", "kjsonio", "ktheory"}
# every command and mode, with the package modules it loads besides the
# package itself, cli, errors, spaces and jsonio; names in braces are inputs.
# An action command loads no group module and a group command no action
# module, and reconstruct reads psi off the ideals, so none loads lattice.
COMMANDS = [
    (["validate", "{space}"], set()),
    (["info", "{space}"], set()),
    (["soberify", "{space}"], set()),
    (["hasse", "{space}"], set()),
    (["hasse", "{space}", "--dot"], set()),
    (["alexandrov", "--to-preorder", "{space}"], set()),
    (["alexandrov", "--from-preorder", "{preorder}"], set()),
    (["enumerate", "--points", "2"], {"enumeration"}),
    (["complete", "{space}"], {"action", "completion"}),
    (["action", "check", "{action}"], ACTIONS),
    (["action", "restrict", "{action}", "--set", "0"], ACTIONS),
    (["action", "pushforward", "{action}", "{map}"], ACTIONS),
    (["action", "filtrate", "{action}"], ACTIONS),
    (["action", "reconstruct", "{ideals}"], ACTIONS),
    (["ktheory", "snf", "{matrix}"], {"intmat"}),
    (["ktheory", "exact", "{pair}"], GROUPS),
    (["ktheory", "six-term", "{cycle}"], GROUPS),
    (["ktheory", "datum-verify", "{datum}"], GROUPS),
    (["ktheory", "two-point", "{square}"], GROUPS),
]
EVERY_COMMAND = {"finitetop", "finitetop.cli", "finitetop.errors",
                 "finitetop.jsonio", "finitetop.spaces"}


def commands_and_modes():
    """(command,) or (command, mode) for everything the parser offers."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    out = set()
    for name, parser in sub.choices.items():
        modes = [a.choices for a in parser._actions if a.dest == "mode"]
        out |= {(name, mode) for mode in modes[0]} if modes else {(name,)}
    return out


def test_each_command_loads_only_what_it_runs(tmp_path):
    paths = {}
    for name, doc in INPUTS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    # a second word that is no option and no input is a mode
    assert {tuple(argv[:2]) if argv[1][0] not in "-{" else (argv[0],)
            for argv, _ in COMMANDS} == commands_and_modes()
    for argv, extra in COMMANDS:
        argv = [arg.format(**paths) for arg in argv]
        code, modules = fresh(LOADED, *argv)
        assert code == 0, argv
        package = {m for m in modules if m.split(".")[0] == "finitetop"}
        assert package == EVERY_COMMAND | {f"finitetop.{m}" for m in extra}, argv
        assert "dataclasses" not in modules, argv


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


def definitions_and_uses():
    """(module, name, first line, last line) of each def and class in the
    package, and (module, name, line) of each name it reads."""
    defined, used = [], []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                used.append((path.stem, name, node.lineno))
    return defined, used


def idle(defined, used):
    """The definitions whose name is read nowhere outside their own body."""
    return [(module, name) for module, name, first, last in defined
            if not any(n == name and not (m == module and first <= line <= last)
                       for m, n, line in used)]


def test_private_helpers_have_callers():
    """Each _name function or class in the package is used outside its body."""
    defined, used = definitions_and_uses()
    private = [d for d in defined if re.match(r"_[^_]", d[1])]
    assert private and idle(private, used) == []


def test_public_names_have_callers_or_docs():
    """Each name in __all__, and each public function at module level, is
    read in the package outside its own body, or opens an inline code span
    of the README."""
    defined, used = definitions_and_uses()
    public = [d for d in defined if finitetop._HOME.get(d[1]) == d[0]]
    assert sorted(name for _, name, _, _ in public) == finitetop.__all__
    public += [(path.stem, node.name, node.lineno, node.end_lineno)
               for path in MODULES
               for node in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
               and finitetop._HOME.get(node.name) != path.stem]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"`([A-Za-z_]\w*)[^`\n]*`", readme))
    assert [(m, n) for m, n in idle(public, used) if n not in documented] == []


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


def is_cache(decorator):
    """Whether a decorator is functools' cache or lru_cache, called or not."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr in ("cache", "lru_cache")
    return isinstance(decorator, ast.Name) and decorator.id in ("cache", "lru_cache")


def test_each_cache_names_the_bench_file_that_keeps_it():
    # a cache stays on a committed measurement, not on a guess: its
    # docstring names a BENCH_ file at the root of the repository
    cached, unkept = [], []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(map(is_cache, node.decorator_list))):
                cached.append(node.name)
                files = re.findall(r"BENCH_\d+\.json", ast.get_docstring(node) or "")
                if not files or not all((ROOT / f).is_file() for f in files):
                    unkept.append(f"{path.name}:{node.name}")
    assert cached and unkept == []


def exit_code(value):
    """Whether a returned expression is a bare exit code."""
    if isinstance(value, ast.IfExp):
        return exit_code(value.body) or exit_code(value.orelse)
    return value is None or (isinstance(value, ast.Constant)
                             and type(value.value) is int)


def test_commands_return_what_main_writes():
    # a command returns its document or text; main alone writes it and
    # reads the exit code off the document's "ok"
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    commands = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name.startswith("_cmd_")]
    writes = []
    for func in commands:
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and node.id in ("_emit", "print"):
                writes.append((func.name, node.lineno, node.id))
            elif (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
                    and isinstance(node.value, ast.Name) and node.value.id == "sys"):
                writes.append((func.name, node.lineno, f"sys.{node.attr}"))
            elif isinstance(node, ast.Return) and exit_code(node.value):
                writes.append((func.name, node.lineno, "exit code"))
    assert commands and writes == []


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
    "groups read from JSON": (intmat.GENERATORS_CAP, "generators"),
    "group relations read from JSON": (intmat.GENERATORS_CAP, "relations"),
    "matrices given to snf": (intmat.GENERATORS_CAP, "rows or columns"),
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
