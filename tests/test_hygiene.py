"""Import and export hygiene of the package, read from its source with ast.

Every name a module imports is used in it (or re-exported through its
__all__), every __all__ entry exists, the star import works, and importing
the package loads none of the heavy modules it does not need.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cauchygap"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _imported_names(tree):
    """Names bound by the module's import statements, with their line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_import_loads_no_oracle_or_special_functions():
    # a fresh interpreter's `import cauchygap` (a CLI start, and the
    # benchmark's setup time) loads neither mpmath, whose pins are frozen
    # offline, nor the scipy subpackages the package does not call
    heavy = ("mpmath", "scipy.special", "scipy.integrate", "scipy.optimize",
             "scipy.sparse.linalg")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, cauchygap; "
         f"print(*[m for m in {heavy!r} if m in sys.modules])"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == []


def test_star_import():
    namespace = {}
    exec("from cauchygap import *", namespace)
    assert "numeric_gap" in namespace and "deficit" in namespace


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(
        "cauchygap" if name == "__init__" else f"cauchygap.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {n: line for n, line in _imported_names(tree).items()
              if n not in used | _exported(tree)}
    assert unused == {}


def _args_reads(funcs, name):
    """The args.<flag> attributes a cli.py function reads, itself or in the
    module functions it passes args to (_out_path)."""
    reads = set()
    for node in ast.walk(funcs[name]):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in funcs
              and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
            reads |= _args_reads(funcs, node.func.id)
    return reads


def test_cli_flags_are_read_by_their_command():
    # a flag a subcommand declares but its command never reads would be
    # accepted and ignored; --config is read by main
    from cauchygap import cli
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    commands = next(a.choices for a in cli.build_parser()._actions
                    if a.dest == "command")
    unread = [(name, action.option_strings[-1])
              for name, parser in commands.items()
              for action in parser._actions
              if action.option_strings and action.dest not in ("help", "config")
              and action.dest not in _args_reads(funcs, parser.get_default("run").__name__)]
    assert unread == []


def test_no_dead_private_names():
    # every module-level private def, class or assignment is referenced in
    # src/ besides its definition, so a refactor leaves no helper behind
    sources = {p: p.read_text() for p in PACKAGE.glob("*.py")}
    used = set()
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = []
    for path, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            dead += [(path.stem, name) for name in names
                     if name.startswith("_") and not name.startswith("__")
                     and name not in used]
    assert dead == []


def test_no_unread_parameters():
    # every parameter of a named function is read in its body (nested
    # functions included), so a refactor leaves no dead argument behind;
    # lambdas are exempt (a formula table may ignore an argument) and so is
    # self, which bound methods take whether they read it or not
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [(path.stem, node.name, p) for p in params
                       if p != "self" and p not in read]
    assert unread == []


def test_cross_module_private_imports():
    # the private names one module takes from another, as (importer, source,
    # name): the heat flow reads the hat projection and the bordered shifted
    # solve from spectral and the deficit's integrals from quadrature, and
    # owns no basis or factorization itself
    found = set()
    for name in MODULES:
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found |= {(name, node.module, alias.name) for alias in node.names
                          if alias.name.startswith("_")}
    assert found == {
        ("semigroup", "spectral", "_hat_projection"),
        ("semigroup", "spectral", "_shifted_solve"),
        ("semigroup", "quadrature", "_var_and_energy"),
        ("semigroup", "quadrature", "_rel_err"),
        ("quadrature", "functions", "_pairs"),
        ("quadrature", "functions", "_row_sq_norms"),
        ("quadrature", "spectral", "_gauss_panels"),
        ("operators", "functions", "_as_points"),
    }
