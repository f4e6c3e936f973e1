"""Source hygiene: every imported name is used, and one module factors.

No linter ships with the test environment, so this scan is the check for
unused imports in the package and the test suite.  A name counts as used
when the module reads it, or when the module lists it in ``__all__``
(the package's re-exports).  A second scan keeps every Cholesky
factorization, and every call of a bound LAPACK or BLAS routine, inside
``coldgp.linalg``, which owns the jitter policy and the one BLAS build;
with it, only ``coldgp.linalg`` loads a shared library through ctypes, and
only ``coldgp.records`` imports csv or joins or splits text on commas,
since it owns the one table layout, and only ``coldgp.classification``
imports threading or contextvars, whose ``_beside`` makes the package's one
kind of thread.  A third keeps scipy out of the
package's module level: each scipy import sits inside a function, so a run
that calls none of them loads no scipy.  A fourth keeps test-only code out
of the package: every definition in it, and every module-level constant,
has a reader in the package itself.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "coldgp").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return used


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(set(_imported(tree)) - _used(tree))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


# LAPACK and BLAS routines that coldgp.linalg binds, under any prefix or
# suffix: scipy's dpotrf, or the ctypes symbol scipy_dpotrf_64_
_ROUTINE = re.compile(r"potrf|trtrs|trmm")


def _factor_calls(tree):
    """Line numbers that reach ``*.linalg.cholesky`` or a bound routine: a
    name, an attribute, an imported name or a symbol string (one word) that
    holds potrf, trtrs or trmm."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                _ROUTINE.search(node.attr)
                or (node.attr == "cholesky" and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "linalg")):
            yield node.lineno
        elif isinstance(node, ast.Name) and _ROUTINE.search(node.id):
            yield node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"\w+", node.value) and _ROUTINE.search(node.value)):
            yield node.lineno
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and any(_ROUTINE.search(alias.name)
                      or (alias.name == "cholesky" and node.module.split(".")[-1] == "linalg")
                      for alias in node.names)):
            yield node.lineno


@pytest.mark.parametrize("path", [p for p in FILES if p.parent.name == "coldgp"
                                  and p.name != "linalg.py"], ids=lambda p: p.name)
def test_only_linalg_factors(path):
    # the package's own ``from .linalg import cholesky`` is the one way in
    lines = sorted(set(_factor_calls(ast.parse(path.read_text(encoding="utf-8")))))
    assert not lines, f"{path.name} factors outside coldgp.linalg at lines {lines}"


def _comma_layouts(tree):
    """Line numbers that import csv, or that join or split text on a bare
    comma: ``",".join(...)``, or ``.split(",")`` / ``.split(sep=",")``."""
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names))
                or (isinstance(node, ast.ImportFrom) and node.module == "csv")):
            yield node.lineno
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "join":
            seps = [node.func.value]
        elif node.func.attr == "split":
            seps = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "sep"]
        else:
            continue
        if any(isinstance(sep, ast.Constant) and sep.value == "," for sep in seps):
            yield node.lineno


@pytest.mark.parametrize("path", [p for p in FILES if p.parent.name == "coldgp"
                                  and p.name != "records.py"], ids=lambda p: p.name)
def test_only_records_lays_out_tables(path):
    # coldgp.records owns the one table layout, results and datasets alike;
    # any other module reads and writes tables through read_csv and write_csv
    lines = sorted(set(_comma_layouts(ast.parse(path.read_text(encoding="utf-8")))))
    assert not lines, (f"{path.name} imports csv or lays out comma-separated text outside "
                       f"coldgp.records at lines {lines}")


_CONCURRENCY = {"threading", "contextvars"}


def _concurrency(tree):
    """(kind, line) of each import of threading or contextvars ("import"), and
    of each name of threading's Thread outside a function ``_beside`` ("thread")."""
    beside = {id(node) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == "_beside" for node in ast.walk(f)}
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Import)
             and any(alias.name.split(".")[0] in _CONCURRENCY for alias in node.names))
                or (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] in _CONCURRENCY)):
            yield "import", node.lineno
        elif (((isinstance(node, ast.Attribute) and node.attr == "Thread")
               or (isinstance(node, ast.Name) and node.id == "Thread"))
              and id(node) not in beside):
            yield "thread", node.lineno


@pytest.mark.parametrize("path", [p for p in FILES if p.parent.name == "coldgp"],
                         ids=lambda p: p.name)
def test_only_beside_makes_threads(path):
    # coldgp.classification._beside is the package's one concurrency layer:
    # only its module imports threading or contextvars, and only it names a Thread
    allowed = {"import"} if path.name == "classification.py" else set()
    lines = sorted(line for kind, line in _concurrency(ast.parse(path.read_text(encoding="utf-8")))
                   if kind not in allowed)
    assert not lines, (f"{path.name} imports threading or contextvars, or makes a thread "
                       f"outside classification._beside, at lines {lines}")


_LOADERS = {"CDLL", "cdll", "PyDLL", "pydll", "LoadLibrary"}


def _library_loads(tree):
    """Line numbers that name a ctypes library loader."""
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Attribute) and node.attr in _LOADERS)
                or (isinstance(node, ast.Name) and node.id in _LOADERS)
                or (isinstance(node, ast.ImportFrom) and node.module == "ctypes"
                    and any(alias.name in _LOADERS for alias in node.names))):
            yield node.lineno


@pytest.mark.parametrize("path", [p for p in FILES if p.parent.name == "coldgp"
                                  and p.name != "linalg.py"], ids=lambda p: p.name)
def test_only_linalg_loads_libraries(path):
    # coldgp.linalg resolves the one BLAS build the package computes with
    lines = sorted(set(_library_loads(ast.parse(path.read_text(encoding="utf-8")))))
    assert not lines, f"{path.name} loads a shared library outside coldgp.linalg at lines {lines}"


def _eager_scipy_imports(tree):
    """Line numbers of scipy imports that run when the module is imported."""
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # runs when called
        if ((isinstance(node, ast.Import)
             and any(alias.name.split(".")[0] == "scipy" for alias in node.names))
                or (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "scipy")):
            yield node.lineno
        nodes.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", [p for p in FILES if p.parent.name == "coldgp"],
                         ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    lines = sorted(_eager_scipy_imports(ast.parse(path.read_text(encoding="utf-8"))))
    assert not lines, (f"src/coldgp/{path.name} imports scipy at module level at lines "
                       f"{lines}; import it inside the function that calls it")


# Package definitions that no package code names yet, each with the reason it stays.
PRODUCTION_CALLER_ALLOWLIST = {
    "relabel_disagreement_mc": "the training relabel disagreement that ROADMAP item 6 "
                               "logs per temperature; until then only tests call it",
}


def _module_level_names(tree):
    """(name, line) of every name that a module-level statement assigns."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node.lineno


def _methods(tree):
    """The function definitions, properties included, in the bodies of classes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))


def test_every_definition_has_a_production_caller():
    # a function, class or method of src/coldgp, or a name assigned at module
    # level (a constant), counts as called when some package code reads it:
    # a Name it loads, an Attribute or an ImportFrom.  A method or property is
    # read only through an Attribute (x.name), so a local variable or an
    # argument of the same name does not count.  Definitions and reads come
    # from the modules outside __init__.py, whose re-exports call nothing,
    # and from __init__.py's module-level names.  Dunders are exempt: Python
    # itself calls dunder methods, and reads __all__ and __version__.  Each
    # definition is held with the set of reads that count for it, which fills
    # as the scan goes on
    defined, named, attributes = [], set(), set()
    for path in (p for p in FILES if p.parent.name == "coldgp"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(name, f"{path.name}:{line}", named)
                    for name, line in _module_level_names(tree)]
        if path.name == "__init__.py":
            continue
        methods = set(_methods(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{path.name}:{node.lineno}",
                                attributes if node in methods else named))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    named |= attributes
    uncalled = sorted(f"{name} ({where})" for name, where, reads in defined
                      if name not in reads and name not in PRODUCTION_CALLER_ALLOWLIST
                      and not (name.startswith("__") and name.endswith("__")))
    assert not uncalled, f"defined in src/coldgp but read by no package code: {uncalled}"
    stale = sorted(name for name in PRODUCTION_CALLER_ALLOWLIST
                   if name in named or name not in {n for n, *_ in defined})
    assert not stale, f"allowlisted names that are gone or now called: {stale}"
