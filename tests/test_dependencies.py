"""The program imports only what pyproject.toml lets it.

Every module under src/ and bench/ imports the standard library, recipgas
or a dependency that pyproject.toml declares.  sympy, hypothesis and scipy
may be installed beside the package, for the tests, but must never become
runtime dependencies.  The benchmark scripts run from bench/, so they also
import each other by file name.  An import in the body of a try that
catches ImportError probes for an optional module (the benchmark records
whether gmpy2 is present), which is no dependency.

mpmath is declared, but only the Lie check (transforms/verify.py) and the
benchmark worker, which records its version, may import it: retiring it
is then a change to one module of the package.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _declared():
    """The top-level module names of pyproject.toml's dependencies."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[\w.-]+", spec).group().replace("-", "_").lower()
            for spec in project["dependencies"]}


def _catches_import_error(handler):
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return any(isinstance(t, ast.Name)
               and t.id in ("ImportError", "ModuleNotFoundError")
               for t in types)


def _imports(tree):
    """(line, top-level module) of each absolute import of a parsed module
    that is not an optional probe."""
    optional = {id(node)
                for t in ast.walk(tree) if isinstance(t, ast.Try)
                and any(_catches_import_error(h) for h in t.handlers)
                for stmt in t.body for node in ast.walk(stmt)}
    for node in ast.walk(tree):
        if id(node) in optional:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_imports_are_stdlib_recipgas_or_declared():
    allowed = set(sys.stdlib_module_names) | {"recipgas"} | _declared()
    scripts = {path.stem for path in BENCH.glob("*.py")}
    found = []
    for path in sorted([*(ROOT / "src").rglob("*.py"),
                        *BENCH.rglob("*.py")]):
        ok = allowed | scripts if path.is_relative_to(BENCH) else allowed
        tree = ast.parse(path.read_text(), str(path))
        found += ["%s:%d imports %s" % (path.relative_to(ROOT), line, name)
                  for line, name in _imports(tree) if name not in ok]
    assert not found, found


def _importers_of(module):
    """The files under src/ and bench/, relative to the root, that import
    module anywhere, optional probes included."""
    found = []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(n.split(".")[0] == module for n in names):
                found.append(str(path.relative_to(ROOT)))
                break
    return found


def test_mpmath_only_in_the_lie_check_and_the_worker():
    assert _importers_of("mpmath") == ["bench/worker.py",
                                       "src/recipgas/transforms/verify.py"]
