"""Every function, class and method under src/recipgas is used by the
program, and every name a package exports exists.

A definition counts as used when its name appears as a name or an
attribute anywhere in src/ or bench/, or as an attribute name the
benchmark tracer wraps (bench/tracer.py TARGETS).  A top-level definition
listed in a package's __all__ is the documented API and counts as used.
A reference from tests/ does not count: a helper only tests call belongs
in tests/.  Importing or re-exporting a name is not a use.  Dunder methods
are called by the language and are exempt.
"""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = ROOT / "bench" / "tracer.py"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@functools.cache
def _trees(tree_dir):
    return tuple((path, ast.parse(path.read_text(), str(path)))
                 for path in sorted((ROOT / tree_dir).rglob("*.py")))


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _exports():
    """{module name: __all__ list} of every src module that sets one."""
    out = {}
    for path, tree in _trees("src"):
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                out[_module_name(path)] = ast.literal_eval(node.value)
    return out


def _tracer_attributes():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {attr for _name, _owner, attr, _hook in tracer.TARGETS}


def _definitions():
    """[(name, where, top_level)] of the non-dunder definitions in src/."""
    out = []
    for path, tree in _trees("src"):
        top = {id(n) for n in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, DEFS) and not (node.name.startswith("__")
                                               and node.name.endswith("__")):
                where = "%s:%d" % (path.relative_to(ROOT), node.lineno)
                out.append((node.name, where, id(node) in top))
    return out


def _references():
    referenced = set()
    for tree_dir in ("src", "bench"):
        for _path, tree in _trees(tree_dir):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
    return referenced | _tracer_attributes()


def test_no_unreferenced_definitions():
    referenced = _references()
    exported = {n for names in _exports().values() for n in names}
    unused = sorted("%s (%s)" % (name, where)
                    for name, where, top_level in _definitions()
                    if name not in referenced
                    and not (top_level and name in exported))
    assert not unused, "defined but never used by the program: " + \
        ", ".join(unused)


def test_exports_resolve():
    missing = ["%s.%s" % (mod, name)
               for mod, names in _exports().items()
               for name in names
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing, "__all__ names that do not exist: " + \
        ", ".join(missing)
