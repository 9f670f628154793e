"""Every function, class and method under src/recipgas is used by the
program, every name a package exports exists, and every SymkernelError
subclass is defined once and raised.

A definition counts as used when its name appears as a name or an
attribute anywhere in src/ or bench/, or as an attribute name the
benchmark tracer wraps (bench/tracer.py TARGETS).  An attribute named like
one of a builtin type's (the `split` of `"...".split(".")`) is no use of a
top-level definition, only of a method.  A top-level definition listed in
a package's __all__ is the documented API and counts as used; only the
basic operations equivalence_generator, equivalence_residuals and invert
are kept by that alone.  A reference from tests/ does not count: a helper
only tests call belongs in tests/.  Importing or re-exporting a name is
not a use.  Dunder methods are called by the language and are exempt.

Every defaulted parameter of a function that src/ or bench/ calls by name
is passed at one of those calls: an option that only tests set belongs
in the tests.
"""

import ast
import collections
import functools
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = ROOT / "bench" / "tracer.py"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
BUILTIN_ATTRIBUTES = frozenset().union(*map(dir, (
    str, bytes, int, float, complex, list, tuple, dict, set, frozenset,
    object)))


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
    """(names, attributes) referenced in src/ and bench/; the tracer's
    targets count as attributes."""
    names, attributes = set(), _tracer_attributes()
    for tree_dir in ("src", "bench"):
        for _path, tree in _trees(tree_dir):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
    return names, attributes


def _unused(exempt):
    """Sorted [(name, where)] of the definitions in src/ the program does
    not use, when the top-level names in `exempt` count as used."""
    names, attributes = _references()

    def used(name, top_level):
        if top_level:
            return name in names or name in exempt or (
                name in attributes and name not in BUILTIN_ATTRIBUTES)
        return name in names or name in attributes

    return sorted((name, where) for name, where, top_level in _definitions()
                  if not used(name, top_level))


def _exported():
    return {n for listed in _exports().values() for n in listed}


def test_no_unreferenced_definitions():
    unused = ["%s (%s)" % pair for pair in _unused(_exported())]
    assert not unused, "defined but never used by the program: " + \
        ", ".join(unused)


def test_exports_keep_only_the_documented_operations_alive():
    # an __all__ export counts as a use; these are the only definitions
    # that nothing but their export keeps, so a helper only tests call
    # cannot come back into src/ through an export
    kept = {name for name, _where in _unused(frozenset())} - \
        {name for name, _where in _unused(_exported())}
    assert kept == {"equivalence_generator", "equivalence_residuals",
                    "invert"}


def test_exports_resolve():
    missing = ["%s.%s" % (mod, name)
               for mod, names in _exports().items()
               for name in names
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing, "__all__ names that do not exist: " + \
        ", ".join(missing)


def _calls():
    """{callee name: [ast.Call]} of the calls by name in src/ and bench/."""
    calls = collections.defaultdict(list)
    for tree_dir in ("src", "bench"):
        for _path, tree in _trees(tree_dir):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id",
                                   getattr(node.func, "attr", None))
                    calls[name].append(node)
    return calls


def _passes(call, param, position):
    """True when the call passes the parameter: by keyword, by position
    (None for a keyword-only one) or through * or **."""
    return any(k.arg in (None, param) for k in call.keywords) or (
        position is not None and (
            len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args)))


def _options():
    """[(function, parameter, where, position)] of the defaulted
    parameters of the non-dunder functions in src/; a position counts
    the arguments a call passes, so a method's self or cls is not one."""
    out = []
    for path, tree in _trees("src"):
        methods = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for n in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or node.name.startswith("__") and node.name.endswith("__"):
                continue
            a = node.args
            bound = id(node) in methods and not any(
                getattr(d, "id", None) == "staticmethod"
                for d in node.decorator_list)
            positional = a.posonlyargs + a.args
            where = "%s:%d" % (path.relative_to(ROOT), node.lineno)
            first = len(positional) - len(a.defaults)
            out += [(node.name, p.arg, where, k - bound)
                    for k, p in enumerate(positional) if k >= first]
            out += [(node.name, p.arg, where, None)
                    for p, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None]
    return out


def test_every_option_is_set():
    # catalog() passes a CATALOG builder its parameters as **params, and
    # python -m recipgas calls cli.main() with the process's arguments
    from recipgas.transforms.catalog import CATALOG
    exempt = {"main"} | {f.__name__ for f in CATALOG.values()}
    calls = _calls()
    unset = ["%s(%s=) (%s)" % (fn, param, where)
             for fn, param, where, position in _options()
             if fn in calls and fn not in exempt
             and not any(_passes(c, param, position) for c in calls[fn])]
    assert not unset, "options no call in src/ or bench/ sets: " + \
        ", ".join(unset)


def _raised_name(node):
    """The class name a raise statement names, or None."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Name):
        return exc.id
    return exc.attr if isinstance(exc, ast.Attribute) else None


def test_error_classes_defined_once_and_raised():
    classes, raised = [], set()
    for _path, tree in _trees("src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = {b.id if isinstance(b, ast.Name) else
                         getattr(b, "attr", None) for b in node.bases}
                classes.append((node.name, bases))
            elif isinstance(node, ast.Raise) and node.exc is not None:
                raised.add(_raised_name(node))
    # SymkernelError and its subclasses, direct or not
    errors, grown = set(), {"SymkernelError"}
    while grown:
        errors |= grown
        grown = {name for name, bases in classes if bases & errors} - errors
    counts = collections.Counter(name for name, _bases in classes)
    assert [n for n in sorted(errors) if counts[n] != 1] == []
    assert sorted(errors - raised) == []
