"""Every function, class and method under src/recipgas is used somewhere.

A definition counts as used when its name appears as a name or an
attribute anywhere in src/ or tests/.  Importing or re-exporting a name is
not a use.  Dunder methods are called by the language and are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions_and_references():
    defined = {}
    referenced = set()
    for tree_dir in ("src", "tests"):
        for path in sorted((ROOT / tree_dir).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, DEFS) and tree_dir == "src":
                    if not (node.name.startswith("__")
                            and node.name.endswith("__")):
                        where = "%s:%d" % (path.relative_to(ROOT),
                                           node.lineno)
                        defined.setdefault(node.name, where)
                elif isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
    return defined, referenced


def test_no_unreferenced_definitions():
    defined, referenced = _definitions_and_references()
    unused = sorted("%s (%s)" % (name, where)
                    for name, where in defined.items()
                    if name not in referenced)
    assert not unused, "defined but never referenced: " + ", ".join(unused)
