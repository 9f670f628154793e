"""The nine components of every catalog entry, pinned as text.

data/catalog_components.json holds the name and the rendered components
(R, U, V, P, H, f11, f12, f21, f22) of every CATALOG entry at its
defaults and at one rational parameter set, under both entropy maps where
the builder takes one, plus one_param_exp at k2 = 0 and theorem at
beta = 0.  A one-parameter family is pinned by its map_sym.  A refactor
of the builders must reproduce every string.

Regenerate the file (only when a component is meant to change) with

    PYTHONPATH=src python tests/test_catalog_components.py \\
        > tests/data/catalog_components.json
"""

import inspect
import json
from pathlib import Path

from recipgas.gasdyn import standard_context
from recipgas.symkernel import parse
from recipgas.transforms import CATALOG, catalog

DATA = Path(__file__).resolve().parent / "data" / "catalog_components.json"

# One rational parameter set per entry that takes parameters, and the
# extra sets named in the module docstring.
RATIONAL = {
    "bateman": [{"b1": "2", "b2": "1/3", "b3": "3/2", "b4": "-1/4"}],
    "bateman_simplified": [{"b3": "2/3", "b4": "1/5"}],
    "theorem": [
        {"alpha": "1/2", "beta": "2/3", "k": "3", "a11": "-1",
         "a34": "1/3", "a35": "2", "a45": "-1/2", "psi": "3/2"},
        {"alpha": "1/2", "beta": "0", "k": "-2", "a11": "1",
         "a34": "-1/5", "a35": "3", "a45": "1/4", "psi": "2"}],
    "one_param_q13": [{"q12": "1/3", "q13": "1/2"}],
    "one_param_exp": [{"k1": "1/2", "k2": "3", "q12": "1/3"},
                      {"k1": "1/2", "k2": "0", "q12": "1/3"}],
    "one_param_linear": [{"k2": "2", "q12": "-1/3"}],
    "mu_plus": [{"a33": "2", "a54": "1/3", "a11": "-1", "alpha": "1/2",
                 "beta": "2", "psi": "3"}],
    "mu_minus": [{"a33": "2", "a54": "1/3", "a11": "-1", "alpha": "1/2",
                  "beta": "2", "psi": "3"}],
    "munk_prim": [{"psi": "2/3"}],
}


def cases() -> list:
    """(entry, params) of every pinned build, params as strings."""
    out = []
    for name, builder in CATALOG.items():
        takes_entropy = "entropy" in inspect.signature(builder).parameters
        for params in [{}] + RATIONAL.get(name, []):
            for entropy in (("identity", "formal") if takes_entropy
                            else (None,)):
                out.append((name, dict(params, entropy=entropy)
                            if entropy else dict(params)))
    return out


def build_map(ctx, name, params):
    """The map of entry `name` built with the string params; a
    one-parameter family gives its map_sym."""
    args = {k: v if k == "entropy" or v == "formal" else parse(ctx, v)
            for k, v in params.items()}
    built = catalog(ctx, name, **args)
    return getattr(built, "map_sym", built)


def build(ctx, name, params) -> dict:
    """The record of entry `name` built with the string params."""
    T = build_map(ctx, name, params)
    return {"entry": name, "params": params, "name": T.name,
            "components": [str(c) for c in T.components()]}


def records() -> list:
    ctx = standard_context()
    return [build(ctx, name, params) for name, params in cases()]


def test_every_entry_is_pinned():
    pinned = json.loads(DATA.read_text())
    assert {r["entry"] for r in pinned} == set(CATALOG)
    assert [(r["entry"], r["params"]) for r in pinned] == [
        (n, p) for n, p in cases()]


def test_components_match_the_recorded_text():
    ctx = standard_context()
    for rec in json.loads(DATA.read_text()):
        assert build(ctx, rec["entry"], rec["params"]) == rec, (
            rec["entry"], rec["params"])


if __name__ == "__main__":
    print(json.dumps(records(), indent=1))
