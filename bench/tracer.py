"""Counting and timing wrappers installed on recipgas from outside.

`Tracer.install()` replaces every module binding of each target function
(for example `pgcd` in both `symkernel.poly` and `symkernel.expr`) and
each target method on its class with a wrapper that records one span:
name, start, end, parent span, and whether a span of the same name was
already open (recursion).  Spans stay in flat arrays in memory
until `summary()` derives per name the calls, the self time (span
duration minus the durations of its child spans) and the inclusive time
(durations of the outermost spans of that name), and `write_spans()`
saves them.
`uninstall()` puts the original objects back.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np


def _pgcd_hook(stats, args, kwargs, result):
    a, b = args[0], args[1]
    stats["symkernel.pgcd.max_terms"] = max(
        stats.get("symkernel.pgcd.max_terms", 0), len(a), len(b))
    # a gcd is trivial when it is the constant polynomial 1
    if len(result) != 1 or any(result):
        stats["symkernel.pgcd.nontrivial"] = \
            stats.get("symkernel.pgcd.nontrivial", 0) + 1


def _nullspace_hook(stats, args, kwargs, result):
    rows, ncols = args[0], args[1]
    stats["symkernel.nullspace.rows"] = max(
        stats.get("symkernel.nullspace.rows", 0), len(rows))
    stats["symkernel.nullspace.cols"] = max(
        stats.get("symkernel.nullspace.cols", 0), ncols)


def _ansatz_hook(stats, args, kwargs, result):
    stats["prolong.solve_ansatz.dimension"] = \
        stats.get("prolong.solve_ansatz.dimension", 0) + result.dimension
    stats["prolong.solve_ansatz.candidates"] = \
        stats.get("prolong.solve_ansatz.candidates", 0) + result.candidates


def _witness_hook(stats, args, kwargs, result):
    if result is not None:
        stats["transforms.witness_point.found"] = \
            stats.get("transforms.witness_point.found", 0) + 1


def _lie_hook(stats, args, kwargs, result):
    stats["transforms.lie.accepted"] = \
        stats.get("transforms.lie.accepted", 0) + result.samples


# (span name, "module" or "module:Class", attribute, hook or None)
TARGETS = (
    ("symkernel.pgcd", "recipgas.symkernel.poly", "pgcd", _pgcd_hook),
    ("symkernel.pmul", "recipgas.symkernel.poly", "pmul", None),
    ("symkernel.normalize", "recipgas.symkernel.expr", "_normalize", None),
    ("symkernel.diff", "recipgas.symkernel.expr:Expr", "diff", None),
    ("symkernel.substitute", "recipgas.symkernel.expr:Expr", "substitute",
     None),
    ("symkernel.eval_numeric", "recipgas.symkernel.expr:Expr",
     "eval_numeric", None),
    ("symkernel.eval_rational", "recipgas.symkernel.expr:Expr",
     "eval_rational", None),
    ("symkernel.nullspace", "recipgas.symkernel.linalg", "nullspace",
     _nullspace_hook),
    ("symkernel.parse", "recipgas.symkernel.parser", "parse", None),
    ("gasdyn.reduce_on_manifold", "recipgas.gasdyn", "reduce_on_manifold",
     None),
    ("gasdyn.total_derivative", "recipgas.gasdyn", "total_derivative", None),
    ("liealg.commutator", "recipgas.liealg", "commutator", None),
    ("liealg.membership", "recipgas.liealg", "membership", None),
    ("prolong.determining_residuals", "recipgas.prolong",
     "determining_residuals", None),
    ("prolong.solve_ansatz", "recipgas.prolong", "solve_ansatz",
     _ansatz_hook),
    ("transforms.pushforward", "recipgas.transforms.pushforward",
     "pushforward", None),
    ("transforms.verify_reciprocal", "recipgas.transforms.verify",
     "verify_reciprocal", None),
    ("transforms.det_f", "recipgas.transforms.maps:ReciprocalMap", "det_f",
     None),
    ("transforms.witness_point", "recipgas.transforms.verify",
     "witness_point", _witness_hook),
    ("transforms.lie_equation_check", "recipgas.transforms.verify",
     "lie_equation_check", _lie_hook),
    ("transforms.composition_additivity", "recipgas.transforms.verify",
     "composition_additivity", None),
    ("transforms.sample_float_state", "recipgas.transforms.verify",
     "sample_float_state", None),
    ("transforms.eval_mp", "recipgas.transforms.verify", "_eval_poly_mp",
     None),
    ("numerics.primed_coordinates", "recipgas.numerics",
     "primed_coordinates", None),
    ("numerics.simpson_line", "recipgas.numerics", "simpson_line", None),
    ("numerics.invert_point", "recipgas.numerics:TransformedFlow",
     "invert_point", None),
    ("numerics.forward", "recipgas.numerics:TransformedFlow", "_forward",
     None),
    ("numerics.transformed_point", "recipgas.numerics:TransformedFlow",
     "fields", None),
    ("numerics.make_solution", "recipgas.numerics", "make_solution", None),
    ("numerics.fd_residuals", "recipgas.numerics", "fd_residuals", None),
    ("numerics.transform_solution", "recipgas.numerics",
     "transform_solution", None),
) + tuple(("accept.criterion", "recipgas.accept", "criterion_%d" % n, None)
          for n in range(1, 11))

LAYERS = ("symkernel", "gasdyn", "liealg", "prolong", "transforms",
          "numerics", "accept")


# benchmark modules that bind target functions by name, besides recipgas
BENCH_MODULES = ("workloads",)


class Tracer:
    def __init__(self):
        self.names = list(dict.fromkeys(t[0] for t in TARGETS))
        self.name_ids = {n: i for i, n in enumerate(self.names)}
        self._restore = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # 1 when no span of the same name is open
        self.span_outer = array("b")
        self.depth = [0] * len(self.names)
        self.current = -1
        self.stats = {}
        self.errors = {}

    # --- installation -----------------------------------------------------

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "recipgas"
                                      or n.startswith("recipgas.")
                                      or n in BENCH_MODULES)]

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for name, owner, attr, hook in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            mod = importlib.import_module(mod_name)
            nid = self.name_ids[name]
            if cls_name:
                cls = getattr(mod, cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, nid, hook))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, nid, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _wrap(self, fn, nid, hook):
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        outer, depth = self.span_outer, self.depth
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            prev = tracer.current
            names.append(nid)
            parents.append(prev)
            outer.append(depth[nid] == 0)
            depth[nid] += 1
            ends.append(0.0)
            tracer.current = idx
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf_counter()
                tracer.current = prev
                depth[nid] -= 1
                tracer._error(nid, exc)
                raise
            ends[idx] = perf_counter()
            tracer.current = prev
            depth[nid] -= 1
            if hook is not None:
                hook(tracer.stats, args, kwargs, result)
            return result
        return wrapper

    def _error(self, nid, exc):
        """Count an exception once, at the innermost span it left."""
        if getattr(exc, "_bench_counted", False):
            return
        try:
            exc._bench_counted = True
        except AttributeError:
            pass
        layer = self.names[nid].split(".", 1)[0]
        key = "%s.errors.%s" % (layer, type(exc).__name__)
        self.errors[key] = self.errors.get(key, 0) + 1

    # --- results ----------------------------------------------------------

    def _arrays(self):
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        return names, parents, dur

    def summary(self, wall_s: float) -> dict:
        """Per-name calls and self time, ratios, and the uncovered rest."""
        if self._restore:
            raise RuntimeError("uninstall the tracer before summarising")
        names, parents, dur = self._arrays()
        k = len(self.names)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested],
                            minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_t, minlength=k)
        outer = np.frombuffer(self.span_outer, dtype=np.int8).astype(bool)
        incl_s = np.bincount(names[outer], weights=dur[outer], minlength=k)
        out = {}
        for i, n in enumerate(self.names):
            out[n + ".calls"] = int(calls[i])
            out[n + ".self_s"] = float(self_s[i])
            out[n + ".incl_s"] = float(incl_s[i])
        for layer in LAYERS:
            ids = [i for i, n in enumerate(self.names)
                   if n.split(".", 1)[0] == layer]
            out[layer + ".self_s"] = float(sum(self_s[i] for i in ids))
        covered = float(dur[~nested].sum())
        out["traced_wall_s"] = wall_s
        out["uncovered_s"] = wall_s - covered

        def parent_is(child_name, parent_name):
            rows = names == self.name_ids[child_name]
            p = parents[rows]
            p = p[p >= 0]
            return int(np.count_nonzero(names[p] ==
                                        self.name_ids[parent_name]))

        st = self.stats
        out["symkernel.pgcd.max_terms"] = st.get("symkernel.pgcd.max_terms", 0)
        out["symkernel.pgcd.nontrivial_share"] = _share(
            st.get("symkernel.pgcd.nontrivial", 0),
            out["symkernel.pgcd.calls"])
        out["symkernel.nullspace.rows"] = st.get("symkernel.nullspace.rows", 0)
        out["symkernel.nullspace.cols"] = st.get("symkernel.nullspace.cols", 0)
        out["prolong.solve_ansatz.useful_share"] = _share(
            st.get("prolong.solve_ansatz.dimension", 0),
            st.get("prolong.solve_ansatz.candidates", 0))
        out["transforms.witness_point.success_share"] = _share(
            st.get("transforms.witness_point.found", 0),
            out["transforms.witness_point.calls"])
        out["transforms.lie.draws"] = parent_is(
            "transforms.sample_float_state", "transforms.lie_equation_check")
        out["transforms.lie.accept_share"] = _share(
            st.get("transforms.lie.accepted", 0), out["transforms.lie.draws"])
        out["numerics.newton_iters"] = _share(
            parent_is("numerics.forward", "numerics.invert_point"),
            out["numerics.invert_point.calls"])
        out["numerics.points"] = out["numerics.transformed_point.calls"]
        for layer in LAYERS:
            out[layer + ".errors"] = sum(
                v for k, v in self.errors.items()
                if k.startswith(layer + ".errors."))
        out["spans"] = int(len(dur))
        out["errors"] = dict(sorted(self.errors.items()))
        return out

    def write_spans(self, path):
        """Save the spans (name id, parent index, start, end, outermost
        flag) and the names."""
        names, parents, _ = self._arrays()
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), name_id=names,
                     parent=parents, start=np.frombuffer(self.span_start),
                     end=np.frombuffer(self.span_end),
                     outer=np.frombuffer(self.span_outer, dtype=np.int8))


def _share(num, den):
    return num / den if den else 0.0
