"""Every function the benchmark tracer wraps still exists under its name.

bench/tracer.py binds its targets by module and attribute name; a renamed
or removed target breaks every traced benchmark run.  The tracer module is
loaded from its file and not changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_trace_targets_resolve():
    missing = []
    for name, owner, attr, _hook in _targets():
        mod_name, _, cls_name = owner.partition(":")
        mod = importlib.import_module(mod_name)
        if cls_name:
            found = attr in getattr(mod, cls_name).__dict__
        else:
            found = hasattr(mod, attr)
        if not found:
            missing.append("%s (%s.%s)" % (name, owner, attr))
    assert not missing, "unresolved trace targets: " + ", ".join(missing)
