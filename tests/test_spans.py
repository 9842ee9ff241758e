"""The traced benchmark wraps strathom functions by name (bench/spans.py).

Each target must resolve through the lookup `Tracer.install` makes, so a
rename or deletion of a wrapped name fails here and not only in a traced
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_every_span_target_resolves():
    missing = []
    for mod_name, path, _ in _targets():
        owner = importlib.import_module(f"strathom.{mod_name}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        if not callable(owner.__dict__.get(attr)):
            missing.append(f"{mod_name}.{path}")
    assert missing == []
