"""The benchmark's traced run wraps hayd functions by (module, attribute)
name; a rename in the package would make ``--trace 1`` fail at start-up."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def test_every_traced_name_resolves_in_hayd():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for mod, attr in spans.TRACED:
        target = importlib.import_module(f"hayd.{mod}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (mod, attr)
