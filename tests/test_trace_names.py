"""The benchmark's traced run wraps hayd functions by (module, attribute)
name; a rename in the package would make ``--trace 1`` fail at start-up."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves_in_hayd():
    spans = _spans()
    assert spans.TRACED
    for mod, attr in spans.TRACED:
        target = importlib.import_module(f"hayd.{mod}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (mod, attr)


def test_every_traced_cache_key_is_filled_by_its_builder():
    # the trace reads a build as a hit when its key is already in H._cache;
    # a renamed key would leave every build looking cold and zero the hits
    from hayd.double import build_ah, build_double, build_double_hopf
    from hayd.hopf import sweedler

    spans = _spans()
    H = sweedler()
    for build in (build_ah, build_double, build_double_hopf):
        build(H)
    assert spans.CACHE_KEYS
    for traced, key in spans.CACHE_KEYS.items():
        assert key in H._cache, traced
