"""The machine output of the whole builtin battery is pinned byte for byte:
``hayd suite --builtin all --json`` must hash to ``battery_sha256`` in
``benchmarks/expected.json``, the digest the benchmark gates every
operation on.  A change to any verdict, witness or key shows here first."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from hayd.cli import main

EXPECTED = Path(__file__).resolve().parent.parent / "benchmarks" / "expected.json"


def test_battery_json_matches_the_pinned_digest():
    want = json.loads(EXPECTED.read_text())["battery_sha256"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["suite", "--builtin", "all", "--json"]) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == want
