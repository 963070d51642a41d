"""The machine output of the whole builtin battery is pinned byte for byte:
``hayd suite --builtin all --json`` must hash to ``battery_sha256`` in
``benchmarks/expected.json``, the digest the benchmark gates every
operation on.  A change to any verdict, witness or key shows here first.
The documents ``hayd build ah`` and ``hayd build double`` write for the
seven builtins are pinned the same way."""

import contextlib
import hashlib
import io
import json
from pathlib import Path
from types import MappingProxyType

from hayd.cli import main
from hayd.suite import BUILTINS
from hayd.tensor import Tensor

EXPECTED = Path(__file__).resolve().parent.parent / "benchmarks" / "expected.json"
BUILDS_SHA256 = "95fe801c207c793b57ea74234fa7dd506a1f0e7e2781621a32ecf4c2e41df414"


def _digest(*argvs) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in argvs:
            assert main(argv) == 0, argv
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _battery() -> str:
    return _digest(["suite", "--builtin", "all", "--json"])


def _builds() -> str:
    return _digest(*(["build", what, "--hopf", name]
                     for name in BUILTINS for what in ("ah", "double")))


def test_battery_json_matches_the_pinned_digest():
    assert _battery() == json.loads(EXPECTED.read_text())["battery_sha256"]


def test_built_documents_match_the_pinned_digest():
    assert _builds() == BUILDS_SHA256


def test_no_path_writes_a_tensor_after_construction(monkeypatch):
    # Tensors hash by value and the identity ledger keys proofs by them, so
    # entries must never change after construction: with every entry map
    # read-only, the battery and the builds run unchanged
    init = Tensor.__init__

    def read_only(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.entries = MappingProxyType(self.entries)

    monkeypatch.setattr(Tensor, "__init__", read_only)
    assert _battery() == json.loads(EXPECTED.read_text())["battery_sha256"]
    assert _builds() == BUILDS_SHA256
