"""The three workloads: inputs from the seed, one operation, and its correctness gate.

Each workload is built by ``make(name, hayd, seed, work_dir)`` after a fresh
import of hayd; construction is the input generation that ``setup_s`` times.
``op()`` runs one operation and returns its raw result; ``check(result)``
returns how many of the operation's ``verdicts`` equal the known answer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from fractions import Fraction
from pathlib import Path

import gate

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


def run_cli(main, argv):
    """One in-process ``hayd`` invocation: (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mult_digest(algebra) -> str:
    """Digest of the sorted (i, j, k, c) structure constants of an algebra."""
    rows = sorted((*idx, int(c)) for idx, c in algebra.mult.entries.items())
    return sha256(json.dumps(rows))


class Battery:
    """``hayd suite --builtin all --json``: 7 builtins x 17 checks, fresh algebras."""

    verdicts = 119
    visits = itertools.repeat(0)  # the input of each operation: always the same

    def __init__(self, hayd, seed, work_dir):
        self.cli = hayd.cli  # main is looked up per call, so a traced run sees its wrapper

    def op(self):
        return run_cli(self.cli.main, ["suite", "--builtin", "all", "--json"])

    def check(self, result):
        rc, out = result
        if rc != 0 or sha256(out) != EXPECTED["battery_sha256"]:
            return 0
        items = json.loads(out)["results"]
        return sum(1 for it in items if it["passed"] is True and it["witness"] is None)


class Scale:
    """``build_ah`` on a freshly built taft(4, F_5, zeta), zeta in {2, 3} by seed."""

    verdicts = 1
    visits = itertools.repeat(0)

    def __init__(self, hayd, seed, work_dir):
        self.hayd = hayd
        self.zeta = random.Random(seed).choice((2, 3))
        self.field = hayd.prime_field(5)

    def op(self):
        # a fresh algebra (about 10 ms) so that build_ah never finds H._cache filled
        return self.hayd.build_ah(self.hayd.taft(4, self.field, self.zeta))

    def check(self, algebra):
        want = EXPECTED["scale_mult_sha256"][str(self.zeta)]
        return int(algebra.dim == 256 and mult_digest(algebra) == want)


def _corrupt_value(c, p):
    """Double a constant; over F_p 2c mod p, or 1 if that is 0."""
    if p:
        return (2 * c) % p or 1
    return str(2 * Fraction(c))


class Corrupt:
    """``hayd verify <file> --json`` on single-entry corruptions of valid documents.

    Every nonzero constant of the 7 builtins' hopf documents is corrupted once
    (261 files); 64 mult entries of the dim-81 ``build ah`` document of
    taft-3-f7, chosen by the seed, give 64 more.  Files are visited in a seeded
    order, cycling.
    """

    verdicts = 1
    ah_positions = 64

    def __init__(self, hayd, seed, work_dir):
        os.environ["HAYD_MAX_DIM"] = "81"  # the README's instruction for re-ingesting A_H
        self.cli = hayd.cli
        self.dir = Path(work_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cases = []  # (path, corrupted mult key of an A_H document or None)
        for name in sorted(hayd.suite.BUILTINS):
            path = self.dir / f"{name}.json"
            run_cli(self.cli.main, ["export-builtin", name, "-o", str(path)])
            doc = json.loads(path.read_text())
            for key in ("mult", "unit", "comult", "counit", "antipode"):
                for pos in range(len(doc[key])):
                    self._write(doc, key, pos, f"{name}-{key}-{pos}", corrupted=None)
        path = self.dir / "ah-taft-3-f7.json"
        run_cli(self.cli.main, ["build", "ah", "--hopf", "taft-3-f7", "-o", str(path)])
        doc = json.loads(path.read_text())
        rng = random.Random(seed)
        for pos in sorted(rng.sample(range(len(doc["mult"])), self.ah_positions)):
            e = doc["mult"][pos]
            self._write(doc, "mult", pos, f"ah-mult-{pos}", corrupted=(e["i"], e["j"], e["k"]))
        self.order = list(range(len(self.cases)))
        rng.shuffle(self.order)
        self.visits = []  # the case of each operation, in order
        self.oracle: dict[int, tuple] = {}  # case -> (Constants, first violation), by check

    def _write(self, doc, key, pos, stem, corrupted):
        entry = doc[key][pos]
        p = doc["field"].get("characteristic")
        bad = dict(doc, **{key: list(doc[key])})
        bad[key][pos] = dict(entry, c=_corrupt_value(entry["c"], p))
        path = self.dir / f"{stem}.json"
        path.write_text(json.dumps(bad))
        self.cases.append((str(path), corrupted))

    def op(self):
        case = self.order[len(self.visits) % len(self.order)]
        self.visits.append(case)
        return case, run_cli(self.cli.main, ["verify", self.cases[case][0], "--json"])

    def expect(self, case):
        """The document's constants and its first violation, computed without hayd."""
        if case not in self.oracle:
            path, corrupted = self.cases[case]
            C = gate.Constants(json.loads(Path(path).read_text()))
            first = (gate.first_algebra_violation(C, corrupted) if corrupted
                     else gate.first_hopf_violation(C))
            self.oracle[case] = C, first
        return self.oracle[case]

    def check(self, result):
        case, (rc, out) = result
        C, first = self.expect(case)
        report = json.loads(out)
        axiom, witness = report["check"], tuple(report["witness"] or ())
        return int(
            rc == 1
            and report["passed"] is False
            and gate.in_range(C, axiom, witness)
            and (axiom, witness) == first
            and gate.violated(C, axiom, witness)
        )

    def witness_digest(self):
        """Digest of (file, axiom, witness) over the seed-independent builtin cases."""
        rows = [(Path(path).name, *self.expect(i)[1])
                for i, (path, corrupted) in enumerate(self.cases) if corrupted is None]
        return sha256(json.dumps(rows))


WORKLOADS = {"battery": Battery, "scale": Scale, "corrupt": Corrupt}


def make(name, hayd, seed, work_dir):
    return WORKLOADS[name](hayd, seed, work_dir)
