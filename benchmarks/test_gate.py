"""Self-test of the benchmark's correctness gates and metric names.

    python3 -m pytest benchmarks/test_gate.py -q

A gate that accepts a wrong verdict makes every benchmark figure meaningless,
so each gate is fed known-wrong results here and must count them as wrong.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def hayd():
    return run.fresh_import()


@pytest.fixture(scope="module")
def corrupt(hayd, tmp_path_factory):
    return workloads.make("corrupt", hayd, 0, tmp_path_factory.mktemp("corrupt"))


def _case(corrupt, stem):
    return next(i for i, (path, _) in enumerate(corrupt.cases) if Path(path).stem == stem)


def _verify(corrupt, path):
    return workloads.run_cli(corrupt.cli.main, ["verify", str(path), "--json"])


def test_corrupt_gate_accepts_the_programs_verdicts(corrupt):
    for case in range(0, len(corrupt.cases), 25):
        assert corrupt.check((case, _verify(corrupt, corrupt.cases[case][0]))) == 1


def test_corrupt_gate_rejects_a_pass_on_a_clean_document(corrupt):
    case = _case(corrupt, "sweedler-2-mult-0")
    clean = corrupt.dir / "sweedler-2.json"  # the uncorrupted export
    rc, out = _verify(corrupt, clean)
    assert rc == 0
    assert corrupt.check((case, (rc, out))) == 0


@pytest.mark.parametrize("stem", ["taft-3-f7-comult-5", "fun-s3-antipode-2"])
def test_corrupt_gate_rejects_a_moved_witness(corrupt, stem):
    case = _case(corrupt, stem)
    rc, out = _verify(corrupt, corrupt.cases[case][0])
    report = json.loads(out)
    assert corrupt.check((case, (rc, out))) == 1
    report["witness"] = [(x + 1) % corrupt.expect(case)[0].n for x in report["witness"]]
    assert corrupt.check((case, (rc, json.dumps(report)))) == 0


def test_algebra_oracle_finds_the_first_violation_of_a_full_scan(corrupt):
    case = next(i for i, (_, key) in enumerate(corrupt.cases) if key)
    C, first = corrupt.expect(case)
    n = range(C.n)
    full = next((("associativity", (i, j, k)) for i in n for j in n for k in n
                 if gate.violated(C, "associativity", (i, j, k))), None)
    assert first == full


def test_oracle_witness_list_matches_the_stored_digest(corrupt):
    assert corrupt.witness_digest() == workloads.EXPECTED["corrupt_witness_sha256"]


def test_battery_gate_rejects_changed_bytes(hayd):
    battery = workloads.make("battery", hayd, 0, None)
    rc, out = battery.op()
    assert battery.check((rc, out)) == 119
    assert battery.check((1, out)) == 0
    assert battery.check((rc, out.replace('"passed": true', '"passed": false', 1))) == 0
    assert battery.check((rc, out.replace('"millis": 0', '"millis": 1', 1))) == 0


def test_scale_gate_rejects_a_wrong_algebra(hayd):
    scale = workloads.make("scale", hayd, 0, None)
    small = hayd.build_ah(hayd.taft(3, hayd.prime_field(7), 2))
    assert scale.check(small) == 0
    A = hayd.build_ah(hayd.taft(2, hayd.prime_field(5), 4))
    A.dim = 256  # right size, wrong constants
    assert scale.check(A) == 0


def test_metric_names_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == {name: spans.unit_of(name) for name in spans.PER_LAYER}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
