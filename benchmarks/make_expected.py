"""Regenerate expected.json, the correctness references of the benchmark.

    python3 benchmarks/make_expected.py

Run it only on a commit whose verdicts are known good: the battery digest pins
the ``--json`` bytes of ``hayd suite --builtin all``, the scale digests pin
A_H of taft(4, F_5, zeta) for both zeta, and the witness digest pins the
independent oracle's first violations on the 261 builtin corruptions.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402


def main():
    hayd = run.fresh_import()
    rc, out = workloads.run_cli(hayd.cli.main, ["suite", "--builtin", "all", "--json"])
    if rc != 0:
        raise SystemExit(f"the battery fails (exit {rc}); refusing to pin it")
    expected = {
        "battery_sha256": workloads.sha256(out),
        "scale_mult_sha256": {
            str(z): workloads.mult_digest(hayd.build_ah(hayd.taft(4, hayd.prime_field(5), z)))
            for z in (2, 3)
        },
        "corrupt_witness_sha256": workloads.make("corrupt", hayd, 0, run.WORK / "expected")
        .witness_digest(),
    }
    run.shutil.rmtree(run.WORK, ignore_errors=True)
    (run.HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
