#!/usr/bin/env python3
"""Regenerate the fault-injection golden vectors in results/golden/.

Runs the probe's link report for each bundled fault plan against
configs/default_link.json (6 frames, default seed) and stores the
resulting LinkMetrics as pretty-printed JSON. The diff test
tests/fault_conformance.rs::golden_fault_vectors_match compares fresh
runs against these files field-for-field, so rerun this script whenever
a PHY change intentionally shifts the faulted metrics — and eyeball the
diff before committing.

Usage:  python3 tools/regen_fault_golden.py   (from the repo root)
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PLANS = ["burst_collision", "drift_ramp", "sic_step"]
FRAMES = "6"


def regen(plan: str) -> None:
    cmd = [
        "cargo", "run", "--release", "-q", "-p", "fdb-bench", "--bin", "probe", "--",
        "link",
        "--config", "configs/default_link.json",
        "--faults", f"configs/faults/{plan}.json",
        "--frames", FRAMES,
    ]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    summary = json.loads(out.stdout.splitlines()[0])
    dest = ROOT / "results" / "golden" / f"fault_{plan}.json"
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(json.dumps(summary["metrics"], indent=2) + "\n")
    print(f"wrote {dest.relative_to(ROOT)}")


def main() -> int:
    for plan in PLANS:
        regen(plan)
    return 0


if __name__ == "__main__":
    sys.exit(main())
