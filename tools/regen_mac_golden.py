#!/usr/bin/env python3
"""Regenerate the adaptation-trajectory golden vectors in results/golden/.

Runs the probe's adaptive-MAC ablation report for the drift-ramp scenario
and stores the adaptive arm's rate-ladder trajectory plus its headline
counters as pretty-printed JSON. The diff test
tests/mac_scenarios.rs::golden_adaptation_trajectory_matches replays the
same scenario and compares field-for-field, so rerun this script whenever
a PHY or MAC change intentionally shifts the adaptation path — and eyeball
the diff before committing.

Usage:  python3 tools/regen_mac_golden.py   (from the repo root)
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ["drift_ramp"]


def regen(name: str) -> None:
    cmd = [
        "cargo", "run", "--release", "-q", "-p", "fdb-bench", "--bin", "probe", "--",
        "mac",
        "--config", f"configs/scenarios/{name}.json",
    ]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    summary = json.loads(out.stdout.splitlines()[-1])
    assert summary.get("summary"), "probe did not end with a summary line"
    adaptive = summary["adaptive"]
    golden = {
        "scenario": f"configs/scenarios/{name}.json",
        "label": summary["label"],
        "ladder_trajectory": adaptive["ladder_trajectory"],
        "delivered_payloads": adaptive["delivered_payloads"],
        "failed_payloads": adaptive["failed_payloads"],
        "attempts": adaptive["attempts"],
        "rate_switches": adaptive["rate_switches"],
        "elapsed_samples": adaptive["elapsed_samples"],
    }
    dest = ROOT / "results" / "golden" / f"mac_{name}.json"
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {dest.relative_to(ROOT)}")


def main() -> int:
    for name in SCENARIOS:
        regen(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
