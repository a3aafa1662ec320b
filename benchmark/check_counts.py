"""Check that the traced run's exact counts repeat at one seed.

    python3 benchmark/check_counts.py

Runs each workload's traced run twice at SEED and once at SECOND_SEED and
prints the counts in layers.EXACT_COUNTS side by side. Exits 1 when a count
differs between the two runs at the same seed, or when a run fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from layers import EXACT_COUNTS
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 1
SECOND_SEED = 2


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=RUN.parent.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in EXACT_COUNTS}


def main() -> int:
    mismatches = 0
    for workload in WORKLOADS:
        first = traced_counts(workload, SEED)
        again = traced_counts(workload, SEED)
        other = traced_counts(workload, SECOND_SEED)
        print(f"{workload}: seed {SEED} (twice) | seed {SECOND_SEED}")
        for name in EXACT_COUNTS:
            flag = "" if first[name] == again[name] else "  MISMATCH"
            mismatches += bool(flag)
            print(f"  {name:20s} {first[name]:>14g} {again[name]:>14g} | {other[name]:>14g}{flag}")
    print("exact counts repeat" if not mismatches else f"{mismatches} counts differ between runs at one seed")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
