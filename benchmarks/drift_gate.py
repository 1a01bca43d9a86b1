"""CI drift gate for the committed ``BENCH_*.json`` baselines.

Re-runs one bench module (which rewrites its ``BENCH_*.json`` at the
repo root and asserts its own acceptance gates) and fails when one
number of the regenerated file drifted from the committed baseline by
more than ``limit`` (relative).  One row of the CI matrix per baseline::

    python -m benchmarks.drift_gate benchmarks.bench_shard_scaling \\
        BENCH_shard_scaling.json completion_ms.2 0.20
"""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def value_at(payload: object, dotted: str) -> float:
    """The number at a dotted key path (``arms.snapshot.ratio``)."""
    for key in dotted.split("."):
        payload = payload[key]
    return float(payload)


def main(argv) -> int:
    module, bench_file, dotted, limit = argv
    path = REPO_ROOT / bench_file
    baseline = value_at(json.loads(path.read_text()), dotted)
    subprocess.run([sys.executable, "-m", module], cwd=REPO_ROOT, check=True)
    current = value_at(json.loads(path.read_text()), dotted)
    drift = abs(current - baseline) / baseline if baseline else 1.0
    print(f"{bench_file} {dotted}: baseline {baseline:.4f}, "
          f"current {current:.4f}, drift {drift:.2%} (limit {limit})")
    if drift > float(limit):
        print(f"regression: {dotted} drifted {drift:.2%} from the committed "
              f"baseline; re-baseline {bench_file} if intentional")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
