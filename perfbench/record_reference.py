"""Record the artifact sha256 of every batch workload for a range of
engine seeds.

Usage, from the repository root::

    python3 perfbench/record_reference.py 0 41     # engine seeds 0..41

Benchmark seed ``n`` runs engine seeds ``2n`` and ``2n + 1``
(``batch.engine_seeds``), so 0..41 covers benchmark seeds 0..20.
Writes ``perfbench/reference.json``.  The benchmark compares each run's
artifact with the recorded hash whenever its engine seed is in the table, so
a change that alters engine output fails the benchmark even on seeds
where the in-run reference path would agree with it.  Re-record only
for a change that is meant to alter the artifacts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import batch, common  # noqa: E402


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    table = {}
    for workload in batch.WORKLOADS:
        table[workload] = {}
        for seed in range(first, last + 1):
            sha = batch.timed_run(batch.engine_config(workload, seed))["sha"]
            table[workload][str(seed)] = sha
            print(workload, seed, sha, flush=True)
    common.REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    common.stop_helpers()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
