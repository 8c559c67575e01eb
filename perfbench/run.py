"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload catalog-flash --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures for ``--seconds`` and prints the end-to-end
metrics; ``--trace 1`` runs a fixed amount of work with spans recorded
around every layer and prints the per-layer metrics.  Each metric is
printed by name with its unit, and the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro  # noqa: E402 - fails (exit 1) when the program is absent

from perfbench import batch, common, service_mix, tracing  # noqa: E402

if common.SRC not in Path(repro.__file__).resolve().parents:
    sys.exit(f"repro imported from {repro.__file__}, not from {common.SRC}")

WORKLOADS = batch.WORKLOADS + (service_mix.WORKLOAD,)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if args.workload == service_mix.WORKLOAD:
            bench = service_mix.ServiceBench(args.seed)
        else:
            bench = batch.BatchBench(args.workload, args.seed)
        if args.trace:
            metrics, units = bench.trace()["metrics"], tracing.PER_LAYER
        else:
            metrics, units = bench.measure(args.seconds), common.END_TO_END
        correct = common.emit(bench.ledger, metrics, units)
    finally:
        common.stop_helpers()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
