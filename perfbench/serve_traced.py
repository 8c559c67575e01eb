"""Start ``repro serve`` with the benchmark's layer spans recorded.

Usage::

    python perfbench/serve_traced.py <spans-file> serve [serve options]

Installs the tracer's wrappers, runs ``repro.cli.main`` with the
remaining arguments, and when the server has drained (SIGTERM) writes
every recorded span to ``<spans-file>`` as JSON lines.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.cli import main as repro_main  # noqa: E402

from perfbench.tracing import Tracer, write_spans  # noqa: E402


def main(argv) -> int:
    spans_file = Path(argv[0])
    tracer = Tracer(spans_file.parent / "server-spill").install()
    try:
        return repro_main(argv[1:])
    finally:
        tracer.uninstall()
        write_spans(spans_file, tracer.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
