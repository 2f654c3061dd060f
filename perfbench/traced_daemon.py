"""Traced daemon launcher: install the timing wrappers, then serve.

Usage: ``python perfbench/traced_daemon.py SPANS.json start [daemon flags]``

Runs the same ``repro.serve`` CLI as the untraced daemon, so the only
difference between the two runs is the wrappers.  The spans are written
to ``SPANS.json`` once the daemon has stopped.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracing.install_serve()
    from repro.serve.cli import main as serve_main

    try:
        return serve_main(argv)
    finally:
        tracing.TRACER.dump(Path(spans_path))


if __name__ == "__main__":
    sys.exit(main())
