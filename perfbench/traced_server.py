"""``python -m repro serve`` with the benchmark's layer spans installed.

Usage (from the repository root)::

    python3 perfbench/traced_server.py SPANS.json serve --port 0 --workers 2

Installs the wrappers of ``layers.py`` in this process, then runs the
``repro`` command line with the arguments after ``SPANS.json``.  When
the server stops (SIGINT, as for ``repro serve``) the spans and notes
are written to ``SPANS.json``.
"""

from __future__ import annotations

import sys

import layers
from workloads import use_source_tree


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    use_source_tree()
    from repro.cli import main as repro_main

    recorder = layers.Recorder()
    uninstall = layers.install(recorder)
    try:
        return repro_main(argv)
    finally:
        uninstall()
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
