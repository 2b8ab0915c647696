"""``repro serve`` with spans installed before the worker pool forks.

Usage::

    python3 -m perfbench.serve_entry --trace-dir DIR serve --bundle B ...

Everything after ``--trace-dir DIR`` is handed to ``repro.cli.main``.  The
serving parent writes ``DIR/spans-<pid>.json`` when ``repro serve`` returns
(after its SIGTERM drain); each forked worker writes its own file when it
exits.
"""

from __future__ import annotations

import sys
from pathlib import Path

from perfbench.tracing import Recorder, install_core, install_serve


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--trace-dir":
        print("usage: serve_entry --trace-dir DIR <repro arguments>", file=sys.stderr)
        return 2
    recorder = Recorder(Path(argv[1]))
    install_core(recorder)
    install_serve(recorder)
    recorder.write_on_fork_exit()

    from repro.cli import main as repro_main

    try:
        return repro_main(argv[2:])
    finally:
        recorder.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
