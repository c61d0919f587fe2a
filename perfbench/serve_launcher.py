"""Run the ``repro`` CLI in this process, optionally under the ledger.

Usage::

    python3 perfbench/serve_launcher.py [--ledger PATH] -- <repro arguments>

With ``--ledger`` the per-layer wrappers (``perfbench.ledger``) are
installed before the ``repro`` entry point runs, and the process's
layer self times and counts are written to ``PATH`` as JSON when it
exits (``serve`` exits cleanly on SIGINT).  The ``serve-mix`` workload
starts its layout server through this launcher either way, so traced
and untraced servers start the same way.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv) -> int:
    """Parse the launcher flags, then hand the rest to ``repro``."""
    ledger_path = None
    if argv[:1] == ["--ledger"]:
        ledger_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.cli import main as repro_main

    if ledger_path is None:
        return repro_main(argv)
    from perfbench.ledger import Ledger, dump, install

    installation = install(Ledger())
    try:
        return repro_main(argv)
    finally:
        values = installation.ledger.take()
        installation.uninstall()
        dump(values, ledger_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
