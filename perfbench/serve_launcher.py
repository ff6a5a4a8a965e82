"""Run ``repro-cli serve`` with the per-layer wrappers installed.

``python perfbench/serve_launcher.py STATS_PREFIX serve ARGS...`` installs
:mod:`layers`, then hands the remaining arguments to ``repro.cli.main``.
Layer statistics are cleared once the daemon has booted (its warm-up is
set-up, not traffic).  On ``SIGUSR1`` the statistics so far are written to
``STATS_PREFIX.mark.json``; when the daemon exits they are written to
``STATS_PREFIX.final.json``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    import layers

    stats = layers.install()

    from repro.cli import main as cli_main
    from repro.serve.daemon import PlanDaemon

    booted = PlanDaemon.start

    async def start(self):
        await booted(self)
        stats.reset()

    PlanDaemon.start = start

    def dump(name: str) -> None:
        path = Path(f"{prefix}.{name}.json")
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(stats.to_dict()))
        tmp.replace(path)

    signal.signal(signal.SIGUSR1, lambda signum, frame: dump("mark"))
    try:
        return cli_main(argv)
    finally:
        dump("final")


if __name__ == "__main__":
    sys.exit(main())
