"""Traced daemon: ``python3 perfbench/traced_serve.py LAUNCH_T serve ...``.

Installs the trace hooks, then runs the program's own CLI entry point,
``repro.cli.main(["serve", ...])``.  ``LAUNCH_T`` is the launching
process's ``time.perf_counter()`` at launch.  When the daemon exits
(SIGINT), one JSON line on stdout reports set-up times and the
daemon-side layer figures over the window between the
``perfbench-start`` and ``perfbench-end`` metrics requests.
"""

from __future__ import annotations

import json
import sys
import time

from common import require_source


def main() -> int:
    launch = float(sys.argv[1])
    require_source()
    import hooks
    import repro.cli
    import repro.serve  # noqa: F401  (imported before the hooks patch it)

    spans = hooks.install()
    t_imported = time.perf_counter()
    code = repro.cli.main(sys.argv[2:])
    from layers import serve_layers
    from spans import layer_totals

    setup = layer_totals(spans.rows, 0.0, float("inf"))
    publish_ends = [r[3] for r in spans.rows if r[1] == "perf.shm.publish"]
    report = {
        "import_s": t_imported - launch,
        "tree_s": setup.get("setup.tree", {}).get("total_s", 0.0),
        "arena_s": setup.get("perf.shm.publish", {}).get("total_s", 0.0),
        "arena_done": max(publish_ends, default=t_imported),
        "layers": (serve_layers(spans.rows, hooks.MARKS, hooks.WINDOW_WAITS,
                                hooks.SUBMITS) if len(hooks.MARKS) >= 2 else {}),
    }
    print(json.dumps(report), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
