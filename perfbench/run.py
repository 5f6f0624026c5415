"""The repository benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1`` from the root of a checkout.

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``serve-tcp`` — the real ``python -m repro serve`` over loopback TCP;
* ``library-offline`` — Theorem 1 and Corollary 2 schedules, validated;
* ``library-online`` — the on-line kernels, batching, chaos and the
  switch simulator, validated.

With ``--trace 0`` the last stdout line is one JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a separate traced run (``perfbench/layers.py``); names and units come
from ``BENCHMARK.json``.  Diagnostics go to stderr.  The benchmark
measures the source in this checkout's ``src/`` and exits non-zero
without a result if there is none.
"""

from __future__ import annotations

import argparse
import compileall
import json
import signal
import sys

from common import SRC, catalogue, require_source

WORKLOADS = ("serve-tcp", "library-offline", "library-online")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()
    # Cold starts should load bytecode, as an installed package does, not
    # recompile every module (PYTHONDONTWRITEBYTECODE may be set).
    compileall.compile_dir(str(SRC), quiet=1)
    # The daemons stop on SIGINT; a handler here (not an inherited SIG_IGN,
    # as under a non-interactive shell's background job) execs as SIG_DFL.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if args.workload == "serve-tcp":
        import serve_tcp

        report = serve_tcp.run(args.seed, args.seconds, bool(args.trace))
    else:
        import library

        report = library.run(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        from layers import ENTERED, complete

        # each layer the workload enters is one more check
        values, lost = complete(args.workload, report["metrics"])
        if lost:
            print(f"trace lost layers: {', '.join(lost)}", file=sys.stderr)
        attempted += len(ENTERED[args.workload])
        failed += len(lost)
        units = dict(catalogue("per_layer"))
    else:
        units = dict(catalogue("end_to_end"))
        values = {name: report["metrics"][name] for name in units}
    print(json.dumps({"workload": args.workload, "diag": report["diag"]}), file=sys.stderr)
    for name, value in values.items():
        print(f"{name:32s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
