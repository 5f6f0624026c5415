"""Per-layer metrics: which layers each workload enters, and the
reductions from spans.

Every traced run reports every ``per_layer`` metric of
``BENCHMARK.json``.  A layer a workload never enters reads 0
(``serve.*`` on the library workloads, ``core.*`` on ``serve-tcp``),
which is itself the prediction "no change here".  A layer it does enter
(:data:`ENTERED`) must read above 0: a missing or zero figure there
means the trace lost the layer, and counts as a failed operation.

Units: for the library workloads a ``*_ms`` or ``*_calls`` figure is
per operation (one round); for ``serve-tcp`` request-level layers
(parse, admission, serialise, batch-window wait) are per request and
dispatch-level layers (merge, IPC, shard batch, kernel, PathIndex
build) are per call.  The end-to-end metric each one should move is in
``perfbench/README.md``.
"""

from __future__ import annotations

from common import catalogue
from spans import children_with, layer_totals

_SPLIT = ("core.partition.partition_group", "core.partition.even_split_indices",
          "core.partition.even_split_all")
_LOADS = ("core.load.channel_loads", "core.load.apply_delta")
_SETUP = {"setup.import_s", "setup.tree_s", "setup.first_response_s"}
#: per workload, the per-layer metrics that must read above 0
ENTERED = {
    "serve-tcp": _SETUP | {
        "serve.protocol.parse_us", "serve.admit_us", "serve.merge_us",
        "serve.serialize_us", "serve.loop_busy_frac", "serve.batcher.window_wait_ms",
        "serve.batch_size", "serve.shards.ipc_ms", "serve.shards.batch_ms",
        "serve.shard_busy_frac", "perf.batch_ms", "perf.pathindex.build_ms",
        "gen.late_ms", "setup.arena_s", "obs.enabled_ratio"},
    "library-offline": _SETUP | {
        "core.scheduler.thm1_ms", "core.reuse_scheduler.cor2_ms",
        "core.partition.split_ms", "core.partition.split_calls", "core.load.loads_ms",
        "core.schedule.validate_ms", "obs.enabled_ratio"},
    "library-online": _SETUP | {
        "core.online.random_rank_ms", "core.greedy.greedy_ms", "perf.batch_ms",
        "chaos.engine.random_rank_ms", "hardware.switchsim_ms",
        "perf.pathindex.build_ms", "perf.pathindex.invalidate_ms",
        "perf.pathindex.invalidate_calls", "core.schedule.validate_ms",
        "obs.enabled_ratio"},
}


def complete(workload: str, metrics: dict[str, float]) -> tuple[dict[str, float], list[str]]:
    """Every catalogue metric in catalogue order, layers the workload
    skips reading 0; and the entered layers that read nothing."""
    full = {name: metrics.get(name, 0.0) for name, _unit in catalogue("per_layer")}
    lost = sorted(name for name in ENTERED[workload] if not full[name] > 0)
    return full, lost


def _hit_frac(rows: list, t_from: float, t_to: float) -> float:
    lookups, built = children_with(
        rows, "perf.pathindex.lookup", "perf.pathindex.build", t_from, t_to)
    return (lookups - built) / lookups if lookups else 0.0


def library_layers(rows: list, t_from: float, t_to: float, rounds: int) -> dict:
    """Per-round layer figures of a traced library loop."""
    tot = layer_totals(rows, t_from, t_to)

    def total(*names: str, key: str = "total_s") -> float:
        return sum(tot.get(n, {}).get(key, 0.0) for n in names) / rounds

    def ms(*names: str, key: str = "total_s") -> float:
        return total(*names, key=key) * 1e3

    return {
        "core.scheduler.thm1_ms": ms("core.scheduler.thm1"),
        "core.reuse_scheduler.cor2_ms": ms("core.reuse_scheduler.cor2"),
        "core.partition.split_ms": ms(*_SPLIT, key="self_s"),
        "core.partition.split_calls": total("core.partition.even_split_indices",
                                            key="calls"),
        "core.load.loads_ms": ms(*_LOADS, key="self_s"),
        "core.schedule.validate_ms": ms("core.schedule.validate"),
        "core.online.random_rank_ms": ms("core.online.random_rank"),
        "core.greedy.greedy_ms": ms("core.greedy.greedy"),
        "perf.batch_ms": ms("perf.batch"),
        "chaos.engine.random_rank_ms": ms("chaos.engine.random_rank"),
        "hardware.switchsim_ms": ms("hardware.switchsim"),
        "perf.pathindex.build_ms": ms("perf.pathindex.build"),
        "perf.pathindex.hit_frac": _hit_frac(rows, t_from, t_to),
        "perf.pathindex.invalidate_ms": ms("perf.pathindex.invalidate"),
        "perf.pathindex.invalidate_calls": total("perf.pathindex.invalidate",
                                                 key="calls"),
    }


def serve_layers(rows: list, marks: list, waits: list, submits: list) -> dict:
    """Daemon-side layer figures over the marked measurement window."""
    (_, t_from, cpu_from), (_, t_to, cpu_to) = marks[0], marks[-1]
    tot = layer_totals(rows, t_from, t_to)

    def agg(name: str, key: str) -> float:
        return tot.get(name, {}).get(key, 0.0)

    def per_call(name: str, scale: float) -> float:
        calls = agg(name, "calls")
        return agg(name, "total_s") / calls * scale if calls else 0.0

    requests = agg("serve.admit.try_admit", "calls") or 1.0
    in_window = [s for s in submits if t_from <= s[0] <= t_to]
    wait = [w for t, w in waits if t_from <= t <= t_to]
    span = t_to - t_from
    return {
        "serve.protocol.parse_us": per_call("serve.protocol.parse", 1e6),
        "serve.admit_us": ((agg("serve.admit.load_factor", "total_s")
                            + agg("serve.admit.try_admit", "total_s"))
                           / requests * 1e6),
        "serve.merge_us": per_call("obs.metrics.merge", 1e6),
        "serve.serialize_us": ((agg("serve.serialize.as_dict", "total_s")
                                + agg("serve.serialize.dumps", "total_s"))
                               / requests * 1e6),
        "serve.loop_busy_frac": (cpu_to - cpu_from) / span,
        "serve.batcher.window_wait_ms": sum(wait) / len(wait) * 1e3 if wait else 0.0,
        "serve.shards.ipc_ms": (
            sum(rt - w for _, rt, w in in_window) / len(in_window) * 1e3
            if in_window else 0.0),
        "serve.shards.batch_ms": per_call("serve.shards.batch", 1e3),
        "serve.shard_busy_frac": sum(w for _, _, w in in_window) / span,
        "perf.batch_ms": per_call("perf.batch", 1e3),
        "perf.pathindex.build_ms": per_call("perf.pathindex.build", 1e3),
    }
