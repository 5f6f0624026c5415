"""The library workloads: ``library-offline`` and ``library-online``.

Both are closed loops in one process.  One operation is one *round* on
that round's seed; inputs are generated before the round's clock
starts, and the round's time covers every scheduler call plus
``Schedule.validate`` on each result.  After the clock stops each
result is checked against the paper's bounds, and round 0 is checked
against independent cold-start processes (same seed, same cycle
counts) and, for the batched kernels, against solo calls.  Before the
loop, one untimed *check round* must reproduce every cycle count
recorded for it in ``expected_cycles.json``.

Run as a script, this module is one cold start
(``python3 perfbench/library.py WORKLOAD SEED``: import, build the
trees, produce the first validated schedule of round 0, print one JSON
line and exit), or records the check rounds' cycle counts
(``python3 perfbench/library.py --record``).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import calibrate
from calibrate import HostSpeed
from common import (
    ROOT,
    median,
    obs_ratio,
    percentile,
    require_source,
    timed_first_line,
    vm_hwm_mb,
)

OFFLINE = "library-offline"
ONLINE = "library-online"
COLD_STARTS = 9
#: check round ``j`` has the inputs of round 0 of seed ``j``; a run with
#: seed ``s`` replays check round ``s % CHECK_ROUNDS``
CHECK_ROUNDS = 16
EXPECTED = ROOT / "perfbench" / "expected_cycles.json"


def round_seed(seed: int, r: int) -> int:
    return seed * 1_000_003 + 64 * r


class Trees:
    """The fixed trees of a workload, built once (part of set-up)."""

    def __init__(self, workload: str) -> None:
        from repro.core import ConstantCapacity, FatTree, UniversalCapacity

        if workload == OFFLINE:
            # Theorem 1 on a universal tree; Corollary 2 on lg n-wide channels
            self.universal = FatTree(4096, UniversalCapacity(4096, 4096, strict=False))
            self.wide = FatTree(1024, ConstantCapacity(10, 40))
        else:
            self.universal = FatTree(1024, UniversalCapacity(1024, 1024, strict=False))
            self.small = FatTree(256, UniversalCapacity(256, 256, strict=False))


def _ops() -> dict:
    from repro.chaos import run_chaos_random_rank
    from repro.core import (
        schedule_corollary2,
        schedule_greedy_first_fit,
        schedule_random_rank,
        schedule_theorem1,
    )
    from repro.hardware.switchsim import run_until_delivered
    from repro.perf import batch

    return {
        "core.scheduler.thm1": schedule_theorem1,
        "core.reuse_scheduler.cor2": schedule_corollary2,
        "core.online.random_rank": schedule_random_rank,
        "core.greedy.greedy": schedule_greedy_first_fit,
        # looked up per call so a traced run sees the hooked module attribute
        "perf.batch": lambda *a, **k: batch.batch_schedule(*a, **k),
        "chaos.engine.random_rank": run_chaos_random_rank,
        "hardware.switchsim": run_until_delivered,
    }


class Result:
    """One schedule's outcome, checked after the round's clock stops."""

    __slots__ = ("kind", "cycles", "delivered", "ft", "ms")

    def __init__(self, kind: str, cycles: int, delivered: int, ft, ms) -> None:
        self.kind, self.cycles, self.delivered, self.ft, self.ms = (
            kind, cycles, delivered, ft, ms)


def _routed(schedule) -> int:
    return sum(len(c) for c in schedule.cycles)


def _validated(kind: str, schedule, ft, ms) -> Result:
    schedule.validate(ft, ms)
    return Result(kind, schedule.num_cycles, _routed(schedule), ft, ms)


def round_inputs(workload: str, trees: Trees, rs: int) -> dict:
    from repro.workloads import hotspot, uniform_random

    if workload == OFFLINE:
        return {
            "thm1": uniform_random(4096, 4 * 4096, seed=rs),
            "cor2": uniform_random(1024, 4 * 1024, seed=rs + 1),
        }
    from repro.chaos import random_timeline

    return {
        "uniform": uniform_random(1024, 4 * 1024, seed=rs),
        "hotspot": hotspot(1024, 1024, fraction=0.1, seed=rs + 1),
        "batch": [uniform_random(256, 64, seed=rs + 8 + b) for b in range(32)],
        "timeline": random_timeline(trees.universal, seed=rs + 3, allow_kills=False),
        "switch": uniform_random(256, 512, seed=rs + 4),
        "rs": rs,
    }


def run_round(workload: str, trees: Trees, inp: dict, ops: dict,
              first_only: bool = False) -> list[Result]:
    """One operation: every scheduler call of the round plus validation."""
    if workload == OFFLINE:
        # the smaller Corollary 2 schedule first: it is a cold start's first
        # result, so less of set-up time depends on the seed's input
        ft, ms = trees.wide, inp["cor2"]
        out = [_validated("cor2", ops["core.reuse_scheduler.cor2"](ft, ms), ft, ms)]
        if first_only:
            return out
        ft, ms = trees.universal, inp["thm1"]
        out.append(_validated("thm1", ops["core.scheduler.thm1"](ft, ms), ft, ms))
        return out
    ft, rs = trees.universal, inp["rs"]
    out = []
    for ms in (inp["uniform"], inp["hotspot"]):
        out.append(_validated(
            "random_rank", ops["core.online.random_rank"](ft, ms, seed=rs), ft, ms))
        if first_only:
            return out
        out.append(_validated("greedy", ops["core.greedy.greedy"](ft, ms), ft, ms))
    small, sets = trees.small, inp["batch"]
    for kernel in ("greedy", "random_rank"):
        scheds = ops["perf.batch"](small, sets, kernel=kernel, seed=rs)
        out.extend(_validated("batch_" + kernel, s, small, ms)
                   for s, ms in zip(scheds, sets))
    ms = inp["uniform"]
    chaos = ops["chaos.engine.random_rank"](ft, ms, inp["timeline"], seed=rs)
    out.append(_validated("chaos", chaos, ft, ms))
    ms = inp["switch"]
    outcome = ops["hardware.switchsim"](small, ms, seed=rs)
    # the simulator also reports self-messages as delivered
    delivered = sum(len(r.delivered) for r in outcome.reports)
    if delivered != len(ms) or len(outcome.attempts) != len(ms):
        raise AssertionError("switch simulator lost messages")
    routed = len(ms.without_self_messages())
    out.append(Result("switchsim", outcome.cycles, routed, small, ms))
    return out


def check(results: list[Result]) -> list[float]:
    """Paper-bound checks; returns each result's ``cycles / ⌈λ⌉``."""
    from repro.core import corollary2_cycle_bound, load_factor, theorem1_cycle_bound

    ratios = []
    for res in results:
        lam = load_factor(res.ft, res.ms)
        need = max(1, math.ceil(lam - 1e-9))
        if res.kind == "thm1" and res.cycles > theorem1_cycle_bound(res.ft, lam):
            raise AssertionError(f"Theorem 1 bound exceeded: {res.cycles} cycles")
        if res.kind == "cor2" and res.cycles > corollary2_cycle_bound(res.ft, lam):
            raise AssertionError(f"Corollary 2 bound exceeded: {res.cycles} cycles")
        if res.kind != "chaos" and res.cycles < need:
            raise AssertionError(f"{res.kind}: {res.cycles} cycles < ⌈λ⌉ = {need}")
        ratios.append(res.cycles / need)
    return ratios


def check_batch_parity(trees: Trees, inp: dict, results: list[Result]) -> None:
    """Batched schedules must equal solo calls (the bit-parity contract)."""
    from repro.core import schedule_greedy_first_fit, schedule_random_rank

    small, rs = trees.small, inp["rs"]
    solo = {
        "batch_greedy": lambda ms: schedule_greedy_first_fit(small, ms),
        "batch_random_rank": lambda ms: schedule_random_rank(small, ms, seed=rs),
    }
    for kind, fn in solo.items():
        got = [r.cycles for r in results if r.kind == kind]
        want = [fn(ms).num_cycles for ms in inp["batch"]]
        if got != want:
            raise AssertionError(f"{kind} differs from solo calls")


def check_round(workload: str, trees: Trees, ops: dict, seed: int) -> bool:
    """Replay the seed's check round; True if every schedule passes the
    checks and has the recorded cycle count."""
    j = seed % CHECK_ROUNDS
    inp = round_inputs(workload, trees, round_seed(j, 0))
    try:
        results = run_round(workload, trees, inp, ops)
        check(results)
    except (AssertionError, ValueError, RuntimeError) as exc:
        print(f"check round {j} failed: {exc!r}", file=sys.stderr)
        return False
    want = json.loads(EXPECTED.read_text())[workload][j]
    got = [res.cycles for res in results]
    if got != want:
        bad = [k for k, (g, w) in enumerate(zip(got, want)) if g != w]
        print(f"check round {j}: cycle counts differ from the recorded ones "
              f"(schedules {bad or 'count'})", file=sys.stderr)
        return False
    return True


def record() -> None:
    """Write every check round's cycle counts to ``expected_cycles.json``."""
    require_source()
    ops = _ops()
    out = {}
    for workload in (OFFLINE, ONLINE):
        trees = Trees(workload)
        out[workload] = [
            [res.cycles for res in run_round(
                workload, trees, round_inputs(workload, trees, round_seed(j, 0)), ops)]
            for j in range(CHECK_ROUNDS)]
    EXPECTED.write_text(json.dumps(out, separators=(",", ":")) + "\n")


def cold_start(workload: str, seed: int) -> None:
    """One cold start: first validated schedule of round 0, then exit."""
    require_source()
    ops = _ops()  # imports every module the workload calls
    t_imported = time.perf_counter()
    trees = Trees(workload)
    tree_s = time.perf_counter() - t_imported
    first = run_round(workload, trees, round_inputs(workload, trees, round_seed(seed, 0)),
                      ops, first_only=True)
    check(first)
    print(json.dumps({"cycles": first[0].cycles, "t_imported": t_imported,
                      "tree_s": tree_s}), flush=True)


def cold_starts(workload: str, seed: int, count: int) -> list[dict]:
    """``count`` cold-start processes, each timed launch → first result:
    ``raw_s`` as measured, ``setup_s`` at the reference start speed."""
    runs = []
    host = calibrate.starts()
    host.sample()
    for _ in range(count):
        launch = time.perf_counter()
        elapsed, line = timed_first_line(
            [sys.executable, str(ROOT / "perfbench" / "library.py"), workload, str(seed)])
        info = json.loads(line)
        info["raw_s"] = elapsed
        info["setup_s"] = host.around(elapsed)
        info["import_s"] = info["t_imported"] - launch
        runs.append(info)
    return runs


def _loop(workload: str, trees: Trees, seed: int, ops: dict, host: HostSpeed, *,
          seconds: float | None = None, rounds: int | None = None) -> dict:
    """Closed loop of rounds, for ``seconds`` or for ``rounds`` rounds.

    A round that raises (a schedule failing validation or a bound)
    counts as failed and is not timed.  A host calibration sample
    follows every round; ``ref_times`` are the round times at reference
    host speed.
    """
    times, ref_times, ratios, cycles0 = [], [], [], None
    delivered = failed = r = 0
    t_end = time.perf_counter() + (seconds or 0.0)
    host.sample()
    while (r < rounds) if rounds is not None else (time.perf_counter() < t_end):
        inp = round_inputs(workload, trees, round_seed(seed, r))
        r += 1
        try:
            t0 = time.perf_counter()
            results = run_round(workload, trees, inp, ops)
            elapsed = time.perf_counter() - t0
            ratios.extend(check(results))
            if r == 1 and workload == ONLINE:
                check_batch_parity(trees, inp, results)
        except (AssertionError, ValueError, RuntimeError) as exc:
            print(f"round {r - 1} failed: {exc!r}", file=sys.stderr)
            failed += 1
            continue
        times.append(elapsed)
        ref_times.append(host.around(elapsed))
        delivered += sum(res.delivered for res in results)
        if r == 1:
            cycles0 = results[0].cycles
    return {"times": times, "ref_times": ref_times, "ratios": ratios,
            "delivered": delivered,
            "cycles0": cycles0, "failed": failed, "rounds": r}


def _obs_ratio(workload: str, trees: Trees, seed: int) -> float:
    """Kernel time with a metrics-enabled ``Obs`` over time with obs off."""
    from repro.core import schedule_corollary2, schedule_theorem1
    from repro.perf import batch

    inp = round_inputs(workload, trees, round_seed(seed, 0))
    if workload == OFFLINE:
        def call(obs):
            schedule_theorem1(trees.universal, inp["thm1"], obs=obs)
            schedule_corollary2(trees.wide, inp["cor2"], obs=obs)
    else:
        def call(obs):
            for kernel in ("greedy", "random_rank"):
                batch.batch_schedule(trees.small, inp["batch"], kernel=kernel,
                                     seed=inp["rs"], obs=obs)
    return obs_ratio(call, 7)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """The benchmark run of one library workload; returns its report."""
    host = calibrate.rounds()
    colds = cold_starts(workload, seed, COLD_STARTS)
    trees = Trees(workload)
    ops = _ops()
    # the check round also warms the in-process caches before any timing
    checked = check_round(workload, trees, ops, seed)
    if not trace:
        res = _loop(workload, trees, seed, ops, host, seconds=seconds)
        failed = res["failed"] + sum(1 for c in colds if c["cycles"] != res["cycles0"])
        failed += int(not checked)
        n = len(res["times"])
        raw = {
            "setup_s": median([c["raw_s"] for c in colds]),
            "p50_ms": percentile(res["times"], 50) * 1e3,
            "p90_ms": percentile(res["times"], 90) * 1e3,
            "max_rate_rps": n / sum(res["times"]),
            "msgs_per_s": res["delivered"] / sum(res["times"]),
        }
        ref, ref_busy = res["ref_times"], sum(res["ref_times"])
        metrics = {
            "setup_s": median([c["setup_s"] for c in colds]),
            "p50_ms": percentile(ref, 50) * 1e3,
            "p90_ms": percentile(ref, 90) * 1e3,
            "max_rate_rps": n / ref_busy,
            "msgs_per_s": res["delivered"] / ref_busy,
            "peak_rss_mb": vm_hwm_mb(os.getpid()),
            "cycles_per_lambda": sum(res["ratios"]) / len(res["ratios"]),
        }
        diag = {"rounds": n, "raw": raw, "host_scale": ref_busy / sum(res["times"]),
                "calibrations": len(host.samples),
                "cold_starts": [c["raw_s"] for c in colds]}
        return {"attempted": res["rounds"] + len(colds) + 1, "failed": failed,
                "metrics": metrics, "diag": diag}

    import hooks

    plain = _loop(workload, trees, seed, ops, host, seconds=seconds / 2)
    rounds = len(plain["times"])
    spans = hooks.install()
    traced_ops = {name: spans.wrap(name, fn) if name != "perf.batch" else fn
                  for name, fn in ops.items()}
    t_from = time.perf_counter()
    traced = _loop(workload, trees, seed, traced_ops, host, rounds=rounds)
    t_to = time.perf_counter()
    from layers import library_layers

    failed = plain["failed"] + traced["failed"] + int(not checked)
    failed += sum(1 for c in colds if c["cycles"] != plain["cycles0"])
    failed += int(traced["cycles0"] != plain["cycles0"])
    metrics = library_layers(spans.rows, t_from, t_to, rounds)
    metrics["obs.enabled_ratio"] = _obs_ratio(workload, trees, seed)
    metrics["trace.overhead_frac"] = (
        median(traced["ref_times"]) / median(plain["ref_times"]) - 1.0)
    metrics["setup.import_s"] = median([c["import_s"] for c in colds])
    metrics["setup.tree_s"] = median([c["tree_s"] for c in colds])
    metrics["setup.first_response_s"] = median(
        [c["raw_s"] - c["import_s"] - c["tree_s"] for c in colds])
    return {"attempted": plain["rounds"] + traced["rounds"] + len(colds) + 1,
            "failed": failed,
            "metrics": metrics, "diag": {"rounds": rounds}}


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
    else:
        cold_start(sys.argv[1], int(sys.argv[2]))
