"""The ``serve-tcp`` workload: the real ``python -m repro serve`` over TCP.

The daemon serves n=256 with one shard and 64 published warm sets of 32
messages.  Requests are 32-message uniform sets; kernels alternate
between greedy and random_rank (two compat keys), and half the sets are
the published warm sets while half are fresh to this run.  Small sets
make the per-request path (parse, λ admission, batch window, pickle and
IPC, metrics merge, serialise) dominate the kernel.  One shard keeps
the generator, the event loop and the shard within two cores.

Every request's expected ``(num_cycles, delivered)`` is computed first
with an in-process solo call; the batch kernels are bit-identical to
solo calls, so any response that is refused, missing or different
counts as failed.

Load comes from this one process over two connections, with every
line encoded before its phase starts.  The latency phase is open-loop
at a fixed rate and times each request from its due time.  The
capacity phase is a closed loop with a fixed number of requests in
flight.  Rate, in-flight count and p90 limit are absolute constants,
so a parent commit and a change see the same load.
"""

from __future__ import annotations

import json
import math
import os
import select
import signal
import subprocess
import sys
import time

import calibrate
import loadgen
from common import (
    ROOT,
    child_env,
    child_pids,
    cmdline,
    median,
    obs_ratio,
    percentile,
    steal_share,
    vm_hwm_mb,
)

N = 256
MESSAGES = 32
WARM_SETS = 64
FRESH_SETS = 192
KERNELS = ("greedy", "random_rank")
DAEMON_ARGS = ["serve", "--n", str(N), "--shards", "1", "--warm-sets", str(WARM_SETS),
               "--warm-messages", str(MESSAGES), "--port", "0"]

#: offered rate of the latency phase: well under the knee on two shared
#: cores (the knee moved between about 700 and 2000 req/s with host load)
RATE = 400.0
#: latency and throughput are taken per window this long
WINDOW_S = 0.5
#: a window counts only if the hypervisor stole at most this share of the
#: host's CPU time during it; latency rose steadily with steal (p90 about
#: 13 ms at none, 22 ms at 10%, 40 ms at 25%); steal comes from other
#: tenants of the host, which the program cannot create
STEAL_MAX = 0.05
#: if fewer windows qualify, the least-stolen MIN_WINDOWS count instead
MIN_WINDOWS = 6
#: p90 latency limit of max_rate_rps
P90_LIMIT_MS = 100.0
#: max_rate_rps comes from a closed loop holding this many requests in
#: flight: enough to keep the shard saturated, few enough that p90 stays
#: near half the limit on two idle cores (96 in flight gave about 7%
#: more throughput at p90 near 75 ms).  An open-loop rate ladder moved
#: by up to 2x between runs with host load, because short steps each
#: caught or missed a burst of contention
IN_FLIGHT = 64
#: latency and capacity phases alternate in this many segments each, so
#: a spell of host contention lasting seconds cannot cover a whole phase
SEGMENTS = 5
#: more request lines than any closed-loop segment can send
MAX_RATE = 5000.0
WARMUP_S = 1.0
COLD_STARTS = 9
CONNECTIONS = 2


class Mix:
    """The seed's request pool: bodies, expected results and the pick order."""

    def __init__(self, seed: int) -> None:
        import numpy as np
        from repro.core import FatTree, UniversalCapacity, schedule_greedy_first_fit
        from repro.core import schedule_random_rank
        from repro.workloads import uniform_random

        self.tree = FatTree(N, UniversalCapacity(N, N, strict=False))
        # the daemon publishes uniform_random(n, m, seed=k) for k < warm sets
        warm = [uniform_random(N, MESSAGES, seed=k) for k in range(WARM_SETS)]
        fresh = [uniform_random(N, MESSAGES, seed=(1 << 40) + seed * 4096 + j)
                 for j in range(FRESH_SETS)]
        self.sets = warm + fresh
        self.bodies: dict[tuple[int, str], bytes] = {}
        self.expected: dict[tuple[int, str], tuple[int, int]] = {}
        for s, ms in enumerate(self.sets):
            for kernel in KERNELS:
                if kernel == "greedy":
                    sched = schedule_greedy_first_fit(self.tree, ms)
                else:
                    sched = schedule_random_rank(self.tree, ms, seed=0)
                self.expected[s, kernel] = (
                    sched.num_cycles, sum(len(c) for c in sched.cycles))
                self.bodies[s, kernel] = (
                    '"src":%s,"dst":%s,"kernel":"%s","seed":0}\n'
                    % (json.dumps(ms.src.tolist()), json.dumps(ms.dst.tolist()), kernel)
                ).encode()
        rng = np.random.default_rng(seed)
        self._warm = rng.integers(0, WARM_SETS, 1 << 16).tolist()
        self._fresh = (WARM_SETS + rng.integers(0, FRESH_SETS, 1 << 16)).tolist()

    def key(self, i: int) -> tuple[int, str]:
        """Request ``i``: kernels alternate; warm and fresh sets alternate in pairs."""
        j = (i // 4) % len(self._warm)
        s = self._warm[j] if (i // 2) % 2 == 0 else self._fresh[j]
        return s, KERNELS[i % 2]


class Phase:
    """One load phase (open or closed loop): encoded lines, due times, outcome."""

    def __init__(self, mix: Mix, tag: str, start: int, rate: float, seconds: float):
        count = max(1, int(rate * seconds))
        self.keys = [mix.key(start + i) for i in range(count)]
        ids = [f"{tag}{i}" for i in range(count)]
        self.ids = {rid: i for i, rid in enumerate(ids)}
        self.lines = [b'{"id":"%s",' % rid.encode() + mix.bodies[k]
                      for rid, k in zip(ids, self.keys)]
        self.rate = rate
        self.mix = mix

    def run(self, conns: list) -> "Phase":
        self.start = time.perf_counter() + 0.02
        self.due = [self.start + i / self.rate for i in range(len(self.lines))]
        self.out = loadgen.drive(conns, self.lines, self.due, self.ids, grace_s=20.0,
                                 tick_every=WINDOW_S)
        return self

    def run_closed(self, conns: list, outstanding: int, seconds: float) -> "Phase":
        """Closed loop: ``outstanding`` requests in flight for ``seconds``."""
        self.due = [0.0] * len(self.lines)
        self.start = time.perf_counter()
        self.until = self.start + seconds
        self.out = loadgen.drive(conns, self.lines, self.due, self.ids, grace_s=20.0,
                                 outstanding=outstanding, until=self.until,
                                 tick_every=WINDOW_S)
        return self

    def correct(self, i: int) -> bool:
        r = self.out.resp[i]
        return (r is not None and r.get("ok") is True
                and (r["num_cycles"], r["delivered"]) == self.mix.expected[self.keys[i]])

    @property
    def failed(self) -> int:
        return sum(1 for i in range(self.out.count) if not self.correct(i))

    def latencies_ms(self, part: slice = slice(None)) -> list[float]:
        o = self.out
        return [(o.recv[i] - self.due[i]) * 1e3
                for i in range(o.count)[part] if o.resp[i] is not None]

    def steal(self, a: float, b: float) -> float:
        """Host steal share over ``[a, b]`` from the phase's tick samples."""
        ticks = self.out.ticks
        before = max((t for t in ticks if t[0] <= a), default=ticks[0], key=lambda t: t[0])
        after = min((t for t in ticks if t[0] >= b), default=ticks[-1], key=lambda t: t[0])
        return steal_share(before[1], after[1])

    def latency_windows(self) -> list[tuple[float, float, float]]:
        """``(steal, p50 ms, p90 ms)`` per window of an open-loop phase, by
        due time, leaving out the first (the hand-over from the last phase)."""
        per = max(1, int(self.rate * WINDOW_S))
        out = []
        for lo in range(per, self.out.count - per + 1, per):
            lat = self.latencies_ms(slice(lo, lo + per))
            if lat:
                out.append((self.steal(self.due[lo], self.due[lo + per - 1]),
                            percentile(lat, 50), percentile(lat, 90)))
        return out

    def completion_windows(self) -> list[tuple[float, float, float]]:
        """``(steal, completions per second, p90 ms)`` per window of a
        closed-loop phase, leaving out the first (ramp-up)."""
        o = self.out
        slots: dict[int, list[float]] = {}
        for i in range(o.count):
            if o.resp[i] is not None:
                slots.setdefault(int((o.recv[i] - self.start) / WINDOW_S), []).append(
                    (o.recv[i] - self.due[i]) * 1e3)
        last = int((self.until - self.start) / WINDOW_S)
        return [(self.steal(self.start + k * WINDOW_S, self.start + (k + 1) * WINDOW_S),
                 len(slots[k]) / WINDOW_S, percentile(slots[k], 90))
                for k in range(1, last) if slots.get(k)]

    def late_ms(self) -> list[float]:
        return [(s - d) * 1e3 for s, d in zip(self.out.sent, self.due)]


def _readline(stream, timeout: float) -> bytes:
    """One line from a pipe, or raise after ``timeout`` seconds."""
    buf = b""
    end = time.monotonic() + timeout
    while not buf.endswith(b"\n"):
        left = end - time.monotonic()
        if left <= 0 or not select.select([stream], [], [], left)[0]:
            raise TimeoutError("daemon did not announce its port")
        chunk = os.read(stream.fileno(), 1)
        if not chunk:
            raise RuntimeError("daemon exited before serving")
        buf += chunk
    return buf


class Daemon:
    """One daemon process in its own process group."""

    def __init__(self, traced: bool) -> None:
        self.launch = time.perf_counter()
        if traced:
            argv = [sys.executable, str(ROOT / "perfbench" / "traced_serve.py"),
                    repr(self.launch), *DAEMON_ARGS]
        else:
            argv = [sys.executable, "-m", "repro", *DAEMON_ARGS]
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, start_new_session=True)
        try:
            line = _readline(self.proc.stderr, 60.0).decode()
            self.ready = time.perf_counter()
            if not line.startswith("serving on "):
                raise RuntimeError(f"unexpected daemon output: {line!r}")
            self.port = int(line.strip().rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise
        self.report: dict = {}

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon plus its shard (not the shm resource tracker)."""
        pids = [self.proc.pid] + [p for p in child_pids(self.proc.pid)
                                  if "resource_tracker" not in cmdline(p)]
        return sum(vm_hwm_mb(p) for p in pids)

    def stop(self) -> int:
        """SIGINT (the daemon's off switch), then wait for the whole group."""
        pgid = self.proc.pid
        if self.proc.poll() is None:
            os.kill(self.proc.pid, signal.SIGINT)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            # the shm resource tracker outlives the daemon and unlinks its arena
            self.proc.kill()
            out, _ = self.proc.communicate()
        _reap_group(pgid)
        if out and out.strip():
            self.report = json.loads(out.strip().splitlines()[-1])
        return self.proc.returncode


def _group_alive(pgid: int) -> list[int]:
    """Live (non-zombie) processes of a process group."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            alive.append(int(entry))
    return alive


def _reap_group(pgid: int) -> None:
    """Wait until every process of the group has ended, killing stragglers.

    Members orphaned by the daemon's exit are reaped by init, so a
    zombie counts as ended.
    """
    end = time.monotonic() + 10.0
    while _group_alive(pgid):
        if time.monotonic() > end:
            os.killpg(pgid, signal.SIGKILL)
            end = time.monotonic() + 10.0
        time.sleep(0.01)


def cold_start(mix: Mix, k: int, traced: bool) -> dict:
    """Launch a daemon, time launch → first correct response, stop it."""
    daemon = Daemon(traced)
    try:
        conn = loadgen.Conn("127.0.0.1", daemon.port)
        try:
            key = mix.key(0)
            resp = loadgen.request_once(conn, b'{"id":"c%d",' % k + mix.bodies[key])
            t_first = time.perf_counter()
        finally:
            conn.close()
    finally:
        daemon.stop()
    ok = resp.get("ok") is True and (
        resp["num_cycles"], resp["delivered"]) == mix.expected[key]
    info = {"raw_s": t_first - daemon.launch, "ok": ok}
    if traced:
        rep = daemon.report
        info.update(import_s=rep["import_s"], tree_s=rep["tree_s"],
                    arena_s=rep["arena_s"], first_response_s=t_first - rep["arena_done"])
    return info


def _metrics(conn, rid: str) -> dict[str, float]:
    """The daemon's counters, summed over labels, from ``{"op":"metrics"}``."""
    resp = loadgen.request_once(conn, b'{"op":"metrics","id":"%s"}\n' % rid.encode())
    totals: dict[str, float] = {}
    for line in resp["text"].splitlines():
        series, value = line.rsplit(" ", 1)
        name = series.split("{", 1)[0]
        if name == "pathindex_cache":
            name += "_" + series.split('result="', 1)[1].split('"', 1)[0]
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


def calm(windows: list[tuple[float, float, float]]) -> list[tuple[float, float, float]]:
    """The windows with host steal at most STEAL_MAX, or if fewer than
    MIN_WINDOWS qualify, the MIN_WINDOWS least-stolen ones."""
    ok = [w for w in windows if w[0] <= STEAL_MAX]
    return ok if len(ok) >= MIN_WINDOWS else sorted(windows)[:MIN_WINDOWS]


def _open(daemon: Daemon) -> list:
    return [loadgen.Conn("127.0.0.1", daemon.port) for _ in range(CONNECTIONS)]


def run(seed: int, seconds: float, trace: bool) -> dict:
    t0 = time.perf_counter()
    mix = Mix(seed)
    t_mix = time.perf_counter()
    host = calibrate.starts()
    host.sample()
    colds = []
    for k in range(COLD_STARTS):
        colds.append(cold_start(mix, k, trace))
        colds[-1]["setup_s"] = host.around(colds[-1]["raw_s"])
    t_colds = time.perf_counter()
    attempted = len(colds)
    failed = sum(1 for c in colds if not c["ok"])
    # latency gets the larger share: under steal, few windows qualify
    fixed_s = 0.6 * seconds
    # short runs get fewer segments: each keeps at least three windows
    parts = 1 if trace else max(1, min(SEGMENTS, int(fixed_s / (3 * WINDOW_S))))
    latency: list[Phase] = []
    closed: list[Phase] = []
    plain = Daemon(traced=False)
    conns = _open(plain)
    try:
        warm = Phase(mix, "w", 0, RATE, WARMUP_S).run(conns)
        issued = len(warm.lines)
        for k in range(parts):
            latency.append(Phase(mix, f"f{k}-", issued, RATE, fixed_s / parts).run(conns))
            issued += latency[-1].out.count
            if trace:
                break
            seg_s = (seconds - fixed_s) / parts
            closed.append(Phase(mix, f"c{k}-", issued, MAX_RATE, seg_s)
                          .run_closed(conns, IN_FLIGHT, seg_s))
            issued += closed[-1].out.count
        rss = plain.peak_rss_mb()
    finally:
        for c in conns:
            c.close()
        plain.stop()
    phases = [warm, *latency, *closed]
    attempted += sum(p.out.count for p in phases)
    failed += sum(p.failed for p in phases)
    lat_windows = [w for p in latency for w in p.latency_windows()]
    lat_calm = calm(lat_windows)
    cap_windows = [w for p in closed for w in p.completion_windows()]
    lat = [x for p in latency for x in p.latencies_ms()]
    late = [x for p in latency for x in p.late_ms()]
    resp = [r for p in latency for r in p.out.resp if r is not None and r.get("ok")]
    delivered = sum(r["delivered"] for r in resp) / max(1, len(resp))
    diag = {
        "latency_requests": len(lat), "p99_ms": percentile(lat, 99),
        "late_ms_p50": median(late), "late_ms_p99": percentile(late, 99),
        "latency_windows": lat_windows, "capacity_windows": cap_windows,
        "cold_starts": [c["raw_s"] for c in colds],
        "raw": {"setup_s": median([c["raw_s"] for c in colds])},
        "mix_s": t_mix - t0, "cold_starts_s": t_colds - t_mix,
    }
    if not trace:
        # latency and capacity as measured: steal-free windows already
        # remove what host load does to them; round calibration only added
        # spread
        cap_calm = calm(cap_windows)
        top = median([w[1] for w in cap_calm])
        diag["capacity_p90_ms"] = median([w[2] for w in cap_calm])
        if diag["capacity_p90_ms"] > P90_LIMIT_MS:
            print(f"serve-tcp: capacity p90 {diag['capacity_p90_ms']:.1f} ms is over "
                  f"the {P90_LIMIT_MS:.0f} ms limit", file=sys.stderr)
        metrics = {
            "setup_s": median([c["setup_s"] for c in colds]),
            "p50_ms": median([w[1] for w in lat_calm]),
            "p90_ms": median([w[2] for w in lat_calm]),
            "max_rate_rps": top,
            "msgs_per_s": top * delivered,
            "peak_rss_mb": rss,
            "cycles_per_lambda": sum(
                r["num_cycles"] / max(1, math.ceil(r["lam"] - 1e-9)) for r in resp)
            / max(1, len(resp)),
        }
        return {"attempted": attempted, "failed": failed, "metrics": metrics, "diag": diag}

    traced = Daemon(traced=True)
    conns = _open(traced)
    try:
        warm_t = Phase(mix, "tw", 0, RATE, WARMUP_S).run(conns)
        before = _metrics(conns[0], "perfbench-start")
        fixed_t = Phase(mix, "tf", len(warm_t.lines), RATE, fixed_s).run(conns)
        after = _metrics(conns[0], "perfbench-end")
    finally:
        for c in conns:
            c.close()
        traced.stop()
    attempted += len(warm_t.lines) + len(fixed_t.lines)
    failed += warm_t.failed + fixed_t.failed

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    lookups = sum(delta(f"pathindex_cache_{r}") for r in ("hit", "miss", "shared"))
    metrics = dict(traced.report.get("layers", {}))
    metrics.update({
        "serve.batch_size": (delta("serve_batch_size_sum")
                             / max(1.0, delta("serve_batch_size_count"))),
        "perf.pathindex.hit_frac": ((delta("pathindex_cache_hit")
                                     + delta("pathindex_cache_shared"))
                                    / lookups if lookups else 0.0),
        "gen.late_ms": sum(fixed_t.late_ms()) / len(fixed_t.lines),
        "trace.overhead_frac": (median([w[1] for w in calm(fixed_t.latency_windows())])
                                / median([w[1] for w in lat_calm]) - 1.0),
        "obs.enabled_ratio": _obs_ratio(mix),
    })
    for part in ("import_s", "tree_s", "arena_s", "first_response_s"):
        metrics["setup." + part] = median([c[part] for c in colds])
    diag["dispatches"] = delta("serve_dispatches")
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "diag": diag}


def _obs_ratio(mix: Mix) -> float:
    """``batch_schedule`` over 32 of the workload's sets, obs on vs off."""
    from repro.perf.batch import batch_schedule

    sets = [mix.sets[mix.key(i)[0]] for i in range(32)]

    def call(obs) -> None:
        for kernel in KERNELS:
            batch_schedule(mix.tree, sets, kernel=kernel, seed=0, obs=obs)

    return obs_ratio(call, 15)
