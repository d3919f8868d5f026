"""The repository benchmark: ``repro-server`` driven over the wire.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload view_update --seed 1 \\
        --seconds 10 --trace 0

One run of one workload:

1. **Set-up**, repeated ``SETUP_REPS`` times: bulk-load the workload's
   catalog through the ``Catalog`` API in this process, write it as one
   snapshot (one fsync), start ``repro-server --port 0 --snapshot S
   --wal W`` with the shipped defaults (fsync on every commit) and wait
   for its ``listening`` line and a successful ``ping``.
2. **Preload**: a fixed number of acknowledged writes, so that every
   recovery repetition replays the same log whatever the throughput.
3. **Recovery**, repeated ``RECOVERY_REPS`` times: SIGKILL the server,
   restart it on the same snapshot and WAL, and wait for the first
   successful request; then read back every acknowledged write.
4. **Mixed window**: a fixed warm-up, then ``1 - SERIAL_SHARE`` of
   ``--seconds`` of load from two closed-loop client threads, one
   connection each.
5. **Serial window**: the rest of ``--seconds`` from one client, which
   reads the server's CPU clock around every request.
6. **Crash check**: SIGKILL, restart, read back every acknowledged write.

Every answer is checked against the workload's model (``workloads.py``).
The end-to-end metrics are CPU times, not wall-clock times: set-up and
recovery are the CPU seconds the benchmark process (the build) and the
server process spend until they serve, the per-request figures the
server CPU time a request costs.  Wall-clock figures vary with the
share of the host a run gets; they are printed on the line before the
result but are not metrics (see NOTES.md).

With ``--trace 1`` step 6 restarts the server under ``tracer.py`` and
runs a second, traced mixed window; the per-layer metrics come from its
spans and from the ``stats`` deltas of the untraced mixed window, and
the ops/s difference between the two windows is the tracing overhead.

The last line of standard output is the result object; the line before
it carries the host fingerprint, the seed, the sizes, the wall-clock
figures and every set-up and recovery repetition.  See ``NOTES.md`` for
the choices.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import shutil
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import (BenchError, ServerProcess, Wire,  # noqa: E402
                     WrongAnswer)
from tracer import layer_totals  # noqa: E402
from workloads import SIZES, WORKLOADS, Recorder  # noqa: E402

SETUP_REPS = 3
RECOVERY_REPS = 9
#: Warm-up loop iterations per client thread before the mixed window.
WARMUP_ITERATIONS = 40
#: Share of ``--seconds`` given to the serial window.
SERIAL_SHARE = 0.7
#: The mixed window is cut into buckets of this many seconds.  Its
#: throughput is the mean of the middle half of the bucket rates, its p90
#: the median over buckets.
BUCKET_S = 1.0
CLIENTS = 2

END_TO_END = {
    "server_cpu_ms_per_op": "ms", "write_cpu_ms": "ms", "read_cpu_ms": "ms",
    "op_cpu_p90_ms": "ms", "server_rss_mb": "MB",
    "setup_s": "s", "recovery_s": "s",
}

#: Per-layer metrics and units (``--trace 1``); see NOTES.md for what
#: each should move.
PER_LAYER = {
    "client.retries_per_op": "count", "client.failed_ratio": "ratio",
    "server.protocol.frames_per_op": "count",
    "server.protocol.reply_bytes_per_op": "B",
    "server.protocol.codec_ms_per_op": "ms",
    "server.protocol.service_p50_ms": "ms",
    "server.service.shed_ratio": "ratio",
    "server.service.fast_commit_share": "ratio",
    "analysis.regions.summaries_per_op": "count",
    "analysis.regions.ms_per_op": "ms",
    "syntax.parses_per_op": "count", "syntax.src_bytes_per_op": "B",
    "syntax.ms_per_op": "ms",
    "core.infer.calls_per_op": "count", "core.infer.ms_per_op": "ms",
    "compile.hit_ratio": "ratio", "compile.programs_per_op": "count",
    "compile.fallbacks": "count", "compile.ms_per_op": "ms",
    "eval.machine.ms_per_op": "ms",
    "server.occ.conflicts_per_commit": "count",
    "server.occ.validate_ms_per_commit": "ms",
    "db.catalog.self_ms_per_op": "ms",
    "db.wal.appends_per_commit": "count", "db.wal.bytes_per_commit": "B",
    "db.wal.append_ms_per_commit": "ms",
    "server.recover.records_replayed": "count",
    "server.recover.replay_ms_per_record": "ms",
    "db.persist.snapshot_bytes": "B", "db.persist.snapshot_load_s": "s",
    "setup.build_s": "s", "setup.start_s": "s",
    "trace.ops_per_s_overhead": "ratio",
}


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of ``values``."""
    data = sorted(values)
    cut = len(data) // 4
    return statistics.fmean(data[cut:len(data) - cut])


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100)."""
    data = sorted(values)
    rank = max(1, -(-len(data) * p // 100))
    return data[int(rank) - 1]


class Run:
    """One run of one workload; see the module docstring."""

    def __init__(self, root: str, workload):
        self.root = root
        self.wl = workload
        self.work = os.path.join(root, ".bench_work",
                                 f"{workload.name}-{os.getpid()}")
        self.server: ServerProcess | None = None
        self.attempted = 0
        self.failed = 0
        self.dirs = 0

    # -- phases -------------------------------------------------------------

    def setup_rep(self) -> dict:
        """Build, snapshot, start, ping.  Returns the CPU seconds of the
        build (this process; no client thread runs meanwhile) and of the
        server until its ping reply, and the wall-clock seconds of both.
        The server is left running."""
        from repro.db.catalog import Catalog
        from repro.db.persist import dump_json
        self._kill()
        self._use_dir("setup")
        gc.collect()
        t0, c0 = time.perf_counter(), time.process_time()
        cat = Catalog()
        self.wl.build(cat)
        dump_json(cat, self.snapshot)
        t1, c1 = time.perf_counter(), time.process_time()
        self._start()
        self._ping()
        start_cpu = self.server.cpu_seconds()
        t2 = time.perf_counter()
        return {"build_s": c1 - c0, "start_s": start_cpu,
                "build_wall_s": t1 - t0, "start_wall_s": t2 - t1}

    def save_fixture(self) -> None:
        """Crash the server and keep its snapshot + WAL as the state every
        recovery repetition starts from."""
        self._kill()
        self.fixture = (self.snapshot, self.wal)

    def recovery_rep(self) -> tuple[float, float]:
        """Restart on a copy of the fixture and serve one request;
        then read back every acknowledged write.  Returns the server's
        CPU seconds until that first reply and the wall-clock seconds.
        The server is left running."""
        self._kill()
        self._use_dir("recovery")
        shutil.copyfile(self.fixture[0], self.snapshot)
        shutil.copyfile(self.fixture[1], self.wal)
        t0 = time.perf_counter()
        self._start()
        wire = self._wire()
        wire.call(self.wl.first_request())
        cpu = self.server.cpu_seconds()
        elapsed = time.perf_counter() - t0
        self.wl.check_durable(wire)
        wire.close()
        return cpu, elapsed

    def preload(self) -> None:
        per_client = self.wl.preload_writes // CLIENTS
        self._load(lambda wire, t, rng, rec: self.wl.write(wire, t, rng, rec),
                   iterations=per_client, seed_offset=100)

    def window(self, seed_offset: int, seconds: float) -> dict:
        """Warm up, then measure ``CLIENTS`` clients; returns the mixed
        window's raw figures."""
        self._load(self.wl.iteration, iterations=WARMUP_ITERATIONS,
                   seed_offset=seed_offset)
        probe = self._wire()
        stats0 = probe.call({"op": "stats"})
        t0 = time.perf_counter()
        cpu0 = self.server.cpu_seconds()
        buckets = max(1, int(seconds / BUCKET_S))
        samples, retries = self._load(self.wl.iteration,
                                      until=t0 + buckets * BUCKET_S,
                                      seed_offset=seed_offset + 10)
        cpu_s = self.server.cpu_seconds() - cpu0
        t1 = time.perf_counter()
        stats1 = probe.call({"op": "stats"})
        probe.close()
        return {"samples": samples, "retries": retries, "t0": t0, "t1": t1,
                "buckets": buckets, "cpu_s": cpu_s,
                "stats0": stats0, "stats1": stats1}

    def serial(self, seed_offset: int, seconds: float) -> dict:
        """One client for ``seconds``, reading the server's CPU clock
        around every request; returns the serial window's raw figures."""
        clock = self.server.cpu_seconds
        cpu0 = clock()
        samples, _ = self._load(self.wl.iteration, clients=1,
                                until=time.perf_counter() + seconds,
                                seed_offset=seed_offset, cpu=clock)
        return {"samples": samples, "cpu_s": clock() - cpu0,
                "rss_mb": self.server.rss_mb()}

    def crash_check(self, trace_path: str | None = None) -> None:
        self._kill()
        self._start(trace_path)
        wire = self._wire()
        self.wl.check_durable(wire)
        wire.close()

    # -- helpers ------------------------------------------------------------

    def _start(self, trace_path: str | None = None) -> None:
        self.server = ServerProcess(self.root, self.work, self.snapshot,
                                    self.wal, trace=trace_path)
        self.server.start()

    def _use_dir(self, phase: str) -> None:
        self.dirs += 1
        path = os.path.join(self.work, f"{self.dirs:02d}-{phase}")
        os.makedirs(path)
        self.snapshot = os.path.join(path, "catalog.json")
        self.wal = os.path.join(path, "catalog.wal")

    def _kill(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server = None

    def _wire(self, seed: int = 0) -> Wire:
        host, port = self.server.address
        return Wire(host, port, seed=seed)

    def _ping(self) -> None:
        wire = self._wire()
        try:
            if not wire.roundtrip({"op": "ping"}).get("ok"):
                raise BenchError("ping failed")
        finally:
            wire.close()

    def _load(self, step, *, clients: int = CLIENTS,
              iterations: int | None = None, until: float | None = None,
              seed_offset: int = 0, cpu=None):
        """Run ``step`` in ``clients`` threads, each on its own
        connection, for a number of iterations or until a time.  ``cpu``
        is passed to the recorders."""
        recorders = [Recorder(cpu) for _ in range(clients)]
        wires = [self._wire(seed=self.wl.seed * 1000 + seed_offset + t)
                 for t in range(clients)]
        errors: list[BaseException] = []

        def client(t: int) -> None:
            rng = random.Random(self.wl.seed * 1000 + seed_offset + t)
            done = 0
            try:
                while not errors:
                    if iterations is not None and done >= iterations:
                        break
                    if until is not None and time.perf_counter() >= until:
                        break
                    step(wires[t], t, rng, recorders[t])
                    done += 1
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(t,))
                   for t in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        retries = sum(w.retries for w in wires)
        for wire in wires:
            wire.close()
        samples = [s for rec in recorders for s in rec.samples]
        self.attempted += len(samples)
        self.failed += sum(1 for s in samples if not s[3])
        if errors:
            raise errors[0]
        return samples, retries

    def close(self) -> None:
        self._kill()
        shutil.rmtree(self.work, ignore_errors=True)


# -- metrics -----------------------------------------------------------------

def window_metrics(win: dict) -> dict:
    """The mixed window's figures, for the line before the result."""
    t0, buckets = win["t0"], win["buckets"]
    end = t0 + buckets * BUCKET_S
    # Requests that end after the last bucket (the clients' last ones)
    # are left out.  A failed request misses every latency limit: it
    # counts as taking the whole window.
    samples = [s for s in win["samples"] if s[2] <= end]
    lat = [((s[2] - s[1]) if s[3] else end - t0) * 1000.0 for s in samples]
    writes = [x for x, s in zip(lat, samples) if s[0] == "w"]
    reads = [x for x, s in zip(lat, samples) if s[0] != "w"]
    if not writes or not reads:
        raise BenchError("the window completed no write or no read")
    per_bucket: list[list[int]] = [[] for _ in range(buckets)]
    for i, s in enumerate(samples):
        per_bucket[min(buckets - 1, int((s[2] - t0) / BUCKET_S))].append(i)
    ok_counts = [sum(1 for i in b if samples[i][3]) for b in per_bucket]
    ok = sum(1 for s in win["samples"] if s[3])
    return {
        "ops_per_s": interquartile_mean(ok_counts) / BUCKET_S,
        "write_p50_ms": statistics.median(writes),
        "read_p50_ms": statistics.median(reads),
        "op_p90_ms": statistics.median(
            percentile([lat[i] for i in b], 90) for b in per_bucket if b),
        "op_p99_ms": percentile(lat, 99),
        "samples": len(lat),
        "server_cpu_ms_per_op": win["cpu_s"] * 1000.0 / max(1, ok),
        # stats deltas and spans cover the clients' last requests too
        "_ok": ok,
    }


def serial_metrics(ser: dict) -> tuple[dict, dict]:
    """The serial window's metrics: server CPU per request.  A failed
    request counts as costing all of the window's server CPU.  Reads of
    several kinds (``"r.<kind>"``) cost the mean of their kinds'
    medians, so the figure does not jump between kinds as a seed's mix
    of them varies.  Also returns the wall-clock figures."""
    samples = ser["samples"]
    cost = [(s[4] if s[3] else ser["cpu_s"]) * 1000.0 for s in samples]
    by_kind: dict[str, list[float]] = {}
    for c, s in zip(cost, samples):
        by_kind.setdefault(s[0], []).append(c)
    read_kinds = [v for k, v in by_kind.items() if k != "w"]
    if "w" not in by_kind or not read_kinds:
        raise BenchError("the serial window completed no write or no read")
    ok = sum(1 for s in samples if s[3])

    def wall_p50(reads: bool) -> float:
        return statistics.median((s[2] - s[1]) * 1000.0 for s in samples
                                 if (s[0] != "w") == reads)

    return ({
        "server_cpu_ms_per_op": ser["cpu_s"] * 1000.0 / max(1, ok),
        "write_cpu_ms": statistics.median(by_kind["w"]),
        "read_cpu_ms": statistics.fmean(statistics.median(v)
                                        for v in read_kinds),
        "op_cpu_p90_ms": percentile(cost, 90),
        "server_rss_mb": ser["rss_mb"],
    }, {"write_p50_ms": wall_p50(False), "read_p50_ms": wall_p50(True),
        "samples": len(cost)})


def stats_metrics(win: dict, ops: int) -> dict:
    """Per-layer counters from the wire ``stats`` delta of a window."""
    s0, s1 = win["stats0"], win["stats1"]

    def delta(section: str, key: str) -> int:
        return s1[section][key] - s0[section][key]

    committed = max(1, delta("server", "committed"))
    lookups = (delta("compile", "compile_cache_hits")
               + delta("compile", "compiled_programs")
               + delta("compile", "compile_fallbacks"))
    failed = sum(1 for s in win["samples"] if not s[3])
    return {
        "client.retries_per_op": win["retries"] / ops,
        "client.failed_ratio": failed / len(win["samples"]),
        "server.protocol.frames_per_op": delta("protocol", "frames_in") / ops,
        "server.protocol.service_p50_ms": s1["wire_service"]["p50_ms"],
        "server.service.shed_ratio":
            delta("server", "shed") / max(1, delta("server", "submitted")),
        "server.service.fast_commit_share":
            delta("server", "fast_commits") / committed,
        "compile.hit_ratio":
            delta("compile", "compile_cache_hits") / max(1, lookups),
        "compile.programs_per_op": delta("compile", "compiled_programs") / ops,
        "compile.fallbacks": delta("compile", "compile_fallbacks"),
        "server.occ.conflicts_per_commit":
            delta("server", "conflicts") / committed,
        "_committed": committed,
    }


def trace_metrics(spans: list, win: dict, ops: int, committed: int,
                  ready: float, replayed: int) -> dict:
    """Per-layer timings from the traced window and from the traced
    start-up (spans ending before ``ready``), which replayed
    ``replayed`` WAL records."""
    layers = layer_totals(spans, win["t0"], win["t1"])
    startup = layer_totals(spans, float("-inf"), ready)
    empty = {"calls": 0, "self_s": 0.0, "size": 0, "total_s": 0.0}

    def get(table, layer):
        return table.get(layer, empty)

    def ms_per_op(layer):
        return get(layers, layer)["self_s"] * 1000.0 / ops

    wal = get(layers, "db.wal.append")
    encode, decode = (get(layers, "server.protocol.encode"),
                      get(layers, "server.protocol.decode"))
    return {
        "server.protocol.reply_bytes_per_op": encode["size"] / ops,
        "server.protocol.codec_ms_per_op":
            (encode["self_s"] + decode["self_s"]) * 1000.0 / ops,
        "analysis.regions.summaries_per_op":
            get(layers, "analysis.regions")["calls"] / ops,
        "analysis.regions.ms_per_op": ms_per_op("analysis.regions"),
        "syntax.parses_per_op": get(layers, "syntax")["calls"] / ops,
        "syntax.src_bytes_per_op": get(layers, "syntax")["size"] / ops,
        "syntax.ms_per_op": ms_per_op("syntax"),
        "core.infer.calls_per_op": get(layers, "core.infer")["calls"] / ops,
        "core.infer.ms_per_op": ms_per_op("core.infer"),
        "compile.ms_per_op": ms_per_op("compile"),
        "eval.machine.ms_per_op": ms_per_op("eval.machine"),
        "server.occ.validate_ms_per_commit":
            get(layers, "server.occ.validate")["self_s"] * 1000.0 / committed,
        "db.catalog.self_ms_per_op": ms_per_op("db.catalog"),
        "db.wal.appends_per_commit": wal["calls"] / committed,
        "db.wal.bytes_per_commit": wal["size"] / committed,
        "db.wal.append_ms_per_commit": wal["total_s"] * 1000.0 / committed,
        "server.recover.records_replayed": replayed,
        "server.recover.replay_ms_per_record":
            (get(startup, "server.recover")["total_s"]
             - get(startup, "db.persist.load_json")["total_s"])
            * 1000.0 / max(1, replayed),
        "db.persist.snapshot_load_s":
            get(startup, "db.persist.load_json")["total_s"],
    }


def run(root: str, name: str, seed: int, seconds: float, trace: bool,
        sizes: dict | None = None) -> tuple[dict, dict]:
    """One run; returns ``(result, info)`` — the result object printed as
    the last line, and the fingerprint line printed before it."""
    wl = WORKLOADS[name](seed, sizes or SIZES[name])
    bench = Run(root, wl)
    serial_s = seconds * SERIAL_SHARE
    mixed_s = seconds - serial_s
    try:
        # Set-up and recovery repetitions alternate, so they sample the
        # host over the whole run, not one stretch of it.
        setups = [bench.setup_rep()]
        bench.preload()
        bench.save_fixture()
        recoveries = []
        every = (RECOVERY_REPS + 1) // SETUP_REPS
        for rep in range(RECOVERY_REPS):
            if rep and rep % every == 0 and len(setups) < SETUP_REPS:
                setups.append(bench.setup_rep())
            recoveries.append(bench.recovery_rep())
        replayed = bench.server.replayed
        win = bench.window(seed_offset=200, seconds=mixed_s)
        mixed = window_metrics(win)
        layer = stats_metrics(win, mixed["_ok"])
        e2e, serial = serial_metrics(bench.serial(seed_offset=250,
                                                  seconds=serial_s))
        if trace:
            spans_path = os.path.join(bench.work, "spans.json")
            bench.crash_check(trace_path=spans_path)
            ready = time.perf_counter()
            restart_replayed = bench.server.replayed
            twin = bench.window(seed_offset=300, seconds=mixed_s)
            tm = window_metrics(twin)
            tstats = stats_metrics(twin, tm["_ok"])
            bench.server.stop()
            with open(spans_path, "r", encoding="utf-8") as fh:
                spans = json.load(fh)["spans"]
            traced = trace_metrics(spans, twin, tm["_ok"],
                                   tstats["_committed"], ready,
                                   restart_replayed)
            traced["trace.ops_per_s_overhead"] = (
                1.0 - tm["ops_per_s"] / mixed["ops_per_s"])
        else:
            bench.crash_check()
        snapshot_bytes = os.path.getsize(bench.snapshot)
    except WrongAnswer as exc:
        return ({"correct": False, "attempted": max(1, bench.attempted),
                 "failed": bench.failed, "metrics": {}},
                {"wrong_answer": str(exc)})
    finally:
        bench.close()

    builds = [s["build_s"] for s in setups]
    starts = [s["start_s"] for s in setups]
    e2e["setup_s"] = statistics.median(b + s for b, s in zip(builds, starts))
    e2e["recovery_s"] = interquartile_mean([cpu for cpu, _ in recoveries])
    info = {
        "workload": name, "seed": seed, "seconds": seconds,
        "host": {"nproc": len(os.sched_getaffinity(0)),
                 "python": platform.python_version()},
        "sizes": wl.sizes,
        "mixed": {k: v for k, v in mixed.items() if not k.startswith("_")},
        "serial_wall": serial,
        "setup_reps_s": [b + s for b, s in zip(builds, starts)],
        "setup_reps_wall_s": [s["build_wall_s"] + s["start_wall_s"]
                              for s in setups],
        "recovery_reps_s": [cpu for cpu, _ in recoveries],
        "recovery_reps_wall_s": [wall for _, wall in recoveries],
        "recovery_replayed_records": replayed,
        "stats": {k: v for k, v in layer.items() if not k.startswith("_")},
    }
    if trace:
        metrics = {k: v for k, v in layer.items() if not k.startswith("_")}
        metrics.update(traced)
        metrics["setup.build_s"] = statistics.median(builds)
        metrics["setup.start_s"] = statistics.median(starts)
        metrics["db.persist.snapshot_bytes"] = snapshot_bytes
        values = {k: {"value": metrics[k], "unit": unit}
                  for k, unit in PER_LAYER.items()}
    else:
        values = {k: {"value": e2e[k], "unit": unit}
                  for k, unit in END_TO_END.items()}
    return ({"correct": True, "attempted": bench.attempted,
             "failed": bench.failed, "metrics": values}, info)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "server",
                                       "protocol.py")):
        print(f"perfbench: no repro sources under {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (choose from "
              f"{', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    try:
        result, info = run(root, args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
