#!/usr/bin/env python3
"""The repository benchmark: time to a verified spanner, and the nas_served
daemon's latency and throughput on cache-hot and cache-cold traffic.

Run from the repository root:

    python3 perfbench/run.py --workload serve_zipf_interactive --seed 1 \
        --seconds 20 --trace 0

Every run builds the er_dense n=16,000 spanner through the library
(nas_perfbench build: make_workload -> build_spanner -> sampled stretch
verification -> v2 snapshot), starts nas_served on that snapshot, drives it
with the workload's traffic from one single-threaded client process, checks
every served answer against an in-process replay, and prints the end-to-end
metrics.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 1 runs the workload twice: untraced as above, then again with spans
recorded around the benchmark's calls into each layer.  It prints the
per-layer metrics (from the traced pass), the tracing overhead per
end-to-end metric, the self time per span name, and writes the spans to
<build dir>/traces/.  See perfbench/README.md for the workloads and the
layer -> metric table.

Exit codes: 0 all operations succeeded; 1 the result line was printed but
some operation failed or an output was wrong; 2 the benchmark could not run
(build failure, refused input, crashed process) and printed no result.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

CACHE_BUDGET = 64 << 20      # nas_served's default, passed explicitly
BUILD_REPS = 3               # builds per run; build_s is their median
SETUP_SPAWNS = 25            # daemon starts per run; setup_s is their median
MAX_EDGES_OVER_M = 0.1       # |H|/m guard: never measure BFS over G
PROCESS_TIMEOUT_S = 150      # hard cap on any child process

# CPU placement on a box with at least 4 CPUs: the daemon process (all of
# its threads, however many it has) runs on CPUs 1-2, the single-threaded
# client (which spins rather than sleeps between due times) and the build
# own CPU 3, and this driver stays on CPU 0.  Unpinned, the scheduler
# sometimes stacks the client on a daemon thread's CPU and the latency
# figures move run to run.
# While the daemon runs, one SCHED_IDLE busy loop per daemon CPU keeps those
# CPUs out of their idle state: any daemon thread preempts it at once, and
# a virtual CPU's wake-up from idle (tens of microseconds, varying with the
# host's load) no longer lands in every request's latency.
PIN = {"driver": {0}, "daemon": {1, 2}, "client": {3}, "build": {3}}

# Each workload: the harness subcommand that drives its traffic (rate,
# connections, callers and batch size are constants of nas_perfbench), the
# latency percentile it reports as tail_ms, and why it exists.
# perfbench/README.md has the full rationale.
# The zipf tail is p90, not the p99 its sample would support: on a shared
# 4-vCPU VM the open loop's p99 moved 3x between runs minutes apart (host
# slow periods stretch every BFS miss and the misses queue), far beyond any
# usable bound.  The p99 is still printed.
WORKLOADS = {
    "serve_zipf_interactive": {
        "client": "zipf",
        "tail_pct": 90,
        "why": "open-loop single Q lines, Zipf sources: the cache-hot path",
    },
    "serve_uniform_batch": {
        "client": "batch",
        "tail_pct": 90,
        "why": "4 closed-loop BATCH 512 callers, uniform pairs: cache-cold",
    },
}

END_TO_END = {
    "setup_s": "s", "build_s": "s", "peak_rss_mb": "MB",
    "p50_ms": "ms", "tail_ms": "ms", "throughput_qps": "1/s",
}

PER_LAYER = {
    "graph.generate_s": "s",
    "graph.bfs_us_per_source": "us",
    "graph.bfs_edges_per_source": "count",
    "core.build_spanner_s": "s",
    "core.build_peak_rss_mb": "MB",
    "core.rounds": "count",
    "core.messages": "count",
    "core.alg1.rounds": "count",
    "core.alg1.messages": "count",
    "core.ruling.rounds": "count",
    "core.super.rounds": "count",
    "core.inter.rounds": "count",
    "core.alg1_phase0_s": "s",
    "core.alg1_phase0_accept_ratio": "ratio",
    "core.spanner_edges": "count",
    "core.edges_over_m": "ratio",
    "verify.sampled_s": "s",
    "verify.pairs_checked": "count",
    "verify.max_additive": "count",
    "snapshot.save_s": "s",
    "snapshot.load_s": "s",
    "snapshot.bytes": "bytes",
    "oracle.batch_query_s": "s",
    "oracle.batch_p50_ms": "ms",
    "oracle.distinct_sources": "count",
    "oracle.cache_hits": "count",
    "oracle.bfs_passes": "count",
    "oracle.evictions": "count",
    "oracle.hit_ratio": "ratio",
    "oracle.evictions_per_bfs": "ratio",
    "oracle.non_bfs_s": "s",
    "net.overhead_p50_ms": "ms",
    "net.daemon_cpu_s": "s",
    "net.ctx_vol": "count",
    "net.ctx_invol": "count",
    "net.requests": "count",
    "client.sched_lag_p99_ms": "ms",
    "client.backlog_max": "count",
}


class BenchError(Exception):
    """The benchmark cannot produce a valid result (exit 2, no result line)."""


# ---- helpers (covered by perfbench/test_helpers.py) -------------------------

def min_samples(pct):
    """The smallest sample count that supports the pct-ile."""
    count = 1
    while not supported(count, pct):
        count += 1
    return count


def segmented(values, pct, max_segments):
    """Median over consecutive segments of the pct-ile of each segment.

    The measured window is cut into as many equal segments (at most
    `max_segments`, normally one per second) as still leave each segment
    enough samples for its pct-ile; a stall of the host then spoils one
    segment instead of the run's figure."""
    segments = max(1, min(max_segments, len(values) // min_samples(pct)))
    size = len(values) // segments
    return statistics.median(
        percentile(values[i * size:(i + 1) * size], pct)
        for i in range(segments))


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count, pct):
    """How many of `count` samples lie above the nearest-rank pct-ile."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def supported(count, pct):
    """The reporting rule: a percentile needs at least ten samples beyond."""
    return samples_beyond(count, pct) >= 10


def backlog_growing(per_second_max):
    """True when the open loop's outstanding requests keep growing through
    the measured phase: every per-second high-water mark of the last quarter
    exceeds both twice the first quarter's median and 64.  A stall that
    passes shows as a spike, not as a raised floor, and does not count."""
    if len(per_second_max) < 4:
        return False
    quarter = len(per_second_max) // 4
    floor = min(per_second_max[-quarter:])
    return floor > max(2 * statistics.median(per_second_max[:quarter]), 64)


def self_times(spans):
    """Self time per span id: duration minus the union of its children's
    intervals, clipped to the span.  `spans` is a list of dicts with id,
    parent, start_ns and end_ns."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered, cursor = 0, lo
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            start, end = max(c["start_ns"], cursor), min(c["end_ns"], hi)
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (hi - lo) - covered
    return out


def parse_proc_status(text):
    """Fields of /proc/<pid>/status as ints (kB values stay in kB)."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        parts = value.split()
        if sep and parts and parts[0].isdigit():
            fields[key] = int(parts[0])
    return fields


def parse_proc_stat_cpu_s(text, ticks_per_s):
    """utime + stime from /proc/<pid>/stat, in seconds.  The command name is
    parenthesised and may hold spaces, so fields are counted after the last
    ')'; utime and stime are fields 14 and 15 of the whole line."""
    rest = text[text.rindex(")") + 2:].split()
    return (int(rest[11]) + int(rest[12])) / ticks_per_s


def popen_pinned(role, cmd, **kwargs):
    """Starts a child on its role's CPUs (see PIN) when the box has enough
    CPUs to separate the roles.  The child inherits this process's affinity,
    set around the start: a preexec_fn would make Python fork instead of
    vfork, which adds milliseconds of the driver's own page-table copying to
    every timed daemon start."""
    if not PINNING:
        return subprocess.Popen(cmd, **kwargs)
    os.sched_setaffinity(0, PIN[role])
    try:
        return subprocess.Popen(cmd, **kwargs)
    finally:
        os.sched_setaffinity(0, PIN["driver"])


PINNING = (hasattr(os, "sched_setaffinity")
           and set().union(*PIN.values()) <= os.sched_getaffinity(0))


class IdleSpinners:
    """The SCHED_IDLE busy loops on the daemon's CPUs (see PIN)."""

    def __init__(self):
        self.procs = []
        if not PINNING:
            return
        for cpu in sorted(PIN["daemon"]):
            def place(cpu=cpu):
                os.sched_setaffinity(0, {cpu})
                os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
            self.procs.append(subprocess.Popen(
                [sys.executable, "-c", "while True: pass"], preexec_fn=place))

    def stop(self):
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()
        self.procs = []


# ---- building --------------------------------------------------------------

def build_binaries():
    if not (REPO / "CMakeLists.txt").is_file() or not (REPO / "src").is_dir():
        raise BenchError(f"no repository sources next to {HERE.name}/")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    env = dict(os.environ, CCACHE_DISABLE="1")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_CXX_COMPILER_LAUNCHER="])
    steps.append(["cmake", "--build", str(build_dir), "--target", "nas_served",
                  "nas_perfbench", "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    bins = {"harness": build_dir / "nas_perfbench",
            "daemon": build_dir / "nas" / "tools" / "nas_served"}
    for path in bins.values():
        if not path.is_file():
            raise BenchError(f"build produced no {path}")
    return build_dir, bins


# ---- processes -------------------------------------------------------------

class Spans:
    """The driver's own spans, in the same shape the harness writes."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []

    def begin(self, name, parent=None):
        if not self.enabled:
            return None
        sid = f"p{len(self.spans) + 1}"
        self.spans.append({"id": sid, "parent": parent, "name": name,
                           "start_ns": time.monotonic_ns(), "end_ns": 0,
                           "req": None})
        return sid

    def end(self, sid):
        if sid is not None:
            self.spans[int(sid[1:]) - 1]["end_ns"] = time.monotonic_ns()

    def adopt(self, path, parent):
        """Reads a harness span file; its root spans hang under `parent`."""
        if not self.enabled or not path.is_file():
            return
        for line in path.read_text().splitlines():
            span = json.loads(line)
            if span["parent"] is None:
                span["parent"] = parent
            self.spans.append(span)


def run_harness(harness, args, workdir, tag, role):
    """Runs the harness in its own process; returns (json, peak RSS in MB)."""
    out_path = workdir / f"{tag}.json"
    err_path = workdir / f"{tag}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = popen_pinned(role, [str(harness)] + args, stdout=out, stderr=err)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()  # interrupted: take the child down with us
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text()[-4000:])
        raise BenchError(f"nas_perfbench {args[0]} exited {proc.returncode}")
    return json.loads(out_path.read_text()), usage.ru_maxrss / 1024.0


class Daemon:
    """One nas_served process on the run's snapshot, ephemeral port."""

    def __init__(self, binary, snapshot, workdir, tag):
        self.port_file = workdir / f"{tag}.port"
        self.port_file.unlink(missing_ok=True)
        self.err = open(workdir / f"{tag}.err", "w")
        self.proc = popen_pinned(
            "daemon",
            [str(binary), "--load", str(snapshot), "--port", "0",
             "--port-file", str(self.port_file),
             "--cache-budget", str(CACHE_BUDGET)],
            stdout=subprocess.DEVNULL, stderr=self.err)
        self.port = None

    def wait_ready(self, probe, deadline_s=30.0):
        """Blocks until the daemon gave the correct answer to `probe`
        ([u, v, d]); returns False if it never did."""
        limit = time.monotonic() + deadline_s
        while self.port is None:
            if time.monotonic() > limit or self.proc.poll() is not None:
                return False
            try:
                text = self.port_file.read_text()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                self.port = int(text)
            else:
                time.sleep(0.0001)
        u, v, d = probe
        return self.command(f"Q {u} {v}") == f"{u} {v} {d}"

    def command(self, line):
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as s:
            s.sendall((line + "\n").encode())
            data = b""
            while not data.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    break
                data += chunk
        return data.decode().rstrip("\n")

    def proc_sample(self):
        """CPU seconds, summed context switches over all threads, VmHWM."""
        base = Path(f"/proc/{self.proc.pid}")
        cpu = parse_proc_stat_cpu_s((base / "stat").read_text(),
                                    os.sysconf("SC_CLK_TCK"))
        vol = invol = 0
        for task in (base / "task").iterdir():
            try:
                fields = parse_proc_status((task / "status").read_text())
            except FileNotFoundError:
                continue  # the thread ended between listing and reading
            vol += fields.get("voluntary_ctxt_switches", 0)
            invol += fields.get("nonvoluntary_ctxt_switches", 0)
        hwm_kb = parse_proc_status((base / "status").read_text())["VmHWM"]
        return {"cpu_s": cpu, "ctx_vol": vol, "ctx_invol": invol,
                "hwm_mb": hwm_kb / 1024.0}

    def stop(self):
        """SIGTERM, then wait for the graceful drain; True iff it exited 0."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = -1
        self.err.close()
        return code == 0


# ---- one pass of a workload ---------------------------------------------------

def run_pass(args, bins, workdir, trace):
    """Build, start the daemon, drive the traffic, check it; returns the raw
    figures of one pass.  `trace` records spans (written to workdir)."""
    spec = WORKLOADS[args.workload]
    spans = Spans(trace)
    root = spans.begin(f"workload.{args.workload}")
    attempted = failed = 0
    snapshot = workdir / "served.nas2"
    daemons = []
    spinners = None
    try:
        # 1. The verified snapshot, built by the library in its own process.
        sid = spans.begin("process.build", root)
        build_args = ["build", "--seed", str(args.seed), "--reps",
                      str(1 if trace else BUILD_REPS), "--snapshot", str(snapshot)]
        if trace:
            build_args += ["--spans", str(workdir / "build.spans")]
        build, build_rss_mb = run_harness(bins["harness"], build_args, workdir,
                                          "build", "build")
        spans.end(sid)
        spans.adopt(workdir / "build.spans", sid)
        attempted += len(build["build_s"])
        correct = build["verify_ok"] and build["deterministic"]
        if not correct:
            failed += len(build["build_s"])
        if build["edges_over_m"] >= MAX_EDGES_OVER_M:
            raise BenchError(
                f"|H|/m = {build['edges_over_m']:.3f} >= {MAX_EDGES_OVER_M}: "
                "serving would measure BFS over G, refusing to run")

        # 2. Daemon start-up to the first correct reply, several times.
        spinners = IdleSpinners()
        setup = []
        for i in range(SETUP_SPAWNS):
            sid = spans.begin("daemon.spawn_to_first_reply", root)
            start = time.monotonic()
            daemon = Daemon(bins["daemon"], snapshot, workdir, f"daemon{i}")
            daemons.append(daemon)
            ok = daemon.wait_ready(build["probe"])
            setup.append(time.monotonic() - start)
            spans.end(sid)
            attempted += 1
            if not ok:
                raise BenchError(f"daemon {i} never answered the probe correctly")
            if i + 1 < SETUP_SPAWNS:
                attempted += 1
                if not daemon.stop():
                    failed += 1
        daemon = daemons[-1]

        # 3. Traffic from one single-threaded client process, then replay.
        before = daemon.proc_sample()
        sid = spans.begin("process.client", root)
        client_args = [
            spec["client"], "--port", str(daemon.port), "--n", str(build["n"]),
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--snapshot", str(snapshot)]
        if trace:
            client_args += ["--spans", str(workdir / "client.spans")]
        client, _ = run_harness(bins["harness"], client_args, workdir,
                                "client", "client")
        spans.end(sid)
        spans.adopt(workdir / "client.spans", sid)
        after = daemon.proc_sample()
        spinners.stop()
        sid = spans.begin("daemon.stats", root)
        stats = json.loads(daemon.command("STATS"))
        spans.end(sid)
        sid = spans.begin("daemon.sigterm_drain", root)
        attempted += 1
        clean_exit = daemon.stop()
        spans.end(sid)
        if not clean_exit:
            failed += 1
    finally:
        if spinners is not None:
            spinners.stop()
        for d in daemons:
            if d.proc.poll() is None:
                d.stop()
    spans.end(root)

    attempted += client["attempted"]
    failed += client["failed"]
    if client["digest_served"] != client["digest_replay"]:
        correct = False
        failed += 1
    if client["wrong_answers"] or client["err_lines"]:
        correct = False
    if stats.get("protocol_errors", 0):
        correct = False
    if backlog_growing(client["backlog_per_s"]):
        raise BenchError("the open loop's backlog kept growing through the "
                         f"measured phase: {client['backlog_per_s']}")
    lat = [math.inf if x < 0 else x for x in client["lat_ms"]]
    pct = spec["tail_pct"]
    if not supported(len(lat), pct):
        raise BenchError(f"{len(lat)} samples cannot support p{pct} "
                         "(ten samples beyond it are needed)")
    return {"build": build, "build_rss_mb": build_rss_mb, "setup": setup,
            "client": client, "lat": lat, "stats": stats,
            "before": before, "after": after, "spans": spans.spans,
            "attempted": attempted, "failed": failed, "correct": correct}


def end_to_end(raw, spec, seconds):
    return {
        "setup_s": statistics.median(raw["setup"]),
        "build_s": statistics.median(raw["build"]["build_s"]),
        "peak_rss_mb": raw["after"]["hwm_mb"],
        "p50_ms": segmented(raw["lat"], 50, seconds),
        "tail_ms": segmented(raw["lat"], spec["tail_pct"], seconds),
        "throughput_qps": raw["client"]["throughput_qps"],
    }


def per_layer(raw, seconds):
    b, c = raw["build"], raw["client"]
    before, after = raw["before"], raw["after"]
    bfs_s = c["oracle_bfs_passes"] * c["bfs_us_per_source"] * 1e-6
    oracle_p50_ms = percentile(c["oracle_batch_ms"], 50)
    return {
        "graph.generate_s": statistics.median(b["generate_s"]),
        "graph.bfs_us_per_source": c["bfs_us_per_source"],
        "graph.bfs_edges_per_source": c["bfs_edges_per_source"],
        "core.build_spanner_s": statistics.median(b["core_s"]),
        "core.build_peak_rss_mb": raw["build_rss_mb"],
        "core.rounds": b["rounds"],
        "core.messages": b["messages"],
        "core.alg1.rounds": b["alg1_rounds"],
        "core.alg1.messages": b["alg1_messages"],
        "core.ruling.rounds": b["ruling_rounds"],
        "core.super.rounds": b["super_rounds"],
        "core.inter.rounds": b["inter_rounds"],
        "core.alg1_phase0_s": b["alg1_phase0_s"],
        "core.alg1_phase0_accept_ratio": b["alg1_phase0_accept_ratio"],
        "core.spanner_edges": b["spanner_edges"],
        "core.edges_over_m": b["edges_over_m"],
        "verify.sampled_s": statistics.median(b["verify_s"]),
        "verify.pairs_checked": b["pairs_checked"],
        "verify.max_additive": b["max_additive"],
        "snapshot.save_s": statistics.median(b["save_s"]),
        "snapshot.load_s": c["snapshot_load_s"],
        "snapshot.bytes": b["snapshot_bytes"],
        "oracle.batch_query_s": c["oracle_batch_query_s"],
        "oracle.batch_p50_ms": oracle_p50_ms,
        "oracle.distinct_sources": c["oracle_distinct_sources"],
        "oracle.cache_hits": c["oracle_cache_hits"],
        "oracle.bfs_passes": c["oracle_bfs_passes"],
        "oracle.evictions": c["oracle_evictions"],
        "oracle.hit_ratio": c["oracle_cache_hits"] / c["oracle_distinct_sources"],
        "oracle.evictions_per_bfs": c["oracle_evictions"] / c["oracle_bfs_passes"],
        "oracle.non_bfs_s": c["oracle_batch_query_s"] - bfs_s,
        "net.overhead_p50_ms": segmented(raw["lat"], 50, seconds) - oracle_p50_ms,
        "net.daemon_cpu_s": after["cpu_s"] - before["cpu_s"],
        "net.ctx_vol": after["ctx_vol"] - before["ctx_vol"],
        "net.ctx_invol": after["ctx_invol"] - before["ctx_invol"],
        "net.requests": raw["stats"].get("served_requests", 0),
        "client.sched_lag_p99_ms": percentile(c["lag_ms"], 99),
        "client.backlog_max": c["backlog_max"],
    }


def write_trace(raw, build_dir, args):
    """Writes the traced pass's spans and prints self time per span name."""
    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
    spans = raw["spans"]
    with open(path, "w") as out:
        for s in spans:
            out.write(json.dumps(s) + "\n")
    own = self_times(spans)
    table = {}
    for s in spans:
        row = table.setdefault(s["name"], [0, 0, 0])
        row[0] += 1
        row[1] += s["end_ns"] - s["start_ns"]
        row[2] += own[s["id"]]
    print(f"spans: {len(spans)} written to {path}")
    print(f"{'span':40s} {'count':>7s} {'total_s':>10s} {'self_s':>10s}")
    for name, (count, total, self_ns) in sorted(table.items(),
                                                key=lambda kv: -kv[1][2]):
        print(f"{name:40s} {count:7d} {total * 1e-9:10.4f} {self_ns * 1e-9:10.4f}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build_dir, bins = build_binaries()
        if PINNING:
            os.sched_setaffinity(0, PIN["driver"])
        workdir = build_dir / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            spec = WORKLOADS[args.workload]
            raw = run_pass(args, bins, workdir, trace=False)
            e2e = end_to_end(raw, spec, args.seconds)
            runs = [raw]
            if args.trace:
                traced = run_pass(args, bins, workdir, trace=True)
                runs.append(traced)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs) and failed == 0
    print(f"workload {args.workload} (seed {args.seed}): {spec['why']}")
    print(f"  |H|/m = {raw['build']['edges_over_m']:.4f} "
          f"(|H| = {raw['build']['spanner_edges']}, m = {raw['build']['m']}); "
          f"{len(raw['lat'])} timed requests; p50_ms and tail_ms "
          f"(p{spec['tail_pct']}) are medians over up to {args.seconds} "
          "segments of the window")
    print(f"  fail_ratio = {failed}/{attempted} = {failed / attempted:.6f}; "
          f"verify.ok = {all(r['build']['verify_ok'] for r in runs)}; "
          "net.protocol_errors = "
          f"{sum(r['stats'].get('protocol_errors', 0) for r in runs)}")
    for name, unit in END_TO_END.items():
        print(f"  {name:16s} {e2e[name]:14.6f} {unit}")
    if supported(len(raw["lat"]), 99):
        print(f"  (p99, unbounded) {segmented(raw['lat'], 99, args.seconds):14.6f} ms")

    if args.trace:
        layers = per_layer(traced, args.seconds)
        traced_e2e = end_to_end(traced, spec, args.seconds)
        print("tracing overhead (traced pass vs untraced pass):")
        for name, unit in END_TO_END.items():
            base, with_spans = e2e[name], traced_e2e[name]
            share = (with_spans - base) / base * 100 if base else float("nan")
            print(f"  {name:16s} {base:12.6f} -> {with_spans:12.6f} {unit:4s} "
                  f"({share:+.1f}%)")
        write_trace(traced, build_dir, args)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
