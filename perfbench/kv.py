"""The ``kv-hot`` and ``kv-sharded`` workloads: ``repro serve`` as a
separate process, loaded by this process over at most two
connections.

A run starts the server several times (``setup_s`` is the median of
process start until the preload is served), warms up, then measures
in rounds: a slice of in-process compiles and runs of the served
program, an open-loop slice at a fixed rate (latency from the due
time) and a closed-loop slice with 16 requests in flight (throughput,
CPU per op).  The traced run adds the per-layer numbers: the same
untraced server for ``/proc`` and ``--stats`` counters, then the
server rebuilt by ``host.py`` with span recorders on every serving
layer.
"""

from __future__ import annotations

import json
import os
import random
import re
import selectors
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import hostspeed
import loadgen
import procstat
import programs
from loadgen import Generator, OpStream, value_bytes
from programs import CheckFailed, child_env
from repro.obs.export import validate_chrome_trace_file
from spans import write_chrome

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Workload parameters.  kv-hot's open-loop rate sits near 40% of its
#: closed-loop capacity on a busy shared 2-CPU host (about 2,500
#: ops/s).  kv-sharded's is lower: open-loop requests reach a shard
#: one at a time, each drive then costs about twice the per-op time of
#: a batched closed-loop drive, and at 500 or 250 ops/s the shards ran
#: hot enough that p90 amplified every slowdown of the host (ten-run
#: spread 0.46-0.56 at 500 ops/s).
WORKLOADS = {
    "kv-hot": {"records": 64, "update": 0.0, "shards": None,
               "rate": 1000.0},
    "kv-sharded": {"records": 2048, "update": 0.5, "shards": 2,
                   "rate": 100.0},
}
VALUE_BYTES = 128
WINDOW = 16             # closed-loop requests in flight
CONNECTIONS = 2
#: Server starts per run before and after the measured one (setup_s is
#: the median of all of them; starts at both ends of the run sample
#: the host's drifting speed twice).
SETUPS = {"kv-hot": (2, 2), "kv-sharded": (1, 1)}
WARMUP_S = 1.0
ABSENT_PROBES = 16      # gets of never-written keys per setup
#: The open-loop phase fails if the generator sent its 99th-percentile
#: request later than this after its due time.
LATE_LIMIT_MS = 20.0
#: Requests in the traced host's measured window.
TRACED_OPS = {"kv-hot": 6000, "kv-sharded": 4000}
#: The traced run's per-layer self times must add up to its wall time
#: within this share.
SUM_TOLERANCE = 0.01
STOP_TIMEOUT = 60.0
#: Seconds of in-process compiles and runs of the served program.
PROGRAM_S = 4.0
#: The measured phases come in this many rounds (program slice, open
#: slice, closed slice), so each metric samples the whole run: the
#: shared host's speed drifts by 10-30% within seconds.
SLICES = 8


def _read_line(proc: subprocess.Popen, prefix: str,
               timeout: float = 60.0) -> str:
    """The first stdout line of ``proc`` starting with ``prefix``."""
    deadline = time.monotonic() + timeout
    buf = b""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                text = line.decode("latin-1")
                if text.startswith(prefix):
                    return text
            if time.monotonic() > deadline:
                raise CheckFailed(f"no {prefix!r} line in {timeout}s")
            if sel.select(0.1):
                chunk = os.read(proc.stdout.fileno(), 4096)
                if not chunk:
                    raise CheckFailed(f"process exited (code "
                                      f"{proc.wait()}) before {prefix!r}")
                buf += chunk


class ServerProcess:
    """One program process (``repro serve`` or a ``host.py`` host)."""

    #: Every process started and not yet reaped (see :func:`kill_all`).
    running: List["ServerProcess"] = []

    def __init__(self, argv: List[str], ready: str):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     cwd=ROOT, env=child_env())
        ServerProcess.running.append(self)
        line = _read_line(self.proc, ready)
        self.port = int(re.search(r"(?::|port=)(\d+)", line).group(1))

    def pids(self) -> List[int]:
        return [self.proc.pid] + procstat.children(self.proc.pid)

    def send(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self, signum: int = signal.SIGINT) -> str:
        """Drain and stop; returns the rest of stdout."""
        self.proc.send_signal(signum)
        try:
            out, _ = self.proc.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise CheckFailed("server did not stop in time")
        ServerProcess.running.remove(self)
        if self.proc.returncode != 0:
            raise CheckFailed(f"server exited with code "
                              f"{self.proc.returncode}")
        return out.decode("latin-1")

    def kill(self) -> None:
        """SIGKILL the process and its children (a router's shard
        workers), and wait until all are gone."""
        orphans = []
        if self.proc.poll() is None:
            orphans = procstat.children(self.proc.pid)
            self.proc.kill()
        self.proc.communicate()
        for pid in orphans:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
        deadline = time.monotonic() + 10.0
        while any(procstat.alive(pid) for pid in orphans) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        if self in ServerProcess.running:
            ServerProcess.running.remove(self)


def kill_all() -> None:
    """Kill and reap every program process still running (a failed
    run leaves no process behind)."""
    for process in list(ServerProcess.running):
        process.kill()


def serve_argv(shards: Optional[int]) -> List[str]:
    argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
            "--stats"]
    if shards:
        argv += ["--shards", str(shards)]
    return argv


def check_drained(out: str, sent: int) -> Dict[str, object]:
    """The exit line must say ``drained cleanly`` with exactly the
    requests sent; returns the parsed ``--stats`` dump."""
    match = re.search(r"serve: drained cleanly: (\d+) request", out)
    if match is None:
        raise CheckFailed(f"server did not drain cleanly: {out[:300]!r}")
    if int(match.group(1)) != sent:
        raise CheckFailed(f"server counted {match.group(1)} requests, "
                          f"the generator sent {sent}")
    return parse_stats(out)


def parse_stats(out: str) -> Dict[str, object]:
    stats: Dict[str, object] = {}
    for line in out.splitlines():
        name, sep, value = line.partition(" = ")
        if not sep:
            continue
        if value.startswith("{"):
            stats[name] = {k: float(v) for k, v in
                           (part.split("=") for part in
                            value.strip("{}").split())}
        else:
            stats[name] = float(value)
    return stats


# -- the program, in-process --------------------------------------------------


class ServedProgram:
    """The served program in this process: compiles of it, the way the
    server compiles it (``compile_ms``, ``tcb_instrs``, pass counters),
    alternating with runs of a fixed 256-op drive sequence on an engine
    holding what one server or shard holds (``run_ms``,
    ``cross_msgs``).  Sampled in slices spread over the run; counts
    must repeat exactly."""

    def __init__(self, workload: str, seed: int):
        spec = WORKLOADS[workload]
        self.records = spec["records"] // (spec["shards"] or 1)
        program, _ = programs.compile_served()
        self.sequence = programs.KVSequence(program, self.records, seed,
                                            spec["update"])
        self.compiles: list = []
        #: (compile, run) seconds of every sample, between kernel runs.
        self.calib = hostspeed.Calibrated()
        self.counts = self.drive = None

    def sample(self, seconds: float) -> None:
        self.calib.begin()
        end = time.perf_counter() + seconds
        while time.perf_counter() < end or not len(self.calib):
            t0 = time.perf_counter()
            _, cstats = programs.compile_served()
            compile_s = time.perf_counter() - t0
            self.compiles.append(cstats)
            counts = cstats.counts()
            run = self.sequence.run()
            self.calib.add((compile_s, run.pop("seconds")))
            if self.drive is None:
                self.counts, self.drive = counts, run
            elif counts != self.counts or run != self.drive:
                raise CheckFailed("served-program counts changed between "
                                "identical compiles or runs")

    def compile_ms(self) -> float:
        """Mean compile time, scaled to the reference host speed."""
        return statistics.fmean(self.calib.wall(0)) * 1e3

    def run_ms(self) -> float:
        """Mean sequence time, scaled to the reference host speed."""
        return statistics.fmean(self.calib.wall(1)) * 1e3

    def cycles_per_op(self) -> float:
        metered = self.sequence.run(meter=True)
        return metered["cycles"] / len(self.sequence.ops)


def check_hash_seed(workload: str, seed: int, prog: ServedProgram) -> None:
    spec = WORKLOADS[workload]
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "programs.py"), "kv",
         str(prog.records), str(seed), str(spec["update"])],
        cwd=ROOT, env=child_env("4242"), stdout=subprocess.PIPE,
        timeout=120, check=True)
    other = json.loads(proc.stdout.decode().splitlines()[-1])
    if other["compile"] != json.loads(json.dumps(prog.counts)) or \
            other["run"] != prog.drive:
        raise CheckFailed(f"counts differ under PYTHONHASHSEED=4242: "
                          f"{other} vs {prog.counts} {prog.drive}")


# -- serving -----------------------------------------------------------------


class Session:
    """A started server plus a connected, preloaded generator."""

    def __init__(self, workload: str, seed: int):
        spec = WORKLOADS[workload]
        self.spec = spec
        self.server = ServerProcess(serve_argv(spec["shards"]), "serve: ")
        self.gen = Generator(self.server.port, CONNECTIONS)
        records = spec["records"]
        preload = iter([("set", k, value_bytes(seed, k, VALUE_BYTES))
                        for k in range(records)])
        self.gen.window(preload, count=records, depth=WINDOW)
        # Never-written keys must read as misses.
        absent = iter([("get", records + 1000 + i, None)
                       for i in range(ABSENT_PROBES)])
        self.gen.window(absent, count=ABSENT_PROBES, depth=WINDOW)
        self.ready_s = time.perf_counter() - self.server.started
        self.check()

    def check(self) -> None:
        if self.gen.failures:
            raise CheckFailed(f"{len(self.gen.failures)} wrong repl(ies), "
                              f"first: {self.gen.failures[0]}")

    def close(self) -> str:
        self.gen.close()
        return self.server.stop()


def _ops(stream: OpStream):
    while True:
        yield stream.next()


class Load:
    """Open- and closed-loop slices against one session.  Closed-loop
    results add up over the slices; an open-loop percentile is the
    median over the slices of that percentile in each slice, so a few
    seconds in which the shared host stalls move it less."""

    def __init__(self, session: Session, stream: OpStream, seed: int):
        self.session = session
        self.stream = stream
        self.seed = seed
        #: Open-loop latencies, one list per slice.
        self.slices: List[List[float]] = []
        self.late: List[float] = []
        self.ops = 0
        self.wall = 0.0
        self.client = 0.0
        self.cpu: Dict[int, float] = {}
        self.pids = session.server.pids()
        #: Each closed-loop slice's wall and server CPU seconds,
        #: between kernel runs.
        self.closed_cal = hostspeed.Calibrated()

    def open_slice(self, seconds: float) -> None:
        """A seeded Poisson schedule at the workload's rate."""
        rng = random.Random(self.seed * 7919 + len(self.late))
        dues = loadgen.poisson_dues(rng, self.session.spec["rate"],
                                    seconds)
        ops = [self.stream.next() for _ in dues]
        latencies, late = self.session.gen.open_loop(ops, dues)
        self.session.check()
        if len(latencies) != len(ops):
            raise CheckFailed("open loop lost requests")
        self.slices.append(latencies)
        self.late += late

    def closed_slice(self, seconds: float) -> None:
        """``WINDOW`` requests in flight."""
        self.closed_cal.begin()
        before = procstat.snapshot(self.pids)
        client0 = time.process_time()
        ops, wall = self.session.gen.window(_ops(self.stream),
                                            seconds=seconds, depth=WINDOW)
        self.client += time.process_time() - client0
        after = procstat.snapshot(self.pids)
        self.session.check()
        self.ops += ops
        self.wall += wall
        for pid in self.pids:
            self.cpu[pid] = self.cpu.get(pid, 0.0) + after[pid] - before[pid]
        self.closed_cal.add((wall,), (sum(after[pid] - before[pid]
                                          for pid in self.pids),))

    def open_result(self) -> dict:
        late_p99 = statistics.quantiles(self.late, n=100)[98] * 1e3
        if late_p99 > LATE_LIMIT_MS:
            raise CheckFailed(f"generator fell behind its schedule: p99 "
                              f"{late_p99:.1f} ms late (limit "
                              f"{LATE_LIMIT_MS} ms)")
        per_slice = [statistics.quantiles(lat, n=100)
                     for lat in self.slices]
        return {"p50_ms": statistics.median(q[49] for q in per_slice) * 1e3,
                "p90_ms": statistics.median(q[89] for q in per_slice) * 1e3,
                "samples": len(self.late), "late_p99_ms": late_p99}

    def closed_result(self) -> dict:
        return {"ops": self.ops, "wall": self.wall, "cpu": self.cpu,
                "pids": self.pids,
                "ops_per_s": self.ops / sum(self.closed_cal.wall(0)),
                "raw_ops_per_s": self.ops / self.wall,
                "cpu_us_per_op": sum(self.closed_cal.cpu(0)) / self.ops * 1e6,
                "raw_cpu_us_per_op": sum(self.cpu.values()) / self.ops * 1e6,
                "client_us_per_op": self.client / self.ops * 1e6,
                "peak_rss_mb": sum(procstat.peak_rss_mb(pid)
                                   for pid in self.pids)}


def measure_load(workload: str, seed: int, session: Session,
                 seconds: float, prog: ServedProgram) -> Load:
    """Warm up, then ``SLICES`` rounds of: a slice of the in-process
    program (the server idles), an open-loop slice and a closed-loop
    slice, so every metric samples the whole run."""
    spec = WORKLOADS[workload]
    stream = OpStream(seed, spec["records"], spec["update"], VALUE_BYTES)
    session.gen.window(_ops(stream), seconds=WARMUP_S, depth=WINDOW)
    session.check()
    load = Load(session, stream, seed)
    for _ in range(SLICES):
        prog.sample(PROGRAM_S / SLICES)
        load.open_slice(seconds / 2 / SLICES)
        load.closed_slice(seconds / 2 / SLICES)
    return load


def run_e2e(workload: str, seed: int, seconds: float) -> dict:
    spec = WORKLOADS[workload]
    prog = ServedProgram(workload, seed)
    prog.sample(0.0)
    check_hash_seed(workload, seed, prog)
    setups = hostspeed.Calibrated()
    attempted = 0

    def start() -> Session:
        setups.begin()
        session = Session(workload, seed)
        setups.add((session.ready_s,))
        return session

    def stop(session: Session) -> None:
        nonlocal attempted
        check_drained(session.close(), session.gen.sent)
        attempted += session.gen.sent

    before, after = SETUPS[workload]
    for _ in range(before):
        stop(start())
    session = start()
    load = measure_load(workload, seed, session, seconds, prog)
    opened, closed = load.open_result(), load.closed_result()
    stop(session)
    for _ in range(after):
        stop(start())
    print(f"{workload}: open loop {opened['samples']} samples at "
          f"{spec['rate']:.0f}/s, closed loop {closed['ops']} ops, "
          f"{len(prog.calib)} program samples; raw ops/s "
          f"{closed['raw_ops_per_s']:.0f}, raw CPU "
          f"{closed['raw_cpu_us_per_op']:.1f} us/op", file=sys.stderr)
    return {
        "attempted": attempted,
        "metrics": {
            "setup_s": statistics.median(setups.wall(0)),
            "compile_ms": prog.compile_ms(),
            "run_ms": prog.run_ms(),
            "tcb_instrs": prog.counts["tcb_instrs"],
            "cross_msgs": prog.drive["cross_msgs"],
            "ops_per_s": closed["ops_per_s"],
            "p50_ms": opened["p50_ms"],
            "cpu_us_per_op": closed["cpu_us_per_op"],
            "peak_rss_mb": closed["peak_rss_mb"],
        },
    }


# -- the traced run ------------------------------------------------------------


def _host_argv(role: str, prefix: str, *extra: str) -> List[str]:
    return [sys.executable, os.path.join(HERE, "host.py"), role, prefix,
            *extra]


class TracedSession:
    """The serving stack rebuilt by ``host.py`` hosts: one server, or
    a router over two shard hosts."""

    def __init__(self, workload: str, seed: int, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        self.prefixes: List[str] = []
        self.shards: List[ServerProcess] = []
        self.front: Optional[ServerProcess] = None
        shards = WORKLOADS[workload]["shards"]
        if shards:
            for k in range(shards):
                prefix = os.path.join(out_dir, f"{workload}-shard{k}")
                self.prefixes.append(prefix)
                self.shards.append(ServerProcess(
                    _host_argv("shard", prefix, str(k)), "HOST_READY"))
            prefix = os.path.join(out_dir, f"{workload}-router")
            ports = ",".join(str(s.port) for s in self.shards)
            self.front = ServerProcess(
                _host_argv("router", prefix, ports), "HOST_READY")
        else:
            prefix = os.path.join(out_dir, f"{workload}-server")
            self.front = ServerProcess(_host_argv("server", prefix),
                                       "HOST_READY")
        self.prefixes.insert(0, prefix)

    def mark(self) -> None:
        for host in [self.front] + self.shards:
            host.send(signal.SIGUSR1)

    def stop(self) -> List[dict]:
        """Stop front first (the router drains through the shards),
        then the shards; returns every host's summary."""
        for host, signum in [(self.front, signal.SIGINT)] + \
                [(s, signal.SIGTERM) for s in self.shards]:
            out = host.stop(signum)
            if "HOST_DONE drained=True" not in out:
                raise CheckFailed(f"traced host did not drain: {out!r}")
        summaries = []
        for prefix in self.prefixes:
            with open(prefix + ".summary.json") as handle:
                summaries.append(json.load(handle))
        return summaries


def merge_traces(prefixes: List[str], path: str) -> None:
    events = []
    for prefix in prefixes:
        with open(prefix + ".trace.json") as handle:
            events.extend(json.load(handle))
        os.remove(prefix + ".trace.json")
    write_chrome(path, events)
    validate_chrome_trace_file(path)


def layer_self_ns(summary: dict) -> Dict[str, int]:
    layers: Dict[str, int] = {}
    for name, ns in summary["self_ns"].items():
        layer = summary["layers"][name]
        layers[layer] = layers.get(layer, 0) + ns
    covered = sum(layers.values())
    if abs(covered - summary["wall_ns"]) > SUM_TOLERANCE * \
            summary["wall_ns"]:
        raise CheckFailed(f"{summary['role']} host: layer self times sum "
                          f"to {covered} ns, wall time {summary['wall_ns']}")
    return layers


def _hist_delta(summary: dict, name: str) -> tuple:
    """(count, sum) of a histogram over the measured window."""
    now = summary["registry"].get(name, {"count": 0, "sum": 0})
    then = summary["registry_at_mark"].get(name, {"count": 0, "sum": 0})
    return now["count"] - then["count"], now["sum"] - then["sum"]


def _counter_delta(summary: dict, name: str) -> float:
    return summary["registry"].get(name, 0) - \
        summary["registry_at_mark"].get(name, 0)


def run_traced(workload: str, seed: int, seconds: float,
               out_dir: str) -> dict:
    spec = WORKLOADS[workload]
    metrics: Dict[str, float] = {}
    attempted = 0

    # The program, compiled in this process with a registry.
    prog = ServedProgram(workload, seed)
    prog.sample(PROGRAM_S)
    folds = [c.fold() for c in prog.compiles]
    fold = folds[0]
    metrics["frontend.ms"] = statistics.median(
        c.frontend_seconds for c in prog.compiles) * 1e3
    metrics["frontend.ir_instrs"] = fold["frontend_instrs"]
    for p in programs.PASSES:
        metrics[f"pass.{p}.ms"] = statistics.median(
            f["pass_seconds"][p] for f in folds) * 1e3
        metrics[f"pass.{p}.instrs_out"] = fold["instrs_out"][p]
    metrics["pipeline.cache_hit_ratio"] = fold["cache_hits"] / (
        fold["cache_hits"] + fold["cache_misses"])
    metrics["secure-types.iterations"] = fold["secure_iterations"]
    metrics["placement.moves"] = fold["moves"]
    metrics["placement.static_msgs"] = fold["static_msgs"]
    metrics["sgx.modeled_cycles"] = prog.cycles_per_op()

    # The untraced program: /proc, --stats and the generator.
    session = Session(workload, seed)
    load = measure_load(workload, seed, session, seconds / 2, prog)
    opened, closed = load.open_result(), load.closed_result()
    stats = check_drained(session.close(), session.gen.sent)
    attempted += session.gen.sent
    ops = closed["ops"]
    front_pid, shard_pids = closed["pids"][0], closed["pids"][1:]
    metrics["gen.late_p99_ms"] = opened["late_p99_ms"]
    metrics["gen.p90_ms"] = opened["p90_ms"]
    metrics["client.cpu_us_per_op"] = closed["client_us_per_op"]
    if spec["shards"]:
        shard_cpu = sum(closed["cpu"][pid] for pid in shard_pids)
        metrics["router.cpu_us_per_op"] = \
            closed["cpu"][front_pid] / ops * 1e6
        metrics["shard.cpu_us_per_op"] = shard_cpu / ops * 1e6
        metrics["server.cpu_us_per_op"] = shard_cpu / ops * 1e6
        metrics["shard.busy_max"] = max(
            closed["cpu"][pid] for pid in shard_pids) / closed["wall"]
        forwarded = [v for k, v in stats.items()
                     if k.startswith("router.forwarded[")]
        metrics["router.shard_skew"] = max(forwarded) / (
            sum(forwarded) / len(forwarded))
        depth = [v for k, v in stats.items()
                 if k.startswith("router.shard_depth[")]
        metrics["router.depth_mean"] = sum(h["sum"] for h in depth) / \
            sum(h["count"] for h in depth)
    else:
        metrics["server.cpu_us_per_op"] = \
            closed["cpu"][front_pid] / ops * 1e6
        batch = stats["serve.batch_size"]
        metrics["server.batch_mean"] = batch["sum"] / batch["count"]
        metrics["server.window_waits"] = \
            stats["serve.window_waits"] / stats["serve.requests"]
        metrics["server.shed"] = stats["serve.shed"]
        metrics["engine.traced_share"] = \
            stats["interp.trace.steps"] / stats["interp.steps"]

    # The traced hosts.
    traced = TracedSession(workload, seed, out_dir)
    gen = Generator(traced.front.port, CONNECTIONS)
    records = spec["records"]
    gen.window(iter([("set", k, value_bytes(seed, k, VALUE_BYTES))
                     for k in range(records)]),
               count=records, depth=WINDOW)
    stream = OpStream(seed, records, spec["update"], VALUE_BYTES)
    gen.window(_ops(stream), seconds=WARMUP_S, depth=WINDOW)
    traced.mark()
    time.sleep(0.05)
    n, wall = gen.window(_ops(stream), count=TRACED_OPS[workload],
                         depth=WINDOW)
    gen.close()
    if gen.failures:
        raise CheckFailed(f"traced run: {gen.failures[0]}")
    summaries = traced.stop()
    attempted += gen.sent
    merge_traces(traced.prefixes,
                 os.path.join(out_dir, f"trace-{workload}.json"))
    metrics["trace.overhead_pct"] = (closed["raw_ops_per_s"] / (n / wall)
                                     - 1.0) * 100.0
    front_summary = summaries[0]
    expected = front_summary["registry"].get(
        "router.requests" if spec["shards"] else "serve.requests")
    if expected != gen.sent:
        raise CheckFailed(f"traced host counted {expected} requests, the "
                          f"generator sent {gen.sent}")
    layer_self_ns(front_summary)
    servers = summaries[1:] if spec["shards"] else summaries
    layers: Dict[str, int] = {}
    wall_ns = requests = 0
    drives: list = []
    for summary in servers:
        for layer, ns in layer_self_ns(summary).items():
            layers[layer] = layers.get(layer, 0) + ns
        wall_ns += summary["wall_ns"]
        requests += _counter_delta(summary, "serve.requests")
        drives += summary["drives"]
    metrics["framing.us_per_req"] = layers.get("framing", 0) / requests / 1e3
    metrics["store.us_per_req"] = layers.get("store", 0) / requests / 1e3
    metrics["digest.us_per_req"] = layers.get("digest", 0) / requests / 1e3
    metrics["server.self_share"] = layers.get("server", 0) / wall_ns
    # drive record: start, end, ops, and the deltas of steps, msgs,
    # crossings, traced steps and deopts
    durations = [(d[1] - d[0]) / 1e6 for d in drives]
    q = statistics.quantiles(durations, n=100)
    drive_ops = sum(d[2] for d in drives)
    steps = sum(d[3] for d in drives)
    metrics.update({
        "drive.ms_p50": q[49], "drive.ms_p99": q[98],
        "drive.ops_mean": drive_ops / len(drives),
        "drive.steps_per_op": steps / drive_ops,
        "drive.msgs_per_op": sum(d[4] for d in drives) / drive_ops,
        "engine.steps": steps,
        "engine.steps_per_s": steps / (sum(durations) / 1e3),
        "engine.deopts": sum(d[7] for d in drives),
        "runtime.msgs": sum(d[4] for d in drives) / drive_ops,
        "runtime.transitions": sum(d[5] for d in drives) / drive_ops,
    })
    if spec["shards"]:
        batch = [_hist_delta(s, "serve.batch_size") for s in servers]
        metrics["server.batch_mean"] = sum(b[1] for b in batch) / \
            sum(b[0] for b in batch)
        metrics["server.window_waits"] = sum(
            _counter_delta(s, "serve.window_waits") for s in servers) / \
            requests
        metrics["server.shed"] = sum(
            s["registry"].get("serve.shed", 0) for s in servers)
        engine_steps = sum(s["engine"]["steps"] for s in servers)
        metrics["engine.traced_share"] = sum(
            s["engine"]["trace_stats"]["steps"] for s in servers) / \
            engine_steps
    print(f"{workload}: traced window {n} ops, {len(drives)} drives; "
          f"layers (ms): " + ", ".join(
              f"{k}={v / 1e6:.0f}" for k, v in sorted(layers.items())),
          file=sys.stderr)
    return {"attempted": attempted, "metrics": metrics}
