"""Serve benchmark — the batching payoff over real sockets.

For every YCSB workload (A/B/C/D/F) at 1, 4 and 16 concurrent
clients, runs the load generator against two servers that differ only
in ``batch``: 16 (the default scheduling round) vs 1 (one interpreter
drive per request).  The fixed per-drive costs — app context spawn,
worker-group creation, scheduler warmup/drain — are paid per *batch*
in the first server and per *request* in the second, so the ratio is
the direct measurement of the amortization the serve layer exists
for.

The index section drives the enclave index in-process (no sockets)
with a seeded 50/50 get/set mix at 64, 1,024 and 16,384 resident
keys and reports interpreter steps per operation: the enclave work
of one served op.  The index is sized so that this stays flat in the
keyspace (``repro.serve.secure_source.NBUCKETS``), and check.sh gates
on it.

The shard sweep is workload C at a serving-scale keyspace
(``SHARD_RECORDS`` resident keys) against the single-process batched
server and against ``repro serve --shards N`` for N in 2/4/8, at
16/64/256 concurrent clients: same workload, same total ops, same
keyspace, only the shard count varies.  With a flat index a shard's
enclave does the same work per op as the single process's, so the
sweep measures what routing costs and what parallelism the host's
CPUs give back — nothing algorithmic.  Each cell also records the
CPU the serving side spent per request: the single server's loop
thread, or the router thread and the shard processes.

The last section is the engine comparison: the same single-process
batched server on the ``decoded`` vs ``traced`` interpreter tiers
(workload C, 16 clients): the measured serve-path payoff of the
opt-in trace tier over the ``decoded`` default.

Results go to ``BENCH_serve.json`` at the repo root (ops/s and
p50/p95/p99 per cell) plus the usual benchmark report.  Smoke mode
(``REPRO_BENCH_SMOKE=1`` or ``--smoke``) shrinks the op counts and
the client matrix for CI.
"""

import json
import os
import platform
import random
import statistics
import sys
import threading
import time

import pytest

from repro.bench import Report
from repro.serve.engine import SecureKVEngine, compile_secure_kv
from repro.serve.loadgen import run_load
from repro.serve.router import RouterConfig, RouterThread
from repro.serve.server import ServeConfig, ServerThread

pytestmark = [pytest.mark.slow, pytest.mark.net]

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

WORKLOADS = ("A", "B", "C", "D", "F")
CLIENTS = (1, 4) if SMOKE else (1, 4, 16)
OPS_PER_CLIENT = 20 if SMOKE else 120
RECORDS = 32 if SMOKE else 64
VALUE_BYTES = 64 if SMOKE else 128
BATCHES = (16, 1)

# The index sweep: in-process enclave work per op vs resident keys.
INDEX_RECORDS = (64, 256) if SMOKE else (64, 1024, 16384)
INDEX_OPS = 64 if SMOKE else 512
INDEX_REPEATS = 1 if SMOKE else 5

# The shard sweep: full-scale keyspace, fixed total load per cell.
SHARD_COUNTS = (2,) if SMOKE else (2, 4, 8)
SHARD_CLIENTS = (8,) if SMOKE else (16, 64, 256)
SHARD_RECORDS = 128 if SMOKE else 16384
SHARD_OPS_TOTAL = 96 if SMOKE else 1600
SHARD_WORKLOAD = "C"
# Router CPU per routed request, any sharded cell (check.sh gates
# the committed sweep against the same bound).
ROUTER_CPU_US_BOUND = 150

# The engine comparison: traced vs decoded, single shard.
ENGINE_COMPARE_CLIENTS = 4 if SMOKE else 16


def _run_cell(program, workload, clients, batch, seed, engine=None):
    """One (workload, clients, batch) measurement: fresh server,
    fresh cache, shared compiled program.  ``engine`` picks the
    interpreter tier (None = the serving default, decoded)."""
    config = ServeConfig(port=0, batch=batch, queue_depth=256)
    with ServerThread(config,
                      engine=SecureKVEngine(program=program,
                                            engine=engine)) as st:
        report = run_load("127.0.0.1", st.server.port,
                          workload=workload, clients=clients,
                          ops=OPS_PER_CLIENT * clients,
                          records=RECORDS, value_bytes=VALUE_BYTES,
                          seed=seed)
        st.stop()
    if st.error is not None:
        raise st.error
    if report["dropped_connections"] or report["errors"]:
        raise RuntimeError(
            f"{workload}x{clients} batch={batch}: "
            f"{report['dropped_connections']} dropped, "
            f"{report['errors']} errors")
    return {
        "ops_per_s": report["ops_per_s"],
        "p50_ms": report["p50_ms"],
        "p95_ms": report["p95_ms"],
        "p99_ms": report["p99_ms"],
        "shed_retries": report["shed_retries"],
    }


def run_serve_comparison():
    program = compile_secure_kv()
    # Warm the lanes once (imports, socket setup, code paths) so the
    # first measured cell is not paying one-time costs.
    _run_cell(program, "C", CLIENTS[0], BATCHES[0], seed=99)
    results = {
        "meta": {
            "python": platform.python_version(),
            "smoke": SMOKE,
            "clients": list(CLIENTS),
            "ops_per_client": OPS_PER_CLIENT,
            "records": RECORDS,
            "value_bytes": VALUE_BYTES,
        },
        "workloads": {},
    }
    for workload in WORKLOADS:
        per_clients = {}
        for clients in CLIENTS:
            cell = {}
            for batch in BATCHES:
                key = "batched" if batch == 16 else "batch1"
                cell[key] = _run_cell(program, workload, clients,
                                      batch, seed=7)
            cell["speedup"] = round(
                cell["batched"]["ops_per_s"]
                / cell["batch1"]["ops_per_s"], 2)
            per_clients[str(clients)] = cell
        results["workloads"][workload] = per_clients
    results["index"] = run_index_sweep(program)
    results["shard_sweep"] = run_shard_sweep(program)
    results["engine_compare"] = run_engine_comparison(program)
    return results


def run_engine_comparison(program):
    """Traced vs decoded on the live serve path: one single-process
    batched server per engine tier, workload C at
    ``ENGINE_COMPARE_CLIENTS`` concurrent clients — the measured
    (not modeled) payoff of serving on ``traced``."""
    cells = {}
    for engine in ("decoded", "traced"):
        cells[engine] = _run_cell(program, "C",
                                  ENGINE_COMPARE_CLIENTS, 16,
                                  seed=31, engine=engine)
    return {
        "meta": {
            "workload": "C",
            "clients": ENGINE_COMPARE_CLIENTS,
            "shards": 1,
            "batch": 16,
            "ops": OPS_PER_CLIENT * ENGINE_COMPARE_CLIENTS,
        },
        "decoded": cells["decoded"],
        "traced": cells["traced"],
        "traced_speedup": round(cells["traced"]["ops_per_s"]
                                / cells["decoded"]["ops_per_s"], 2),
    }


def _index_cell(program, records):
    """Steps and wall time per op of a seeded 50/50 get/set mix over
    ``records`` preloaded keys, in 16-op drives, on a fresh engine.
    Steps are deterministic; the wall time is the median (and
    max-min spread over the median) of ``INDEX_REPEATS`` runs."""
    engine = SecureKVEngine(program=program)
    keys = [f"user{i}" for i in range(records)]
    for start in range(0, records, 16):
        engine.execute([("set", key, b"v")
                        for key in keys[start:start + 16]])
    rng = random.Random(7)
    mix = [("get", rng.choice(keys)) if rng.random() < 0.5
           else ("set", rng.choice(keys), b"w")
           for _ in range(INDEX_OPS)]
    batches = [mix[i:i + 16] for i in range(0, INDEX_OPS, 16)]
    steps, times = set(), []
    for _ in range(INDEX_REPEATS):
        before = engine.steps
        started = time.perf_counter()
        for batch in batches:
            engine.execute(batch)
        times.append((time.perf_counter() - started) / INDEX_OPS)
        steps.add(engine.steps - before)
    if len(steps) != 1:
        raise RuntimeError(f"index @{records}: steps differ between "
                           f"identical runs: {sorted(steps)}")
    median = statistics.median(times)
    return {
        "steps_per_op": round(steps.pop() / INDEX_OPS, 1),
        "us_per_op": round(median * 1e6, 1),
        "us_per_op_spread": round((max(times) - min(times)) / median,
                                  3),
    }


def run_index_sweep(program):
    """Enclave work per op at growing resident keyspaces: the index
    must stay flat (check.sh gates the largest vs the smallest)."""
    cells = {str(records): _index_cell(program, records)
             for records in INDEX_RECORDS}
    low, high = min(INDEX_RECORDS), max(INDEX_RECORDS)
    return {
        "meta": {
            "mix": "50/50 get/set, seeded, 16-op drives, in-process",
            "ops": INDEX_OPS,
            "repeats": INDEX_REPEATS,
        },
        "records": cells,
        "steps_ratio": round(cells[str(high)]["steps_per_op"]
                             / cells[str(low)]["steps_per_op"], 2),
    }


def _thread_cpu_s(name):
    """CPU seconds used so far by the live thread called ``name``."""
    thread = next(t for t in threading.enumerate() if t.name == name)
    return time.clock_gettime(time.pthread_getcpuclockid(thread.ident))


def _process_cpu_s(pid):
    """CPU seconds (user + system) used so far by process ``pid``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) \
        / os.sysconf("SC_CLK_TCK")


def _single_cpu(thread):
    return {"server": _thread_cpu_s("repro-serve")}


def _sharded_cpu(thread):
    return {"router": _thread_cpu_s("repro-serve-router"),
            "shard": sum(_process_cpu_s(shard.proc.pid)
                         for shard in thread.router.shards)}


def _measure_load(port, clients, ops=SHARD_OPS_TOTAL, preload=False):
    report = run_load("127.0.0.1", port, workload=SHARD_WORKLOAD,
                      clients=clients, ops=ops, records=SHARD_RECORDS,
                      value_bytes=VALUE_BYTES, seed=7,
                      preload=preload)
    if report["dropped_connections"] or report["errors"]:
        raise RuntimeError(
            f"shard sweep @{clients} clients: "
            f"{report['dropped_connections']} dropped, "
            f"{report['errors']} errors")
    return {
        "ops": report["ops"],
        "ops_per_s": report["ops_per_s"],
        "p50_ms": report["p50_ms"],
        "p95_ms": report["p95_ms"],
        "p99_ms": report["p99_ms"],
        "shed_retries": report["shed_retries"],
    }


def _sweep_server(start_thread, get_port, cpu_probe):
    """Preload once, then measure every client count against the
    same live server (workload C is read-only, so cells share state
    safely and the expensive keyspace load is paid once).  Each cell
    adds the serving side's CPU per request: ``cpu_probe`` maps the
    live thread to CPU seconds per part (server, or router and
    shards)."""
    cells = {}
    thread = start_thread()
    with thread:
        port = get_port(thread)
        _measure_load(port, 1, ops=1, preload=True)
        for clients in SHARD_CLIENTS:
            before = cpu_probe(thread)
            cell = _measure_load(port, clients)
            after = cpu_probe(thread)
            for part, used in after.items():
                cell[f"{part}_cpu_us_per_req"] = round(
                    (used - before[part]) / cell["ops"] * 1e6, 1)
            cells[str(clients)] = cell
        thread.stop()
    if thread.error is not None:
        raise thread.error
    return cells


def run_shard_sweep(program):
    """Single-process batched baseline vs 2/4/8-shard routing, at a
    serving-scale resident keyspace."""
    sweep = {
        "meta": {
            "workload": SHARD_WORKLOAD,
            "records": SHARD_RECORDS,
            "ops_total": SHARD_OPS_TOTAL,
            "clients": list(SHARD_CLIENTS),
            "shards": list(SHARD_COUNTS),
            "value_bytes": VALUE_BYTES,
            "cpus": os.cpu_count(),
            "note": "the enclave index is flat in the keyspace, "
                    "so a shard does the same enclave work per op "
                    "as the single process: the sweep prices "
                    "routing (router CPU per request) against the "
                    "parallelism this host's CPUs give back",
        },
    }
    sweep["single"] = _sweep_server(
        lambda: ServerThread(
            ServeConfig(port=0, batch=16, queue_depth=512),
            engine=SecureKVEngine(program=program)),
        lambda thread: thread.server.port, _single_cpu)
    sharded = {}
    for shards in SHARD_COUNTS:
        sharded[str(shards)] = _sweep_server(
            lambda: RouterThread(RouterConfig(
                port=0, shards=shards, batch=16, queue_depth=256)),
            lambda thread: thread.router.port, _sharded_cpu)
    sweep["sharded"] = sharded
    sweep["speedup_vs_single"] = {
        shards: {
            clients: round(cells[clients]["ops_per_s"]
                           / sweep["single"][clients]["ops_per_s"],
                           2)
            for clients in cells
        }
        for shards, cells in sharded.items()
    }
    return sweep


def _repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_json(results) -> str:
    name = ("BENCH_serve.smoke.json" if results["meta"]["smoke"]
            else "BENCH_serve.json")
    path = os.path.join(_repo_root(), name)
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def regenerate_serve_report() -> Report:
    report = Report("serve",
                    "Serve: request batching vs one drive/request")
    results = run_serve_comparison()
    rows = []
    for workload, per_clients in results["workloads"].items():
        for clients, cell in per_clients.items():
            rows.append((workload, clients,
                         cell["batched"]["ops_per_s"],
                         cell["batch1"]["ops_per_s"],
                         cell["batched"]["p99_ms"],
                         f"{cell['speedup']:.2f}x"))
    report.table(("workload", "clients", "batched ops/s",
                  "batch-1 ops/s", "batched p99 ms", "speedup"),
                 rows)
    report.add()
    top = str(max(CLIENTS))
    gains = [per_clients[top]["speedup"]
             for per_clients in results["workloads"].values()]
    report.add(f"batching speedup at {top} clients: "
               f"min {min(gains):.2f}x / max {max(gains):.2f}x "
               f"(fixed per-drive costs amortized over the batch)")
    index = results["index"]
    report.add()
    report.add(f"enclave index: {index['meta']['mix']}, "
               f"{INDEX_OPS} ops x {INDEX_REPEATS}")
    report.table(("records", "steps/op", "us/op", "us/op spread"),
                 [(records, cell["steps_per_op"], cell["us_per_op"],
                   cell["us_per_op_spread"])
                  for records, cell in index["records"].items()])
    report.add(f"steps/op at {max(INDEX_RECORDS)} vs "
               f"{min(INDEX_RECORDS)} records: "
               f"{index['steps_ratio']:.2f}x")
    sweep = results["shard_sweep"]
    report.add()
    report.add(f"shard sweep: workload {SHARD_WORKLOAD}, "
               f"{SHARD_RECORDS} resident keys, "
               f"{SHARD_OPS_TOTAL} ops per cell")
    rows = [("single", clients, cell["ops_per_s"], cell["p99_ms"],
             "1.00x", cell["server_cpu_us_per_req"], "-")
            for clients, cell in sweep["single"].items()]
    for shards, cells in sweep["sharded"].items():
        for clients, cell in cells.items():
            ratio = sweep["speedup_vs_single"][shards][clients]
            rows.append((f"{shards} shards", clients,
                         cell["ops_per_s"], cell["p99_ms"],
                         f"{ratio:.2f}x", cell["shard_cpu_us_per_req"],
                         cell["router_cpu_us_per_req"]))
    report.table(("server", "clients", "ops/s", "p99 ms",
                  "vs single", "server/shard cpu us/req",
                  "router cpu us/req"), rows)
    compare = results["engine_compare"]
    report.add()
    report.add(f"engine compare: workload C, single shard, "
               f"{compare['meta']['clients']} clients")
    report.table(("engine", "ops/s", "p50 ms", "p99 ms"),
                 [(engine, compare[engine]["ops_per_s"],
                   compare[engine]["p50_ms"],
                   compare[engine]["p99_ms"])
                  for engine in ("decoded", "traced")])
    report.add(f"traced vs decoded: "
               f"{compare['traced_speedup']:.2f}x ops/s")
    path = write_json(results)
    report.add(f"machine-readable results: {os.path.basename(path)}")
    if not SMOKE:
        worst = results["workloads"]["C"]["16"]["speedup"]
        assert worst >= 1.5, \
            f"batching below 1.5x on C@16: {worst:.2f}x"
        # The index must stay flat in the keyspace, and routing a
        # request must stay cheap next to serving it.
        assert index["steps_ratio"] <= 2.0, \
            f"enclave steps/op not flat: {index['steps_ratio']}x"
        router = max(cell["router_cpu_us_per_req"]
                     for cells in sweep["sharded"].values()
                     for cell in cells.values())
        assert router <= ROUTER_CPU_US_BOUND, \
            f"router CPU per request above {ROUTER_CPU_US_BOUND} " \
            f"us: {router}"
    return report


def bench_serve(benchmark):
    report = benchmark(regenerate_serve_report)
    report.write()


if __name__ == "__main__":
    if "--smoke" in sys.argv and not SMOKE:
        os.environ["REPRO_BENCH_SMOKE"] = "1"
        os.execv(sys.executable, [sys.executable, __file__])
    report = regenerate_serve_report()
    report.write()
    print(report.text())
