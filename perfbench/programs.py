"""The programs the benchmark compiles and runs in its own process,
and the counters it reads from them.

* The **corpus** of the ``compile-run`` workload: four sources, each
  compiled under placement ``none`` and ``kl``, and the programs run
  from them with a hand-written table of expected results.
* The **served KV program** of the ``kv-*`` workloads, compiled the
  way ``repro serve`` compiles it, and one fixed secure drive of it.

Everything here calls public entry points only: a frontend's
``compile_source``, ``PrivagicCompiler.compile_module`` with a
``MetricsRegistry``, ``run_partitioned``/``PrivagicRuntime.run`` and
``SecureKVEngine.execute``.

Run as a script, it prints the deterministic counts of one workload
as JSON; the benchmark runs it under other ``PYTHONHASHSEED`` values
and requires the same counts.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from repro.apps.minicache.minic_source import (  # noqa: E402
    DECLASSIFY_EXTERNALS,
    FULL_ANNOTATED,
)
from repro.core.colors import HARDENED, RELAXED  # noqa: E402
from repro.core.compiler import PrivagicCompiler  # noqa: E402
from repro.core.placement import partition_stats  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.pipeline.manager import DEFAULT_PIPELINE  # noqa: E402
from repro.runtime import PrivagicRuntime  # noqa: E402
from repro.secval import frontend_by_name  # noqa: E402
from repro.serve.engine import SecureKVEngine  # noqa: E402
from repro.serve.secure_source import SECURE_KV_SOURCE  # noqa: E402
from repro.sgx.metering import MachineMeter  # noqa: E402

from loadgen import OpStream, key_name, value_bytes  # noqa: E402

PASSES = DEFAULT_PIPELINE
VALUE_BYTES = 128
POLICIES = ("none", "kl")

#: The strict Figure 6 protocol loop with no compute (the
#: ``fig7_protocol`` variant of benchmarks/bench_interp_dispatch.py,
#: 300 rounds): the message-bound floor of the runtime.
PROTOCOL_SOURCE = """
    int color(U) unsafe_g = 0;
    int color(blue) blue_g = 10;
    int color(red) red_g = 0;

    void g(int n) {
        blue_g = n;
        red_g = n;
    }

    int f(int y) {
        g(21);
        return 42;
    }

    entry int main() {
        unsafe_g = 1;
        int x = 0;
        for (int i = 0; i < 300; i = i + 1) {
            x = f(blue_g);
        }
        return x;
    }
"""


def _read(relative: str) -> str:
    with open(os.path.join(ROOT, relative)) as handle:
        return handle.read()


def corpus() -> List[Tuple[str, str, str, str]]:
    """(name, mode, frontend, source) of every corpus program."""
    return [
        ("fig7", RELAXED, "minic", _read("examples/fig7.c")),
        ("secure_counter", HARDENED, "minipy",
         _read("examples/secure_counter.mpy")),
        ("served_kv", HARDENED, "minic", SECURE_KV_SOURCE),
        ("minicache", HARDENED, "minic", FULL_ANNOTATED),
    ]


#: The run phase: (program, entry, args, externals, expected result,
#: expected stdout).  Every run must match under both placements.
RUNS = [
    ("fig7", "main", [], None, 42, "Hello\n"),
    ("fig7_protocol", "main", [], None, 42, ""),
    ("secure_counter", "main", [], None, 5, ""),
    ("minicache", "run_cache", [50], DECLASSIFY_EXTERNALS, 50, ""),
]


class CheckFailed(Exception):
    """An output check failed: a wrong result or reply, a count that
    did not repeat, a server that did not drain.  The run then reports
    no numbers."""


def child_env(hash_seed: Optional[str] = None) -> dict:
    """The environment of a program process: the repository's sources
    on ``PYTHONPATH``, optionally a fixed ``PYTHONHASHSEED``."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return env


# -- compiling ---------------------------------------------------------------


class CompileStats:
    """Counters summed over a set of compiles.  The raw registries are
    kept and folded only when asked, so the folding is not part of
    any timed compile."""

    def __init__(self):
        self.frontend_seconds = 0.0
        self._raw: List[tuple] = []
        self._folded: Optional[dict] = None

    def add(self, registry: MetricsRegistry, frontend_instrs: int,
            report: Optional[dict], program) -> None:
        self._raw.append((registry, frontend_instrs, report, program))

    def fold(self) -> dict:
        """Every counter, summed over the compiles.  Folded once, after
        the last compile; the compiled programs are then released."""
        if self._folded is not None:
            return self._folded
        out = {"frontend_instrs": 0, "cache_hits": 0, "cache_misses": 0,
               "secure_iterations": 0, "moves": 0, "static_msgs": 0.0,
               "tcb_instrs": 0,
               "pass_seconds": {p: 0.0 for p in PASSES},
               "instrs_out": {p: 0 for p in PASSES}}
        for registry, instrs, report, program in self._raw:
            value = registry.value
            out["frontend_instrs"] += instrs
            count = instrs
            for p in PASSES:
                out["pass_seconds"][p] += value(
                    f"pipeline.pass.seconds[{p}]")
                count += value(f"pipeline.pass.added[{p}]") \
                    - value(f"pipeline.pass.erased[{p}]")
                out["instrs_out"][p] += count
            out["cache_hits"] += value("pipeline.analysis_cache.hits")
            out["cache_misses"] += value(
                "pipeline.analysis_cache.misses")
            out["secure_iterations"] += value(
                "pipeline.pass.analysis_passes[secure-types]")
            if report is not None:
                out["moves"] += report["decisions"]["moves"]
                out["static_msgs"] += report["static_messages"]["total"]
            out["tcb_instrs"] += sum(row["tcb_instructions"]
                                     for row in partition_stats(program))
        self._folded, self._raw = out, []
        return out

    def counts(self) -> dict:
        """The deterministic part of :meth:`fold`."""
        return {k: v for k, v in self.fold().items()
                if k != "pass_seconds"}


def compile_one(mode: str, frontend: str, source: str,
                policy: str, stats: CompileStats, spans=None,
                label: str = ""):
    """Frontend, then the pass pipeline; counters go into ``stats``."""
    registry = MetricsRegistry()
    compiler = PrivagicCompiler(mode, metrics=registry,
                                optimize=None if policy == "none"
                                else policy)
    front = frontend_by_name(frontend)
    if spans is None:
        t0 = time.perf_counter()
        module = front.compile_source(source, "app")
        stats.frontend_seconds += time.perf_counter() - t0
        instrs = module.instruction_count()
        program = compiler.compile_module(module)
    else:
        with spans.span(f"compile.{label}", "pipeline"):
            with spans.span("frontend", "pipeline") as record:
                module = front.compile_source(source, "app")
            instrs = module.instruction_count()
            with spans.span("pipeline", "pipeline"):
                program = compiler.compile_module(module)
        stats.frontend_seconds += (record[2] - record[1]) / 1e9
    stats.add(registry, instrs, compiler.context.placement_report,
              program)
    return program


def compile_corpus(sources, spans=None) -> Tuple[dict, CompileStats]:
    """Compile every corpus source (from :func:`corpus`, in the given
    order) under every placement."""
    stats = CompileStats()
    programs = {}
    for name, mode, frontend, source in sources:
        for policy in POLICIES:
            programs[(name, policy)] = compile_one(
                mode, frontend, source, policy, stats, spans,
                f"{name}.{policy}")
    return programs, stats


def compile_protocol() -> dict:
    """The protocol-only run program (set-up, not part of the corpus
    compile time)."""
    return {("fig7_protocol", policy): compile_one(
        RELAXED, "minic", PROTOCOL_SOURCE, policy, CompileStats())
        for policy in POLICIES}


# -- running -----------------------------------------------------------------


def cross_enclave(runtime) -> int:
    """Measured messages on channels that touch an enclave color."""
    total = 0
    untrusted = runtime.untrusted
    for channel, kinds in runtime.channel_traffic().items():
        src, dst = channel.split("->", 1)
        if src != untrusted or dst != untrusted:
            total += sum(kinds.values())
    return total


def run_counts(runtimes) -> dict:
    """Counters summed over finished runtimes."""
    out = {"steps": 0, "traced_steps": 0, "deopts": 0, "msgs": 0,
           "transitions": 0, "cross_msgs": 0}
    for runtime in runtimes:
        machine = runtime.machine
        out["steps"] += machine.total_steps
        out["traced_steps"] += machine.trace_stats["steps"]
        out["deopts"] += machine.trace_stats["deopts"]
        out["msgs"] += runtime.stats.messages
        out["transitions"] += runtime.stats.boundary_crossings
        out["cross_msgs"] += cross_enclave(runtime)
    return out


def pass_counts(cstats: CompileStats, runtimes) -> dict:
    """The deterministic counts of one corpus pass."""
    run = run_counts(runtimes)
    return {"compile": cstats.counts(),
            "run": {k: run[k] for k in ("steps", "msgs", "transitions",
                                        "cross_msgs")}}


def run_corpus(programs: dict, spans=None) -> list:
    """Run every run-phase program under every placement on the
    default engine; raise :class:`CheckFailed` on a wrong result.
    Returns the finished runtimes."""
    runtimes = []
    for name, entry, args, externals, result, stdout in RUNS:
        for policy in POLICIES:
            runtime = PrivagicRuntime(programs[(name, policy)],
                                      externals)
            if spans is None:
                got = runtime.run(entry, args)
            else:
                with spans.span(f"run.{name}.{policy}", "interp"):
                    got = runtime.run(entry, args)
            out = runtime.machine.stdout
            if got != result or out != stdout:
                raise CheckFailed(
                    f"{name}/{policy}: returned {got!r} printing "
                    f"{out!r}, expected {result!r} printing {stdout!r}")
            runtimes.append(runtime)
    return runtimes


def modeled_cycles(programs: dict) -> float:
    """The SGX cost model's cycles for every run-phase program, from
    a metered run (memory traffic plus the runtime's messages)."""
    total = 0.0
    for name, entry, args, externals, _result, _stdout in RUNS:
        for policy in POLICIES:
            runtime = PrivagicRuntime(programs[(name, policy)],
                                      externals)
            meter = MachineMeter(runtime.machine)
            runtime.run(entry, args)
            meter.charge_runtime_messages(runtime)
            meter.detach()
            total += meter.cycles
    return total


# -- the served program ------------------------------------------------------


def compile_served(spans=None) -> Tuple[object, CompileStats]:
    """The served KV program, compiled the way ``repro serve`` does
    (hardened, default placement)."""
    stats = CompileStats()
    program = compile_one(HARDENED, "minic", SECURE_KV_SOURCE, "none",
                          stats, spans, "served_kv.none")
    return program, stats


def engine_op(op) -> tuple:
    """A generator op (kind, key index, value) as an engine op."""
    kind, key, value = op
    name = key_name(key).decode()
    return ("set", name, value) if kind == "set" else ("get", name)


class KVSequence:
    """A served-program engine preloaded with ``records`` keys (what
    one server or shard holds), and a fixed sequence of 16-op drives
    drawn from the workload's operation stream."""

    def __init__(self, program, records: int, seed: int, update: float,
                 drives: int = 16):
        self.engine = SecureKVEngine(program=program)
        self.model = {k: value_bytes(seed, k, VALUE_BYTES)
                      for k in range(records)}
        for i in range(0, records, 16):
            self.engine.execute([("set", key_name(k).decode(),
                                  self.model[k])
                                 for k in range(i, min(i + 16, records))])
        stream = OpStream(seed, records, update, VALUE_BYTES)
        self.ops = [stream.next() for _ in range(16 * drives)]
        self.batches = [[engine_op(op) for op in self.ops[i:i + 16]]
                        for i in range(0, len(self.ops), 16)]

    def run(self, meter: bool = False) -> dict:
        """Run the sequence once; raise :class:`CheckFailed` unless
        every reply is the digest of the last value written.  Returns
        the counter deltas and the wall seconds of the drives."""
        engine = self.engine
        runtime = engine.runtime
        stats = runtime.stats
        before = (engine.steps, stats.messages, stats.boundary_crossings,
                  cross_enclave(runtime))
        metered = MachineMeter(runtime.machine) if meter else None
        t0 = time.perf_counter()
        replies = []
        for batch in self.batches:
            replies += engine.execute(batch)
        seconds = time.perf_counter() - t0
        after = (engine.steps, stats.messages, stats.boundary_crossings,
                 cross_enclave(runtime))
        expected = []
        for kind, key, value in self.ops:
            if kind == "set":
                self.model[key] = value
                expected.append(1)
            else:
                expected.append(engine.digest(self.model[key]))
        if replies != expected:
            raise CheckFailed("the secure drive returned wrong digests")
        counts = dict(zip(("steps", "msgs", "transitions", "cross_msgs"),
                          (a - b for a, b in zip(after, before))))
        if metered is not None:
            metered.meter.privagic_messages(counts["msgs"])
            counts["cycles"] = metered.cycles
            metered.detach()
        counts["seconds"] = seconds
        return counts


def _counts_main(argv: List[str]) -> int:
    """``programs.py compile-run`` or ``programs.py kv RECORDS SEED
    UPDATE_SHARE``: print the deterministic counts as one JSON line."""
    started = time.perf_counter()
    if argv[0] == "compile-run":
        programs, cstats = compile_corpus(corpus())
        programs.update(compile_protocol())
        counts = pass_counts(cstats, run_corpus(programs))
    else:
        records, seed, update = int(argv[1]), int(argv[2]), float(argv[3])
        program, cstats = compile_served()
        run = KVSequence(program, records, seed, update).run()
        run.pop("seconds")
        counts = {"compile": cstats.counts(), "run": run}
    counts["seconds"] = time.perf_counter() - started
    print(json.dumps(counts), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(_counts_main(sys.argv[1:]))
