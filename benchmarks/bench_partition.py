"""Partition-quality report — what each placement policy buys.

For three workloads — the paper's Figure 6/7 running example
(relaxed), the minicache application (hardened, ``run_cache(50)``)
and the served KV engine (hardened, a deterministic op trace through
``secure_batch``) — this benchmark compiles the program once per
placement policy (``none`` / ``kl``) and measures what
the optimizer actually changed:

* **messages** — runtime protocol messages observed on the channel
  matrix (spawn + value + token),
* **cross-enclave transitions** — measured messages on channels that
  touch an enclave partition,
* **TCB instructions** — instructions resident in enclave modules
  after partitioning (barrier elision shrinks the protocol code the
  enclave must carry),
* **modeled cost** — the SGX cost model's cycle estimate for the
  static protocol traffic (``repro.core.placement.PartitionGraph``).

The hard safety rail rides along: for every workload, every optimized
arm must produce byte-identical results and stdout on all three
interpreter engines (decoded / traced / legacy) — a placement that
changes observable behavior is a bug, not an optimization.

Results go to ``BENCH_partition.json`` at the repo root (smoke mode:
``BENCH_partition.smoke.json``), which ``scripts/check.sh`` gates on:
``kl`` must never model worse than ``none``, and the best measured
message reduction must clear the 20% bar.
"""

import json
import os
import platform
import random
import sys

import pytest

from repro.apps.minicache.minic_source import (DECLASSIFY_EXTERNALS,
                                               FULL_ANNOTATED)
from repro.bench import Report
from repro.core.colors import HARDENED, RELAXED
from repro.core.compiler import PrivagicCompiler
from repro.core.placement import (optimize_placement, partition_stats,
                                  placement_report)
from repro.runtime import run_partitioned
from repro.serve.engine import SecureKVEngine

pytestmark = pytest.mark.slow

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

POLICY_ARMS = ("none", "kl")
ENGINES = ("decoded", "traced", "legacy")

MINICACHE_OPS = 50
SERVE_OPS = 32 if SMOKE else 96
SERVE_BATCH = 16


def _fig7_source() -> str:
    path = os.path.join(_repo_root(), "examples", "fig7.c")
    with open(path) as handle:
        return handle.read()


def _kv_ops(count, seed=11):
    """A deterministic mixed get/set/delete trace over a small
    keyspace (sets dominate so the enclave index actually grows)."""
    rng = random.Random(seed)
    keys = [f"key-{i}" for i in range(16)]
    ops = []
    for i in range(count):
        key = rng.choice(keys)
        roll = rng.random()
        if roll < 0.5:
            ops.append(("set", key, f"value-{i}"))
        elif roll < 0.9:
            ops.append(("get", key))
        else:
            ops.append(("delete", key))
    return ops


def _run_simple(entry, args, externals=None):
    def run(program, engine):
        result, runtime = run_partitioned(program, entry, args,
                                          externals, engine=engine)
        return {"result": result, "stdout": runtime.machine.stdout,
                "runtime": runtime}
    return run


def _run_served(ops):
    def run(program, engine):
        kv = SecureKVEngine(program=program, engine=engine)
        replies = []
        for i in range(0, len(ops), SERVE_BATCH):
            replies.extend(kv.execute(ops[i:i + SERVE_BATCH]))
        return {"result": tuple(replies),
                "stdout": kv.runtime.machine.stdout,
                "runtime": kv.runtime}
    return run


def _transitions(runtime, untrusted) -> int:
    """Measured messages on channels that touch an enclave color."""
    total = 0
    for channel, kinds in runtime.channel_traffic().items():
        src, dst = channel.split("->", 1)
        if src != untrusted or dst != untrusted:
            total += sum(kinds.values())
    return total


def _pct(before, after) -> float:
    return round(100.0 * (before - after) / before, 2) if before else 0.0


def _measure_workload(name, mode, source, run_fn):
    """Compile ``source`` once per policy, run every arm on every
    engine, assert the differential rail, and collect the metrics."""
    arms = {}
    baselines = None
    for policy in POLICY_ARMS:
        compiler = PrivagicCompiler(
            mode, optimize=None if policy == "none" else policy)
        program = compiler.compile_source(source)
        runs = {engine: run_fn(program, engine) for engine in ENGINES}
        for engine in ENGINES:
            run = runs[engine]
            if baselines is None:
                continue
            base = baselines[engine]
            assert run["result"] == base["result"], (
                f"{name}/{policy}@{engine}: result diverged from "
                f"the none-policy baseline")
            assert run["stdout"] == base["stdout"], (
                f"{name}/{policy}@{engine}: stdout diverged from "
                f"the none-policy baseline")
        if policy == "none":
            baselines = runs
            _, graph, decisions = optimize_placement(
                compiler.analysis, "none")
            report = placement_report(graph, decisions)
        else:
            report = compiler.context.placement_report
        runtime = runs["decoded"]["runtime"]
        arms[policy] = {
            "messages": runtime.stats.messages,
            "cross_enclave_transitions": _transitions(
                runtime, program.untrusted),
            "tcb_instructions": sum(
                row["tcb_instructions"]
                for row in partition_stats(program)),
            "modeled_cost_cycles": report["modeled_cost_cycles"][policy],
            "static_messages": report["static_messages"],
            "moves": report["decisions"]["moves"],
            "gain_cycles": report["decisions"]["gain_cycles"],
        }
    none = arms["none"]
    reductions = {}
    for policy in POLICY_ARMS[1:]:
        arm = arms[policy]
        assert arm["modeled_cost_cycles"] <= \
            none["modeled_cost_cycles"], (
                f"{name}/{policy}: modeled cost regressed vs none")
        reductions[policy] = {
            "messages_pct": _pct(none["messages"], arm["messages"]),
            "transitions_pct": _pct(
                none["cross_enclave_transitions"],
                arm["cross_enclave_transitions"]),
            "modeled_cost_pct": _pct(none["modeled_cost_cycles"],
                                     arm["modeled_cost_cycles"]),
        }
    return {
        "mode": mode,
        "policies": arms,
        "reduction_vs_none": reductions,
        "differential": {"engines": list(ENGINES), "identical": True},
    }


def run_partition_comparison():
    results = {
        "meta": {
            "python": platform.python_version(),
            "smoke": SMOKE,
            "policies": list(POLICY_ARMS),
            "engines": list(ENGINES),
            "minicache_ops": MINICACHE_OPS,
            "serve_ops": SERVE_OPS,
        },
        "workloads": {},
    }
    from repro.serve.secure_source import SECURE_KV_SOURCE
    specs = (
        ("fig7", RELAXED, _fig7_source(),
         _run_simple("main", [])),
        ("minicache", HARDENED, FULL_ANNOTATED,
         _run_simple("run_cache", [MINICACHE_OPS],
                     DECLASSIFY_EXTERNALS)),
        ("served_kv", HARDENED, SECURE_KV_SOURCE,
         _run_served(_kv_ops(SERVE_OPS))),
    )
    for name, mode, source, run_fn in specs:
        results["workloads"][name] = _measure_workload(
            name, mode, source, run_fn)
    # The acceptance gate: kl clears a 20% measured message reduction
    # on fig7 or minicache (with byte-identical behavior, asserted
    # per-arm above).
    best = max(
        results["workloads"][w]["reduction_vs_none"]["kl"]["messages_pct"]
        for w in ("fig7", "minicache"))
    results["meta"]["best_kl_message_reduction_pct"] = best
    assert best >= 20.0, (
        f"kl best message reduction below 20%: {best:.2f}%")
    return results


def _repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_json(results) -> str:
    name = ("BENCH_partition.smoke.json" if results["meta"]["smoke"]
            else "BENCH_partition.json")
    path = os.path.join(_repo_root(), name)
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def regenerate_partition_report() -> Report:
    report = Report("partition_quality",
                    "Partition quality: placement policies vs none")
    results = run_partition_comparison()
    for name, workload in results["workloads"].items():
        report.add(f"{name} ({workload['mode']} mode):")
        rows = []
        for policy in POLICY_ARMS:
            arm = workload["policies"][policy]
            red = workload["reduction_vs_none"].get(policy)
            rows.append((
                policy, arm["messages"],
                arm["cross_enclave_transitions"],
                arm["tcb_instructions"],
                arm["modeled_cost_cycles"],
                f"-{red['messages_pct']:.1f}%" if red else "-",
            ))
        report.table(("policy", "messages", "transitions",
                      "tcb instrs", "modeled cycles", "msg delta"),
                     rows)
        report.add()
    report.add("differential rail: every optimized arm byte-identical "
               "to none on decoded/traced/legacy engines")
    best = results["meta"]["best_kl_message_reduction_pct"]
    report.add(f"best kl message reduction (fig7/minicache): "
               f"{best:.1f}% (gate: >= 20%)")
    path = write_json(results)
    report.add(f"machine-readable results: {os.path.basename(path)}")
    return report


def bench_partition(benchmark):
    report = benchmark(regenerate_partition_report)
    report.write()


if __name__ == "__main__":
    if "--smoke" in sys.argv and not SMOKE:
        os.environ["REPRO_BENCH_SMOKE"] = "1"
        os.execv(sys.executable, [sys.executable, __file__])
    report = regenerate_partition_report()
    report.write()
    print(report.text())
