"""The ``compile-run`` workload: compile the corpus from source, then
run every run-phase program to completion, in this process, over and
over for the measured time.  No sockets.

``setup_s`` is the cold start: a fresh interpreter imports the
compiler and does one corpus pass (the first trace-compile is about a
hundred times slower than a warm one).  Each cold start runs under
its own ``PYTHONHASHSEED`` and prints its deterministic counts, which
must equal the counts of every warm pass here.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time

import hostspeed
import procstat
import programs
from programs import CheckFailed, child_env
from repro.obs.export import validate_chrome_trace_file
from spans import Spans, write_chrome

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Cold starts per run, at the start and at the end (setup_s is their
#: median; both ends of the run sample the host's drifting speed).
SETUPS = (3, 2)
#: Compiles plus runs in one corpus pass.
PROGRAMS_PER_PASS = len(programs.POLICIES) * (len(programs.corpus())
                                              + len(programs.RUNS))
#: The traced run's span self times must cover its wall time within
#: this share (what is left is the benchmark's own loop).
SUM_TOLERANCE = 0.02


def cold_setups(n: int, first_hash_seed: int = 1) -> tuple:
    """``n`` cold starts, each under its own ``PYTHONHASHSEED``;
    returns their wall times, scaled to the reference host speed, and
    their deterministic counts."""
    calib = hostspeed.Calibrated()
    calib.begin()
    counts = []
    for i in range(first_hash_seed, first_hash_seed + n):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "programs.py"),
             "compile-run"],
            cwd=ROOT, env=child_env(str(i)), stdout=subprocess.PIPE,
            timeout=120)
        calib.add((time.perf_counter() - t0,))
        if proc.returncode != 0:
            raise CheckFailed(f"cold compile-run exited with code "
                              f"{proc.returncode}")
        counts.append(json.loads(proc.stdout.decode().splitlines()[-1]))
    return calib.wall(0), counts


def _corpus(seed: int) -> list:
    """The corpus in a seeded order: no count may depend on it."""
    sources = programs.corpus()
    random.Random(seed).shuffle(sources)
    return sources


def one_pass(sources, proto, spans=None) -> tuple:
    """(compile seconds, run seconds, compile stats, runtimes, compiled
    programs) of one corpus pass."""
    t0 = time.perf_counter()
    compiled, cstats = programs.compile_corpus(sources, spans)
    t1 = time.perf_counter()
    compiled.update(proto)
    runtimes = programs.run_corpus(compiled, spans)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, cstats, runtimes, compiled


def _check_counts(reference: dict, counts: dict, where: str) -> None:
    if json.loads(json.dumps(counts)) != reference:
        raise CheckFailed(f"deterministic counts differ ({where}): "
                          f"{counts} vs {reference}")


def measure(sources, proto, seconds: float, reference: dict,
            spans=None, calib=None) -> tuple:
    """Corpus passes for ``seconds``.  With ``spans``, every other pass
    is traced.  Returns (untraced records, traced records, wall
    nanoseconds of the traced passes); a record is (compile s, run s,
    frontend s, per-pass seconds).  Each pass's counts are checked
    against ``reference`` and then dropped.  With ``calib`` (a
    ``hostspeed.Calibrated``), every untraced pass is also added to it
    as (compile, run, whole iteration) wall and (whole iteration) CPU
    seconds."""
    plain, traced = [], []
    traced_ns = 0
    if calib is not None:
        calib.begin()
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or not plain:
        w0, c0 = time.perf_counter(), time.process_time()
        gc.collect()
        trace = spans is not None and len(traced) < len(plain)
        t0 = time.perf_counter_ns()
        if trace:
            with spans.span("corpus.pass", "pipeline"):
                result = one_pass(sources, proto, spans)
            with spans.span("bench.check", "pipeline"):
                counts = programs.pass_counts(result[2], result[3])
            traced_ns += time.perf_counter_ns() - t0
        else:
            result = one_pass(sources, proto)
            counts = programs.pass_counts(result[2], result[3])
        _check_counts(reference, counts, "warm pass")
        compile_s, run_s, cstats = result[:3]
        (traced if trace else plain).append(
            (compile_s, run_s, cstats.frontend_seconds,
             cstats.fold()["pass_seconds"]))
        if calib is not None and not trace:
            calib.add((compile_s, run_s, time.perf_counter() - w0),
                      (time.process_time() - c0,))
    return plain, traced, traced_ns


def _check_cold(reference: dict, cold: list, first_hash_seed: int) -> None:
    for i, other in enumerate(cold, first_hash_seed):
        other.pop("seconds")
        _check_counts(reference, other, f"PYTHONHASHSEED={i}")


def _setup(seed: int) -> tuple:
    setups, cold = cold_setups(SETUPS[0])
    sources = _corpus(seed)
    proto = programs.compile_protocol()
    # The warm-up pass, and the reference counts.
    _c, _r, cstats, runtimes, compiled = one_pass(sources, proto)
    reference = json.loads(json.dumps(programs.pass_counts(cstats, runtimes)))
    _check_cold(reference, cold, 1)
    warm = {"compile": cstats.fold(), "run": programs.run_counts(runtimes)}
    return setups, sources, proto, reference, compiled, warm


def run_e2e(seed: int, seconds: float) -> dict:
    """Untraced passes; every timing is scaled to the reference host
    speed by the kernel runs between passes (see ``hostspeed``)."""
    setups, sources, proto, reference, _, _ = _setup(seed)
    calib = hostspeed.Calibrated()
    measure(sources, proto, seconds, reference, calib=calib)
    peak_rss_mb = procstat.peak_rss_mb(os.getpid())
    more, cold = cold_setups(SETUPS[1], SETUPS[0] + 1)
    _check_cold(reference, cold, SETUPS[0] + 1)
    setups += more
    compiles, runs = calib.wall(0), calib.wall(1)
    raw = [c + r for c, r in zip(calib.raw_wall(0), calib.raw_wall(1))]
    print(f"compile-run: {len(calib)} corpus passes; raw p50 "
          f"{statistics.median(raw) * 1e3:.1f} ms, kernel median "
          f"{statistics.median(calib.kernel_s()) * 1e3:.2f} ms "
          f"(reference {hostspeed.REFERENCE_S * 1e3:.0f})",
          file=sys.stderr)
    return {
        "attempted": (len(calib) + len(setups)) * PROGRAMS_PER_PASS,
        "metrics": {
            "setup_s": statistics.median(setups),
            "compile_ms": statistics.fmean(compiles) * 1e3,
            "run_ms": statistics.fmean(runs) * 1e3,
            "tcb_instrs": reference["compile"]["tcb_instrs"],
            "cross_msgs": reference["run"]["cross_msgs"],
            "ops_per_s": len(calib) / sum(calib.wall(2)),
            "p50_ms": statistics.median(
                c + r for c, r in zip(compiles, runs)) * 1e3,
            "cpu_us_per_op": statistics.fmean(calib.cpu(0)) * 1e6,
            "peak_rss_mb": peak_rss_mb,
        },
    }


def run_traced(seed: int, seconds: float, out_dir: str) -> dict:
    """Per-layer numbers from passes with spans around every frontend,
    pipeline and run call, alternating with untraced passes (the
    tracing overhead)."""
    _setups, sources, proto, reference, compiled, warm = _setup(seed)
    spans = Spans()
    plain, traced, wall_ns = measure(sources, proto, seconds, reference,
                                     spans)
    covered = sum(spans.self_ns().values())
    if abs(wall_ns - covered) > SUM_TOLERANCE * wall_ns:
        raise CheckFailed(f"span self times cover {covered / wall_ns:.1%} "
                          f"of the traced wall time")
    path = os.path.join(out_dir, "trace-compile-run.json")
    write_chrome(path, spans.chrome_events(1, "compile-run"))
    validate_chrome_trace_file(path)

    fold, runs = warm["compile"], warm["run"]
    run_s = statistics.median(r[1] for r in traced)
    metrics = {
        "frontend.ms": statistics.median(r[2] for r in traced) * 1e3,
        "frontend.ir_instrs": fold["frontend_instrs"],
    }
    for p in programs.PASSES:
        metrics[f"pass.{p}.ms"] = statistics.median(
            r[3][p] for r in traced) * 1e3
        metrics[f"pass.{p}.instrs_out"] = fold["instrs_out"][p]
    lookups = fold["cache_hits"] + fold["cache_misses"]
    metrics.update({
        "pipeline.cache_hit_ratio": fold["cache_hits"] / lookups,
        "secure-types.iterations": fold["secure_iterations"],
        "placement.moves": fold["moves"],
        "placement.static_msgs": fold["static_msgs"],
        "engine.steps": runs["steps"],
        "engine.steps_per_s": runs["steps"] / run_s,
        "engine.traced_share": runs["traced_steps"] / runs["steps"],
        "engine.deopts": runs["deopts"],
        "runtime.msgs": runs["msgs"],
        "runtime.transitions": runs["transitions"],
        "sgx.modeled_cycles": programs.modeled_cycles(compiled),
        "gen.p90_ms": statistics.quantiles(
            [r[0] + r[1] for r in plain], n=10)[8] * 1e3,
        "trace.overhead_pct": (
            statistics.median(r[0] + r[1] for r in traced)
            / statistics.median(r[0] + r[1] for r in plain) - 1.0) * 100.0,
    })
    return {"attempted": (len(plain) + len(traced)) * PROGRAMS_PER_PASS,
            "metrics": metrics}
