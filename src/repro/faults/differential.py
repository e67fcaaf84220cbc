"""Chaos differential harness: identical or typed-fault, never wrong.

The contract under test (ISSUE: chaos differential suite): running a
partitioned program under any injected fault must end in one of two
ways —

* **identical** — result and stdout equal to the fault-free run (the
  injection landed somewhere harmless: an unused return value, a
  cross-kind reorder the selective receive never observes, a restart
  replayed at the delivery boundary), or
* **typed-fault** — a :class:`~repro.errors.RuntimeFault` subclass
  naming what was detected (failed channel authentication, an Iago
  postcondition, a dead worker, a stall).

A third outcome — completing with a *different* result — would mean
injected corruption was absorbed into the answer: **silently-wrong**,
the one thing the runtime promises never happens.

``python -m repro.faults.differential examples/fig7.c --seeds 8``
runs the sweep standalone (the ``scripts/check.sh`` chaos smoke).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import RuntimeFault
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.runtime.executor import PrivagicRuntime

IDENTICAL = "identical"
TYPED_FAULT = "typed-fault"
SILENTLY_WRONG = "silently-wrong"


class Outcome:
    """What one (possibly fault-injected) run observably did."""

    __slots__ = ("status", "fault", "detail", "result", "stdout",
                 "injected")

    def __init__(self, status: str, result: object = None,
                 stdout: str = "", fault: str = "", detail: str = "",
                 injected: Optional[Dict[str, int]] = None):
        self.status = status  # "ok" | "fault"
        self.result = result
        self.stdout = stdout
        self.fault = fault  # RuntimeFault subclass name when "fault"
        self.detail = detail  # first line of the fault message
        self.injected = injected or {}

    def __repr__(self) -> str:
        if self.status == "fault":
            return f"<Outcome fault={self.fault} {self.detail!r}>"
        return f"<Outcome ok result={self.result!r}>"


def run_outcome(program, plan: Optional[FaultPlan] = None,
                entry: str = "main", args: Sequence[object] = (),
                engine: Optional[str] = None,
                externals: Optional[dict] = None,
                max_steps: int = 5_000_000,
                watchdog_steps: Optional[int] = None) -> Outcome:
    """Run ``program`` once (under ``plan``, if given) and capture the
    outcome.  Any non-:class:`RuntimeFault` exception propagates —
    an injected fault must never surface as an untyped error."""
    if plan is not None:
        plan.reset()
    runtime = PrivagicRuntime(program, externals, max_steps, engine,
                              watchdog_steps=watchdog_steps)
    injector = FaultInjector(plan) if plan is not None else None
    if injector is not None:
        injector.attach(runtime)
    try:
        result = runtime.run(entry, list(args))
    except RuntimeFault as fault:
        message = str(fault)
        return Outcome(
            "fault", fault=type(fault).__name__,
            detail=message.splitlines()[0] if message else "",
            stdout=runtime.machine.stdout,
            injected=dict(injector.injected) if injector else {})
    finally:
        if injector is not None:
            injector.detach()
    return Outcome(
        "ok", result=result, stdout=runtime.machine.stdout,
        injected=dict(injector.injected) if injector else {})


def classify(baseline: Outcome, outcome: Outcome) -> str:
    """Judge one injected run against the fault-free baseline."""
    if outcome.status == "fault":
        return TYPED_FAULT
    if (outcome.result == baseline.result
            and outcome.stdout == baseline.stdout):
        return IDENTICAL
    return SILENTLY_WRONG


def chaos_sweep(program, seeds: Sequence[int],
                entry: str = "main", args: Sequence[object] = (),
                engines: Sequence[str] = ("decoded", "traced", "legacy"),
                externals: Optional[dict] = None,
                max_steps: int = 5_000_000) -> List[dict]:
    """Run one seeded random plan per (seed, engine) pair and classify
    every run against that engine's fault-free baseline.

    Returns one record per run: ``{"seed", "engine", "plan",
    "verdict", "fault", "fired"}``.  The caller asserts the invariant
    (no :data:`SILENTLY_WRONG` verdicts); this function only reports.
    """
    colors = sorted(set(program.chunk_colors.values())
                    - {program.untrusted})
    records: List[dict] = []
    for engine in engines:
        baseline = run_outcome(program, None, entry, args, engine,
                               externals, max_steps)
        if baseline.status != "ok":
            raise RuntimeFault(
                f"fault-free baseline failed on engine {engine}: "
                f"{baseline.fault}: {baseline.detail}")
        for seed in seeds:
            plan = FaultPlan.random(seed, colors,
                                    untrusted=program.untrusted)
            outcome = run_outcome(program, plan, entry, args, engine,
                                  externals, max_steps)
            records.append({
                "seed": seed,
                "engine": engine,
                "plan": plan.spec(),
                "verdict": classify(baseline, outcome),
                "fault": outcome.fault,
                "fired": len(plan.fired()),
            })
    return records


def summarize(records: Sequence[dict]) -> Dict[str, int]:
    summary = {IDENTICAL: 0, TYPED_FAULT: 0, SILENTLY_WRONG: 0,
               "runs": len(records),
               "fired": sum(r["fired"] for r in records)}
    for record in records:
        summary[record["verdict"]] += 1
    return summary


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone sweep over a source file in any registered frontend
    (the check.sh chaos smoke).  Exits 0 iff no run was silently
    wrong."""
    import argparse

    from repro.core.compiler import compile_and_partition

    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.differential",
        description="chaos differential sweep over seeded fault plans")
    parser.add_argument("source", help="source file (MiniC or MiniPy)")
    parser.add_argument("--frontend", default=None, metavar="LANG",
                        help="source language (default: by file "
                             "extension)")
    parser.add_argument("--seeds", type=int, default=8,
                        help="number of seeded plans per engine")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--entry", default="main")
    parser.add_argument("--mode", default="relaxed",
                        choices=["relaxed", "hardened"])
    parser.add_argument("--engines", default="decoded,traced,legacy")
    parser.add_argument("--optimize", default=None, metavar="POLICY",
                        help="placement policy arm (none/kl): "
                             "the sweep runs against the optimized "
                             "partition, so optimized placements keep "
                             "the identical-or-typed-fault contract")
    options = parser.parse_args(argv)

    with open(options.source) as handle:
        source = handle.read()
    from repro.secval import resolve_frontend
    frontend = resolve_frontend(options.frontend, options.source)
    program = compile_and_partition(source, mode=options.mode,
                                    optimize=options.optimize,
                                    frontend=frontend.name)
    seeds = range(options.base_seed,
                  options.base_seed + options.seeds)
    records = chaos_sweep(
        program, seeds, entry=options.entry,
        engines=[e.strip() for e in options.engines.split(",")
                 if e.strip()])
    summary = summarize(records)
    for record in records:
        if record["verdict"] == SILENTLY_WRONG:
            print(f"SILENTLY WRONG: seed={record['seed']} "
                  f"engine={record['engine']} plan={record['plan']}")
    print(f"chaos sweep: {summary['runs']} runs, "
          f"{summary['fired']} faults fired, "
          f"{summary[IDENTICAL]} identical, "
          f"{summary[TYPED_FAULT]} typed-fault, "
          f"{summary[SILENTLY_WRONG]} silently-wrong")
    return 1 if summary[SILENTLY_WRONG] else 0


if __name__ == "__main__":
    raise SystemExit(main())
