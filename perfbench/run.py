"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {compile-run,kv-hot,kv-sharded}
        --seed N --seconds S --trace {0,1}

Run from the repository root.  With ``--trace 0`` it measures with no
tracing and prints every end-to-end metric of BENCHMARK.json; with
``--trace 1`` it makes the traced run and prints every per-layer
metric (a metric whose layer does no work on the workload reads 0).
The last stdout line is one JSON object::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"NAME": {"value": V, "unit": U}, ...}}

A failed output check fails the run: ``correct`` is false, no metric
is reported and the exit code is 1.  See NOTES.md for the workloads
and the layer -> metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("compile-run", "kv-hot", "kv-sharded")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> dict:
    if workload == "compile-run":
        import compile_run
        if trace:
            return compile_run.run_traced(seed, seconds, OUT)
        return compile_run.run_e2e(seed, seconds)
    import kv
    if trace:
        return kv.run_traced(workload, seed, seconds, OUT)
    return kv.run_e2e(workload, seed, seconds)


def main(argv=None) -> int:
    options = build_parser().parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are not at {SRC}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    sys.path.insert(0, SRC)
    from kv import kill_all
    from loadgen import LoadFailure
    from programs import CheckFailed

    wanted = spec["per_layer"] if options.trace else spec["end_to_end"]
    # A terminated run still stops the servers it started.
    signal.signal(signal.SIGTERM, lambda *_args: sys.exit(143))
    try:
        result = measure(options.workload, options.seed,
                         options.seconds, bool(options.trace))
    except (CheckFailed, LoadFailure) as error:
        print(f"error: {options.workload}: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1,
                          "failed": 1, "metrics": {}}))
        return 1
    finally:
        kill_all()
    measured = result["metrics"]
    unknown = set(measured) - {m["name"] for m in wanted}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: "
                       f"{sorted(unknown)}")
    if not options.trace:
        missing = [m["name"] for m in wanted if m["name"] not in measured]
        if missing:
            raise KeyError(f"end-to-end metrics not measured: {missing}")
    metrics = {m["name"]: {"value": measured.get(m["name"], 0),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
