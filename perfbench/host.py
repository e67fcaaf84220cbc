"""A traced host for the serving layers: one process that builds a
server (or a router) the way ``repro serve`` and
``repro.serve.shard_worker.build_server`` build it, wraps the public
functions of every serving layer with span recorders, and serves.

    python perfbench/host.py server OUT_PREFIX
    python perfbench/host.py shard OUT_PREFIX SHARD_ID
    python perfbench/host.py router OUT_PREFIX PORT,PORT

It prints ``HOST_READY port=N pid=P`` once listening.  ``SIGUSR1``
opens the measured window (everything before it — preload, warm-up —
is left out of the per-layer numbers); ``SIGTERM``/``SIGINT`` drain
and stop.  At exit it writes ``OUT_PREFIX.trace.json`` (the Chrome
trace events of every span) and ``OUT_PREFIX.summary.json`` (self
time per span name within the window, the window's wall time, drive
records and the server's registry), then prints ``HOST_DONE``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.apps.minicache import protocol  # noqa: E402
from repro.apps.minicache.server import MiniCache  # noqa: E402
from repro.serve import framing  # noqa: E402
from repro.serve.engine import SecureKVEngine  # noqa: E402
from repro.serve.hashring import HashRing  # noqa: E402

from spans import Spans  # noqa: E402

#: span name -> layer, for the per-layer self-time table.  The loop
#: span's self time is the loop's own code: everything the wrapped
#: calls below it do not cover.
LAYERS = {
    "server.loop": "server", "server.wait": "wait",
    "router.loop": "router", "router.wait": "wait",
    "framing.feed": "framing", "framing.drain": "framing",
    "framing.parse": "framing", "framing.reply": "framing",
    "store.handle": "store",
    "engine.digest": "digest",
    "engine.execute": "drive",
    "hashring.lookup": "hashring",
}


def wrap_common(spans: Spans) -> list:
    """Framing, store and digest spans; returns the drive records
    list the ``SecureKVEngine.execute`` wrapper appends to."""
    spans.wrap(framing.RequestFramer, "feed", "framing.feed")
    spans.wrap(framing.RequestFramer, "drain", "framing.drain")
    spans.wrap(protocol, "parse_request", "framing.parse")
    spans.wrap(MiniCache, "handle", "store.handle")
    spans.wrap(SecureKVEngine, "digest", "engine.digest")
    drives: list = []
    original = SecureKVEngine.execute
    spans.cats["engine.execute"] = "interp"

    def execute(engine, ops):
        record = spans.begin("engine.execute")
        runtime = engine.runtime
        stats, trace = runtime.stats, runtime.machine.trace_stats
        before = (engine.steps, stats.messages, stats.boundary_crossings,
                  trace["steps"], trace["deopts"])
        try:
            return original(engine, ops)
        finally:
            spans.end(record)
            after = (engine.steps, stats.messages,
                     stats.boundary_crossings, trace["steps"],
                     trace["deopts"])
            drives.append([record[1], record[2], len(ops)]
                          + [a - b for a, b in zip(after, before)])

    SecureKVEngine.execute = execute
    return drives


def build(role: str, argv: list):
    if role == "server":
        from repro.serve.server import PrivagicServer, ServeConfig
        # The defaults of `repro serve`.
        return PrivagicServer(ServeConfig(batch=16, queue_depth=128))
    if role == "shard":
        from repro.serve.router import RouterConfig
        from repro.serve.shard_worker import build_parser, build_server
        config = RouterConfig()
        # The queue depth the router gives the workers it spawns.
        return build_server(build_parser().parse_args([
            "--shard-id", argv[0], "--batch", str(config.batch),
            "--queue-depth",
            str(config.queue_depth * 2 + config.batch)]))
    if role == "router":
        from repro.serve.router import RouterConfig, ShardRouter
        ports = [int(p) for p in argv[0].split(",")]
        return ShardRouter(RouterConfig(
            shards=len(ports),
            external_shards=[("127.0.0.1", p) for p in ports]))
    raise SystemExit(f"unknown role {role!r}")


def main(argv: list) -> int:
    role, prefix = argv[0], argv[1]
    spans = Spans()
    drives = wrap_common(spans)
    if role == "router":
        spans.wrap(framing.ResponseFramer, "feed", "framing.reply")
        spans.wrap(framing.ResponseFramer, "drain", "framing.reply")
        spans.wrap(HashRing, "lookup", "hashring.lookup")
    target = build(role, argv[2:])
    layer = "router" if role == "router" else "server"
    spans.wrap(target, "serve_forever", f"{layer}.loop")
    port = target.bind()
    # The loop's selector exists only after bind().
    spans.wrap(target.selector, "select", f"{layer}.wait")
    window = {"start": None}
    registry_at_mark = {}

    def mark(*_args):
        window["start"] = time.perf_counter_ns()
        registry_at_mark.update(target.registry.as_dict())

    signal.signal(signal.SIGUSR1, mark)
    signal.signal(signal.SIGTERM, lambda *_a: target.request_stop())
    signal.signal(signal.SIGINT, lambda *_a: target.request_stop())
    print(f"HOST_READY port={port} pid={os.getpid()}", flush=True)
    wall_start = time.perf_counter_ns()
    target.serve_forever()
    wall_end = time.perf_counter_ns()
    start = window["start"] if window["start"] is not None \
        else wall_start
    engine = getattr(target, "engine", None)
    summary = {
        "role": role,
        "drained": target.drained,
        "wall_ns": wall_end - start,
        "self_ns": spans.self_ns(start, wall_end),
        "layers": LAYERS,
        "drives": [d for d in drives if d[0] >= start],
        "registry": target.registry.as_dict(),
        "registry_at_mark": registry_at_mark,
        "engine": None if engine is None else {
            "steps": engine.steps,
            "trace_stats": dict(engine.runtime.machine.trace_stats)},
    }
    with open(prefix + ".summary.json", "w") as handle:
        json.dump(summary, handle)
    with open(prefix + ".trace.json", "w") as handle:
        json.dump(spans.chrome_events(os.getpid(), f"{role} host"),
                  handle)
    print(f"HOST_DONE drained={target.drained}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
