"""Cost-aware partition placement (ROADMAP item 3).

The partitioner places code purely by color: every chunk lives in its
color's module and every chunk participates in every sync barrier of
its function.  This module closes the loop between the SGX cost model
(:mod:`repro.sgx.costmodel`) and placement:

1. :class:`PartitionGraph` — an explicit graph over the protocol the
   :class:`~repro.core.partition.PartitionPlanner` decided on.  Nodes
   are chunks ``(spec, color)`` with their color constraints
   (instruction counts, colored-instruction counts, hosted visible
   effects); edges are the protocol messages between them — ``spawn``,
   ``value`` (cont) and ``token`` — weighted by the
   :class:`~repro.sgx.costmodel.CostParams` message cost, with the
   enclave LLC-miss factor applied to edges that cross an enclave
   boundary and a static ``8^loop-depth`` execution-frequency
   estimate.

2. :class:`PlacementPolicy` — a pluggable decision procedure over the
   graph.  Policies may only relocate *color-neutral* instructions:
   the colored instructions of a chunk are pinned to their enclave by
   the type system, so the only thing a policy can legally move across
   the cut is protocol code.  Concretely, the shipped policies elide
   the sync-barrier token participation of chunks that provably host
   **zero visible effects** (§7.3.3: a token from an effect-free chunk
   cannot reorder any observable action, so the pair is dead
   synchronization weight).  Decisions are *pairwise consistent* by
   construction — the token sender and the waiting receiver both
   filter by the same per-spec exempt set — and are re-checked by
   :func:`verify_decisions` before use and :func:`verify_placement`
   after materialization.

   * ``none`` — today's color-home placement, bit-identical output.
   * ``kl`` — Kernighan–Lin-style boundary refinement: iterative
     gain-ranked moves over the token edges, locking each moved node.

3. Reporting — :func:`partition_stats` (the per-color table behind
   ``repro analyze --partition-stats``) and :func:`placement_report`
   (the before/after message + modeled-cost summary behind
   ``BENCH_partition.json``).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.core.analysis import AnalysisResult, location_color
from repro.core.colors import F, is_named
from repro.core.partition import (
    PartitionPlanner,
    PartitionedProgram,
    SpecPlan,
    chunk_name,
)
from repro.errors import PlacementError
from repro.ir.cfg import predecessor_map
from repro.ir.instructions import Call, Instruction, Load, Store
from repro.ir.module import Function
from repro.ir.values import GlobalVariable, Value
from repro.sgx.costmodel import MACHINE_A, CostParams

#: Static execution-frequency estimate: each loop level multiplies
#: expected executions by this factor (capped, so deeply nested CFGs
#: cannot overflow the cost model).
LOOP_WEIGHT = 8
LOOP_DEPTH_CAP = 4


# == the partition graph =======================================================


@dataclass
class ChunkNode:
    """One chunk ``spec@color`` with its color constraints."""

    spec: str
    color: str
    #: instructions kept in this chunk before DCE
    instructions: int = 0
    #: instructions *colored* with this chunk's color — the
    #: secret-typed code the type system pins here
    colored_instructions: int = 0
    #: visible effects (§7.3.3) whose barrier home is this chunk;
    #: a nonzero count pins the node as a barrier participant
    effects: int = 0
    #: visible effects that are *external calls* (printf &c.) — always
    #: observable, unlike an untrusted store nobody reads back
    external_calls: int = 0
    #: globals this chunk's kept instructions store
    stores: Set[str] = field(default_factory=set)
    #: separately-sent messages out of / into this chunk (call
    #: replies, §7.3.2 transfers, interface replies).  These survive
    #: barrier elision and keep the chunk *loss-coupled*: if its spawn
    #: is dropped, either a peer blocks receiving from it or a message
    #: to it stays pending — a typed DeadlockFault either way.
    separate_out: int = 0
    separate_in: int = 0
    #: call sites in this chunk that spawn other chunks
    spawn_sites: int = 0
    #: whether this chunk arrives via a (droppable) spawn message
    spawned: bool = False

    @property
    def name(self) -> str:
        return chunk_name(self.spec, self.color)

    @property
    def pinned(self) -> bool:
        """Whether the node must keep its barrier participation: it
        hosts visible effects whose ordering the tokens protect."""
        return self.effects > 0


@dataclass
class FlowEdge:
    """One protocol flow between two chunks of a spec."""

    spec: str
    kind: str  # "spawn" | "value" | "token"
    src: str
    dst: str
    #: frequency-weighted static message-count estimate
    count: float
    #: modeled cycles for the estimated traffic
    cycles: float
    crosses_enclave: bool = False


class PartitionGraph:
    """Protocol graph over a planned (not yet materialized) partition.

    Built from the exact :class:`~repro.core.partition.SpecPlan`
    decisions the partitioner will materialize, so what a policy
    optimizes is what the runtime will actually send.
    """

    def __init__(self, analysis: AnalysisResult,
                 planner: PartitionPlanner,
                 params: Optional[CostParams] = None):
        self.analysis = analysis
        self.planner = planner.plan()
        self.params = params if params is not None else MACHINE_A
        self.untrusted = analysis.untrusted
        self.nodes: Dict[tuple, ChunkNode] = {}
        self.edges: List[FlowEdge] = []
        #: global name -> chunks whose kept instructions load it
        self._loaders: Dict[str, Set[tuple]] = {}
        self._build()

    # -- construction ----------------------------------------------------------

    def _edge_cycles(self, src: str, dst: str, count: float) -> tuple:
        """Modeled cycles for ``count`` messages on ``src -> dst``: the
        lock-free FIFO push/pop plus the memory-encryption surcharge on
        the cache-line transfer when either endpoint is an enclave."""
        p = self.params
        per_message = p.privagic_message_cycles
        crosses = is_named(src) or is_named(dst)
        if crosses:
            per_message += p.llc_miss_cycles * (p.enclave_miss_factor - 1.0)
        return count * per_message, crosses

    def _add_edge(self, spec: str, kind: str, src: str, dst: str,
                  count: float) -> None:
        if count <= 0 or src == dst:
            return
        cycles, crosses = self._edge_cycles(src, dst, count)
        self.edges.append(FlowEdge(spec, kind, src, dst, count, cycles,
                                   crosses))

    def _block_freqs(self, fn: Function) -> Dict[object, float]:
        """``8^loop-depth`` per block, loop depth from natural loops
        (back edges found via the cached dominator tree)."""
        depths = {block: 0 for block in fn.blocks}
        try:
            dom = self.planner.cache.dominators(fn)
        except Exception:
            return {block: 1.0 for block in fn.blocks}
        preds = predecessor_map(fn)
        for head in fn.blocks:
            try:
                backs = [p for p in preds[head]
                         if p in depths and dom.dominates(head, p)]
            except Exception:
                continue
            if not backs:
                continue
            body = {head}
            stack = list(backs)
            while stack:
                block = stack.pop()
                if block in body or block not in depths:
                    continue
                body.add(block)
                stack.extend(preds[block])
            for block in body:
                depths[block] += 1
        return {block: float(LOOP_WEIGHT ** min(depth, LOOP_DEPTH_CAP))
                for block, depth in depths.items()}

    def _build(self) -> None:
        planner = self.planner
        for plan in planner.plans.values():
            spec = plan.fa.fn.name
            freqs = self._block_freqs(plan.fa.fn)

            def freq(value: Value) -> float:
                if isinstance(value, Instruction) and \
                        value.parent is not None:
                    return freqs.get(value.parent, 1.0)
                return 1.0

            for chunk in plan.chunks:
                self.nodes[(spec, chunk)] = ChunkNode(spec, chunk)
            for instr in plan.fa.fn.instructions():
                for chunk in plan.chunks:
                    if planner._kept_in_chunk(plan, instr, chunk):
                        node = self.nodes[(spec, chunk)]
                        node.instructions += 1
                        self._note_memory(node, instr)
                color = plan.fa.inst_colors.get(instr)
                if color is not None and (spec, color) in self.nodes:
                    self.nodes[(spec, color)].colored_instructions += 1
                if planner._is_visible_effect(plan, instr):
                    home = planner._barrier_home(plan, instr)
                    node = self.nodes.get((spec, home))
                    if node is not None:
                        node.effects += 1
                        if isinstance(instr, Call):
                            node.external_calls += 1
                    for other in plan.chunks - {home}:
                        self._add_edge(spec, "token", other, home,
                                       freq(instr))
            self._build_call_edges(plan, spec, freq)
            self._build_transfer_edges(plan, spec, freq)
        self._build_interface_edges()

    def _note_memory(self, node: ChunkNode, instr: Instruction) -> None:
        if isinstance(instr, Store):
            pointer = instr.ptr
            if isinstance(pointer, GlobalVariable):
                node.stores.add(pointer.name)
        elif isinstance(instr, Load):
            pointer = instr.ptr
            if isinstance(pointer, GlobalVariable):
                self._loaders.setdefault(pointer.name, set()).add(
                    (node.spec, node.color))

    def _spawn_target(self, caller_spec: str, callee_spec: str,
                      dest: str) -> Optional[ChunkNode]:
        """The node a spawn lands on: the callee spec's chunk, or the
        caller's replica for a demand-replicated pure-F callee."""
        return self.nodes.get((callee_spec, dest)) \
            or self.nodes.get((caller_spec, dest))

    def _build_call_edges(self, plan: SpecPlan, spec: str, freq) -> None:
        for info in plan.call_sites.values():
            f_args = sum(1 for a in info.call.args
                         if plan.fa.color_of(a) == F)
            call_freq = freq(info.call)
            leader = self.nodes.get((spec, info.leader))
            for dest in info.spawns:
                # One spawn message plus the inline cont payload (the
                # payload dies with a dropped spawn, so it is not a
                # loss coupling).
                self._add_edge(spec, "spawn", info.leader, dest,
                               call_freq)
                self._add_edge(spec, "value", info.leader, dest,
                               f_args * call_freq)
                target = self._spawn_target(spec, info.callee_spec,
                                            dest)
                if target is not None:
                    target.spawned = True
            if leader is not None and info.spawns:
                leader.spawn_sites += 1
            if not info.direct and info.reply_to is not None and \
                    info.sender is not None:
                # The callee trampoline's reply carrying the result.
                self._add_edge(spec, "value", info.reply_to, info.sender,
                               call_freq)
                src = self._spawn_target(spec, info.callee_spec,
                                         info.reply_to)
                if src is not None:
                    src.separate_out += 1
                dst = self.nodes.get((spec, info.sender))
                if dst is not None:
                    dst.separate_in += 1

    def _build_transfer_edges(self, plan: SpecPlan, spec: str,
                              freq) -> None:
        for value, dests in plan.sends.items():
            src = self.planner._sender_of(plan, value)
            for dest in dests:
                self._add_edge(spec, "value", src, dest, freq(value))
                src_node = self.nodes.get((spec, src))
                if src_node is not None:
                    src_node.separate_out += 1
                dst_node = self.nodes.get((spec, dest))
                if dst_node is not None:
                    dst_node.separate_in += 1

    def _build_interface_edges(self) -> None:
        """Entry interfaces spawn the enclave chunks once per
        invocation and may wait for a reply (§7.3.4)."""
        for spec in self.analysis.entry_specs.values():
            plan = self.planner.plans.get(spec)
            if plan is None:
                continue
            enclave_chunks = sorted(plan.chunks - {self.untrusted})
            has_untrusted = self.untrusted in plan.chunks
            f_args = sum(1 for c in plan.fa.arg_colors if c == F)
            for dest in enclave_chunks:
                self._add_edge(spec, "spawn", self.untrusted, dest, 1.0)
                self._add_edge(spec, "value", self.untrusted, dest,
                               float(f_args))
                node = self.nodes.get((spec, dest))
                if node is not None:
                    node.spawned = True
            if not has_untrusted and enclave_chunks:
                replier = min(enclave_chunks)
                self._add_edge(spec, "value", replier,
                               self.untrusted, 1.0)
                node = self.nodes.get((spec, replier))
                if node is not None:
                    # The interface blocks on this reply: losing the
                    # replier is always a detected deadlock.
                    node.separate_out += 1

    # -- queries ---------------------------------------------------------------

    def specs(self) -> List[str]:
        return sorted({spec for spec, _ in self.nodes})

    def node(self, spec: str, color: str) -> Optional[ChunkNode]:
        return self.nodes.get((spec, color))

    def spec_nodes(self, spec: str) -> List[ChunkNode]:
        return [node for (s, _), node in sorted(self.nodes.items())
                if s == spec]

    def token_edges_from(self, spec: str, color: str) -> List[FlowEdge]:
        return [e for e in self.edges
                if e.spec == spec and e.kind == "token" and e.src == color]

    def message_totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {"spawn": 0.0, "value": 0.0,
                                    "token": 0.0}
        for edge in self.edges:
            totals[edge.kind] = totals.get(edge.kind, 0.0) + edge.count
        totals["total"] = sum(totals.values())
        return totals

    def modeled_cost(self, decisions: Optional["PlacementDecisions"]
                     = None) -> float:
        """Total modeled cycles of the protocol traffic, with the
        token edges a decision set elides removed."""
        total = 0.0
        for edge in self.edges:
            if decisions is not None and edge.kind == "token" and \
                    edge.src in decisions.barrier_exempt_chunks(edge.spec):
                continue
            total += edge.cycles
        return total

    def cross_enclave_count(self, decisions: Optional["PlacementDecisions"]
                            = None) -> float:
        """Estimated messages that cross an enclave boundary."""
        total = 0.0
        for edge in self.edges:
            if not edge.crosses_enclave:
                continue
            if decisions is not None and edge.kind == "token" and \
                    edge.src in decisions.barrier_exempt_chunks(edge.spec):
                continue
            total += edge.count
        return total

    # -- loss coupling (the chaos-contract side conditions) --------------------

    def writes_read_elsewhere(self, node: ChunkNode) -> bool:
        """Whether some *other* chunk loads a global this one stores —
        i.e. losing this chunk's stores could change observable
        results downstream."""
        for name in node.stores:
            for reader in self._loaders.get(name, ()):
                if reader != (node.spec, node.color):
                    return True
        return False

    def exemptible(self, node: ChunkNode) -> bool:
        """Whether eliding this chunk's barrier participation keeps
        the chaos differential contract (identical or typed-fault).

        Barrier tokens double as *liveness coupling*: in the
        unoptimized protocol, a chunk whose spawn is dropped either
        blocks its barrier home's token receive or leaves its own
        token send pending — a typed DeadlockFault either way.  A
        chunk may go token-silent only if its loss stays detectable or
        provably unobservable:

        * it hosts no visible effects (``pinned`` — the existing
          ordering constraint), and
        * its loss is still *detected* (a separately-sent message
          couples it: a call reply, a §7.3.2 transfer, an interface
          reply), or its loss is *harmless*: it stores no global any
          other chunk reads and spawns no sub-chunks whose own
          couplings would silently vanish with it.
        """
        if node.pinned:
            return False
        if node.separate_out > 0 or node.separate_in > 0:
            return True
        return not self.writes_read_elsewhere(node) \
            and node.spawn_sites == 0

    def home_coverage_ok(self, spec: str, home_color: str,
                         exempt: Set[str]) -> bool:
        """Whether a barrier home stays loss-coupled under ``exempt``.

        A home hosting *observable* effects (an external call, or an
        untrusted store some other chunk reads back) must keep at
        least one separately-sent in-edge — a token from a non-exempt
        participant, a transfer, or a reply — so that dropping the
        home's spawn still strands a message.  Homes that are not
        channel-spawned (the untrusted driver side) need no coverage.
        """
        home = self.node(spec, home_color)
        if home is None or not home.spawned:
            return True
        if home.external_calls == 0 and \
                not self.writes_read_elsewhere(home):
            return True
        if home.separate_in > 0:
            return True
        senders = {e.src for e in self.edges
                   if e.spec == spec and e.kind == "token"
                   and e.dst == home_color}
        return bool(senders - set(exempt))


# == decisions =================================================================


@dataclass
class PlacementDecisions:
    """The output of a placement policy, applied by the partitioner.

    ``barrier_exempt`` maps a spec name to the set of its chunks that
    skip sync-barrier token traffic.  Both barrier sides filter by
    this same set (see ``Partitioner._emit_barrier``), so every elided
    token send has its matching elided token recv by construction.
    """

    policy: str = "none"
    barrier_exempt: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: modeled cycles the decisions save (policy-estimated)
    gain_cycles: float = 0.0

    def barrier_exempt_chunks(self, spec: str) -> FrozenSet[str]:
        return self.barrier_exempt.get(spec, frozenset())

    @property
    def moves(self) -> int:
        return sum(len(chunks) for chunks in self.barrier_exempt.values())

    def as_dict(self) -> dict:
        return {
            "policy": self.policy,
            "barrier_exempt": {spec: sorted(chunks) for spec, chunks
                               in sorted(self.barrier_exempt.items())},
            "gain_cycles": round(self.gain_cycles, 1),
            "moves": self.moves,
        }


# == policies ==================================================================


class PlacementPolicy:
    """Decision procedure over a :class:`PartitionGraph`.

    The contract: a policy may only affect *color-neutral* protocol
    instructions.  Colored (secret-typed) instructions never change
    modules — :func:`verify_decisions` and :func:`verify_placement`
    re-check this after every policy run.
    """

    name = "?"

    def decide(self, graph: PartitionGraph) -> PlacementDecisions:
        raise NotImplementedError


class NonePolicy(PlacementPolicy):
    """Color-home placement: exactly the historical partitioner."""

    name = "none"

    def decide(self, graph: PartitionGraph) -> PlacementDecisions:
        return PlacementDecisions(policy=self.name)


class KLPolicy(PlacementPolicy):
    """Kernighan–Lin-style boundary refinement over the token edges.

    Per spec, repeatedly pick the unlocked, exemptible chunk whose
    move (dropping its barrier participation out of the cross-enclave
    cut) has the highest positive gain, apply it, lock it, and
    recompute — stopping when no positive-gain move remains.  A move
    is legal only when it keeps the chaos differential contract:
    the chunk must be effect-free *and* loss-coupled-or-harmless
    (:meth:`PartitionGraph.exemptible`), and every barrier home it
    reports to must stay loss-coupled
    (:meth:`PartitionGraph.home_coverage_ok`).
    """

    name = "kl"

    def decide(self, graph: PartitionGraph) -> PlacementDecisions:
        exempt: Dict[str, Set[str]] = {}
        total_gain = 0.0
        for spec in graph.specs():
            locked: Set[str] = set()
            while True:
                best: Optional[ChunkNode] = None
                best_gain = 0.0
                for node in graph.spec_nodes(spec):
                    if node.color in locked or \
                            not graph.exemptible(node):
                        continue
                    tentative = exempt.get(spec, set()) | {node.color}
                    homes = {e.dst for e in graph.token_edges_from(
                        spec, node.color)}
                    if not all(graph.home_coverage_ok(spec, home,
                                                      tentative)
                               for home in homes):
                        continue
                    gain = sum(e.cycles for e in graph.token_edges_from(
                        spec, node.color))
                    if gain > best_gain:
                        best, best_gain = node, gain
                if best is None:
                    break
                exempt.setdefault(spec, set()).add(best.color)
                locked.add(best.color)
                total_gain += best_gain
        decisions = PlacementDecisions(
            policy=self.name,
            barrier_exempt={spec: frozenset(chunks)
                            for spec, chunks in exempt.items()},
            gain_cycles=total_gain)
        verify_decisions(graph, decisions)
        return decisions


POLICIES = ("none", "kl")


def policy_by_name(name: str) -> PlacementPolicy:
    """Look up a placement policy by name.

    Unknown names raise a :class:`~repro.errors.PlacementError` with a
    did-you-mean hint and the valid choices (mirrors
    :func:`repro.workloads.ycsb.workload_by_name`).
    """
    normalized = name.strip().lower()
    if normalized == "none":
        return NonePolicy()
    if normalized == "kl":
        return KLPolicy()
    close = difflib.get_close_matches(normalized, POLICIES, n=1,
                                      cutoff=0.4)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    raise PlacementError(
        f"unknown placement policy {name!r}{hint} "
        f"(choose from: {', '.join(POLICIES)})")


# == verification ==============================================================


def verify_decisions(graph: PartitionGraph,
                     decisions: PlacementDecisions) -> None:
    """Re-check a policy's decisions against the color constraints.

    * every exempted chunk must exist in its spec's plan;
    * an exempted chunk must host **zero** visible effects — its token
      is what orders its own observables against everyone else's, so
      an effect-hosting chunk may never go silent;
    * an exempted chunk must be loss-coupled or provably harmless to
      lose (:meth:`PartitionGraph.exemptible`), and every barrier home
      must keep a loss coupling
      (:meth:`PartitionGraph.home_coverage_ok`) — otherwise a dropped
      spawn could be absorbed silently, breaking the chaos
      differential contract;
    * exemption never moves instructions between modules, so colored
      code stays in its enclave by construction — asserted again
      structurally by :func:`verify_placement` after materialization.
    """
    for spec, chunks in decisions.barrier_exempt.items():
        for color in chunks:
            node = graph.node(spec, color)
            if node is None:
                raise PlacementError(
                    f"placement decision exempts unknown chunk "
                    f"{chunk_name(spec, color)}")
            if node.pinned:
                raise PlacementError(
                    f"placement decision would silence "
                    f"{chunk_name(spec, color)}, which hosts "
                    f"{node.effects} visible effect(s) the barrier "
                    f"tokens order")
            if not graph.exemptible(node):
                raise PlacementError(
                    f"placement decision exempts "
                    f"{chunk_name(spec, color)}, whose loss would be "
                    f"neither detected nor harmless (stores read "
                    f"elsewhere, or sub-spawns, with no surviving "
                    f"loss coupling)")
        homes = {e.dst for e in graph.edges
                 if e.spec == spec and e.kind == "token"}
        for home in homes:
            if not graph.home_coverage_ok(spec, home, set(chunks)):
                raise PlacementError(
                    f"placement decision leaves effect-hosting chunk "
                    f"{chunk_name(spec, home)} without any loss "
                    f"coupling — a dropped spawn would silently skip "
                    f"its visible effects")


def verify_placement(program: PartitionedProgram) -> None:
    """Structural re-check after materialization: secret-typed code
    never left its enclave.

    * every chunk function lives in the module of its color;
    * no module loads or stores through another enclave's colored
      global (untrusted/shared globals are exempt);
    * colored globals are placed only in their own enclave module.
    """
    for name, color in program.chunk_colors.items():
        module = program.modules.get(color)
        if module is None or name not in module.functions:
            raise PlacementError(
                f"chunk {name} is registered for color {color} but "
                f"not placed in that module")
    for color, module in program.modules.items():
        for gv in module.globals.values():
            home = location_color(gv.value_type, program.mode)
            if is_named(home) and home != color:
                raise PlacementError(
                    f"{home}-colored global @{gv.name} placed in "
                    f"module {color}")
        for fn in module.defined_functions():
            for instr in fn.instructions():
                if not isinstance(instr, (Load, Store)):
                    continue
                pointer = instr.ptr
                if not isinstance(pointer, GlobalVariable):
                    continue
                home = location_color(pointer.value_type, program.mode)
                if is_named(home) and home != color:
                    raise PlacementError(
                        f"module {color} accesses {home}-colored "
                        f"global @{pointer.name} in {fn.name} — "
                        f"secret-typed code was relocated")


# == driver ====================================================================


def optimize_placement(analysis: AnalysisResult, policy: str = "none",
                       params: Optional[CostParams] = None, cache=None):
    """Plan the partition, build the graph, run one policy.

    Returns ``(planner, graph, decisions)`` — the planner is shared
    with the subsequent partition pass so protocol decisions are
    computed once.
    """
    planner = PartitionPlanner(analysis, cache=cache).plan()
    graph = PartitionGraph(analysis, planner, params)
    decisions = policy_by_name(policy).decide(graph)
    verify_decisions(graph, decisions)
    return planner, graph, decisions


# == reporting =================================================================


def placement_report(graph: PartitionGraph,
                     decisions: PlacementDecisions) -> dict:
    """Before/after summary of one policy run (feeds the bench)."""
    base_cost = graph.modeled_cost()
    opt_cost = graph.modeled_cost(decisions)
    report = {
        "policy": decisions.policy,
        "decisions": decisions.as_dict(),
        "static_messages": {kind: round(count, 1) for kind, count
                            in graph.message_totals().items()},
        "cross_enclave_estimate": {
            "none": round(graph.cross_enclave_count(), 1),
            decisions.policy: round(
                graph.cross_enclave_count(decisions), 1),
        },
        "modeled_cost_cycles": {
            "none": round(base_cost, 1),
            decisions.policy: round(opt_cost, 1),
        },
    }
    if base_cost > 0:
        report["modeled_savings_pct"] = round(
            100.0 * (base_cost - opt_cost) / base_cost, 2)
    return report


def partition_stats(program: PartitionedProgram) -> List[dict]:
    """Per-color placement table: chunks, instructions, TCB size and
    protocol boundary call sites (the `-partition-stats` UX of the
    SNIPPETS partitioning toolchain)."""
    rows = []
    for color in program.colors:
        module = program.modules[color]
        chunks = sum(1 for name, c in program.chunk_colors.items()
                     if c == color and name in module.functions)
        instructions = module.instruction_count()
        boundary = 0
        for fn in module.defined_functions():
            for instr in fn.instructions():
                if isinstance(instr, Call) and \
                        isinstance(instr.callee, Function) and \
                        instr.callee.name.startswith("__privagic_"):
                    boundary += 1
        rows.append({
            "color": color,
            "enclave": color != program.untrusted,
            "chunks": chunks,
            "instructions": instructions,
            "tcb_instructions": (instructions
                                 if color != program.untrusted else 0),
            "boundary_call_sites": boundary,
        })
    return rows


def format_partition_stats(rows: Iterable[dict]) -> str:
    headers = ["color", "kind", "chunks", "instrs", "tcb", "boundary"]
    table = [[row["color"],
              "enclave" if row["enclave"] else "untrusted",
              str(row["chunks"]), str(row["instructions"]),
              str(row["tcb_instructions"] or "-"),
              str(row["boundary_call_sites"])]
             for row in rows]
    widths = [max(len(headers[i]), *(len(r[i]) for r in table))
              if table else len(headers[i]) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)
