"""Trace/superinstruction tier on top of the pre-decoded engine.

The decoded engine (:mod:`repro.ir.engine`) dispatches one Python
closure per instruction (fused into straight-line runs for bursts),
so a hot loop still pays a closure call, a ``frame.values`` dict read
per operand and a dict write per result, every iteration.  This
module compiles hot *loop regions* into one generated Python function
each — a superinstruction: SSA registers become Python locals, the
loop back-edge becomes a real ``while`` loop, and operand traffic is
folded away entirely.  The result runs an order of magnitude fewer
Python-level operations per interpreted step.

Region selection
----------------
:func:`plan_function` finds natural loops whose body is a single
straight-line chain of blocks (header + blocks linked by jumps, and
branches whose other arm leaves the loop), using dominators and
reverse-postorder from the shared
:class:`repro.pipeline.analyses.AnalysisCache` — the same analyses
the pass pipeline uses.  Chains containing calls, returns, foreign
instruction kinds or mid-loop joins are left to the decoded tier.
The ``trace-compile`` pipeline pass precomputes plans at compile
time; the machine replans lazily when a function was never through
the pipeline (or mutated since).

Compilation is staged behind runtime hit counters: a planned region
head counts (budget-weighted) entries and is compiled once its
estimated iteration count crosses ``REPRO_TRACE_THRESHOLD``
(default :data:`DEFAULT_THRESHOLD`).

Guards and deopt
----------------
A compiled trace runs only when every entry guard passes, and
returns **0 having executed nothing** otherwise, so the decoded
engine — which reproduces every fault message and step count exactly
— takes over mid-program with no state to repair:

* structural guard: traces hang off the decoded code object, which is
  fingerprint-revalidated (see :func:`repro.ir.engine._fingerprint`);
  mutated IR drops the trace with the stale closures;
* frame-shape guard: live-in registers are fetched with
  ``values.get`` — a missing register deopts (the decoded engine then
  raises the exact undefined-value fault);
* predecessor guard: the header's phi dispatch only knows the
  predecessors seen at compile time — anything else deopts;
* step-budget guard: an iteration is only entered with full headroom
  (``limit - n >= steps_per_iteration``), so a trace can never
  overshoot a burst/watchdog budget; partial iterations run decoded;
* channel guard: a context parked on a channel
  (``ctx.privagic_parked``) never enters a trace.

Mid-trace exits (the loop's conditional exit, or budget exhaustion)
write the carried locals back to ``frame.values`` positionally — the
defs executed so far this iteration plus the header phis — and set
``frame.block``/``frame.ops``/``frame.index``/``frame.prev_block``
exactly as the decoded terminator would have.  Step counters update
in a ``finally`` and pending counts are flushed before every
fault-capable operation (memory access, division, operand getters),
so ``ctx.steps``/``machine.total_steps`` match the decoded engine
exactly even when an op faults mid-trace.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.errors import RuntimeFault
from repro.ir.engine import (
    DecodedExecutionContext,
    DecodedFunction,
    _operand,
)
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Branch,
    Cast,
    Cmp,
    GEP,
    Instruction,
    Jump,
    Load,
    Phi,
    Select,
    Store,
)
from repro.ir.interp import _INT64_MASK, _trunc_div, ExecutionContext, Machine
from repro.ir.cfg import predecessor_map
from repro.ir.module import BasicBlock, Function
from repro.ir.types import ArrayType, IntType, StructType
from repro.ir.values import Constant, UndefValue, Value
from repro.pipeline.analyses import AnalysisCache

#: Default hot threshold: estimated loop iterations observed at a
#: region head before it is compiled.  ``REPRO_TRACE_THRESHOLD``
#: overrides (0 compiles on first entry).
DEFAULT_THRESHOLD = 64


def trace_threshold() -> int:
    raw = os.environ.get("REPRO_TRACE_THRESHOLD")
    if raw is None:
        return DEFAULT_THRESHOLD
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_THRESHOLD


class _Untraceable(Exception):
    """Raised by the region compiler when an instruction cannot be
    soundly inlined; the region is permanently left to the decoded
    tier."""


# -- region planning -------------------------------------------------------------


#: Instruction kinds the region compiler can inline.
_BODY = (Alloca, Load, Store, BinOp, Cmp, GEP, Cast, Select)


def _block_traceable(block: BasicBlock, is_head: bool) -> bool:
    instrs = block.instructions
    if not instrs:
        return False
    in_phis = True
    for instr in instrs[:-1]:
        if isinstance(instr, Phi):
            if not (is_head and in_phis):
                return False
            continue
        in_phis = False
        if not isinstance(instr, _BODY):
            return False
    return isinstance(instrs[-1], (Jump, Branch))


def _straight_chain(head: BasicBlock,
                    loop: set) -> Optional[List[BasicBlock]]:
    """The unique straight-line path head -> ... -> head inside
    ``loop``, or None if the loop body branches internally (or
    contains untraceable instructions)."""
    chain = [head]
    cur = head
    while True:
        if not _block_traceable(cur, cur is head):
            return None
        term = cur.instructions[-1]
        if isinstance(term, Jump):
            nxt = term.target
        else:  # Branch (checked by _block_traceable)
            then_in = term.then_block in loop
            else_in = term.else_block in loop
            if then_in == else_in:
                return None  # diamond in the loop, or no back path
            nxt = term.then_block if then_in else term.else_block
        if nxt is head:
            return chain
        if nxt not in loop or nxt in chain:
            return None
        chain.append(nxt)
        cur = nxt


def plan_function(fn: Function,
                  analysis: AnalysisCache) -> Tuple[Tuple[BasicBlock, ...],
                                                    ...]:
    """All compilable loop regions of ``fn``, as block chains starting
    at the loop header."""
    if not fn.blocks:
        return ()
    try:
        dom = analysis.dominators(fn)
        order = analysis.reverse_postorder(fn)
    except Exception:
        return ()
    preds = predecessor_map(fn)
    regions: List[Tuple[BasicBlock, ...]] = []
    claimed: set = set()
    for head in order:
        if head in claimed:
            continue
        try:
            backs = [p for p in preds[head]
                     if dom.dominates(head, p)]
        except Exception:
            continue  # unreachable predecessors etc.
        if not backs:
            continue
        loop = {head}
        stack = list(backs)
        while stack:
            b = stack.pop()
            if b in loop:
                continue
            loop.add(b)
            stack.extend(preds[b])
        chain = _straight_chain(head, loop)
        if chain is None:
            continue
        regions.append(tuple(chain))
        claimed.update(chain)
    return tuple(regions)


def region_steps(region: Tuple[BasicBlock, ...]) -> int:
    """Interpreter steps of one full iteration of ``region`` (a phi
    group costs one step regardless of width, like both engines)."""
    head = region[0]
    n_phis = sum(1 for i in head.instructions if isinstance(i, Phi))
    steps = 0
    for block in region:
        steps += len(block.instructions)
    if n_phis:
        steps -= n_phis - 1
    return steps


# -- runtime annotation ----------------------------------------------------------


def _machine_analysis(machine: Machine) -> AnalysisCache:
    cache = getattr(machine, "_trace_analysis", None)
    if cache is None:
        cache = machine._trace_analysis = AnalysisCache()
    return cache


def annotate_decoded(machine: Machine, code: DecodedFunction) -> None:
    """Attach :class:`TraceEntry` hooks for every planned region of
    ``code`` (called by ``decode_function`` on traced machines).

    Prefers the plan the ``trace-compile`` pipeline pass stored on the
    function — but only when its structural fingerprint still matches,
    i.e. the IR did not change since the pass ran; otherwise replans
    against the current IR through the machine's own
    :class:`AnalysisCache`.
    """
    fn = code.function
    plan = None
    if getattr(fn, "_trace_plan_fp", None) == code.fingerprint:
        plan = getattr(fn, "_trace_plan", None)
    if plan is None:
        analysis = _machine_analysis(machine)
        analysis.invalidate(fn)
        plan = plan_function(fn, analysis)
    for region in plan:
        head_ops = code.block_ops.get(region[0])
        if head_ops is not None:
            head_ops.traces = TraceEntry(machine, code, region, head_ops)


class TraceEntry:
    """Per-region runtime state: hit counting, the compiled
    superinstruction, and deopt bookkeeping."""

    __slots__ = ("machine", "code", "region", "head_ops", "count",
                 "threshold", "steps_per_iter", "compiled")

    def __init__(self, machine: Machine, code: DecodedFunction,
                 region: Tuple[BasicBlock, ...], head_ops) -> None:
        self.machine = machine
        self.code = code
        self.region = region
        self.head_ops = head_ops
        self.count = 0
        self.threshold = trace_threshold()
        self.steps_per_iter = max(1, region_steps(region))
        self.compiled = None

    def enter(self, ctx, frame, budget: int) -> int:
        """Run the trace if hot and the guards pass; returns executed
        steps (0 = deopt / still warming, nothing happened)."""
        trace = self.compiled
        machine = self.machine
        if trace is None:
            # Hit counting is budget-weighted: a single huge burst
            # (Machine.run with one context) enters this hook once
            # but would run the loop thousands of iterations decoded,
            # so count estimated iterations, not entries.
            self.count += max(1, budget // self.steps_per_iter)
            if self.count <= self.threshold:
                return 0
            trace = self._compile(ctx)
            if trace is None:
                return 0
        steps = trace(ctx, frame, machine, budget)
        stats = machine.trace_stats
        if steps:
            stats["entries"] += 1
            stats["steps"] += steps
        else:
            stats["deopts"] += 1
            tracer = machine.tracer
            if tracer is not None:
                tracer.trace_deopt(ctx.name, frame.function.name,
                                   self.region[0].name)
        return steps

    def _compile(self, ctx) -> Optional[object]:
        machine = self.machine
        tracer = machine.tracer
        t0 = tracer.now_us() if tracer is not None else 0.0
        try:
            compiled = _RegionCompiler(machine, self.code,
                                       self.region).build()
        except _Untraceable:
            # Permanently hand the region back to the decoded tier
            # (and stop paying the entry hook).
            self.head_ops.traces = None
            return None
        except Exception:
            self.head_ops.traces = None
            return None
        self.compiled = compiled
        machine.trace_stats["compiled"] += 1
        if tracer is not None:
            tracer.trace_compile(self.code.function.name,
                                 self.region[0].name, len(self.region),
                                 self.steps_per_iter, t0)
        return compiled


# -- the region compiler ---------------------------------------------------------


_CMP_PY = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
           "gt": ">", "ge": ">="}


class _RegionCompiler:
    """Generates one Python function for a loop region.

    The generated signature is ``__trace(ctx, frame, machine, limit)
    -> steps_executed``; see the module docstring for the guard /
    writeback / step-accounting contract it implements.
    """

    def __init__(self, machine: Machine, code: DecodedFunction,
                 region: Tuple[BasicBlock, ...]) -> None:
        self.machine = machine
        self.code = code
        self.region = region
        self.head = region[0]
        self.env: Dict[str, object] = {
            "__MISS": _MISS,
            "__UNMAPPED": _UNMAPPED,
            "__RuntimeFault": RuntimeFault,
            "__td": _trunc_div,
        }
        self.lines: List[str] = []
        self.indent = 1
        self.counter = 0
        self.pending = 0
        #: Value -> generated local name (phis and body defs).
        self.local: Dict[Instruction, str] = {}
        #: local name -> "int" | "float" | "raw"
        self.kinds: Dict[str, str] = {}
        #: live-in Value -> preloaded local name
        self.livein: Dict[Value, str] = {}
        self.phis: List[Phi] = [i for i in self.head.instructions
                                if isinstance(i, Phi)]
        #: defs written back at exits, in emission order.
        self.def_order: List[Instruction] = []
        self.uses_memory = False

    # -- plumbing ---------------------------------------------------------------

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def bind(self, obj, prefix: str) -> str:
        name = self.fresh(prefix)
        self.env[name] = obj
        return name

    def flush(self) -> None:
        if self.pending:
            self.line(f"n += {self.pending}")
            self.pending = 0

    # -- operands ---------------------------------------------------------------

    def val(self, value: Value) -> Tuple[str, str]:
        """(expression, kind) for one operand, matching the decoded
        engine's operand pre-resolution.  May emit getter-call lines
        (flushing first: getters can fault)."""
        name = self.local.get(value)
        if name is not None:
            return name, self.kinds[name]
        cached = self.livein.get(value)
        if cached is not None:
            return cached, "raw"
        kind, payload = _operand(self.machine, value)
        if kind == "const":
            if isinstance(payload, bool) or isinstance(payload, int):
                return f"({payload!r})", "int"
            if isinstance(payload, float):
                return f"({payload!r})", "float"
            return self.bind(payload, "__c"), "raw"
        if kind == "getter":
            self.flush()
            name = self.fresh("u")
            getter = self.bind(payload, "__g")
            self.line(f"{name} = {getter}(ctx, frame)")
            return name, "raw"
        # A register defined outside the region: preloaded at entry.
        raise _Untraceable(f"unexpected live-in {value!r}")

    def as_int(self, value: Value) -> str:
        expr, kind = self.val(value)
        return expr if kind == "int" else f"int({expr})"

    def as_float(self, value: Value) -> str:
        expr, kind = self.val(value)
        return expr if kind == "float" else f"float({expr})"

    def as_raw(self, value: Value) -> str:
        return self.val(value)[0]

    def define(self, instr: Instruction, kind: str) -> str:
        name = f"v{len(self.local)}"
        self.local[instr] = name
        self.kinds[name] = kind
        if not isinstance(instr, Phi):
            self.def_order.append(instr)
        return name

    # -- entry ------------------------------------------------------------------

    def collect_liveins(self) -> List[Value]:
        """Registers read by the region but defined outside it (phi
        entry incomings are handled per-arm instead)."""
        defs = set()
        for block in self.region:
            for instr in block.instructions:
                defs.add(instr)
        liveins: List[Value] = []
        seen = set()

        def note(value: Value) -> None:
            if value in defs or id(value) in seen:
                return
            kind, _payload = _operand(self.machine, value)
            if kind == "reg":
                seen.add(id(value))
                liveins.append(value)

        back = self.region[-1]
        for block in self.region:
            for instr in block.instructions:
                if isinstance(instr, Phi):
                    for value, pred in instr.incomings:
                        if pred is back:
                            note(value)
                    continue
                for operand in instr.operands:
                    note(operand)
        return liveins

    def emit_entry(self) -> None:
        self.line("if getattr(ctx, 'privagic_parked', None) "
                  "is not None:")
        self.line("    return 0")
        self.line("values = frame.values")
        if self.uses_memory:
            self.line("__fast = machine.access_policy is None "
                      "and not machine.access_hooks")
        for value in self.collect_liveins():
            name = self.fresh("li")
            key = self.bind(value, "__K")
            self.livein[value] = name
            self.line(f"{name} = values.get({key}, __MISS)")
            self.line(f"if {name} is __MISS:")
            self.line("    return 0")

    def emit_phi_dispatch(self) -> List[str]:
        """Entry arms: one per header predecessor, loading that edge's
        incomings into the phi temps from ``frame.values`` (sound for
        the back edge too — exits write every def back)."""
        temps = [self.fresh("t") for _ in self.phis]
        if not self.phis:
            return temps
        tables = []
        for phi in self.phis:
            table: Dict[BasicBlock, Value] = {}
            for value, pred in phi.incomings:
                if pred not in table:
                    table[pred] = value  # first wins, like decoded
            tables.append(table)
        preds = list(self.head.predecessors)
        if not preds:
            raise _Untraceable("loop header without predecessors")
        self.line("prev = frame.prev_block")
        first = True
        for pred in preds:
            block_name = self.bind(pred, "__B")
            keyword = "if" if first else "elif"
            first = False
            self.line(f"{keyword} prev is {block_name}:")
            self.indent += 1
            bail = any(pred not in table for table in tables)
            if bail:
                # Decoded raises the precise missing-incoming IRError.
                self.line("return 0")
                self.indent -= 1
                continue
            for temp, table in zip(temps, tables):
                incoming = table[pred]
                kind, payload = _operand(self.machine, incoming)
                if kind == "const":
                    if isinstance(payload, (bool, int, float)):
                        self.line(f"{temp} = {payload!r}")
                    else:
                        self.line(f"{temp} = "
                                  f"{self.bind(payload, '__c')}")
                elif kind == "getter":
                    # Interning/address getters inside the phi step:
                    # leave this edge to the decoded engine.
                    self.line("return 0")
                    break
                else:
                    key = self.bind(incoming, "__K")
                    self.line(f"{temp} = values.get({key}, __MISS)")
                    self.line(f"if {temp} is __MISS:")
                    self.line("    return 0")
            self.indent -= 1
        self.line("else:")
        self.line("    return 0")
        return temps

    # -- exits ------------------------------------------------------------------

    def emit_writeback(self, upto: Optional[int] = None) -> None:
        """values[...] = local for the phis and the defs executed so
        far (``upto`` = len(def_order) prefix; None = all)."""
        for phi in self.phis:
            key = self.bind(phi, "__K")
            self.line(f"values[{key}] = {self.local[phi]}")
        defs = self.def_order if upto is None else self.def_order[:upto]
        for instr in defs:
            key = self.bind(instr, "__K")
            self.line(f"values[{key}] = {self.local[instr]}")

    def emit_exit(self, source: BasicBlock, target: BasicBlock) -> None:
        """Leave the trace through ``source``'s terminator into
        ``target`` (already executed and counted by the caller)."""
        target_ops = self.code.block_ops.get(target)
        if target_ops is None:
            raise _Untraceable(f"exit target {target.name} not decoded")
        self.emit_writeback(upto=len(self.def_order))
        self.line(f"frame.prev_block = {self.bind(source, '__B')}")
        self.line(f"frame.block = {self.bind(target, '__B')}")
        self.line(f"frame.ops = {self.bind(target_ops, '__O')}")
        self.line("frame.index = 0")
        self.line("return n")

    # -- instruction emission ---------------------------------------------------

    def emit_instruction(self, instr: Instruction) -> None:
        if isinstance(instr, Alloca):
            self.emit_alloca(instr)
        elif isinstance(instr, Load):
            self.emit_load(instr)
        elif isinstance(instr, Store):
            self.emit_store(instr)
        elif isinstance(instr, BinOp):
            self.emit_binop(instr)
        elif isinstance(instr, Cmp):
            self.emit_cmp(instr)
        elif isinstance(instr, GEP):
            self.emit_gep(instr)
        elif isinstance(instr, Cast):
            self.emit_cast(instr)
        elif isinstance(instr, Select):
            self.emit_select(instr)
        else:
            raise _Untraceable(f"cannot trace {type(instr).__name__}")
        self.pending += 1

    def emit_alloca(self, instr: Alloca) -> None:
        size = instr.allocated_type.size_slots()
        label = f"alloca:{instr.name or 'tmp'}"
        alloc = self.bind(self.machine.memory.alloc, "__fn")
        sregion = self.bind(self.machine.stack_region, "__fn")
        dest = self.define(instr, "int")
        self.line(f"{dest} = {alloc}({size}, {sregion}(ctx), {label!r})")

    def emit_load(self, instr: Load) -> None:
        addr = self.as_raw(instr.ptr)
        self.flush()
        dest = self.define(instr, "raw")
        read = self.bind(self.machine.mem_read, "__fn")
        slots = self.bind(self.machine.memory._slots, "__slots")
        self.line("if __fast:")
        self.line(f"    {dest} = {slots}.get({addr}, __UNMAPPED)")
        self.line(f"    if {dest} is __UNMAPPED:")
        self.line(f"        {dest} = {read}(ctx, {addr})")
        self.line("else:")
        self.line(f"    {dest} = {read}(ctx, {addr})")

    def emit_store(self, instr: Store) -> None:
        addr = self.as_raw(instr.ptr)
        value = self.as_raw(instr.value)
        self.flush()
        write = self.bind(self.machine.mem_write, "__fn")
        slots = self.bind(self.machine.memory._slots, "__slots")
        self.line(f"if __fast and {addr} in {slots}:")
        self.line(f"    {slots}[{addr}] = {value}")
        self.line("else:")
        self.line(f"    {write}(ctx, {addr}, {value})")

    def _wrap(self, dest: str, expr: str, bits: int) -> None:
        mask = (1 << bits) - 1
        sign = 1 << (bits - 1)
        mod = 1 << bits
        self.line(f"{dest} = ({expr}) & {mask}")
        self.line(f"{dest} = {dest} - {mod} if {dest} >= {sign} "
                  f"else {dest}")

    def emit_binop(self, instr: BinOp) -> None:
        op = instr.op
        if op[0] == "f" and op in ("fadd", "fsub", "fmul", "fdiv"):
            if op == "fdiv":
                lhs = self.as_float(instr.lhs)
                rhs = self.as_float(instr.rhs)
                self.flush()
                b = self.fresh("u")
                # Both operands coerce before the check, like decoded.
                a = self.fresh("u")
                self.line(f"{a} = {lhs}")
                self.line(f"{b} = {rhs}")
                self.line(f"if {b} == 0.0:")
                self.line("    raise __RuntimeFault("
                          "'float division by zero')")
                dest = self.define(instr, "float")
                self.line(f"{dest} = {a} / {b}")
                return
            py = {"fadd": "+", "fsub": "-", "fmul": "*"}[op]
            lhs = self.as_float(instr.lhs)
            rhs = self.as_float(instr.rhs)
            dest = self.define(instr, "float")
            self.line(f"{dest} = {lhs} {py} {rhs}")
            return
        bits = instr.type.bits if isinstance(instr.type, IntType) else 64
        m64 = _INT64_MASK
        if op in ("sdiv", "udiv", "srem", "urem"):
            lhs = self.as_int(instr.lhs)
            rhs = self.as_int(instr.rhs)
            self.flush()
            a = self.fresh("u")
            b = self.fresh("u")
            self.line(f"{a} = {lhs}")
            self.line(f"{b} = {rhs}")
            noun = ("division" if op in ("sdiv", "udiv")
                    else "remainder")
            self.line(f"if {b} == 0:")
            self.line(f"    raise __RuntimeFault("
                      f"'integer {noun} by zero')")
            dest = self.define(instr, "int")
            if op == "sdiv":
                self._wrap(dest, f"__td({a}, {b})", bits)
            elif op == "udiv":
                self._wrap(dest, f"({a} & {m64}) // ({b} & {m64})",
                           bits)
            elif op == "srem":
                self._wrap(dest, f"{a} - __td({a}, {b}) * {b}", bits)
            else:
                self._wrap(dest, f"({a} & {m64}) % ({b} & {m64})",
                           bits)
            return
        simple = {"add": "+", "sub": "-", "mul": "*",
                  "and": "&", "or": "|", "xor": "^"}
        if op in simple:
            lhs = self.as_int(instr.lhs)
            rhs = self.as_int(instr.rhs)
            dest = self.define(instr, "int")
            self._wrap(dest, f"{lhs} {simple[op]} {rhs}", bits)
            return
        if op in ("shl", "lshr", "ashr"):
            lhs = self.as_int(instr.lhs)
            rhs = self.as_int(instr.rhs)
            dest = self.define(instr, "int")
            if op == "shl":
                self._wrap(dest, f"{lhs} << ({rhs} & 63)", bits)
            elif op == "lshr":
                self._wrap(dest, f"({lhs} & {m64}) >> ({rhs} & 63)",
                           bits)
            else:
                self._wrap(dest, f"{lhs} >> ({rhs} & 63)", bits)
            return
        raise _Untraceable(f"binop {op}")

    def emit_cmp(self, instr: Cmp) -> None:
        pred = instr.predicate
        if pred[0] == "f":
            py = _CMP_PY.get(pred[1:])
            if py is None:
                raise _Untraceable(f"cmp {pred}")
            lhs = self.as_float(instr.lhs)
            rhs = self.as_float(instr.rhs)
        elif pred[0] == "u" and pred[1:] in _CMP_PY:
            py = _CMP_PY[pred[1:]]
            m64 = _INT64_MASK
            lhs = f"({self.as_int(instr.lhs)} & {m64})"
            rhs = f"({self.as_int(instr.rhs)} & {m64})"
        else:
            if pred[0] == "s":
                pred = pred[1:]
            py = _CMP_PY.get(pred)
            if py is None:
                raise _Untraceable(f"cmp {instr.predicate}")
            lhs = self.as_int(instr.lhs)
            rhs = self.as_int(instr.rhs)
        dest = self.define(instr, "int")
        self.line(f"{dest} = 1 if {lhs} {py} {rhs} else 0")

    def emit_gep(self, instr: GEP) -> None:
        current = instr.ptr.type.pointee
        static = 0
        dynamic: List[Tuple[Value, int]] = []

        def add_index(idx: Value, scale: int) -> None:
            nonlocal static
            kind, payload = _operand(self.machine, idx)
            if (kind == "const"
                    and isinstance(payload, (bool, int, float))):
                static += int(payload) * scale
            else:
                dynamic.append((idx, scale))

        indices = instr.indices
        add_index(indices[0], current.size_slots())
        for idx in indices[1:]:
            if isinstance(current, StructType):
                if not isinstance(idx, Constant):
                    raise _Untraceable("dynamic struct gep")
                field = int(idx.value)
                static += current.field_offset_slots(field)
                current = current.fields[field].type
            elif isinstance(current, ArrayType):
                add_index(idx, current.element.size_slots())
                current = current.element
            else:
                raise _Untraceable("gep into scalar")
        base, base_kind = self.val(instr.ptr)
        parts = [base]
        if static:
            parts.append(str(static))
        for idx, scale in dynamic:
            parts.append(f"{self.as_int(idx)} * {scale}")
        dest = self.define(instr,
                           "int" if base_kind == "int" else "raw")
        self.line(f"{dest} = " + " + ".join(parts))

    def emit_cast(self, instr: Cast) -> None:
        kind = instr.kind
        if kind in ("bitcast", "inttoptr", "ptrtoint"):
            expr, vkind = self.val(instr.value)
            dest = self.define(instr, vkind)
            self.line(f"{dest} = {expr}")
        elif kind == "trunc":
            bits = instr.to_type.bits  # type: ignore[attr-defined]
            dest = self.define(instr, "int")
            self._wrap(dest, self.as_int(instr.value), bits)
        elif kind in ("zext", "sext", "fptosi"):
            expr = self.as_int(instr.value)
            dest = self.define(instr, "int")
            self.line(f"{dest} = {expr}")
        elif kind == "sitofp":
            expr = self.as_float(instr.value)
            dest = self.define(instr, "float")
            self.line(f"{dest} = {expr}")
        else:
            raise _Untraceable(f"cast {kind}")

    def emit_select(self, instr: Select) -> None:
        # A Python conditional expression evaluates only the chosen
        # side, like the decoded engine — but a getter operand would
        # have been hoisted above the condition, so bail on those.
        for operand in (instr.cond, instr.true_value,
                        instr.false_value):
            if (operand not in self.local
                    and operand not in self.livein):
                kind, _payload = _operand(self.machine, operand)
                if kind == "getter":
                    raise _Untraceable("select over getter operand")
        cond = self.as_raw(instr.cond)
        true_expr, true_kind = self.val(instr.true_value)
        false_expr, false_kind = self.val(instr.false_value)
        kind = (true_kind if true_kind == false_kind else "raw")
        dest = self.define(instr, kind)
        self.line(f"{dest} = {true_expr} if {cond} else {false_expr}")

    # -- assembly ---------------------------------------------------------------

    def build(self):
        region = self.region
        head = region[0]
        self.uses_memory = any(isinstance(i, (Load, Store))
                               for b in region for i in b.instructions)
        steps_per_iter = max(1, region_steps(region))

        self.lines.append("def __trace(ctx, frame, machine, limit):")
        self.emit_entry()
        temps = self.emit_phi_dispatch()
        self.line("n = 0")
        self.line("try:")
        self.indent += 1
        self.line("while True:")
        self.indent += 1
        self.line(f"if limit - n < {steps_per_iter}:")
        self.line("    break")
        # The phi group: one atomic step, temps staged by the entry
        # dispatch (first iteration) or the back-edge (later ones).
        if self.phis:
            names = [self.define(phi, "raw") for phi in self.phis]
            self.line(", ".join(names) + " = " + ", ".join(temps))
            self.pending += 1
        back = region[-1]
        for block in region:
            instrs = block.instructions
            body = [i for i in instrs[:-1] if not isinstance(i, Phi)]
            for instr in body:
                self.emit_instruction(instr)
            term = instrs[-1]
            self.pending += 1  # the terminator's own step
            if isinstance(term, Jump):
                if term.target is head:
                    if block is not back:
                        raise _Untraceable("interior back edge")
                    self.emit_backedge(temps)
                # else: fall through into the next chain block.
            else:  # Branch
                then_in = (term.then_block is head
                           or term.then_block in region)
                cond = self.as_raw(term.cond)
                self.flush()
                exit_block = (term.else_block if then_in
                              else term.then_block)
                negate = "not " if then_in else ""
                # Deopt-free exit: the branch already executed (and
                # was counted), so leave through it exactly.
                self.line(f"if {negate}({cond}):")
                self.indent += 1
                self.emit_exit(block, exit_block)
                self.indent -= 1
                if term.then_block is head or term.else_block is head:
                    if block is not back:
                        raise _Untraceable("interior back edge")
                    self.emit_backedge(temps)
                # else: fall through into the next chain block.
        self.indent -= 1  # while
        # Budget exhausted before the next iteration: the last
        # completed iteration's back edge already ran, so the frame
        # sits at the header with every local valid.
        self.line("if n:")
        self.indent += 1
        self.emit_writeback()
        self.line(f"frame.prev_block = {self.bind(back, '__B')}")
        self.indent -= 1
        self.line("return n")
        self.indent -= 1  # try
        self.line("finally:")
        self.line("    if n:")
        self.line("        ctx.steps += n")
        self.line("        machine.total_steps += n")

        fn = self.code.function
        source = "\n".join(self.lines)
        code_obj = compile(source,
                           f"<trace:@{fn.name}:{head.name}>", "exec")
        namespace = dict(self.env)
        exec(code_obj, namespace)
        trace = namespace["__trace"]
        trace.__trace_source__ = source  # debugging / tests
        return trace

    def emit_backedge(self, temps: List[str]) -> None:
        """Stage the back-edge phi incomings and start the next
        iteration."""
        self.flush()
        back = self.region[-1]
        if self.phis:
            exprs = []
            for phi in self.phis:
                incoming = None
                for value, pred in phi.incomings:
                    if pred is back:
                        incoming = value
                        break
                if incoming is None:
                    raise _Untraceable("missing back-edge incoming")
                exprs.append(self.as_raw(incoming))
            self.line(", ".join(temps) + " = " + ", ".join(exprs))
        self.line("continue")


_MISS = object()
_UNMAPPED = object()


# -- the traced execution context ------------------------------------------------


class TracedExecutionContext(DecodedExecutionContext):
    """The decoded engine plus the trace tier: ``run_burst`` consults
    the region hook when dispatching at a block head; single stepping
    (:meth:`step`) is inherited unchanged, so lockstep schedules and
    step-level differential tests behave identically."""

    def run_burst(self, limit: int, contexts) -> Tuple[int, bool]:
        machine = self.machine
        stack = self.stack
        tracer = machine.tracer
        t0 = tracer.now_us() if tracer is not None else 0.0
        start_steps = self.steps
        n_ctx = len(contexts)
        attempts = 0
        advanced_any = False
        while attempts < limit:
            if self.finished or not stack:
                break
            frame = stack[-1]
            ops = frame.ops
            if ops is None:
                ops = self._attach_ops(frame)
                if ops is None:
                    before = self.steps
                    attempts += 1
                    ExecutionContext.step(self)
                    if self.steps == before:
                        break
                    advanced_any = True
                    if len(contexts) != n_ctx:
                        break
                    continue
            index = frame.index
            try:
                if index == 0 and ops.traces is not None:
                    executed = ops.traces.enter(self, frame,
                                                limit - attempts)
                    if executed:
                        attempts += executed
                        advanced_any = True
                        continue
                    # Deopt / still warming: fall through to the
                    # decoded dispatch below for this block.
                fused = ops.burst[index]
                if fused is not None and \
                        ops.blen[index] <= limit - attempts:
                    before = self.steps
                    while True:
                        fused(self, frame)
                        ops = frame.ops
                        index = frame.index
                        if index == 0 and ops.traces is not None:
                            break  # let the trace hook take over
                        fused = ops.burst[index]
                        if fused is None or ops.blen[index] > \
                                limit - attempts - (self.steps - before):
                            break
                    attempts += self.steps - before
                    advanced_any = True
                    continue
                advanced = ops[index](self, frame)
            except RuntimeFault:
                self.finished = True
                raise
            except IndexError:
                if index >= len(ops):
                    raise RuntimeFault(
                        f"{self.name}: fell off block {frame.block.name} "
                        f"in @{frame.function.name}") from None
                raise
            attempts += 1
            if advanced:
                self.steps += 1
                machine.total_steps += 1
                advanced_any = True
            else:
                break
            if len(contexts) != n_ctx:
                break
        if tracer is not None and self.steps > start_steps:
            tracer.step_burst(self.name, self.mode,
                              self.steps - start_steps, t0)
        return attempts, advanced_any
