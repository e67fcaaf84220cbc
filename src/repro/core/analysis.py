"""The secure type system of the paper (Table 3) and its inference.

The analysis assigns a color to every SSA register, every instruction
and every basic block of the program, and reports an error whenever a
typing rule is violated.  It is organised exactly like the paper:

* **Initial colors** (§5.3 / Table 2): explicit annotations come from
  the IR types; uncolored memory locations are U (hardened) or S
  (relaxed); uncolored registers are F.

* **Typing rules** (§6.1 / Table 3):

  =====  ==========================  ==============================
  Rule   instruction                 constraint
  =====  ==========================  ==============================
  1      ``r = load p``              ``*p ~ p`` and (``*p != S`` ⇒ ``r ← *p``)
  2      ``r = op(x1..xn)``          ``∀i, r ← xi``
  3      ``store r, p``              ``*p ~ p`` and ``r ~ *p``
  4      block coloring              ``ins ∈ B ⇒ out(ins) ← B̄``
  =====  ==========================  ==============================

  where ``a ~ b`` errors unless a == b or either is F, and ``x ← ȳ``
  additionally turns an F x into ȳ.

* **Function calls** (§6.2, §6.3, §6.4): direct calls to local
  functions create *specialized* versions stamped with the caller's
  argument colors; external calls require U-compatible arguments;
  ``within`` functions execute in the enclave of their colored
  argument; ``ignore`` functions do the same but skip incompatible
  arguments (declassification); indirect calls behave like external
  calls.

* **Stabilizing algorithm** (§5.2): whole-module passes repeat until
  no pass infers a new color; a pass visits only the specializations
  whose visit could still change something (``FunctionAnalysis.dirty``).

The analysis also computes, for the partitioner:

* the *home* of every instruction — a specific color, or
  ``REPLICATED`` for pure-F computations that every chunk replays
  (§7.3.1), and
* the *color set* of every specialized function (§7.3.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SecureTypeError
from repro.core.colors import (
    F,
    HARDENED,
    RELAXED,
    S,
    U,
    compatible,
    is_free,
    is_named,
    is_untrusted,
    untrusted_color,
)
from repro.ir.cfg import blocks_influenced_by
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Branch,
    Call,
    Cast,
    Cmp,
    GEP,
    Instruction,
    Jump,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Unreachable,
)
from repro.ir.module import BasicBlock, Function, Module, clone_function
from repro.ir.printer import print_instruction
from repro.ir.types import (
    ArrayType,
    FunctionType,
    IRType,
    PointerType,
    StructType,
)
from repro.ir.values import Argument, Constant, GlobalVariable, UndefValue, Value
from repro.ir.passes import mem2reg

#: Pseudo-home of pure-F instructions: present in every chunk (§7.3.1).
REPLICATED = "*"


def location_color(value_type: IRType, mode: str,
                   _seen: Optional[frozenset] = None) -> str:
    """The color of a memory location of the given type (§5.3).

    Pointers derive their color from their pointee (the paper's fourth
    confidentiality rule); a struct is uniformly colored C only when
    every field is C — otherwise the struct shell itself lives in
    unsafe memory (§7.2) and only its colored fields are protected.
    Self-referential structs (``struct entry { ...; struct entry*
    next; }``) treat the recursive reference as agreeing with the
    enclosing struct's color.
    """
    t = value_type
    while isinstance(t, PointerType):
        t = t.pointee
    if isinstance(t, ArrayType):
        return location_color(t.element, mode, _seen)
    if isinstance(t, StructType):
        uniform = uniform_struct_color(t, mode, _seen)
        return uniform if uniform is not None else untrusted_color(mode)
    if isinstance(t, FunctionType):
        return F  # code pointers are free values
    color = t.color if t.color is not None else untrusted_color(mode)
    # An explicit color(U) annotation means "the unsafe partition";
    # in relaxed mode that partition's color is S (Table 2).
    if color == U and mode == RELAXED:
        return S
    return color


def uniform_struct_color(struct: StructType, mode: str,
                         _seen: Optional[frozenset] = None
                         ) -> Optional[str]:
    """The single color of a fully colored struct, or None."""
    seen = _seen or frozenset()
    if struct.name in seen:
        return None  # recursive reference: resolved by the caller
    seen = seen | {struct.name}
    colors: Set[str] = set()
    recursive_fields = 0
    for field in struct.fields:
        if _refers_to(field.type, seen):
            recursive_fields += 1
            continue
        colors.add(location_color(field.type, mode, seen))
        if len(colors) > 1:
            return None
    if len(colors) == 1:
        color = colors.pop()
        return color if is_named(color) else None
    return None


def _refers_to(field_type: IRType, seen: frozenset) -> bool:
    t = field_type
    while isinstance(t, (PointerType, ArrayType)):
        t = t.pointee if isinstance(t, PointerType) else t.element
    return isinstance(t, StructType) and t.name in seen


def spec_name(base: str, arg_colors: Sequence[str]) -> str:
    if not arg_colors:
        return f"{base}$"
    return f"{base}${'.'.join(arg_colors)}"


class FunctionAnalysis:
    """Per-specialization analysis state."""

    def __init__(self, fn: Function, arg_colors: Tuple[str, ...],
                 mode: str = HARDENED):
        self.fn = fn
        self.arg_colors = arg_colors
        self.mode = mode
        #: color of each register (Argument / Instruction)
        self.reg_colors: Dict[Value, str] = {}
        #: color of each instruction (placement constraint)
        self.inst_colors: Dict[Instruction, str] = {}
        #: Rule 4 block colors
        self.block_colors: Dict[BasicBlock, str] = {}
        self.return_color: str = F
        #: colors used by the function, F excluded (§7.3.1); receiving
        #: a colored argument counts (paper: colorset(f$blue) = {blue}
        #: "because f receives a blue argument").
        self.color_set: Set[str] = set()
        #: True while a visit may still change this specialization: it
        #: is new, its last local fixpoint hit the cap, or the return
        #: color of one of its callees changed since (§5.2 rounds skip
        #: clean specializations — a visit would re-derive their state)
        self.dirty = True
        #: specializations whose calls read this one's return color
        self.callers: Set["FunctionAnalysis"] = set()
        for arg, color in zip(fn.args, arg_colors):
            self.reg_colors[arg] = color
            if color != F:
                self.color_set.add(color)

    def color_of(self, value: Value) -> str:
        if isinstance(value, (Constant, UndefValue)):
            return F
        if isinstance(value, Function):
            return F
        if isinstance(value, GlobalVariable):
            # The global *is* a pointer to its storage; rule 4 gives it
            # the storage's color.
            return location_color(value.value_type, self.mode)
        return self.reg_colors.get(value, F)

    def __repr__(self) -> str:
        return f"<FunctionAnalysis {self.fn.name} colors={self.color_set}>"


class AnalysisResult:
    """The outcome of :func:`analyze_module`.

    Attributes
    ----------
    module:
        The analyzed module.  Specialized functions (``f$blue.U``)
        have been added; original bodies are kept as templates.
    functions:
        Mapping from specialized function name to its
        :class:`FunctionAnalysis`.
    entry_specs:
        Mapping from original entry-point name to its specialized
        version's name.
    errors:
        Every :class:`SecureTypeError` found.  :meth:`check` raises
        the first one.
    """

    def __init__(self, module: Module, mode: str):
        self.module = module
        self.mode = mode
        self.functions: Dict[str, FunctionAnalysis] = {}
        self.entry_specs: Dict[str, str] = {}
        self.errors: List[SecureTypeError] = []
        self.passes = 0
        #: local fixpoints run (one per visit of a specialization)
        self.function_visits = 0
        #: names of functions whose address is taken (indirect-call
        #: targets); their U-specialization is forced (§6.3).
        self.address_taken: Set[str] = set()

    @property
    def untrusted(self) -> str:
        return untrusted_color(self.mode)

    def check(self) -> "AnalysisResult":
        if self.errors:
            raise self.errors[0]
        return self

    def analysis_of(self, fn: Function) -> "FunctionAnalysis":
        return self.functions[fn.name]

    def all_colors(self) -> Set[str]:
        colors: Set[str] = {self.untrusted}
        for fa in self.functions.values():
            colors |= fa.color_set
        return colors

    def named_colors(self) -> Set[str]:
        return {c for c in self.all_colors() if is_named(c)}

    def instruction_home(self, fa: FunctionAnalysis,
                         instr: Instruction) -> str:
        """Where the partitioner generates this instruction: a color,
        or REPLICATED for pure-F computation (§7.3.1)."""
        color = fa.inst_colors.get(instr, F)
        if color == F:
            return REPLICATED
        return color


class _Analyzer:
    """Runs the stabilizing algorithm over one module."""

    def __init__(self, module: Module, mode: str, cache=None):
        if mode not in (HARDENED, RELAXED):
            raise ValueError(f"unknown mode {mode!r}")
        self.module = module
        self.mode = mode
        if cache is None:
            from repro.pipeline.analyses import AnalysisCache
            cache = AnalysisCache()
        self.cache = cache
        self.result = AnalysisResult(module, mode)
        self.changed = False
        self._error_keys: Set[tuple] = set()

    # -- error collection -----------------------------------------------------

    def error(self, rule: str, message: str,
              instr: Optional[Instruction] = None,
              colors: tuple = ()) -> None:
        text = print_instruction(instr) if instr is not None else ""
        key = (rule, message, text)
        if key in self._error_keys:
            return
        self._error_keys.add(key)
        loc = getattr(instr, "loc", None)
        self.result.errors.append(
            SecureTypeError(rule, message, text, colors, loc=loc))

    # -- color primitives -------------------------------------------------------

    def loc_color(self, value_type: IRType) -> str:
        return location_color(value_type, self.mode)

    def assign(self, fa: FunctionAnalysis, value: Value, color: str,
               rule: str, instr: Optional[Instruction]) -> str:
        """``value ← color`` (Table 3): check compatibility and turn an
        F register into ``color``; returns the resulting color."""
        current = fa.color_of(value)
        if current == color or color == F:
            return current
        if current == F:
            if isinstance(value, (Constant, UndefValue, Function,
                                  GlobalVariable)):
                return current  # constants stay free
            fa.reg_colors[value] = color
            self.changed = True
            return color
        self.error(rule, f"incompatible colors {current} and {color}",
                   instr, (current, color))
        return current

    def require_compatible(self, a: str, b: str, rule: str,
                           instr: Instruction) -> None:
        if not compatible(a, b):
            self.error(rule, f"incompatible colors {a} and {b}", instr,
                       (a, b))

    def set_inst_color(self, fa: FunctionAnalysis, instr: Instruction,
                       color: str) -> None:
        current = fa.inst_colors.get(instr, F)
        if color == F or current == color:
            return
        if current == F:
            fa.inst_colors[instr] = color
            if color != F:
                fa.color_set.add(color)
            self.changed = True
        elif current != color:
            self.error("placement",
                       f"instruction constrained to both {current} "
                       f"and {color}", instr, (current, color))

    # -- specialization (§6.2) -----------------------------------------------------

    def get_specialization(self, fn: Function,
                           arg_colors: Tuple[str, ...]) -> FunctionAnalysis:
        name = spec_name(fn.name, arg_colors)
        fa = self.result.functions.get(name)
        if fa is not None:
            return fa
        types = [t.strip_color() if not isinstance(t, PointerType) else t
                 for t in fn.ftype.params]
        spec = clone_function(fn, name, types)
        spec.specialization_of = fn.name
        spec.arg_colors = arg_colors
        self.module.add_function(spec)
        fa = FunctionAnalysis(spec, arg_colors, self.mode)
        self.result.functions[name] = fa
        self.changed = True
        return fa

    def entry_arg_colors(self, fn: Function) -> Tuple[str, ...]:
        """Entry-point arguments are U in hardened mode and F in
        relaxed mode (§6.2).  A pointer argument whose pointee type is
        explicitly colored keeps its declared color (the developer's
        annotation is the ground truth)."""
        default = U if self.mode == HARDENED else F
        colors = []
        for param in fn.ftype.params:
            declared = self._declared_arg_color(param)
            colors.append(declared if declared is not None else default)
        return tuple(colors)

    def _declared_arg_color(self, param: IRType) -> Optional[str]:
        t = param
        while isinstance(t, PointerType):
            t = t.pointee
        if isinstance(t, StructType):
            return uniform_struct_color(t, self.mode)
        return t.color

    # -- the stabilizing algorithm (§5.2) ----------------------------------------------

    def run(self, entries: Optional[Sequence[str]] = None,
            max_passes: int = 60) -> AnalysisResult:
        mem2reg(self.module, cache=self.cache)
        entry_fns = ([self.module.get_function(n) for n in entries]
                     if entries else self.module.entry_points())
        templates = {f.name for f in self.module.functions.values()}

        for fn in entry_fns:
            fa = self.get_specialization(fn, self.entry_arg_colors(fn))
            self.result.entry_specs[fn.name] = fa.fn.name

        for _ in range(max_passes):
            self.result.passes += 1
            self.changed = False
            # Iterate over a snapshot: specializations discovered in
            # this pass are analyzed in the next one.  A clean one is
            # skipped: its visit depends only on its own state and its
            # callees' return colors, so it would change nothing and
            # only repeat (deduplicated) errors.
            for name in list(self.result.functions):
                fa = self.result.functions[name]
                if fa.dirty:
                    self.analyze_function(fa)
            if not self.changed:
                break
        else:
            self.error("stabilize",
                       f"analysis did not stabilize in {max_passes} passes")
        # Force an untrusted specialization of every address-taken
        # function so indirect calls have a target (§6.3: loading a
        # function pointer loads the U-specialized version).
        for fn in list(self.module.functions.values()):
            if "address-taken" in fn.attributes:
                self.result.address_taken.add(fn.name)
        for name in sorted(self.result.address_taken):
            fn = self.module.functions.get(name)
            if fn is not None and not fn.is_declaration and \
                    name in templates and fn.specialization_of is None:
                untrusted = U if self.mode == HARDENED else F
                fa = self.get_specialization(
                    fn, tuple(untrusted for _ in fn.args))
                for _ in range(3):
                    self.analyze_function(fa)
        return self.result

    # -- per-function analysis ------------------------------------------------------------

    def analyze_function(self, fa: FunctionAnalysis) -> None:
        fn = fa.fn
        if fn.is_declaration:
            return
        self.result.function_visits += 1
        fa.dirty = False
        # Local fixpoint: loops feed colors backwards through phis.
        for _ in range(30):
            before = self.changed
            self.changed = False
            self._compute_block_colors(fa)
            for block in fn.blocks:
                for instr in list(block.instructions):
                    self.visit(fa, instr)
            local_changed = self.changed
            self.changed = before or local_changed
            if not local_changed:
                break
        else:
            fa.dirty = True

    def _compute_block_colors(self, fa: FunctionAnalysis) -> None:
        """Rule 4 (§6.1.1): blocks control-dependent on a conditional
        branch with a C condition take the color C; the joining point
        does not."""
        fn = fa.fn
        if not fn.blocks:
            return
        # The analysis never mutates the CFG, so the cached tree is
        # valid across every stabilization pass — this was the hottest
        # rebuild in the whole compile path (one tree per function per
        # local-fixpoint iteration).
        pdt = self.cache.postdominators(fn)
        for block in fn.blocks:
            term = block.terminator
            if not isinstance(term, Branch):
                continue
            cond_color = fa.color_of(term.cond)
            if not is_named(cond_color):
                # Only enclave colors propagate: branching on untrusted
                # data is the baseline service pattern (the request
                # loop), and the attacker already controls it — the
                # §8 spawn-sequence discussion, not a leak.
                continue
            influenced = blocks_influenced_by(block, pdt)
            for b in influenced:
                current = fa.block_colors.get(b, F)
                if current == F:
                    fa.block_colors[b] = cond_color
                    self.changed = True
                elif current != cond_color:
                    self.error(
                        "block-color",
                        f"block {b.name} influenced by branches of "
                        f"colors {current} and {cond_color}",
                        term, (current, cond_color))

    # -- instruction rules -------------------------------------------------------------------

    def visit(self, fa: FunctionAnalysis, instr: Instruction) -> None:
        block_color = fa.block_colors.get(instr.parent, F)

        if isinstance(instr, Load):
            self._visit_load(fa, instr)
        elif isinstance(instr, Store):
            self._visit_store(fa, instr)
        elif isinstance(instr, Call):
            self._visit_call(fa, instr)
        elif isinstance(instr, Alloca):
            self._visit_alloca(fa, instr)
        elif isinstance(instr, GEP):
            self._visit_gep(fa, instr)
        elif isinstance(instr, Cast):
            self._visit_cast(fa, instr)
        elif isinstance(instr, (BinOp, Cmp, Select, Phi)):
            self._visit_operation(fa, instr)
        elif isinstance(instr, Branch):
            cond_color = fa.color_of(instr.cond)
            self.set_inst_color(fa, instr, cond_color)
        elif isinstance(instr, Ret):
            self._visit_ret(fa, instr)
        elif isinstance(instr, (Jump, Unreachable)):
            pass
        else:
            self.error("unknown", f"no rule for {instr.opcode}", instr)

        # Rule 4: every instruction in a colored block takes the block
        # color; its output register must be compatible with it.
        if block_color != F:
            if not instr.is_void:
                self.assign(fa, instr, block_color, "block-color", instr)
            # A store inside a colored block writes to memory the
            # attacker may observe; its target must carry the block
            # color (Figure 4: `x = 1` under `if (b == 42)` reveals b).
            if isinstance(instr, Store):
                target = self.loc_color(instr.ptr.type.pointee)
                if not compatible(target, block_color):
                    self.error(
                        "block-color",
                        f"store to {target} memory inside a "
                        f"{block_color}-controlled block leaks the "
                        f"branch condition", instr,
                        (target, block_color))
                    return
            if isinstance(instr, Call) and fa.inst_colors.get(
                    instr, F) not in (F, block_color):
                self.error(
                    "block-color",
                    f"{fa.inst_colors[instr]} call inside a "
                    f"{block_color}-controlled block leaks the branch "
                    f"condition", instr,
                    (fa.inst_colors[instr], block_color))
                return
            self.set_inst_color(fa, instr, block_color)

    def _visit_load(self, fa: FunctionAnalysis, instr: Load) -> None:
        """Rule 1: ``*p ~ p``; if ``*p != S`` the result takes the
        color of the location; a load from S yields F (Table 2)."""
        mem = self.loc_color(instr.ptr.type.pointee)
        ptr = fa.color_of(instr.ptr)
        self.require_compatible(mem, ptr, "load", instr)
        # The pointer register itself becomes the location's color
        # (rule 4 of §4: a pointer to C memory is C).
        self.assign(fa, instr.ptr, mem, "load", instr)
        if mem != S:
            self.assign(fa, instr, mem, "load", instr)
        self.set_inst_color(fa, instr, mem)

    def _visit_store(self, fa: FunctionAnalysis, instr: Store) -> None:
        """Rule 3: ``*p ~ p`` and ``r ~ *p``; the store is generated in
        the enclave of the location (integrity, §4)."""
        mem = self.loc_color(instr.ptr.type.pointee)
        ptr = fa.color_of(instr.ptr)
        value = fa.color_of(instr.value)
        self.require_compatible(mem, ptr, "store", instr)
        self.assign(fa, instr.ptr, mem, "store", instr)
        if not compatible(value, mem):
            self.error(
                "store",
                f"storing a {value} value into {mem} memory leaks it",
                instr, (value, mem))
        self.set_inst_color(fa, instr, mem)

    def _visit_operation(self, fa: FunctionAnalysis,
                         instr: Instruction) -> None:
        """Rule 2: ``∀i, r ← xi`` — the output takes the color of every
        input; two distinct non-F inputs are an error (also the Iago
        rule: a C instruction cannot consume a U input)."""
        for op in instr.operands:
            color = fa.color_of(op)
            self.assign(fa, instr, color, "op", instr)
        if isinstance(instr, Phi):
            # A phi merging values arriving from C-influenced blocks
            # reveals which path ran, i.e. the branch condition:
            # `x = b == 42 ? 5 : 7` leaks b exactly like Figure 4.
            for _, block in instr.incomings:
                edge_color = fa.block_colors.get(block, F)
                if edge_color != F:
                    self.assign(fa, instr, edge_color, "block-color",
                                instr)
        self.set_inst_color(fa, instr, fa.color_of(instr))

    def _visit_gep(self, fa: FunctionAnalysis, instr: GEP) -> None:
        """Address computation.  The result pointer takes the color of
        the addressed location (explicit field colors win); the base
        pointer must be compatible with the struct shell it addresses.
        """
        result_color = self.loc_color(instr.type.pointee)
        base_color = fa.color_of(instr.ptr)
        shell_color = self.loc_color(instr.ptr.type.pointee)
        self.require_compatible(base_color, shell_color, "gep", instr)
        for idx in instr.indices:
            self.assign(fa, instr, fa.color_of(idx), "gep", instr)
        # Rule 2 on the base pointer: in hardened mode a multi-color
        # struct shell is U, so addressing a colored field from it is
        # rejected — the §8 restriction falls out of the type system.
        self.assign(fa, instr, base_color, "gep", instr)
        self.assign(fa, instr, result_color, "gep", instr)
        self.set_inst_color(fa, instr, fa.color_of(instr))

    def _visit_cast(self, fa: FunctionAnalysis, instr: Cast) -> None:
        """Casts preserve colors (rule 4 of §4): a pointer cast cannot
        change the color of the pointed memory."""
        operand_color = fa.color_of(instr.value)
        if isinstance(instr.to_type, PointerType) and \
                isinstance(instr.value.type, PointerType):
            from_color = self.loc_color(instr.value.type.pointee)
            to_color = self.loc_color(instr.to_type.pointee)
            if is_named(to_color):
                # Recoloring a pointer between two enclaves is the
                # forbidden cast; stamping a fresh (F) pointer — the
                # malloc-and-cast allocation idiom — is fine.
                if is_named(from_color) and from_color != to_color:
                    self.error("cast",
                               f"pointer cast changes color "
                               f"{from_color} -> {to_color}", instr,
                               (from_color, to_color))
                self.assign(fa, instr, operand_color, "cast", instr)
                self.assign(fa, instr, to_color, "cast", instr)
            else:
                # Cast to an opaque/unsafe pointee (the i8* of the
                # mini-libc signatures): the register keeps the color
                # of what it points to — the annotation on the static
                # type is lost, the secure color is not.
                self.assign(fa, instr, operand_color, "cast", instr)
                if is_named(from_color):
                    self.assign(fa, instr, from_color, "cast", instr)
        else:
            self.assign(fa, instr, operand_color, "cast", instr)
        self.set_inst_color(fa, instr, fa.color_of(instr))

    @staticmethod
    def _multicolor_target(t: IRType) -> bool:
        while isinstance(t, PointerType):
            t = t.pointee
        return isinstance(t, StructType) and t.is_multicolor

    def _visit_alloca(self, fa: FunctionAnalysis, instr: Alloca) -> None:
        color = self.loc_color(instr.allocated_type)
        self.assign(fa, instr, color, "alloca", instr)
        self.set_inst_color(fa, instr, color)

    def _visit_ret(self, fa: FunctionAnalysis, instr: Ret) -> None:
        if instr.value is not None:
            color = fa.color_of(instr.value)
            if fa.return_color == F and color != F:
                fa.return_color = color
                self.changed = True
                for caller in fa.callers:
                    caller.dirty = True
            elif fa.return_color != F and color != F and \
                    color != fa.return_color:
                self.error("ret", f"function returns both "
                                  f"{fa.return_color} and {color} values",
                           instr, (fa.return_color, color))

    # -- calls (§6.2 / §6.3 / §6.4) ----------------------------------------------------------------

    def _visit_call(self, fa: FunctionAnalysis, instr: Call) -> None:
        # Record address-taken functions (operands other than the
        # callee slot, plus any use as a stored value elsewhere is
        # handled by _scan_address_taken during set-up).
        for arg in instr.args:
            if isinstance(arg, Function):
                self.result.address_taken.add(arg.name)

        callee = instr.callee
        if not isinstance(callee, Function):
            self._visit_untrusted_call(fa, instr, kind="indirect")
            return
        if callee.is_within:
            self._visit_within_call(fa, instr, callee, ignore=False)
            return
        if callee.is_ignore:
            self._visit_within_call(fa, instr, callee, ignore=True)
            return
        if callee.is_declaration:
            self._visit_untrusted_call(fa, instr, kind="external")
            return
        self._visit_local_call(fa, instr, callee)

    def _visit_local_call(self, fa: FunctionAnalysis, instr: Call,
                          callee: Function) -> None:
        """Direct call to a local function: specialize it with the
        actual argument colors (§6.2)."""
        if callee.specialization_of is not None:
            template_name = callee.specialization_of
            template = self.module.get_function(template_name)
        else:
            template = callee
        arg_colors = tuple(fa.color_of(a) for a in instr.args)
        callee_fa = self.get_specialization(template, arg_colors)
        callee_fa.callers.add(fa)
        if callee_fa.return_color != F:
            self.assign(fa, instr, callee_fa.return_color, "call", instr)
        # The call itself spans chunks; the partitioner places it per
        # chunk, so it carries no single placement color unless the
        # return pins it.
        self.set_inst_color(fa, instr, fa.color_of(instr))

    def _visit_untrusted_call(self, fa: FunctionAnalysis, instr: Call,
                              kind: str) -> None:
        """External and indirect calls execute in the untrusted part;
        every argument must be compatible with U/S (§6.3)."""
        untrusted = self.result.untrusted
        for arg in instr.args:
            color = fa.color_of(arg)
            if not compatible(color, untrusted):
                self.error(
                    "external-arg" if kind == "external" else
                    "indirect-arg",
                    f"{kind} call leaks a {color} argument to the "
                    f"untrusted part", instr, (color, untrusted))
        # In hardened mode the result comes from U code: it is U (Iago
        # protection).  In relaxed mode it is F, like a load from S.
        if self.mode == HARDENED:
            self.assign(fa, instr, U, "call", instr)
        self.set_inst_color(fa, instr, untrusted)

    def _visit_within_call(self, fa: FunctionAnalysis, instr: Call,
                           callee: Function, ignore: bool) -> None:
        """``within`` functions (mini-libc) run inside the caller's
        enclave: if any argument is C, the call executes in C and every
        other argument (and pointed-to value) must be compatible with C
        — unless the function is ``ignore``, in which case incompatible
        arguments are skipped (declassification, §6.4)."""
        arg_colors = [fa.color_of(arg) for arg in instr.args]
        # "As soon as one of the arguments is C, the call is executed
        # in the enclave C" (§6.3/§6.4) — an enclave color wins over
        # the untrusted U/S of the remaining arguments.
        call_color = F
        for color in arg_colors:
            if is_named(color):
                call_color = color
                break
        else:
            for color in arg_colors:
                if color != F:
                    call_color = color
                    break
        if not ignore:
            for color in arg_colors:
                if color != F and color != call_color:
                    self.error("within-arg",
                               f"within call mixes {call_color} and "
                               f"{color} arguments", instr,
                               (call_color, color))
        if not ignore:
            for arg, color in zip(instr.args, arg_colors):
                # Pointer arguments: a pointee with a *different named*
                # color would let one enclave read or corrupt another
                # (§6.3).  Pointees in unsafe memory are allowed — that
                # is how inputs reach an enclave in the paper's own
                # Figure 1 (strncpy from an uncolored char*); leaking
                # *out* through an unsafe pointer requires the explicit
                # ignore/declassify annotation (§6.4).
                if isinstance(arg.type, PointerType):
                    pointee = self.loc_color(arg.type.pointee)
                    if call_color != F and is_named(pointee) and \
                            pointee != call_color:
                        self.error(
                            "within-ptr",
                            f"within call in {call_color} passes a "
                            f"pointer to {pointee} memory", instr,
                            (pointee, call_color))
        if ignore:
            # Classification/declassification: the result is free
            # (§6.4).  The call runs at the boundary: inside the
            # enclave one of its arguments names, or — when no argument
            # is enclave-colored — in the untrusted part (the
            # partitioner homes F-colored ignore calls there).
            self.set_inst_color(fa, instr, call_color)
            return
        # The result carries the call color (third confidentiality
        # rule: outputs computed from colored inputs are colored).
        if call_color != F:
            self.assign(fa, instr, call_color, "within", instr)
        self.set_inst_color(fa, instr, call_color)


def analyze_module(module: Module, mode: str = HARDENED,
                   entries: Optional[Sequence[str]] = None,
                   check: bool = True, cache=None) -> AnalysisResult:
    """Run the full Privagic type analysis on ``module``.

    The module is mutated: ``mem2reg`` is applied and specialized
    function versions are added.  With ``check=True`` (default) the
    first :class:`SecureTypeError` is raised; with ``check=False`` the
    errors are collected on the result for inspection.  ``cache``
    optionally shares an :class:`~repro.pipeline.analyses.AnalysisCache`
    with the surrounding pipeline.
    """
    _scan_address_taken(module)
    result = _Analyzer(module, mode, cache=cache).run(entries)
    if check:
        result.check()
    return result


def _scan_address_taken(module: Module) -> None:
    """Mark functions whose address escapes (stored, passed, compared)
    so the analysis forces their untrusted specialization (§6.3)."""
    for fn in module.defined_functions():
        for instr in fn.instructions():
            for op in instr.operands:
                if isinstance(op, Function):
                    if isinstance(instr, Call) and op is instr.callee:
                        continue
                    op.attributes.add("address-taken")
