"""The IR instruction set.

Instructions are values (SSA): an instruction *is* the register it
outputs (paper §2.2).  Operand edges maintain the use-def graph
automatically.

The set mirrors the LLVM subset the paper's analyses care about:
``alloca`` / ``load`` / ``store`` for memory, arithmetic/comparison
operations, ``getelementptr`` (GEP) for field and array addressing,
``call`` (direct and indirect), branches, ``phi``, casts and
``select``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import IRError
from repro.ir.types import (
    ArrayType,
    FunctionType,
    IntType,
    IRType,
    PointerType,
    StructType,
    VoidType,
    register_type,
    I1,
    VOID,
)
from repro.ir.values import Constant, Value

#: Binary opcodes understood by :class:`BinOp`.
BINARY_OPS = frozenset({
    "add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
    "and", "or", "xor", "shl", "lshr", "ashr",
    "fadd", "fsub", "fmul", "fdiv",
})

#: Comparison predicates understood by :class:`Cmp`.
CMP_PREDICATES = frozenset({
    "eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge",
    "feq", "fne", "flt", "fle", "fgt", "fge",
})

#: Cast kinds understood by :class:`Cast`.
CAST_KINDS = frozenset({
    "bitcast", "trunc", "zext", "sext", "ptrtoint", "inttoptr",
    "sitofp", "fptosi",
})


class Instruction(Value):
    """Base class for all instructions.

    ``operands`` is the ordered list of input values; assigning through
    :meth:`set_operand` keeps the use-def graph consistent.
    """

    #: Class-level opcode name, overridden by subclasses.
    opcode = "instr"

    def __init__(self, type: IRType, operands: Sequence[Value] = (),
                 name: str = ""):
        super().__init__(type, name)
        self.operands: List[Value] = []
        self.parent = None  # owning BasicBlock, set on insertion
        #: Source position ``(line, column)`` of the MiniC construct
        #: this instruction was lowered from, or None for synthesized
        #: code.  Carried through cloning so diagnostics on specialized
        #: functions still point at the original source.
        self.loc: Optional[Tuple[int, int]] = None
        for op in operands:
            self._append_operand(op)

    # -- operand management --------------------------------------------------

    def _append_operand(self, value: Value) -> None:
        if not isinstance(value, Value):
            raise IRError(
                f"{self.opcode}: operand {value!r} is not an IR value")
        self.operands.append(value)
        value.users.add(self)

    def set_operand(self, index: int, value: Value) -> None:
        old = self.operands[index]
        self.operands[index] = value
        if old not in self.operands:
            old.users.discard(self)
        value.users.add(self)

    def _replace_operand(self, old: Value, new: Value) -> None:
        for i, op in enumerate(self.operands):
            if op is old:
                self.operands[i] = new
                new.users.add(self)
        old.users.discard(self)

    def drop_operands(self) -> None:
        """Detach this instruction from its operands (when deleting)."""
        for op in set(self.operands):
            op.users.discard(self)
        self.operands = []

    # -- classification ------------------------------------------------------

    #: True on the block terminators (Branch, Jump, Ret, Unreachable).
    is_terminator = False

    @property
    def has_side_effects(self) -> bool:
        """True when the instruction must not be removed by DCE even if
        its result is unused."""
        return isinstance(self, (Store, Call)) or self.is_terminator

    def erase(self) -> None:
        """Remove this instruction from its block and drop operands."""
        if self.parent is not None:
            self.parent.instructions.remove(self)
            self.parent = None
        self.drop_operands()


class Alloca(Instruction):
    """Stack allocation of one value of ``allocated_type``; yields a
    pointer to it (paper Fig 2 line 3)."""

    opcode = "alloca"

    def __init__(self, allocated_type: IRType, name: str = ""):
        super().__init__(PointerType(allocated_type), (), name)
        self.allocated_type = allocated_type


class Load(Instruction):
    """``r = load p`` — read the value pointed to by ``p``."""

    opcode = "load"

    def __init__(self, ptr: Value, name: str = ""):
        if not isinstance(ptr.type, PointerType):
            raise IRError(f"load from non-pointer {ptr.type}")
        super().__init__(register_type(ptr.type.pointee), (ptr,), name)

    @property
    def ptr(self) -> Value:
        return self.operands[0]


class Store(Instruction):
    """``store v, p`` — write ``v`` to the location pointed by ``p``."""

    opcode = "store"

    def __init__(self, value: Value, ptr: Value):
        if not isinstance(ptr.type, PointerType):
            raise IRError(f"store to non-pointer {ptr.type}")
        super().__init__(VOID, (value, ptr))

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def ptr(self) -> Value:
        return self.operands[1]


class BinOp(Instruction):
    """A binary arithmetic/logic operation (``add``, ``mul``, ...)."""

    opcode = "binop"

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = ""):
        if op not in BINARY_OPS:
            raise IRError(f"unknown binary op {op!r}")
        super().__init__(register_type(lhs.type), (lhs, rhs), name)
        self.op = op

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class Cmp(Instruction):
    """An integer or float comparison producing an ``i1``."""

    opcode = "cmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value,
                 name: str = ""):
        if predicate not in CMP_PREDICATES:
            raise IRError(f"unknown comparison predicate {predicate!r}")
        super().__init__(I1, (lhs, rhs), name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class GEP(Instruction):
    """``getelementptr`` — compute the address of a struct field or
    array element.

    ``indices`` follow LLVM semantics on our slot model:

    * a leading index steps over whole objects of the pointee type
      (pointer arithmetic);
    * subsequent indices drill into struct fields (constant index) or
      array elements.
    """

    opcode = "gep"

    def __init__(self, ptr: Value, indices: Sequence[Value],
                 name: str = ""):
        if not isinstance(ptr.type, PointerType):
            raise IRError(f"gep on non-pointer {ptr.type}")
        result_type = PointerType(
            self._walk_type(ptr.type.pointee, list(indices)[1:]))
        super().__init__(result_type, (ptr, *indices), name)

    @staticmethod
    def _walk_type(current: IRType, rest: Sequence[Value]) -> IRType:
        for idx in rest:
            if isinstance(current, StructType):
                if not isinstance(idx, Constant):
                    raise IRError("struct GEP index must be constant")
                field_i = int(idx.value)
                if not 0 <= field_i < len(current.fields):
                    raise IRError(
                        f"struct {current.name} has no field #{field_i}")
                current = current.fields[field_i].type
            elif isinstance(current, ArrayType):
                current = current.element
            else:
                raise IRError(f"cannot index into {current}")
        return current

    @property
    def ptr(self) -> Value:
        return self.operands[0]

    @property
    def indices(self) -> List[Value]:
        return self.operands[1:]

    def struct_field(self) -> Optional[Tuple[StructType, int]]:
        """If this GEP addresses a struct field, return the struct type
        and field index (used by the §7.2 rewriting)."""
        base = self.ptr.type.pointee
        idxs = self.indices
        if (isinstance(base, StructType) and len(idxs) == 2
                and isinstance(idxs[1], Constant)):
            return base, int(idxs[1].value)
        return None


class Call(Instruction):
    """A function call; ``callee`` is a :class:`~repro.ir.module.Function`
    for a direct call or any pointer-typed value for an indirect call
    (paper §6.3)."""

    opcode = "call"

    def __init__(self, callee: Value, args: Sequence[Value],
                 name: str = ""):
        ftype = self._function_type(callee)
        super().__init__(register_type(ftype.ret), (callee, *args), name)

    @staticmethod
    def _function_type(callee: Value) -> FunctionType:
        t = callee.type
        if isinstance(t, FunctionType):
            return t
        if isinstance(t, PointerType) and isinstance(t.pointee, FunctionType):
            return t.pointee
        raise IRError(f"call to non-function value of type {t}")

    @property
    def callee(self) -> Value:
        return self.operands[0]

    @property
    def args(self) -> List[Value]:
        return self.operands[1:]

    @property
    def is_indirect(self) -> bool:
        from repro.ir.module import Function
        return not isinstance(self.callee, Function)


class Branch(Instruction):
    """Conditional branch ``br cond, then_block, else_block``."""

    opcode = "br"
    is_terminator = True

    def __init__(self, cond: Value, then_block, else_block):
        super().__init__(VOID, (cond,))
        self.then_block = then_block
        self.else_block = else_block

    @property
    def cond(self) -> Value:
        return self.operands[0]

    @property
    def targets(self) -> list:
        return [self.then_block, self.else_block]


class Jump(Instruction):
    """Unconditional branch ``jmp block``."""

    opcode = "jmp"
    is_terminator = True

    def __init__(self, target):
        super().__init__(VOID, ())
        self.target = target

    @property
    def targets(self) -> list:
        return [self.target]


class Ret(Instruction):
    """``ret v`` or ``ret void``."""

    opcode = "ret"
    is_terminator = True

    def __init__(self, value: Optional[Value] = None):
        super().__init__(VOID, (value,) if value is not None else ())

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    @property
    def targets(self) -> list:
        return []


class Unreachable(Instruction):
    """Marks statically unreachable control flow."""

    opcode = "unreachable"
    is_terminator = True

    def __init__(self):
        super().__init__(VOID, ())

    @property
    def targets(self) -> list:
        return []


class Phi(Instruction):
    """SSA phi node: selects a value based on the predecessor block."""

    opcode = "phi"

    def __init__(self, type: IRType, name: str = ""):
        super().__init__(register_type(type), (), name)
        self.incoming_blocks: List = []

    def add_incoming(self, value: Value, block) -> None:
        self._append_operand(value)
        self.incoming_blocks.append(block)

    @property
    def incomings(self) -> List[Tuple[Value, object]]:
        return list(zip(self.operands, self.incoming_blocks))

    def incoming_for(self, block) -> Value:
        for value, b in self.incomings:
            if b is block:
                return value
        raise IRError(f"phi {self.short()} has no incoming for {block}")

    def remove_incoming(self, block) -> None:
        """Drop every incoming entry arriving from ``block`` (used when
        a CFG edge is deleted)."""
        keep = [(v, b) for v, b in self.incomings if b is not block]
        self.drop_operands()
        self.incoming_blocks = []
        for value, b in keep:
            self.add_incoming(value, b)


class Cast(Instruction):
    """Type conversion (``bitcast``, ``zext``, ``trunc``, ...)."""

    opcode = "cast"

    def __init__(self, kind: str, value: Value, to_type: IRType,
                 name: str = ""):
        if kind not in CAST_KINDS:
            raise IRError(f"unknown cast kind {kind!r}")
        super().__init__(register_type(to_type), (value,), name)
        self.kind = kind
        self.to_type = to_type

    @property
    def value(self) -> Value:
        return self.operands[0]


class Select(Instruction):
    """``select cond, a, b`` — branchless conditional value."""

    opcode = "select"

    def __init__(self, cond: Value, a: Value, b: Value, name: str = ""):
        super().__init__(register_type(a.type), (cond, a, b), name)

    @property
    def cond(self) -> Value:
        return self.operands[0]

    @property
    def true_value(self) -> Value:
        return self.operands[1]

    @property
    def false_value(self) -> Value:
        return self.operands[2]
