"""One table of IR op semantics shared by the decoded and traced tiers.

Every :class:`~repro.ir.instructions.BinOp` opcode,
:class:`~repro.ir.instructions.Cmp` predicate and
:class:`~repro.ir.instructions.Cast` kind has one :class:`OpSem`
entry:

* ``coerce`` — how each operand is coerced before the op: ``int``,
  ``float``, ``u64`` (int masked to an unsigned 64-bit value) or
  ``raw`` (left as is);
* ``expr`` — a Python expression template over the coerced operands
  ``{a}`` and ``{b}``;
* ``wraps`` — whether the result wraps to the instruction's signed
  width (:func:`wrap_params`);
* ``fault`` — the :class:`~repro.errors.RuntimeFault` message raised
  when the last operand is zero (division and remainder), or None;
* ``result`` — the result's kind (``int`` or ``float``), or None when
  it is the operand's own (identity casts).

The decoded engine (:mod:`repro.ir.engine`) generates one closure
factory per (entry, operand shape) from these templates and the trace
tier (:mod:`repro.ir.trace`) substitutes them into its generated loop
source.  The legacy interpreter's ``_apply_binop`` / ``_apply_cmp`` /
``_apply_cast`` are written independently and stay the reference
oracle the equivalence tests compare both tiers against.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import RuntimeFault
from repro.ir.instructions import BinOp, Cast, Cmp, Instruction
from repro.ir.types import IntType

M64 = (1 << 64) - 1


def trunc_div(a: int, b: int) -> int:
    """C-style truncated integer division, exact on 64-bit values."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


class OpSem(NamedTuple):
    coerce: str
    expr: str
    wraps: bool
    fault: Optional[str] = None
    result: Optional[str] = "int"


def _int(expr: str, fault: Optional[str] = None) -> OpSem:
    return OpSem("int", expr, True, fault)


def _cmp(coerce: str, relation: str) -> OpSem:
    return OpSem(coerce, f"1 if {{a}} {relation} {{b}} else 0", False)


_DIV = "integer division by zero"
_REM = "integer remainder by zero"

BINOPS: Dict[str, OpSem] = {
    "add": _int("{a} + {b}"),
    "sub": _int("{a} - {b}"),
    "mul": _int("{a} * {b}"),
    "sdiv": _int("_td({a}, {b})", _DIV),
    "udiv": _int(f"({{a}} & {M64}) // ({{b}} & {M64})", _DIV),
    "srem": _int("{a} - _td({a}, {b}) * {b}", _REM),
    "urem": _int(f"({{a}} & {M64}) % ({{b}} & {M64})", _REM),
    "and": _int("{a} & {b}"),
    "or": _int("{a} | {b}"),
    "xor": _int("{a} ^ {b}"),
    "shl": _int("{a} << ({b} & 63)"),
    "lshr": _int(f"({{a}} & {M64}) >> ({{b}} & 63)"),
    "ashr": _int("{a} >> ({b} & 63)"),
    "fadd": OpSem("float", "{a} + {b}", False, None, "float"),
    "fsub": OpSem("float", "{a} - {b}", False, None, "float"),
    "fmul": OpSem("float", "{a} * {b}", False, None, "float"),
    "fdiv": OpSem("float", "{a} / {b}", False, "float division by zero",
                  "float"),
}

_EQUALITY = {"eq": "==", "ne": "!="}
_ORDER = {"lt": "<", "le": "<=", "gt": ">", "ge": ">="}

CMPS: Dict[str, OpSem] = {
    **{name: _cmp("int", rel) for name, rel in _EQUALITY.items()},
    **{"s" + name: _cmp("int", rel) for name, rel in _ORDER.items()},
    **{"u" + name: _cmp("u64", rel) for name, rel in _ORDER.items()},
    **{"f" + name: _cmp("float", rel)
       for name, rel in {**_EQUALITY, **_ORDER}.items()},
}

_IDENTITY = OpSem("raw", "{a}", False, None, None)

CASTS: Dict[str, OpSem] = {
    "bitcast": _IDENTITY,
    "inttoptr": _IDENTITY,
    "ptrtoint": _IDENTITY,
    "trunc": OpSem("int", "{a}", True),
    "zext": OpSem("int", "{a}", False),
    "sext": OpSem("int", "{a}", False),
    "fptosi": OpSem("int", "{a}", False),
    "sitofp": OpSem("float", "{a}", False, None, "float"),
}

#: Globals the templates and fault checks refer to, for ``exec``.
ENV = {"_td": trunc_div, "RuntimeFault": RuntimeFault}

#: Source form of each coercion, over one operand expression.
COERCE_SOURCE = {"int": "int({})", "float": "float({})",
                 "u64": f"(int({{}}) & {M64})", "raw": "{}"}

#: The same coercions applied to a value (constant operands).
COERCE_VALUE = {"int": int, "float": float,
                "u64": lambda v: int(v) & M64, "raw": lambda v: v}


def semantics(instr: Instruction) -> OpSem:
    """The table entry for a BinOp, Cmp or Cast."""
    if isinstance(instr, BinOp):
        return BINOPS[instr.op]
    if isinstance(instr, Cmp):
        return CMPS[instr.predicate]
    if isinstance(instr, Cast):
        return CASTS[instr.kind]
    raise TypeError(f"no op semantics for {type(instr).__name__}")


def wrap_params(instr: Instruction) -> Tuple[int, int, int]:
    """(mask, sign bit, modulus) of the instruction's result width; a
    non-integer result type wraps at 64 bits."""
    bits = instr.type.bits if isinstance(instr.type, IntType) else 64
    return (1 << bits) - 1, 1 << (bits - 1), 1 << bits


def needs_temps(sem: OpSem) -> bool:
    """True when the operands must be bound to locals first: they are
    read more than once, or the divisor is checked before the op."""
    return (sem.fault is not None or sem.expr.count("{a}") > 1
            or sem.expr.count("{b}") > 1)


def expression(sem: OpSem, operands: Sequence[str]) -> str:
    return sem.expr.format(**dict(zip("ab", operands)))


def fault_check(sem: OpSem, divisor: str) -> List[str]:
    """Statements raising the entry's fault on a zero divisor."""
    if sem.fault is None:
        return []
    return [f"if {divisor} == 0:",
            f"    raise RuntimeFault({sem.fault!r})"]
