"""Per-op differential: every BinOp, Cmp and Cast behaves the same on
the legacy, decoded and traced engines.

Each case builds a small module with :class:`IRBuilder`: a counted loop
whose body applies one op to a batch of edge-value operand pairs, in
one operand shape (register/register, register/constant,
constant/register, constant/constant, or an address getter).  The loop
runs under all three engines (traced with ``REPRO_TRACE_THRESHOLD=0``,
so the region is compiled on first entry) and the result, fault
message, step counts and final memory image must be identical.
Division by zero and an unloaded-global getter are run one case each,
since they fault.
"""

import pytest

from repro.errors import RuntimeFault
from repro.ir import (
    F32,
    Function,
    FunctionType,
    GlobalVariable,
    I1,
    I8,
    I16,
    I32,
    I64,
    IRBuilder,
    Module,
    PointerType,
)
from repro.ir.instructions import BINARY_OPS, CAST_KINDS, CMP_PREDICATES
from repro.ir.interp import ENGINES, Machine
from repro.ir.values import Constant

INT_WIDTHS = (I1, I8, I16, I32, I64)
SHAPES = ("reg/reg", "reg/const", "const/reg", "const/const", "getter")
FLOAT_VALUES = (0.0, -0.0, 1.0, -1.0, 0.5, 3.4028234663852886e+38,
                -3.4028234663852886e+38)
SHIFT_COUNTS = (0, 63, 64, 65)
DIVISIONS = ("sdiv", "udiv", "srem", "urem", "fdiv")
ITERATIONS = 3


@pytest.fixture(autouse=True)
def _force_tracing(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_THRESHOLD", "0")


def _int_values(ty):
    bits = ty.bits
    return sorted({0, 1, -1, -(1 << (bits - 1)), (1 << (bits - 1)) - 1})


def _is_float_op(name):
    return name.startswith("f")


def _pairs(name, ty):
    """Non-faulting operand pairs for a binary op or predicate."""
    if ty is F32:
        values = FLOAT_VALUES
        pairs = [(a, b) for a in values for b in values]
    else:
        values = _int_values(ty)
        rhs = values + list(SHIFT_COUNTS) if name in (
            "shl", "lshr", "ashr") else values
        pairs = [(a, b) for a in values for b in rhs]
    if name in DIVISIONS:
        pairs = [(a, b) for a, b in pairs if b != 0]
    return pairs


# -- module construction ---------------------------------------------------------


class _Case:
    """A module whose ``main`` loops ``ITERATIONS`` times over a body
    built by ``emit(b, operand)``; each emitted result is stored to
    its own global on loop exit."""

    def __init__(self, arg_types, emit):
        module = Module("opsem")
        self.helper = module.add_function(
            Function("helper", FunctionType(I32, [])))
        fn = module.add_function(
            Function("main", FunctionType(I32, list(arg_types))))
        self.args = fn.args
        entry = fn.add_block("entry")
        loop = fn.add_block("loop")
        done = fn.add_block("done")
        b = IRBuilder(entry)
        b.jump(loop)
        b.position_at_end(loop)
        counter = b.phi(I32, "i")
        results = emit(b, self)
        bumped = b.add(counter, b.const_int(1))
        b.branch(b.cmp("slt", bumped, b.const_int(ITERATIONS)), loop, done)
        counter.add_incoming(Constant(I32, 0), entry)
        counter.add_incoming(bumped, loop)
        b.position_at_end(done)
        for index, result in enumerate(results):
            out = module.add_global(
                GlobalVariable(f"out{index}", result.type))
            b.store(result, out)
        b.ret(b.const_int(0))
        self.module = module


def _const(ty, value):
    return Constant(ty, value)


def _known(b, ty, reg):
    """Pass a raw register through an identity op, so the traced tier
    sees a local whose int/float kind is known."""
    if ty is F32:
        return b.binop("fsub", reg, _const(F32, 0.0))
    return b.cast("sext", reg, ty)


def _binary_case(name, ty, shape, pairs, make):
    """Module applying ``make(b, lhs, rhs)`` to ``pairs`` in ``shape``;
    returns (case, args)."""
    args = []
    arg_types = []
    for a, b_ in pairs:
        if shape == "reg/reg":
            args += [a, b_]
            arg_types += [ty, ty]
        elif shape in ("reg/const", "const/reg"):
            args.append(a if shape == "reg/const" else b_)
            arg_types.append(ty)
        elif shape == "getter":
            args += [a, b_]
            arg_types += [ty, ty]

    def emit(b, case):
        results = []
        regs = iter(case.args)
        for a, b_ in pairs:
            if shape == "reg/reg":
                lhs, rhs = next(regs), next(regs)
            elif shape == "reg/const":
                lhs, rhs = _known(b, ty, next(regs)), _const(ty, b_)
            elif shape == "const/reg":
                lhs, rhs = _const(ty, a), _known(b, ty, next(regs))
            elif shape == "const/const":
                lhs, rhs = _const(ty, a), _const(ty, b_)
            else:
                # A function address resolves through a getter.
                lhs_reg, rhs_reg = next(regs), next(regs)
                results.append(make(b, case.helper, rhs_reg))
                results.append(make(b, lhs_reg, case.helper))
                continue
            results.append(make(b, lhs, rhs))
        return results

    return _Case(arg_types, emit), args


def _run(case, args, engine):
    machine = Machine(case.module, engine=engine)
    ctx = machine.spawn("main", args, name="main")
    fault = None
    try:
        machine.run()
    except RuntimeFault as exc:
        fault = str(exc)
    slots = dict(machine.memory._slots)
    allocs = [(a.base, a.size, a.region, a.label, a.live)
              for a in machine.memory._allocs]
    traced = machine.trace_stats["compiled"] if engine == "traced" else 1
    return {
        "result": ctx.result,
        "fault": fault,
        "ctx_steps": ctx.steps,
        "total_steps": machine.total_steps,
        "memory": (slots, allocs),
    }, traced


def _assert_same(case, args):
    runs = {}
    for engine in ENGINES:
        runs[engine], traced = _run(case, args, engine)
        assert traced == 1, f"{engine}: loop region was not compiled"
    for engine in ENGINES:
        assert runs[engine] == runs["legacy"], engine
    return runs["legacy"]


# -- binary ops and predicates ----------------------------------------------------


def _params(names):
    """(name, width) for each op: float ops at F32, the rest at every
    integer width."""
    return [pytest.param(name, ty, id=f"{name}-{ty}")
            for name in sorted(names)
            for ty in ((F32,) if _is_float_op(name) else INT_WIDTHS)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name,ty", _params(BINARY_OPS))
def test_binop(name, ty, shape):
    case, args = _binary_case(
        name, ty, shape, _pairs(name, ty),
        lambda b, lhs, rhs: b.binop(name, lhs, rhs))
    run = _assert_same(case, args)
    assert run["fault"] is None


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name,ty", _params(CMP_PREDICATES))
def test_cmp(name, ty, shape):
    case, args = _binary_case(
        name, ty, shape, _pairs(name, ty),
        lambda b, lhs, rhs: b.cmp(name, lhs, rhs))
    run = _assert_same(case, args)
    assert run["fault"] is None


@pytest.mark.parametrize("shape", ["reg/reg", "reg/const", "const/const",
                                   "getter"])
@pytest.mark.parametrize("name,ty", _params(DIVISIONS))
def test_zero_divisor_faults_identically(name, ty, shape):
    zero = 0.0 if ty is F32 else 0
    for pair in ((7 if ty is not F32 else 7.5, zero), (-1, zero)):
        case, args = _binary_case(
            name, ty, shape, [pair],
            lambda b, lhs, rhs: b.binop(name, lhs, rhs))
        run = _assert_same(case, args)
        noun = ("float division" if name == "fdiv" else
                "integer division" if "div" in name else
                "integer remainder")
        assert run["fault"] == f"{noun} by zero"


def test_float_division_by_negative_zero_faults():
    case, args = _binary_case(
        "fdiv", F32, "reg/reg", [(1.0, -0.0)],
        lambda b, lhs, rhs: b.binop("fdiv", lhs, rhs))
    assert _assert_same(case, args)["fault"] == "float division by zero"


@pytest.mark.parametrize("family", ["binop", "cmp", "cast"])
def test_unloaded_global_getter_faults_identically(family):
    ghost = GlobalVariable("ghost", I64)  # never added to the module

    def emit(b, case):
        if family == "binop":
            return [b.binop("add", ghost, case.args[0])]
        if family == "cmp":
            return [b.cmp("eq", case.args[0], ghost)]
        return [b.cast("ptrtoint", ghost, I64)]

    case = _Case([PointerType(I64)], emit)
    run = _assert_same(case, [5])
    assert run["fault"] == "global @ghost not loaded"


# -- casts ----------------------------------------------------------------------


def _cast_types(kind, ty):
    """(source type, destination type) for ``kind`` at width ``ty``."""
    if kind == "trunc":
        return I64, ty
    if kind in ("zext", "sext"):
        return ty, I64
    if kind == "inttoptr":
        return ty, PointerType(I64)
    if kind == "ptrtoint":
        return PointerType(I64), ty
    if kind == "sitofp":
        return ty, F32
    if kind == "fptosi":
        return F32, ty
    return ty, ty


def _cast_values(kind, src):
    if kind == "fptosi":
        return FLOAT_VALUES
    if kind == "trunc":
        # Values outside the narrow width, so truncation wraps.
        return _int_values(I64) + [255, 256, 65535, 1 << 40, -(1 << 33)]
    return _int_values(src if not isinstance(src, PointerType) else I64)


@pytest.mark.parametrize("shape", ["reg", "known", "const", "getter"])
@pytest.mark.parametrize("kind,ty", _params(CAST_KINDS))
def test_cast(kind, ty, shape):
    src, dst = _cast_types(kind, ty)
    values = _cast_values(kind, src)
    arg_types = [] if shape in ("const", "getter") else [src] * len(values)

    def emit(b, case):
        if shape == "getter":
            return [b.cast(kind, case.helper, dst)]
        results = []
        for index, value in enumerate(values):
            if shape == "const":
                operand = _const(src, value)
            elif shape == "known" and not isinstance(src, PointerType):
                operand = _known(b, src, case.args[index])
            else:
                operand = case.args[index]
            results.append(b.cast(kind, operand, dst))
        return results

    case = _Case(arg_types, emit)
    args = [] if shape in ("const", "getter") else list(values)
    run = _assert_same(case, args)
    assert run["fault"] is None


def test_table_covers_every_op():
    opsem = pytest.importorskip("repro.ir.opsem")
    assert set(opsem.BINOPS) == BINARY_OPS
    assert set(opsem.CMPS) == CMP_PREDICATES
    assert set(opsem.CASTS) == CAST_KINDS
