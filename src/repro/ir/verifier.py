"""Structural verifier for the IR.

Checks the invariants every pass and analysis assumes:

* every block (reachable or not) ends with exactly one terminator;
* branch targets and phi incoming blocks belong to the function (no
  dangling references to erased blocks);
* instruction results are defined before use (SSA dominance);
* phi nodes have one incoming per predecessor and sit at block start;
* operand/user links are consistent;
* stores/loads go through pointer-typed operands.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.errors import IRError
from repro.ir.cfg import predecessor_map
from repro.ir.instructions import Instruction, Load, Phi, Store
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.printer import print_instruction
from repro.ir.types import PointerType
from repro.ir.values import Argument, Constant, GlobalVariable, UndefValue, Value


def verify_module(module: Module, cache=None) -> None:
    """Raise :class:`IRError` on the first malformed function."""
    for fn in module.functions.values():
        if not fn.is_declaration:
            verify_function(fn, cache=cache)


def verify_function(fn: Function, cache=None) -> None:
    """Verify one function.  ``cache`` optionally supplies the
    dominator tree (a fresh throwaway cache is used otherwise, so the
    verifier never trusts analyses a buggy pass failed to
    invalidate)."""
    if not fn.blocks:
        return
    if cache is None:
        from repro.pipeline.analyses import AnalysisCache
        cache = AnalysisCache()
    reachable = cache.reachable(fn)
    members = set(fn.blocks)
    _check_terminators(fn, members)
    _check_phis(fn, reachable, members)
    _check_links(fn)
    _check_dominance(fn, reachable, cache)


def _fail(fn: Function, message: str, instr: Instruction = None) -> None:
    at = f" in {print_instruction(instr)}" if instr is not None else ""
    raise IRError(f"verifier: @{fn.name}: {message}{at}")


def _check_terminators(fn: Function, members: Set[BasicBlock]) -> None:
    for block in fn.blocks:
        if block.terminator is None:
            _fail(fn, f"block {block.name} has no terminator")
        for instr in block.instructions[:-1]:
            if instr.is_terminator:
                _fail(fn, f"terminator in the middle of block {block.name}",
                      instr)
        for target in block.successors:
            if target.parent is not fn or target not in members:
                _fail(fn, f"block {block.name} branches to a block not "
                          f"in the function (dangling reference to "
                          f"{target.name!r}?)")


def _check_phis(fn: Function, reachable: Set[BasicBlock],
                members: Set[BasicBlock]) -> None:
    pred_map = predecessor_map(fn)
    for block in fn.blocks:
        if block not in reachable:
            continue
        preds = set(pred_map[block])
        seen_non_phi = False
        for instr in block.instructions:
            if isinstance(instr, Phi):
                if seen_non_phi:
                    _fail(fn, f"phi after non-phi in block {block.name}",
                          instr)
                incoming = set(instr.incoming_blocks)
                for b in incoming:
                    if b not in members:
                        _fail(fn, f"phi incoming from a block not in the "
                                  f"function ({b.name!r})", instr)
                if incoming != preds:
                    _fail(fn, f"phi incomings {sorted(b.name for b in incoming)} "
                              f"do not match predecessors "
                              f"{sorted(b.name for b in preds)}", instr)
            else:
                seen_non_phi = True


def _check_links(fn: Function) -> None:
    for block in fn.blocks:
        for instr in block.instructions:
            if instr.parent is not block:
                _fail(fn, "instruction parent link broken", instr)
            for op in instr.operands:
                if instr not in op.users:
                    _fail(fn, f"use-def link missing for operand "
                              f"{op.short()}", instr)
            if isinstance(instr, Load) and not isinstance(
                    instr.ptr.type, PointerType):
                _fail(fn, "load from non-pointer", instr)
            if isinstance(instr, Store) and not isinstance(
                    instr.ptr.type, PointerType):
                _fail(fn, "store to non-pointer", instr)


def _check_dominance(fn: Function, reachable: Set[BasicBlock],
                     cache) -> None:
    dt = cache.dominators(fn)
    positions = {}
    for block in fn.blocks:
        for i, instr in enumerate(block.instructions):
            positions[instr] = (block, i)

    for block in fn.blocks:
        if block not in reachable:
            continue
        for i, instr in enumerate(block.instructions):
            if isinstance(instr, Phi):
                for value, pred in instr.incomings:
                    _check_operand_dominates(fn, dt, positions, value,
                                             pred, len(pred.instructions),
                                             instr)
                continue
            for op in instr.operands:
                _check_operand_dominates(fn, dt, positions, op, block, i,
                                         instr)


def _check_operand_dominates(fn, dt, positions, value: Value,
                             use_block: BasicBlock, use_index: int,
                             user: Instruction) -> None:
    if isinstance(value, (Constant, GlobalVariable, Argument,
                          UndefValue, Function)):
        return
    if not isinstance(value, Instruction):
        return
    pos = positions.get(value)
    if pos is None:
        _fail(fn, f"operand {value.short()} not in function", user)
    def_block, def_index = pos
    if def_block is use_block:
        if def_index >= use_index:
            _fail(fn, f"operand {value.short()} used before definition",
                  user)
    elif not dt.dominates(def_block, use_block):
        _fail(fn, f"definition of {value.short()} does not dominate use",
              user)
