"""CFG simplification.

Three transformations, iterated to a fixed point:

* fold trivial conditional branches — constant condition, or both
  targets identical — into unconditional jumps;
* delete blocks unreachable from the entry (fixing up phis of the
  surviving blocks);
* merge single-successor blocks into their single-predecessor
  successor, shortening jump chains (each removed ``jmp`` is one
  fewer interpreter step on every execution).

Control-dependence regions are preserved: only straight-line jump
edges are merged, and a join point (two or more predecessors) is
never folded into a predecessor, so Rule-4 block coloring (§6.1.1)
sees the same influenced regions before and after.
"""

from __future__ import annotations

from repro.ir.cfg import predecessor_map, reachable_blocks
from repro.ir.instructions import Branch, Jump, Phi
from repro.ir.module import Function, Module
from repro.ir.values import Constant, UndefValue


def simplify_cfg(target) -> int:
    """Simplify the CFG; returns how many simplifications applied
    (branches folded + blocks removed or merged).

    Accepts a :class:`Function` or a whole :class:`Module`.
    """
    if isinstance(target, Module):
        return sum(simplify_cfg(f) for f in target.defined_functions())
    return _simplify_function(target)


def _simplify_function(fn: Function) -> int:
    if not fn.blocks:
        return 0
    total = 0
    changed = True
    while changed:
        changed = False
        n = _fold_branches(fn)
        n += _remove_unreachable(fn)
        n += _merge_chains(fn)
        if n:
            total += n
            changed = True
    return total


def _fold_branches(fn: Function) -> int:
    """Replace conditional branches with known outcomes by jumps."""
    folded = 0
    for block in fn.blocks:
        term = block.terminator
        if not isinstance(term, Branch):
            continue
        if term.then_block is term.else_block:
            target, dropped = term.then_block, None
        elif isinstance(term.cond, Constant):
            if term.cond.value:
                target, dropped = term.then_block, term.else_block
            else:
                target, dropped = term.else_block, term.then_block
        else:
            continue
        term.erase()
        block.append(Jump(target))
        # The not-taken successor loses the edge from ``block``.
        if dropped is not None and dropped is not target:
            for phi in dropped.phis:
                phi.remove_incoming(block)
        folded += 1
    return folded


def _remove_unreachable(fn: Function) -> int:
    """Delete blocks no path from the entry reaches."""
    reachable = reachable_blocks(fn)
    dead = [b for b in fn.blocks if b not in reachable]
    if not dead:
        return 0
    dead_set = set(dead)
    for block in fn.blocks:
        if block in dead_set:
            continue
        for phi in block.phis:
            if any(b in dead_set for b in phi.incoming_blocks):
                for d in dead_set:
                    phi.remove_incoming(d)
    for block in dead:
        for instr in list(block.instructions):
            instr.replace_all_uses_with(UndefValue(instr.type))
            instr.erase()
        fn.blocks.remove(block)
        block.parent = None
    return len(dead)


def _merge_chains(fn: Function) -> int:
    """Merge ``pred --jmp--> succ`` pairs where the edge is the only
    way in and out of both ends."""
    merged = 0
    restart = True
    while restart:
        restart = False
        preds = predecessor_map(fn)
        for block in fn.blocks:
            term = block.terminator
            if not isinstance(term, Jump):
                continue
            succ = term.target
            if succ is block or succ is fn.entry_block:
                continue
            if len(preds[succ]) != 1:
                continue
            # Single predecessor: phis in succ are trivial.
            for phi in list(succ.phis):
                phi.replace_all_uses_with(phi.incoming_for(block))
                phi.erase()
            term.erase()
            for instr in list(succ.instructions):
                succ.instructions.remove(instr)
                instr.parent = block
                block.instructions.append(instr)
            # succ's successors now flow from ``block``.
            for nxt in block.successors:
                for phi in nxt.phis:
                    for i, b in enumerate(phi.incoming_blocks):
                        if b is succ:
                            phi.incoming_blocks[i] = block
            fn.blocks.remove(succ)
            succ.parent = None
            merged += 1
            restart = True
            break
    return merged
