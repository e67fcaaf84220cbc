"""Control-flow-graph analyses: orderings, dominators, postdominators
and dominance frontiers.

Dominators use the Cooper–Harvey–Kennedy iterative algorithm.  The
dominance frontier feeds phi placement in ``mem2reg`` (paper §5.1);
the *post*dominator tree feeds the implicit-indirect-leak block
coloring of Rule 4 (paper §6.1.1): the blocks influenced by a
conditional branch are those between the branch and its immediate
postdominator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.module import BasicBlock, Function


def reverse_postorder(fn: Function) -> List[BasicBlock]:
    """Blocks in reverse postorder from the entry block."""
    visited: Set[BasicBlock] = set()
    order: List[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        visited.add(block)
        for succ in block.successors:
            if succ not in visited:
                visit(succ)
        order.append(block)

    if fn.blocks:
        visit(fn.entry_block)
    order.reverse()
    return order


def reachable_blocks(fn: Function) -> Set[BasicBlock]:
    return set(reverse_postorder(fn))


def predecessor_map(fn: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    """The predecessors of every block of ``fn``, from one sweep over
    the successor edges: each predecessor listed once (``br c, X, X``
    is one edge into X), in block layout order — the same lists as
    :attr:`BasicBlock.predecessors`, for all blocks at once."""
    preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in fn.blocks}
    for block in fn.blocks:
        for succ in block.successors:
            into = preds.setdefault(succ, [])
            if not into or into[-1] is not block:
                into.append(block)
    return preds


class DominatorTree:
    """Immediate-dominator tree of a function's CFG.

    With ``post=True``, computes *post*dominators on the reversed CFG.
    Functions may have several exit blocks; postdominance uses a
    virtual exit (represented by ``None``) joining them.
    """

    def __init__(self, fn: Function, post: bool = False):
        self.fn = fn
        self.post = post
        #: immediate dominator of each block (None for root / virtual exit)
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self._compute()

    # -- construction -----------------------------------------------------------

    def _edges(self) -> Tuple[Dict[BasicBlock, List[BasicBlock]],
                              Dict[BasicBlock, List[BasicBlock]]]:
        """(in-edges, out-edges) of every block in the direction
        analyzed, from one sweep over the CFG.  Not kept: a cached
        tree holds no copy of the edges."""
        preds = predecessor_map(self.fn)
        succs = {b: b.successors for b in preds}
        return (succs, preds) if self.post else (preds, succs)

    def _roots(self, edges_in) -> List[BasicBlock]:
        if not self.post:
            return [self.fn.entry_block]
        # Exit blocks: no in-edges on the reversed CFG.
        return [b for b in self.fn.blocks
                if not edges_in[b] and b.is_terminated]

    #: Virtual super-root joining multiple (post)dominator roots —
    #: functions with several exit blocks postdominate to it.
    _VIRTUAL = "<virtual-root>"

    def _compute(self) -> None:
        if not self.fn.blocks:
            return
        edges_in, edges_out = self._edges()
        roots = self._roots(edges_in)
        order = self._order(roots, edges_out)
        index = {b: i for i, b in enumerate(order)}
        index[self._VIRTUAL] = -1
        roots = [r for r in roots if r in index]
        idom: Dict[object, object] = {self._VIRTUAL: self._VIRTUAL}
        for r in roots:
            idom[r] = self._VIRTUAL

        changed = True
        while changed:
            changed = False
            for block in order:
                if block in roots:
                    continue
                preds = [p for p in edges_in[block] if p in idom]
                if not preds:
                    continue
                new_idom = preds[0]
                for p in preds[1:]:
                    new_idom = self._intersect(p, new_idom, idom, index)
                if idom.get(block) is not new_idom:
                    idom[block] = new_idom
                    changed = True

        self.idom = {
            b: (None if d is self._VIRTUAL or b in roots else d)
            for b, d in idom.items() if b is not self._VIRTUAL}

    def _order(self, roots, edges_out) -> List[BasicBlock]:
        """Reverse postorder of the (possibly reversed) CFG over all
        blocks reachable from the roots."""
        visited: Set[BasicBlock] = set()
        order: List[BasicBlock] = []

        def visit(block: BasicBlock) -> None:
            visited.add(block)
            for nxt in edges_out[block]:
                if nxt not in visited:
                    visit(nxt)
            order.append(block)

        for root in roots:
            if root not in visited:
                visit(root)
        order.reverse()
        return order

    @staticmethod
    def _intersect(a, b, idom, index):
        while a is not b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    # -- queries -----------------------------------------------------------------

    def immediate(self, block: BasicBlock) -> Optional[BasicBlock]:
        """The immediate (post)dominator of ``block``; None at a root."""
        return self.idom.get(block)

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True when ``a`` (post)dominates ``b`` (reflexive)."""
        node: Optional[BasicBlock] = b
        while node is not None:
            if node is a:
                return True
            node = self.idom.get(node)
        return False

    def frontier(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        """Dominance frontier of every block (Cytron et al.)."""
        df: Dict[BasicBlock, Set[BasicBlock]] = {
            b: set() for b in self.idom}
        edges_in, _ = self._edges()
        for block in self.idom:
            preds = [p for p in edges_in[block] if p in self.idom]
            if len(preds) < 2:
                continue
            for pred in preds:
                runner: Optional[BasicBlock] = pred
                while runner is not None and runner is not self.idom[block]:
                    df[runner].add(block)
                    runner = self.idom.get(runner)
        return df


def blocks_influenced_by(branch_block: BasicBlock,
                         pdt: DominatorTree) -> Set[BasicBlock]:
    """Blocks control-dependent on the conditional branch terminating
    ``branch_block``: every block on a path from the branch to (but
    excluding) the branch block's immediate postdominator.

    This is the region to which Rule 4 of the paper propagates the
    branch condition's color (the "if" and "then" branches of §6.1.1,
    but not the joining point).
    """
    join = pdt.immediate(branch_block)
    influenced: Set[BasicBlock] = set()
    work = [s for s in branch_block.successors if s is not join]
    while work:
        block = work.pop()
        if block in influenced or block is join or block is branch_block:
            continue
        influenced.add(block)
        for succ in block.successors:
            if succ is not join:
                work.append(succ)
    return influenced
