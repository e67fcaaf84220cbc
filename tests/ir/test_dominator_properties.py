"""Property test: the Cooper–Harvey–Kennedy dominator trees and the
dominance frontier agree with a naive set-intersection reference on
random CFGs — several exits, unreachable blocks, self-loops, infinite
loops and ``br c, X, X`` duplicate edges.

As in LLVM, the entry block has no predecessors.
"""

from hypothesis import given, settings, strategies as st

from repro.ir import Function, FunctionType, IRBuilder, Module, I32
from repro.ir.cfg import DominatorTree, predecessor_map


def _terminators(n):
    """One terminator per block: ("ret",), ("unreachable",), ("jmp", t)
    or ("br", t, e), targets as block indices (never 0, the entry)."""
    target = st.integers(1, n - 1) if n > 1 else st.nothing()
    return st.lists(
        st.one_of(st.just(("ret",)), st.just(("unreachable",)),
                  st.tuples(st.just("jmp"), target),
                  st.tuples(st.just("br"), target, target)),
        min_size=n, max_size=n)


CFGS = st.integers(1, 9).flatmap(_terminators)


def build(terms):
    module = Module("m")
    fn = module.add_function(Function("f", FunctionType(I32, [I32]),
                                      ["x"]))
    blocks = [fn.add_block(f"b{i}") for i in range(len(terms))]
    for block, term in zip(blocks, terms):
        b = IRBuilder(block)
        if term[0] == "ret":
            b.ret(b.const_int(0))
        elif term[0] == "unreachable":
            b.unreachable()
        elif term[0] == "jmp":
            b.jump(blocks[term[1]])
        else:
            cond = b.cmp("slt", fn.args[0], b.const_int(len(block.name)))
            b.branch(cond, blocks[term[1]], blocks[term[2]])
    return fn


def reference(fn, post):
    """Dominator sets by the textbook fixpoint: ``dom(b) = {b} ∪ ⋂
    dom(p)`` over the in-edges of b inside the tree.  Postdominance
    runs on the reversed CFG from every exit block."""
    succs = {b: set(b.successors) for b in fn.blocks}
    preds = {b: {p for p in fn.blocks if b in succs[p]}
             for b in fn.blocks}
    edges_out, edges_in = (preds, succs) if post else (succs, preds)
    roots = ([b for b in fn.blocks if not succs[b]] if post
             else [fn.entry_block])
    tree, work = set(roots), list(roots)
    while work:
        for nxt in edges_out[work.pop()]:
            if nxt not in tree:
                tree.add(nxt)
                work.append(nxt)
    dom = {b: ({b} if b in roots else set(tree)) for b in tree}
    changed = True
    while changed:
        changed = False
        for b in tree:
            if b in roots:
                continue
            new = set(tree)
            for p in edges_in[b] & tree:
                new &= dom[p]
            new |= {b}
            if new != dom[b]:
                dom[b], changed = new, True
    return dom, edges_in


def reference_idom(dom, b):
    """The strict (post)dominator of b that every other one
    (post)dominates; None when b has none (a root, or only the
    virtual exit joining several exits)."""
    strict = dom[b] - {b}
    if not strict:
        return None
    return max(strict, key=lambda d: len(dom[d]))


def reference_frontier(dom, edges_in):
    """``Y ∈ DF(X)`` iff X dominates an in-edge source of Y without
    strictly dominating Y (Cytron et al.)."""
    df = {x: set() for x in dom}
    for y in dom:
        for p in edges_in[y] & set(dom):
            for x in dom[p]:
                if not (x in dom[y] and x is not y):
                    df[x].add(y)
    return df


@settings(max_examples=300, deadline=None)
@given(terms=CFGS)
def test_dominator_trees_match_the_reference(terms):
    fn = build(terms)
    for post in (False, True):
        dt = DominatorTree(fn, post=post)
        dom, edges_in = reference(fn, post)
        assert set(dt.idom) == set(dom)
        for b in dom:
            assert dt.immediate(b) is reference_idom(dom, b)
            for a in dom:
                assert dt.dominates(a, b) == (a in dom[b])
        assert dt.frontier() == reference_frontier(dom, edges_in)


@settings(max_examples=100, deadline=None)
@given(terms=CFGS)
def test_predecessor_map_matches_per_block_scan(terms):
    fn = build(terms)
    preds = predecessor_map(fn)
    assert list(preds) == fn.blocks
    for block in fn.blocks:
        assert preds[block] == block.predecessors
