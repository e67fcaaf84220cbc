"""The named passes the :class:`~repro.pipeline.manager.PassManager`
schedules.

Each pass declares whether it preserves the CFG shape
(``preserves_cfg``); CFG-mutating passes cause the shared
:class:`~repro.pipeline.analyses.AnalysisCache` to be invalidated
after they run.  ``run`` returns an optional dict of statistics that
is published as per-pass metrics.

The heavyweight imports (analysis, partitioner, struct rewriting)
happen inside ``run`` so the pipeline package stays import-light and
free of cycles with ``repro.core``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.pipeline.context import CompilationContext


class Pass:
    """Base class: a named transformation or analysis over a module."""

    #: Registry/CLI name of the pass.
    name = "pass"
    #: True when the pass never adds/removes blocks or edges, so every
    #: cached CFG analysis stays valid across it.
    preserves_cfg = False

    def run(self, ctx: CompilationContext) -> Optional[Dict[str, object]]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Pass {self.name}>"


class FunctionPass(Pass):
    """A pass applied to every defined function independently."""

    def run(self, ctx: CompilationContext) -> Dict[str, object]:
        totals: Dict[str, float] = {}
        for fn in ctx.module.defined_functions():
            stats = self.run_on_function(ctx, fn) or {}
            for key, value in stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def run_on_function(self, ctx: CompilationContext, fn):
        raise NotImplementedError


class Mem2RegPass(FunctionPass):
    """Promote allocas to SSA registers (paper §5.1)."""

    name = "mem2reg"
    preserves_cfg = True

    def run_on_function(self, ctx, fn):
        from repro.ir.passes.mem2reg import mem2reg
        return {"promoted": mem2reg(fn, cache=ctx.cache)}


class SimplifyCFGPass(FunctionPass):
    """Fold trivial branches, drop unreachable blocks, merge
    single-predecessor/single-successor chains."""

    name = "simplify-cfg"
    preserves_cfg = False

    def run_on_function(self, ctx, fn):
        from repro.ir.passes.simplifycfg import simplify_cfg
        simplified = simplify_cfg(fn)
        if simplified:
            ctx.cache.invalidate(fn)
        return {"simplified": simplified}


class ConstFoldPass(FunctionPass):
    """Fold arithmetic/comparison/select/cast operations whose
    operands are constants."""

    name = "constfold"
    preserves_cfg = True

    def run_on_function(self, ctx, fn):
        from repro.ir.passes.constfold import constant_fold
        return {"folded": constant_fold(fn)}


class DCEPass(FunctionPass):
    """Erase instructions with no users and no side effects."""

    name = "dce"
    preserves_cfg = True

    def run_on_function(self, ctx, fn):
        from repro.ir.passes.dce import dead_code_elimination
        return {"erased_dce": dead_code_elimination(fn)}


class StructRewritePass(Pass):
    """Split multi-color structures into per-color shadows (paper
    §7.2, relaxed mode; rejects them in hardened mode)."""

    name = "struct-rewrite"
    preserves_cfg = True

    def run(self, ctx):
        from repro.core.structs import rewrite_multicolor_structs
        rewrite_multicolor_structs(ctx.module, ctx.mode)
        return None


class SecureTypeAnalysisPass(Pass):
    """The stabilizing secure type analysis (paper §6).  Deposits the
    :class:`~repro.core.analysis.AnalysisResult` on the context; typing
    errors are collected, not raised — the ``partition`` pass (or the
    caller) decides whether to enforce them."""

    name = "secure-types"
    # Specializations are *added* but no existing CFG changes.
    preserves_cfg = True

    def run(self, ctx):
        from repro.core.analysis import analyze_module
        ctx.analysis = analyze_module(ctx.module, ctx.mode,
                                      entries=ctx.entries, check=False,
                                      cache=ctx.cache)
        return {"analysis_passes": ctx.analysis.passes,
                "analysis_errors": len(ctx.analysis.errors),
                "function_visits": ctx.analysis.function_visits}


class OptimizePlacementPass(Pass):
    """Cost-aware placement optimization (ROADMAP item 3): build the
    partition graph over the planner's protocol decisions, run the
    selected :class:`~repro.core.placement.PlacementPolicy`, and
    deposit the shared planner plus the verified decisions for the
    ``partition`` pass.  A no-op with the default ``none`` policy, so
    pipelines that never opt in stay bit-identical."""

    name = "optimize-placement"
    preserves_cfg = True

    def run(self, ctx):
        policy = ctx.optimize or "none"
        if policy == "none":
            return {"placement_moves": 0}
        from repro.core.analysis import analyze_module
        from repro.core.placement import (
            optimize_placement,
            placement_report,
        )
        if ctx.analysis is None:
            ctx.analysis = analyze_module(ctx.module, ctx.mode,
                                          entries=ctx.entries, check=False,
                                          cache=ctx.cache)
        ctx.analysis.check()
        ctx.planner, ctx.placement_graph, ctx.placement = \
            optimize_placement(ctx.analysis, policy, cache=ctx.cache)
        ctx.placement_report = placement_report(ctx.placement_graph,
                                                ctx.placement)
        return {"placement_moves": ctx.placement.moves,
                "placement_gain_cycles": round(
                    ctx.placement.gain_cycles, 1)}


class PartitionPass(Pass):
    """Rewrite the analyzed module into per-color partitions (paper
    §7).  Raises the first :class:`SecureTypeError` if the preceding
    analysis found violations.  Consumes the shared planner and the
    placement decisions when ``optimize-placement`` ran, and re-checks
    the optimized output structurally."""

    name = "partition"
    preserves_cfg = False

    def run(self, ctx):
        from repro.core.analysis import analyze_module
        from repro.core.partition import partition
        if ctx.analysis is None:
            ctx.analysis = analyze_module(ctx.module, ctx.mode,
                                          entries=ctx.entries, check=False,
                                          cache=ctx.cache)
        ctx.program = partition(ctx.analysis, ctx.sync_barriers,
                                cache=ctx.cache, planner=ctx.planner,
                                placement=ctx.placement)
        if ctx.placement is not None:
            from repro.core.placement import verify_placement
            verify_placement(ctx.program)
        return {"partitions": len(ctx.program.modules)}


class TraceCompilePass(Pass):
    """Precompute trace-tier loop-region plans (:mod:`repro.ir.trace`)
    for every function — the partition modules when partitioning ran,
    the input module otherwise — and stamp them with the structural
    fingerprint so a traced machine trusts them only while the IR is
    unchanged (and replans itself otherwise)."""

    name = "trace-compile"
    preserves_cfg = True

    def run(self, ctx):
        from repro.ir.engine import _fingerprint
        from repro.ir.trace import plan_function
        modules = (list(ctx.program.modules.values())
                   if ctx.program is not None else [ctx.module])
        functions = regions = 0
        for module in modules:
            for fn in module.defined_functions():
                plan = plan_function(fn, ctx.cache)
                fn._trace_plan = plan
                fn._trace_plan_fp = _fingerprint(fn)
                functions += 1
                regions += len(plan)
        return {"functions": functions, "regions": regions}


class VerifyPass(Pass):
    """Structural IR verification; fails the pipeline on malformed IR."""

    name = "verify"
    preserves_cfg = True

    def run(self, ctx):
        from repro.ir.verifier import verify_module
        verify_module(ctx.module, cache=ctx.cache)
        return None
