"""Dirty-set stabilization of the secure type analysis (§5.2).

A global round re-analyzes only the specializations a visit could
still change: new ones, ones whose local fixpoint hit its cap, and
callers of a function whose return color changed.  These tests pin
the work that saves and check that skipping clean specializations is
exact: one more full sweep over every specialization must change no
color and find no new error.
"""

import ast
import os

import pytest

from repro.apps.minicache.minic_source import FULL_ANNOTATED
from repro.core.analysis import _Analyzer, _scan_address_taken
from repro.core.colors import HARDENED, RELAXED
from repro.obs import MetricsRegistry
from repro.pipeline import PassManager
from repro.secval import frontend_by_name
from repro.serve.secure_source import SECURE_KV_SOURCE

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
RULES_TESTS = os.path.join(ROOT, "tests", "core",
                           "test_typesystem_rules.py")
PRE_ANALYSIS = ("mem2reg", "constfold", "simplify-cfg", "dce",
                "struct-rewrite")


def _read(relative):
    with open(os.path.join(ROOT, relative)) as handle:
        return handle.read()


CORPUS = {
    "fig7": ("minic", _read("examples/fig7.c")),
    "secure_counter": ("minipy", _read("examples/secure_counter.mpy")),
    "served_kv": ("minic", SECURE_KV_SOURCE),
    "minicache": ("minic", FULL_ANNOTATED),
}


def rejected_programs():
    """(source, mode) of every ``rejects(...)`` call in the Table 3
    rule tests, read from that file's syntax tree."""
    modes = {"HARDENED": HARDENED, "RELAXED": RELAXED}
    with open(RULES_TESTS) as handle:
        tree = ast.parse(handle.read())
    programs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                getattr(node.func, "id", None) == "rejects":
            mode = HARDENED
            if len(node.args) > 2:
                mode = modes[node.args[2].id]
            programs.append((node.args[0].value, mode))
    return programs


def _analyze(frontend, source, mode):
    """The analysis as the default pipeline runs it, keeping the
    analyzer so a test can sweep again."""
    module = frontend_by_name(frontend).compile_source(source, "app")
    ctx = PassManager(PRE_ANALYSIS).run(module, mode=mode)
    _scan_address_taken(ctx.module)
    analyzer = _Analyzer(ctx.module, mode, cache=ctx.cache)
    return analyzer, analyzer.run()


def _colors(result):
    return {name: (dict(fa.reg_colors), dict(fa.inst_colors),
                   dict(fa.block_colors), fa.return_color,
                   set(fa.color_set))
            for name, fa in result.functions.items()}


def _assert_extra_sweep_is_a_no_op(analyzer, result):
    colors = _colors(result)
    errors = list(result.errors)
    for fa in list(result.functions.values()):
        analyzer.analyze_function(fa)
    assert _colors(result) == colors
    assert result.errors == errors


@pytest.mark.parametrize("mode", [HARDENED, RELAXED])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_extra_sweep_changes_nothing_on_the_corpus(name, mode):
    frontend, source = CORPUS[name]
    analyzer, result = _analyze(frontend, source, mode)
    _assert_extra_sweep_is_a_no_op(analyzer, result)


def test_rule_tests_reject_programs():
    # Guards the syntax-tree scan below against silently finding none.
    assert len(rejected_programs()) >= 9


@pytest.mark.parametrize("source,mode", rejected_programs())
def test_extra_sweep_changes_nothing_on_rejected_programs(source, mode):
    analyzer, result = _analyze("minic", source, mode)
    assert result.errors
    _assert_extra_sweep_is_a_no_op(analyzer, result)


def test_a_capped_local_fixpoint_is_visited_again():
    # Each phi of the loop header takes its color from the phi after
    # it, so the color crosses one phi per local iteration: 40 phis
    # exceed the 30-iteration cap, and the next round must resume.
    n = 40
    moves = "\n".join(f"a{i + 1} = a{i};" for i in range(n - 1, 0, -1))
    source = f"""
        long color(blue) secret = 7;
        long color(blue) sink = 0;
        entry void f(long n) {{
            {" ".join(f"long a{i} = 0;" for i in range(1, n + 1))}
            for (long i = 0; i < n; i = i + 1) {{
                {moves}
                a1 = secret;
            }}
            sink = a{n};
        }}
    """
    analyzer, result = _analyze("minic", source, HARDENED)
    assert not result.errors
    assert result.function_visits == 2
    _assert_extra_sweep_is_a_no_op(analyzer, result)


def test_minicache_hardened_visits_few_specializations():
    # Every specialization in every round was 101 visits over 8 rounds.
    metrics = MetricsRegistry()
    module = frontend_by_name("minic").compile_source(FULL_ANNOTATED,
                                                      "app")
    ctx = PassManager().run(module, mode=HARDENED, metrics=metrics)
    assert ctx.analysis.passes == 8
    visits = metrics["pipeline.pass.function_visits[secure-types]"].get()
    assert visits == ctx.analysis.function_visits
    assert 0 < visits <= 30
