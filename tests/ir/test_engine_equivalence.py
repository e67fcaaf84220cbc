"""Differential tests: the pre-decoded engine must be observationally
identical to the legacy isinstance-dispatch interpreter.

Every program here runs under both engines and must produce identical
results, step counts, final memory images (slots *and* allocation
metadata), stdout, access-observer traces and — for partitioned runs —
runtime message statistics.  A hypothesis batch widens the coverage
beyond the hand-written corpus.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.colors import RELAXED
from repro.core.compiler import compile_and_partition
from repro.errors import RuntimeFault
from repro.frontend import compile_source
from repro.ir.interp import ENGINES, Machine
from repro.runtime.executor import PrivagicRuntime

# -- helpers ----------------------------------------------------------------------


def _memory_image(machine):
    return (
        dict(machine.memory._slots),
        [(a.base, a.size, a.region, a.label, a.live)
         for a in machine.memory._allocs],
    )


def _run(module, engine, observe=False):
    machine = Machine(module, engine=engine)
    trace = []
    if observe:
        machine.access_hooks.append(
            lambda ctx, addr, region, rw:
            trace.append((ctx.name, addr, region, rw)))
    ctx = machine.spawn("main", name="main")
    machine.run()
    return {
        "result": ctx.result,
        "ctx_steps": ctx.steps,
        "total_steps": machine.total_steps,
        "stdout": machine.stdout,
        "memory": _memory_image(machine),
        "trace": trace,
    }


def assert_equivalent(source, observe=False):
    module = compile_source(source)
    runs = {engine: _run(module, engine, observe)
            for engine in ENGINES}
    legacy = runs["legacy"]
    for engine, run in runs.items():
        for key in legacy:
            assert run[key] == legacy[key], \
                f"engine {engine} differs from legacy on {key}"
    return legacy


# -- hand-written corpus ------------------------------------------------------------

LOOP_SUM = """
    int main() {
        int acc = 1;
        for (int i = 0; i < 100; i = i + 1) {
            acc = acc + i * 3 - (acc / 7);
        }
        return acc;
    }
"""

ARRAYS = """
    int main() {
        int xs[10];
        for (int i = 0; i < 10; i = i + 1) {
            xs[i] = i * i;
        }
        int acc = 0;
        for (int i = 0; i < 10; i = i + 1) {
            acc = acc + xs[9 - i];
        }
        return acc;
    }
"""

RECURSION = """
    int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    int main() { return fib(12); }
"""

STRINGS = """
    int main() {
        char* name = "privagic";
        printf("hello %s %d\\n", name, 3);
        return strlen(name);
    }
"""

STRUCTS = """
    struct point { int x; int y; };
    int main() {
        struct point p;
        p.x = 3;
        p.y = 4;
        struct point* q = &p;
        q->x = q->x + q->y;
        return p.x * 10 + p.y;
    }
"""

SHORT_CIRCUIT = """
    int called = 0;
    int bump() { called = called + 1; return 1; }
    int main() {
        int a = 0 && bump();
        int b = 1 || bump();
        int c = (called == 0) ? 40 : 7;
        return a + b + c + called;
    }
"""

WHILE_MOD = """
    int main() {
        int n = 1;
        int steps = 0;
        int x = 27;
        while (x != 1) {
            if (x % 2 == 0) { x = x / 2; }
            else { x = 3 * x + 1; }
            steps = steps + 1;
        }
        return steps * n;
    }
"""

GLOBALS = """
    int counter = 5;
    int table[4];
    void tick(int by) { counter = counter + by; }
    int main() {
        for (int i = 0; i < 4; i = i + 1) {
            table[i] = counter;
            tick(i);
        }
        return counter * 100 + table[3];
    }
"""

CORPUS = [LOOP_SUM, ARRAYS, RECURSION, STRINGS, STRUCTS,
          SHORT_CIRCUIT, WHILE_MOD, GLOBALS]


@pytest.mark.parametrize("source", CORPUS,
                         ids=["loop_sum", "arrays", "recursion",
                              "strings", "structs", "short_circuit",
                              "while_mod", "globals"])
def test_corpus_equivalence(source):
    assert_equivalent(source)


@pytest.mark.parametrize("source", [LOOP_SUM, ARRAYS, GLOBALS],
                         ids=["loop_sum", "arrays", "globals"])
def test_corpus_equivalence_observed(source):
    """With an access observer attached both engines must report the
    exact same access trace (the decoded engine must leave its
    inlined memory fast path)."""
    run = assert_equivalent(source, observe=True)
    assert run["trace"], "observer saw no accesses"


def test_fault_equivalence():
    """Faults must carry identical messages at identical steps."""
    source = """
        int main() {
            int x = 9;
            int acc = 0;
            for (int i = 0; i < 5; i = i + 1) {
                acc = acc + x / (3 - i);
            }
            return acc;
        }
    """
    module = compile_source(source)
    outcomes = {}
    for engine in ENGINES:
        machine = Machine(module, engine=engine)
        machine.spawn("main", name="main")
        with pytest.raises(RuntimeFault) as exc:
            machine.run()
        outcomes[engine] = (str(exc.value), machine.total_steps)
    for engine in ENGINES:
        assert outcomes[engine] == outcomes["legacy"], engine


def test_unconvertible_constant_raises_where_legacy_does():
    """An op over a constant its coercion rejects (``1e999`` is inf,
    which ``int()`` refuses) raises when it executes, after the
    store before it, not when its block is decoded."""
    source = """
        long seen = 0;
        int main() {
            seen = 1;
            long x = 1e999;
            return x;
        }
    """
    module = compile_source(source)
    outcomes = {}
    for engine in ENGINES:
        machine = Machine(module, engine=engine)
        machine.spawn("main", name="main")
        with pytest.raises(OverflowError):
            machine.run()
        outcomes[engine] = (_memory_image(machine), machine.total_steps)
    for engine in ENGINES:
        assert outcomes[engine] == outcomes["legacy"], engine


def test_lockstep_interleaving():
    """Fig 3-style: two contexts sharing a global, stepped manually
    in an adversarial interleaving.  Both engines must show the same
    memory-observable state after every single step."""
    source = """
        int shared = 0;
        int writer() {
            for (int i = 0; i < 20; i = i + 1) {
                shared = shared + 1;
            }
            return shared;
        }
        int reader() {
            int seen = 0;
            for (int i = 0; i < 20; i = i + 1) {
                seen = seen + shared;
            }
            return seen;
        }
        int main() { return 0; }
    """
    module = compile_source(source)
    machines = {}
    for engine in ENGINES:
        machine = Machine(module, engine=engine)
        machine.spawn("writer", name="w")
        machine.spawn("reader", name="r")
        machines[engine] = machine

    def snapshot(machine):
        gv = machine.modules[0].globals["shared"]
        return (machine.total_steps,
                machine.memory.read(machine.global_address(gv)),
                tuple((c.finished, c.steps, c.result)
                      for c in machine.contexts))

    for step in range(500):
        index = step % 3 if step % 7 else (step + 1) % 2
        states = set()
        for engine, machine in machines.items():
            ctx = machine.contexts[index % len(machine.contexts)]
            if not ctx.finished:
                ctx.step()
            states.add(snapshot(machine))
        assert len(states) == 1, f"diverged at step {step}"


FIG6_PARTITIONED = """
    int color(U) unsafe_g = 0;
    int color(blue) blue_g = 10;
    int color(red) red_g = 0;

    void g(int n) {
        blue_g = n;
        red_g = n;
        printf("Hello\\n");
    }

    int f(int y) {
        g(21);
        return 42;
    }

    entry int main() {
        unsafe_g = 1;
        int x = f(blue_g);
        return x;
    }
"""


def test_partitioned_equivalence():
    """The Figure 6/7 protocol run — workers, channels, trampolines —
    must be identical under both engines, down to message stats and
    the access-observer trace."""
    program = compile_and_partition(FIG6_PARTITIONED, mode=RELAXED)
    runs = {}
    for engine in ENGINES:
        runtime = PrivagicRuntime(program, engine=engine)
        trace = []
        runtime.machine.access_hooks.append(
            lambda ctx, addr, region, rw:
            trace.append((ctx.name, addr, region, rw)))
        result = runtime.run("main")
        runs[engine] = {
            "result": result,
            "total_steps": runtime.machine.total_steps,
            "stdout": runtime.machine.stdout,
            "stats": runtime.stats.as_dict(),
            "memory": _memory_image(runtime.machine),
            "trace": trace,
        }
    for engine in ENGINES:
        assert runs[engine] == runs["legacy"], engine
    assert runs["legacy"]["result"] == 42


# -- hypothesis batch ---------------------------------------------------------------

_OPS = st.sampled_from(["+", "-", "*", "/", "%"])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(_OPS, st.integers(-40, 40)),
                min_size=1, max_size=6),
       st.integers(0, 12), st.integers(-100, 100))
def test_hypothesis_equivalence(ops, rounds, seed):
    body = []
    for op, value in ops:
        if op in "/%":
            value = abs(value) + 1  # keep the division total
        body.append(f"x = x {op} ({value});")
    source = """
        int main() {
            int x = %d;
            for (int i = 0; i < %d; i = i + 1) {
                %s
                if (x > 100000) { x = x - 100000; }
            }
            return x;
        }
    """ % (seed, rounds, "\n".join(body))
    assert_equivalent(source)
