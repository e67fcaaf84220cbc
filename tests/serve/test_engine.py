"""SecureKVEngine: the persistent partitioned KV app behind the
server — batching, persistence across drives, context retirement,
and an enclave index whose work per operation is flat in the
keyspace."""

import random

import pytest

from repro.serve.engine import SecureKVEngine, compile_secure_kv
from repro.serve.secure_source import NBUCKETS


@pytest.fixture(scope="module")
def program():
    return compile_secure_kv()


@pytest.fixture
def engine(program):
    return SecureKVEngine(program=program)


def test_partition_colors(program):
    assert set(program.colors) == {"U", "store"}


def test_basic_ops_one_batch(engine):
    digest = SecureKVEngine.digest
    replies = engine.execute([
        ("set", "k1", b"hello"),
        ("get", "k1"),
        ("get", "nope"),
        ("delete", "k1"),
        ("get", "k1"),
        ("delete", "k1"),
    ])
    assert replies == [1, digest(b"hello"), 0, 1, 0, 0]
    assert engine.drives == 1
    assert engine.ops_served == 6


def test_state_persists_across_drives(engine):
    digest = SecureKVEngine.digest
    assert engine.execute([("set", "a", b"1"), ("set", "b", b"2")]) \
        == [1, 1]
    assert engine.execute([("get", "a")]) == [digest(b"1")]
    assert engine.execute([("set", "a", b"3"), ("get", "a")]) \
        == [1, digest(b"3")]
    assert engine.execute([("get", "b")]) == [digest(b"2")]
    assert engine.drives == 4


def test_contexts_are_retired_between_drives(engine):
    for round_number in range(12):
        engine.execute([("set", f"k{round_number}", b"v"),
                        ("get", f"k{round_number}")])
    # Finished app contexts and their worker groups are pruned: a
    # long-lived server scans a constant-size context list.
    assert len(engine.runtime.machine.contexts) == 0
    assert engine.runtime._groups == {}


def test_batching_amortizes_fixed_costs(engine):
    """The whole point of the serve layer: per-op interpreter steps
    must not grow with batch size (the fixed per-drive costs are
    Python-side; steps/op should mildly *shrink* when batched)."""
    engine.execute([("set", "warm", b"x")] * 4)
    before = engine.steps
    engine.execute([("get", "warm")])
    single = engine.steps - before
    before = engine.steps
    engine.execute([("get", "warm")] * 16)
    batched = (engine.steps - before) / 16
    assert batched <= single


def test_empty_batch_is_a_noop(engine):
    assert engine.execute([]) == []
    assert engine.drives == 0


def test_unknown_op_is_rejected(engine):
    with pytest.raises(ValueError):
        engine.execute([("increment", "k")])


def test_digest_is_stable_nonzero_and_56bit():
    d1 = SecureKVEngine.digest(b"payload")
    assert d1 == SecureKVEngine.digest(b"payload")
    assert d1 != SecureKVEngine.digest(b"payload2")
    assert d1 % 2 == 1          # never the 0 miss reply
    assert 0 < d1 < (1 << 56)
    assert SecureKVEngine.digest("text") == \
        SecureKVEngine.digest(b"text")


# -- the enclave index ------------------------------------------------------------


def steps_per_op(program, records, ops=512):
    """Interpreter steps per operation of a seeded 50/50 get/set mix
    over ``records`` preloaded keys, driven in 16-op batches."""
    engine = SecureKVEngine(program=program)
    keys = [f"user{i}" for i in range(records)]
    for start in range(0, records, 16):
        engine.execute([("set", key, b"v")
                        for key in keys[start:start + 16]])
    rng = random.Random(7)
    mix = [("get", rng.choice(keys)) if rng.random() < 0.5
           else ("set", rng.choice(keys), b"w") for _ in range(ops)]
    before = engine.steps
    for start in range(0, ops, 16):
        engine.execute(mix[start:start + 16])
    return (engine.steps - before) / ops


def test_digests_reach_every_bucket():
    # Every digest is odd (the forced low bit), so an even bucket
    # count would leave the even buckets empty; the prime reaches
    # them all.
    used = {SecureKVEngine.digest(f"user{i}") % NBUCKETS
            for i in range(4 * NBUCKETS)}
    assert len(used) >= 0.9 * NBUCKETS


def test_steps_per_op_are_flat_in_the_keyspace(program):
    small = steps_per_op(program, 64)
    large = steps_per_op(program, 4096)
    assert large <= 1.5 * small, (small, large)


@pytest.mark.slow
def test_steps_per_op_at_16k_keys_within_2x_of_64(program):
    small = steps_per_op(program, 64)
    large = steps_per_op(program, 16384)
    assert large <= 2.0 * small, (small, large)
