"""Property-style tests for the runner's SeedSequence spawning discipline.

The guarantees under test (see repro/exec/seeding.py):

* no two replication streams ever share a seed;
* the stream of replication ``i`` is a pure function of the root seed
  and ``i`` — chunking or distributing the work differently never
  changes per-replication draws.
"""

import numpy as np
import pytest

from repro.exec import (
    ExperimentRunner,
    RetryPolicy,
    TransientWorkerError,
    as_seed_sequence,
    replication_generators,
    sequence_state,
    spawn_sequences,
    spawned_children,
    spawned_words,
)


def _first_draw(rng):
    return float(rng.random())


class TestAsSeedSequence:
    def test_int_seed_roundtrip(self):
        assert as_seed_sequence(42).entropy == 42

    def test_seed_sequence_preserves_identity(self):
        seq = np.random.SeedSequence(7, spawn_key=(3,))
        rebuilt = as_seed_sequence(seq)
        assert sequence_state(rebuilt) == sequence_state(seq)
        assert rebuilt.spawn_key == seq.spawn_key

    def test_seed_sequence_reuse_is_deterministic(self):
        # spawn() advances a SeedSequence's child counter, so a naive
        # pass-through would make the second run differ from the first.
        seq = np.random.SeedSequence(7)
        first = ExperimentRunner().run_replications(_first_draw, 3, seed=seq)
        second = ExperimentRunner().run_replications(_first_draw, 3, seed=seq)
        assert first == second

    def test_partially_spawned_seed_sequence_is_reset(self):
        fresh = np.random.SeedSequence(7)
        used = np.random.SeedSequence(7)
        used.spawn(5)  # advance the child counter
        assert [sequence_state(s) for s in as_seed_sequence(used).spawn(3)] == [
            sequence_state(s) for s in as_seed_sequence(fresh).spawn(3)
        ]

    def test_none_uses_fresh_entropy(self):
        a, b = as_seed_sequence(None), as_seed_sequence(None)
        assert a.entropy != b.entropy

    def test_generator_derivation_is_deterministic(self):
        roots = [
            as_seed_sequence(np.random.default_rng(99)) for _ in range(2)
        ]
        assert sequence_state(roots[0]) == sequence_state(roots[1])

    def test_generator_derivation_advances_the_generator(self):
        rng = np.random.default_rng(99)
        first = as_seed_sequence(rng)
        second = as_seed_sequence(rng)
        assert sequence_state(first) != sequence_state(second)

    def test_rejects_unsupported_types(self):
        with pytest.raises(TypeError):
            as_seed_sequence("42")


class TestSpawnIndependence:
    @pytest.mark.parametrize("count", [1, 2, 7, 64, 257])
    def test_no_two_replication_streams_share_a_seed(self, count):
        states = {
            sequence_state(seq) for seq in spawn_sequences(1234, count)
        }
        assert len(states) == count

    @pytest.mark.parametrize("count", [2, 16, 128])
    def test_first_draws_are_pairwise_distinct(self, count):
        draws = [
            rng.random() for rng in replication_generators(77, count)
        ]
        assert len(set(draws)) == count

    def test_streams_are_independent_of_sibling_count(self):
        # Child i is the same whether 10 or 1000 siblings are spawned.
        few = spawn_sequences(5, 10)
        many = spawn_sequences(5, 1000)
        for a, b in zip(few, many):
            assert sequence_state(a) == sequence_state(b)

    def test_spawn_is_reproducible(self):
        a = [sequence_state(s) for s in spawn_sequences(2026, 20)]
        b = [sequence_state(s) for s in spawn_sequences(2026, 20)]
        assert a == b

    def test_distinct_roots_give_distinct_children(self):
        a = {sequence_state(s) for s in spawn_sequences(1, 50)}
        b = {sequence_state(s) for s in spawn_sequences(2, 50)}
        assert not a & b

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_sequences(1, 0)


class TestChunkingInvariance:
    """Chunking the work differently never changes per-replication draws."""

    REFERENCE = ExperimentRunner("serial").run_replications(
        _first_draw, 24, seed=31337
    )

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 5, 24, 100])
    def test_chunk_size_never_changes_draws(self, chunk_size):
        runner = ExperimentRunner(
            "thread", n_workers=3, chunk_size=chunk_size
        )
        assert runner.run_replications(_first_draw, 24, seed=31337) == (
            self.REFERENCE
        )

    @pytest.mark.parametrize("n_workers", [1, 2, 5, 8])
    def test_worker_count_never_changes_draws(self, n_workers):
        runner = ExperimentRunner("thread", n_workers=n_workers)
        assert runner.run_replications(_first_draw, 24, seed=31337) == (
            self.REFERENCE
        )

    def test_splitting_a_batch_matches_one_big_batch(self):
        # Running [0..n) as one batch equals running the same spawned
        # sequences in two manually split halves.
        seqs = spawn_sequences(8, 10)
        whole = [
            _first_draw(np.random.default_rng(s)) for s in seqs
        ]
        halves = [
            _first_draw(np.random.default_rng(s)) for s in seqs[:5]
        ] + [_first_draw(np.random.default_rng(s)) for s in seqs[5:]]
        assert whole == halves


# ---- the bulk child-seed kernel ---------------------------------------------

#: Roots of every shape ``SeedSequence`` accepts: int entropy of one,
#: two and many words, OS entropy, sequence entropy longer than the
#: pool, a non-empty spawn key, a wider pool, and a root derived from a
#: ``Generator``.
KERNEL_ROOTS = {
    "int_zero": lambda: np.random.SeedSequence(0),
    "int_below_2_32": lambda: np.random.SeedSequence(2**32 - 1),
    "int_2_64": lambda: np.random.SeedSequence(2**64),
    "int_above_2_64": lambda: np.random.SeedSequence(2**64 + 12345),
    "int_huge": lambda: np.random.SeedSequence(3**200),
    "os_entropy": lambda: np.random.SeedSequence(None),
    "long_sequence": lambda: np.random.SeedSequence(list(range(1, 12))),
    "uint32_array": lambda: np.random.SeedSequence(
        np.arange(5, 11, dtype=np.uint32)
    ),
    "spawn_key": lambda: np.random.SeedSequence(7, spawn_key=(3, 2**40)),
    "pool_size_8": lambda: np.random.SeedSequence(9, pool_size=8),
    "generator_root": lambda: as_seed_sequence(np.random.default_rng(5)),
}


def _reference_generators(root, count):
    """What ``spawn`` + ``default_rng`` on a fresh copy of ``root`` gives."""
    fresh = np.random.SeedSequence(
        root.entropy, spawn_key=root.spawn_key, pool_size=root.pool_size
    )
    return [np.random.default_rng(child) for child in fresh.spawn(count)]


def _stream(rng):
    return (tuple(rng.random(3)), tuple(rng.integers(0, 2**63, 2)))


class TestSpawnedWordsKernel:
    @pytest.mark.parametrize("name", sorted(KERNEL_ROOTS))
    def test_words_match_numpy_spawn(self, name):
        root = KERNEL_ROOTS[name]()
        expected = [
            rng.bit_generator.seed_seq.generate_state(4, np.uint64)
            for rng in _reference_generators(root, 257)
        ]
        assert np.array_equal(spawned_words(root, 257), np.array(expected))

    @pytest.mark.parametrize("name", sorted(KERNEL_ROOTS))
    def test_streams_match_spawn_and_default_rng(self, name):
        root = KERNEL_ROOTS[name]()
        ours = [
            _stream(np.random.default_rng(child))
            for child in spawned_children(root, 40)
        ]
        expected = [_stream(rng) for rng in _reference_generators(root, 40)]
        assert ours == expected

    def test_root_is_not_advanced(self):
        root = np.random.SeedSequence(11)
        first = spawned_words(root, 8)
        assert root.n_children_spawned == 0
        assert np.array_equal(spawned_words(root, 8), first)

    def test_child_prefix_is_independent_of_count(self):
        root = np.random.SeedSequence(12)
        assert np.array_equal(
            spawned_words(root, 1000)[:10], spawned_words(root, 10)
        )

    def test_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="count"):
            spawned_words(np.random.SeedSequence(1), 0)

    def test_child_index_beyond_one_uint32_word_rejected(self):
        # Child 2**32 would need a two-word spawn-key entry.
        with pytest.raises(ValueError, match="uint32"):
            spawned_words(np.random.SeedSequence(1), 2**32 + 1)


class TestSpawnedSeedSequence:
    def _pair(self, index=3):
        root = np.random.SeedSequence(21, spawn_key=(4,))
        ours = spawned_children(root, index + 1)[index]
        real = np.random.SeedSequence(21, spawn_key=(4,)).spawn(index + 1)
        return ours, real[index]

    def test_is_a_spawnable_seed_sequence(self):
        from numpy.random.bit_generator import ISpawnableSeedSequence

        ours, _ = self._pair()
        assert isinstance(ours, ISpawnableSeedSequence)

    def test_identity_matches_the_real_child(self):
        ours, real = self._pair()
        assert ours.entropy == real.entropy
        assert ours.spawn_key == real.spawn_key == (4, 3)
        assert ours.pool_size == real.pool_size

    @pytest.mark.parametrize(
        "n_words, dtype",
        [(4, np.uint32), (8, np.uint32), (2, np.uint64), (4, "u8")],
    )
    def test_other_generate_state_requests_match(self, n_words, dtype):
        ours, real = self._pair()
        assert np.array_equal(
            ours.generate_state(n_words, dtype),
            real.generate_state(n_words, dtype),
        )

    def test_other_bit_generators_match(self):
        ours, real = self._pair()
        assert (
            np.random.Generator(np.random.Philox(ours)).random()
            == np.random.Generator(np.random.Philox(real)).random()
        )

    def test_spawn_advances_like_the_real_child(self):
        ours, real = self._pair()
        for n in (2, 3):
            assert [sequence_state(s) for s in ours.spawn(n)] == [
                sequence_state(s) for s in real.spawn(n)
            ]

    def test_as_seed_sequence_rebuilds_the_real_child(self):
        ours, real = self._pair()
        ours.spawn(2)
        rebuilt = as_seed_sequence(ours)
        assert isinstance(rebuilt, np.random.SeedSequence)
        assert rebuilt.spawn_key == real.spawn_key
        assert rebuilt.n_children_spawned == 0
        assert sequence_state(rebuilt) == sequence_state(real)

    def test_pickles(self):
        import pickle

        ours, real = self._pair()
        clone = pickle.loads(pickle.dumps(ours))
        assert _stream(np.random.default_rng(clone)) == _stream(
            np.random.default_rng(real)
        )


def _spawning_body(rng):
    """A replication that draws, spawns two ways and draws from the kids."""
    own = float(rng.random())
    kids = [float(child.random()) for child in rng.spawn(2)]
    more = [
        float(np.random.default_rng(seq).random())
        for seq in rng.bit_generator.seed_seq.spawn(2)
    ]
    return own, kids, more


def _reference_spawning_records(seed, count):
    return [
        _spawning_body(rng)
        for rng in _reference_generators(as_seed_sequence(seed), count)
    ]


def _batch_body(size, rng):
    return [float(x) for x in rng.random(size)]


class _FailOnceAfterSpawning:
    """Spawns from the unit's generator, then fails each unit once."""

    def __init__(self):
        self.failed = set()

    def __call__(self, rng):
        record = _spawning_body(rng)
        if record[0] not in self.failed:
            self.failed.add(record[0])
            raise TransientWorkerError("transient failure after seeding")
        return record


class TestRunnerSeedsMatchSpawn:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_records_match_spawn_and_default_rng(self, backend):
        runner = ExperimentRunner(backend, n_workers=2)
        assert runner.run_replications(_spawning_body, 12, seed=2**64 + 5) == (
            _reference_spawning_records(2**64 + 5, 12)
        )

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_batched_unit_seeds_match_spawn(self, backend):
        runner = ExperimentRunner(backend, n_workers=2)
        got = runner.run_batched_replications(
            _batch_body, 7, 3, seed=np.random.SeedSequence(8, spawn_key=(1,))
        )
        expected = [
            _batch_body(size, rng)
            for size, rng in zip(
                [3, 3, 1],
                _reference_generators(
                    np.random.SeedSequence(8, spawn_key=(1,)), 3
                ),
            )
        ]
        assert got == expected

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_retried_unit_that_spawned_reproduces_its_records(self, backend):
        runner = ExperimentRunner(
            backend,
            n_workers=2,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
        )
        records = runner.run_replications(_FailOnceAfterSpawning(), 6, seed=3)
        assert records == _reference_spawning_records(3, 6)
