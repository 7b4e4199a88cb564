"""Deterministic, backend-invariant seed derivation for parallel runs.

The contract that makes parallel execution reproducible is simple: the
coordinator spawns **one child ``SeedSequence`` per work unit, up front,
before any work is distributed**.  Each unit then builds its own
:class:`numpy.random.Generator` from its pre-assigned sequence.  Because
the spawn happens centrally, the stream a replication sees is a pure
function of ``(root seed, replication index)`` — it cannot depend on the
backend, the number of workers, or how units are chunked across them.

This is the ``SeedSequence.spawn`` discipline recommended by NumPy for
parallel Monte-Carlo work.

Spawning one ``SeedSequence`` per replication and hashing it into a
``PCG64`` costs a few microseconds of Python per child.  For the
many-thousand-replication batches of the step-1 models,
:func:`spawned_words` computes the ``PCG64`` seed words of children
``0..n-1`` in one vectorized pass instead, and
:class:`SpawnedSeedSequence` hands them to ``default_rng`` — the
generators are bit-identical to the ``spawn`` + ``default_rng`` ones.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

#: Anything the runner accepts as a seed specification.
SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]


def as_seed_sequence(seed: SeedLike = None) -> np.random.SeedSequence:
    """Normalise ``seed`` into a :class:`numpy.random.SeedSequence`.

    Accepts:

    * ``None`` — fresh OS entropy (non-reproducible);
    * ``int`` — the usual fixed root seed;
    * :class:`~numpy.random.SeedSequence` (or the
      :class:`SpawnedSeedSequence` behind a replication's generator) —
      rebuilt from its entropy and spawn key.  The rebuild (rather than
      pass-through) matters:
      ``spawn()`` advances a sequence's internal child counter, so
      reusing one ``SeedSequence`` object across runs would otherwise
      spawn different children each time and silently break the
      same-seed ⇒ same-records guarantee;
    * :class:`~numpy.random.Generator` — a 63-bit root seed is drawn
      from the generator (advancing it by one draw).  This keeps APIs
      that historically took a shared generator deterministic: the same
      generator state always derives the same root sequence.

    Example:
        >>> root = as_seed_sequence(42)
        >>> [s.spawn_key for s in root.spawn(2)]
        [(0,), (1,)]
    """
    if isinstance(seed, (np.random.SeedSequence, SpawnedSeedSequence)):
        return np.random.SeedSequence(
            entropy=seed.entropy,
            spawn_key=seed.spawn_key,
            pool_size=seed.pool_size,
        )
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(seed)
    raise TypeError(
        "seed must be None, an int, a SeedSequence or a Generator; "
        f"got {type(seed).__name__}"
    )


# The SeedSequence hash constants (``numpy/random/bit_generator.pyx``).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
#: ``PCG64`` seeds itself from ``generate_state(4, np.uint64)``.
_PCG64_WORDS = 4


def _uint32_words(value: Any) -> List[int]:
    """Split SeedSequence entropy into its little-endian uint32 words.

    ``SeedSequence`` accepts a non-negative int or a (nested) sequence
    of them; an int is split low word first, and ``0`` is one word.
    """
    if isinstance(value, (int, np.integer)):
        n = int(value)
        if n < 0:
            raise ValueError(f"seed entropy must be non-negative, got {n}")
        words = [n & _MASK32]
        n >>= 32
        while n:
            words.append(n & _MASK32)
            n >>= 32
        return words
    return [word for item in value for word in _uint32_words(item)]


def _hashmix(value: int, hash_const: int) -> Tuple[int, int]:
    value ^= hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _hash_constants(
    hash_const: int, mult: int, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The XOR and multiplier constants of ``n`` successive hash steps.

    Step ``i`` XORs with the running constant, advances it by ``mult``
    and multiplies by the advanced value; the constants depend on no
    data, so ``n`` steps over ``n`` columns run as one array operation.
    Returns the ``(xor, mult)`` constant arrays.
    """
    xors: List[int] = []
    mults: List[int] = []
    for _ in range(n):
        xors.append(hash_const)
        hash_const = (hash_const * mult) & _MASK32
        mults.append(hash_const)
    return np.array(xors, dtype=np.uint32), np.array(mults, dtype=np.uint32)


#: ``generate_state`` cycles the pool into 8 ``uint32`` output words
#: (read back as 4 little-endian ``uint64``), each hashed with its own
#: constants.
_OUT_XOR, _OUT_MULT = _hash_constants(_INIT_B, _MULT_B, 2 * _PCG64_WORDS)


def spawned_words(root: np.random.SeedSequence, count: int) -> np.ndarray:
    """``PCG64`` seed words of children ``0..count-1`` of ``root``.

    Row ``i`` equals ``root.spawn(count)[i].generate_state(4,
    np.uint64)`` for a freshly built ``root``: this re-implements
    NumPy's SeedSequence entropy hash in ``uint32`` arithmetic.  The
    hash constants do not depend on the data, and children differ only
    in their last spawn-key word, so the shared prefix is mixed once in
    plain integer arithmetic and all children finish in lockstep, one
    array column per pool or output word.  ``root`` is only read —
    unlike ``spawn``, repeated calls give the same children.

    Raises:
        ValueError: If ``count < 1``, or a child index would not fit in
            one ``uint32`` spawn-key word (``count > 2**32``).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count - 1 > _MASK32:
        raise ValueError(
            f"child index {count - 1} does not fit in a uint32 spawn-key word"
        )
    pool_size = root.pool_size
    run_entropy = _uint32_words(root.entropy)
    # A spawned child always has a spawn key, so NumPy pads the run
    # entropy with zeros up to the pool size.
    run_entropy += [0] * (pool_size - len(run_entropy))
    prefix = run_entropy + _uint32_words(root.spawn_key)
    # SeedSequence.mix_entropy up to the child word; the pool is full
    # before it.
    hash_const = _INIT_A
    pool = []
    for word in prefix[:pool_size]:
        mixed, hash_const = _hashmix(word, hash_const)
        pool.append(mixed)
    for src in range(pool_size):
        for dst in range(pool_size):
            if src != dst:
                mixed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], mixed)
    for word in prefix[pool_size:]:
        for dst in range(pool_size):
            mixed, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], mixed)
    # The child word, hashed once per pool word and mixed into it: one
    # row per pool word, one column per child.
    xor, mult = _hash_constants(hash_const, _MULT_A, pool_size)
    child = np.arange(count, dtype=np.uint32) ^ xor[:, None]
    child *= mult[:, None]
    child ^= child >> _XSHIFT
    child *= np.uint32(_MIX_MULT_R)
    words = np.uint32(_MIX_MULT_L) * np.array(pool, dtype=np.uint32)
    words = words[:, None] - child
    words ^= words >> _XSHIFT
    # SeedSequence.generate_state(4, np.uint64), one row per output word.
    state = words[np.arange(2 * _PCG64_WORDS) % pool_size] ^ _OUT_XOR[:, None]
    state *= _OUT_MULT[:, None]
    state ^= state >> _XSHIFT
    return (
        np.ascontiguousarray(state.T, dtype="<u4")
        .view("<u8")
        .astype(np.uint64)
    )


class SpawnedSeedSequence(ISpawnableSeedSequence):
    """Child ``index`` of ``root``, carrying its ``PCG64`` seed words.

    ``words`` are the child's four ``uint64`` ``PCG64`` seed words (a
    row of :func:`spawned_words`).

    ``default_rng`` of one of these builds the same generator as
    ``default_rng`` of the real child ``SeedSequence``.  The real child
    is built only when something asks for more than the ``PCG64`` seed
    words — ``spawn()`` (e.g. ``rng.spawn()``) or another
    ``generate_state`` request — and is then kept, so repeated
    ``spawn()`` calls advance exactly like the real child's do.

    ``root`` is only read; its ``spawn`` counter is never touched.
    """

    __slots__ = ("_root", "_index", "_words", "_child")

    def __init__(
        self, root: np.random.SeedSequence, index: int, words: Sequence[int]
    ) -> None:
        self._root = root
        self._index = index
        self._words = words
        self._child = None

    @property
    def entropy(self) -> Any:
        return self._root.entropy

    @property
    def spawn_key(self) -> Tuple[int, ...]:
        return (*self._root.spawn_key, self._index)

    @property
    def pool_size(self) -> int:
        return self._root.pool_size

    def _sequence(self) -> np.random.SeedSequence:
        """The real child ``SeedSequence`` (built on first use)."""
        if self._child is None:
            self._child = np.random.SeedSequence(
                self.entropy,
                spawn_key=self.spawn_key,
                pool_size=self.pool_size,
            )
        return self._child

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == _PCG64_WORDS and dtype is np.uint64:
            return np.array(self._words, dtype=np.uint64)
        return self._sequence().generate_state(n_words, dtype)

    def spawn(self, n_children: int) -> List[np.random.SeedSequence]:
        return self._sequence().spawn(n_children)


def spawned_children(
    root: np.random.SeedSequence, count: int
) -> List[SpawnedSeedSequence]:
    """Children ``0..count-1`` of ``root``, without advancing ``root``.

    Each child seeds the same generator as the matching child of a
    fresh ``root.spawn(count)``, so a re-run of the same ``root`` object
    (a retried work unit, say) draws the same seeds again.
    """
    return [
        SpawnedSeedSequence(root, index, words)
        for index, words in enumerate(spawned_words(root, count).tolist())
    ]


def spawn_sequences(
    root: SeedLike, count: int
) -> List[np.random.SeedSequence]:
    """Spawn ``count`` independent child sequences of ``root``.

    Children are pairwise independent and deterministic given the root:
    child ``i`` is identical no matter how many other children exist or
    in which order they are consumed.

    Raises:
        ValueError: If ``count < 1``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return list(as_seed_sequence(root).spawn(count))


def replication_generators(
    root: SeedLike, count: int
) -> List[np.random.Generator]:
    """One independent :class:`~numpy.random.Generator` per replication."""
    return [
        np.random.default_rng(seq)
        for seq in spawned_children(as_seed_sequence(root), count)
    ]


def sequence_state(seq: np.random.SeedSequence, words: int = 4) -> tuple:
    """A hashable fingerprint of the stream ``seq`` would produce.

    Two sequences with equal fingerprints would seed identical
    generators; tests use this to assert stream independence.
    """
    return tuple(int(w) for w in seq.generate_state(words))
