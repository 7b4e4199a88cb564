"""repro.exec — deterministic parallel execution of experiment batches.

The subsystem's modules:

* :mod:`repro.exec.seeding` — central ``SeedSequence.spawn`` discipline
  that makes randomness a pure function of ``(root seed, unit index)``,
  with a vectorized kernel that derives many children's seeds at once;
* :mod:`repro.exec.backends` — ``serial`` / ``thread`` / ``process``
  execution strategies with order-preserving result collection;
* :mod:`repro.exec.runner` — :class:`ExperimentRunner`, the façade the
  measurement, campaign and SAN batch entry points build on;
* :mod:`repro.exec.options` — :class:`RunOptions`, the run's knobs;
* :mod:`repro.exec.resilience` — :class:`RetryPolicy`, the per-chunk
  watchdog and the pool-respawn/degradation ladder layered under the
  pool backends (retries re-use the originally spawned seeds, so fault
  tolerance never changes results).

See the "Parallel execution" and "Fault tolerance & chaos testing"
sections of the README for guidance on choosing a backend, worker
count and retry policy.
"""

from repro.exec.backends import (
    ExecutionBackend,
    ExecutionCancelled,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    UnpicklableWorkError,
    WorkUnit,
    available_backends,
    get_backend,
)
from repro.exec.options import RunOptions
from repro.exec.resilience import (
    ChunkTimeoutError,
    CorruptChunkError,
    DegradedExecutionWarning,
    RemoteTracebackError,
    RetryPolicy,
    TransientWorkerError,
)
from repro.exec.runner import (
    ExperimentRunner,
    batch_unit_sizes,
    validate_batch_args,
)
from repro.exec.seeding import (
    SeedLike,
    SpawnedSeedSequence,
    as_seed_sequence,
    replication_generators,
    sequence_state,
    spawn_sequences,
    spawned_children,
    spawned_words,
)

__all__ = [
    "ChunkTimeoutError",
    "CorruptChunkError",
    "DegradedExecutionWarning",
    "ExecutionBackend",
    "ExecutionCancelled",
    "ExperimentRunner",
    "ProcessBackend",
    "RemoteTracebackError",
    "RetryPolicy",
    "RunOptions",
    "SeedLike",
    "SerialBackend",
    "SpawnedSeedSequence",
    "ThreadBackend",
    "TransientWorkerError",
    "UnpicklableWorkError",
    "WorkUnit",
    "as_seed_sequence",
    "available_backends",
    "batch_unit_sizes",
    "validate_batch_args",
    "get_backend",
    "replication_generators",
    "sequence_state",
    "spawn_sequences",
    "spawned_children",
    "spawned_words",
]
