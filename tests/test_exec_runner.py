"""Tests for the ExperimentRunner and its execution backends."""

import os
import time
from collections import OrderedDict

import numpy as np
import pytest

import repro.attacks.campaign as campaign_module
from repro.api import Session
from repro.exec import (
    ExperimentRunner,
    WorkUnit,
    available_backends,
    get_backend,
)
from repro.exec.backends import default_chunk_size, make_chunks

BACKENDS = ["serial", "thread", "process"]


# Module-level work functions so the process backend can pickle them.
def _square(x):
    return x * x


def _sleep_inverse(index):
    # Later units finish first: exercises result re-ordering.
    time.sleep(0.002 * (5 - index))
    return index


def _draw_digest(rng):
    return (float(rng.random()), float(rng.standard_normal()))


def _boom(x):
    raise RuntimeError(f"unit {x} failed")


class TestBackendRegistry:
    def test_available_backends(self):
        assert available_backends() == ["serial", "thread", "process"]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExperimentRunner("greenlet")

    def test_unknown_backend_error_names_valid_choices(self):
        # The rejection happens at construction (not first use) and the
        # message lists every valid choice.
        with pytest.raises(ValueError) as exc_info:
            ExperimentRunner("greenlet")
        message = str(exc_info.value)
        for name in ("serial", "thread", "process"):
            assert name in message

    def test_non_string_backend_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExperimentRunner(backend=42)

    def test_backend_instance_passthrough(self):
        backend = get_backend("thread")
        assert ExperimentRunner(backend).backend is backend

    def test_pickling_flag(self):
        assert get_backend("process").requires_pickling
        assert not get_backend("serial").requires_pickling
        assert not get_backend("thread").requires_pickling


class TestChunking:
    def test_make_chunks_partitions_in_order(self):
        units = [WorkUnit(i, _square, (i,)) for i in range(7)]
        chunks = make_chunks(units, 3)
        assert [len(c) for c in chunks] == [3, 3, 1]
        assert [u.index for c in chunks for u in c] == list(range(7))

    def test_make_chunks_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            make_chunks([], 0)

    def test_default_chunk_size_targets_four_chunks_per_worker(self):
        assert default_chunk_size(160, 4) == 10
        assert default_chunk_size(3, 8) == 1
        assert default_chunk_size(0, 4) == 1


class TestRunnerValidation:
    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            ExperimentRunner("thread", n_workers=0)

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError):
            ExperimentRunner("thread", chunk_size=0)

    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner().run_replications(_draw_digest, 0, seed=1)

    def test_default_backend_is_serial(self):
        assert ExperimentRunner().backend_name == "serial"


class TestMap:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_map_computes_and_orders(self, backend):
        runner = ExperimentRunner(backend, n_workers=3)
        assert runner.map(_square, [(i,) for i in range(20)]) == [
            i * i for i in range(20)
        ]

    def test_results_ordered_despite_completion_order(self):
        runner = ExperimentRunner("thread", n_workers=5, chunk_size=1)
        assert runner.map(_sleep_inverse, [(i,) for i in range(5)]) == (
            list(range(5))
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_map(self, backend):
        assert ExperimentRunner(backend).map(_square, []) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_exception_propagates(self, backend):
        runner = ExperimentRunner(backend, n_workers=2)
        with pytest.raises(RuntimeError, match="failed"):
            runner.map(_boom, [(1,), (2,)])


class TestReplicationDeterminism:
    REFERENCE = ExperimentRunner("serial").run_replications(
        _draw_digest, 30, seed=424242
    )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_same_seed_same_records_across_backends(self, backend):
        runner = ExperimentRunner(backend, n_workers=4)
        result = runner.run_replications(_draw_digest, 30, seed=424242)
        assert result == self.REFERENCE

    @pytest.mark.parametrize("n_workers", [1, 2, 3, 8])
    def test_same_seed_same_records_across_worker_counts(self, n_workers):
        runner = ExperimentRunner("process", n_workers=n_workers)
        result = runner.run_replications(_draw_digest, 30, seed=424242)
        assert result == self.REFERENCE

    def test_different_seeds_differ(self):
        other = ExperimentRunner().run_replications(
            _draw_digest, 30, seed=424243
        )
        assert other != self.REFERENCE

    def test_generator_seed_is_deterministic(self):
        a = ExperimentRunner().run_replications(
            _draw_digest, 5, seed=np.random.default_rng(9)
        )
        b = ExperimentRunner("thread", n_workers=2).run_replications(
            _draw_digest, 5, seed=np.random.default_rng(9)
        )
        assert a == b

    def test_common_args_are_forwarded(self):
        def _scaled(scale, rng):
            return scale * rng.random()

        tens = ExperimentRunner().run_replications(
            _scaled, 4, seed=3, common_args=(10.0,)
        )
        ones = ExperimentRunner().run_replications(
            _scaled, 4, seed=3, common_args=(1.0,)
        )
        assert tens == [10.0 * x for x in ones]


class TestSerialWorkerDefault:
    """``serial`` ignores the pool width, so its default must not follow
    the host's core count into the chunking and the telemetry."""

    @staticmethod
    def serial_metrics(monkeypatch, cores, **options):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        monkeypatch.setattr(
            campaign_module, "_trajectory_cache", OrderedDict()
        )
        session = Session(backend="serial", telemetry=True, **options)
        result = session.campaign("smoke", 64, seed=3)
        metrics = result.telemetry.metrics
        counters, gauges = metrics["counters"], metrics["gauges"]
        return session.runner.n_workers, counters, gauges

    def test_default_is_one_worker_on_any_host(self, monkeypatch):
        few = self.serial_metrics(monkeypatch, 2)
        many = self.serial_metrics(monkeypatch, 64)
        assert few == many
        n_workers, counters, gauges = few
        assert n_workers == 1
        assert gauges["exec.n_workers"] == 1
        assert counters["exec.units"] == 64
        assert counters["exec.chunks"] == 4  # ceil(64 / (4 * 1)) per chunk

    def test_explicit_width_is_reported_as_given(self, monkeypatch):
        n_workers, counters, gauges = self.serial_metrics(
            monkeypatch, 64, n_workers=2
        )
        assert n_workers == 2
        assert gauges["exec.n_workers"] == 2
        assert counters["exec.chunks"] == 8

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_backends_default_to_host_cores(self, monkeypatch, backend):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert ExperimentRunner(backend).n_workers == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert ExperimentRunner(backend).n_workers == 1
