"""The SAN structure-of-arrays batch engine.

Determinism contract under test:

* ``batch_size=1`` (and single-lane engine batches) are **bit-exact**
  against the scalar engine from the same seeds.
* Wider batches are **distribution-identical** — the same draws are
  consumed in batched order, so statistics agree but individual runs
  need not.
"""

import math
import pickle

import numpy as np
import pytest

from repro.exec import ExperimentRunner
from repro.san.batched import PlaceThreshold, SANBatchEngine, _row_marking
from repro.san.ctmc import san_to_ctmc
from repro.san.model import SANMarking, SANModel, simple_case
from repro.san.simulator import DEFAULT_BATCH_SIZE, SANSimulator, SimulationRun
from repro.scenarios.registry import SCENARIOS
from repro.stats.distributions import Exponential
from repro.telemetry import Telemetry
from repro.telemetry.report import render_snapshot


def pipeline_model(stages: int = 3) -> SANModel:
    """A lockstep pipeline whose stages branch 60/40 between advancing
    and dropping the token — the final marking is genuinely random."""
    model = SANModel("pipe")
    for i in range(stages):
        model.add_timed_activity(
            f"a{i}",
            distribution=Exponential(1.0),
            input_places={f"s{i}": 1},
            cases=[
                simple_case({f"s{i + 1}": 1}, probability=0.6, label="go"),
                simple_case({"dropped": 1}, probability=0.4, label="drop"),
            ],
        )
    model.set_initial("s0", 1)
    return model


def runs_equal(a, b) -> bool:
    if a.final_marking.as_dict() != b.final_marking.as_dict():
        return False
    if a.end_time != b.end_time:
        return False
    if not (
        a.stop_time == b.stop_time
        or (math.isnan(a.stop_time) and math.isnan(b.stop_time))
    ):
        return False
    return a.completions == b.completions


class TestBitExactness:
    def test_batch_size_one_matches_scalar_runner_path(self):
        sim = SANSimulator(pipeline_model())
        scalar = ExperimentRunner().run_replications(
            sim.simulate, 7, seed=123, common_args=(50.0,)
        )
        batched = sim.batch(50.0, 7, rng=123, batch_size=1)
        assert len(batched) == len(scalar) == 7
        for a, b in zip(scalar, batched):
            assert runs_equal(a, b)

    def test_single_lane_engine_matches_simulate(self):
        model = pipeline_model()
        engine = SANBatchEngine(model)
        assert engine.vectorizable, engine.fallback_reason
        for seed in range(10):
            lane = engine.run(50.0, 1, np.random.default_rng(seed))[0]
            scalar = SANSimulator(model).simulate(
                50.0, np.random.default_rng(seed)
            )
            assert runs_equal(lane, scalar)

    def test_single_lane_stop_time_matches(self):
        """nan/finite stop times agree lane-for-lane at B=1."""
        model = pipeline_model()
        stop = PlaceThreshold("s2", 1)
        engine = SANBatchEngine(model)
        saw_hit = saw_miss = False
        for seed in range(20):
            lane = engine.run(
                50.0, 1, np.random.default_rng(seed), stop=stop
            )[0]
            scalar = SANSimulator(model).simulate(
                50.0, np.random.default_rng(seed), stop=stop
            )
            assert runs_equal(lane, scalar)
            if math.isnan(lane.stop_time):
                saw_miss = True
            else:
                saw_hit = True
        assert saw_hit and saw_miss


class TestEdgeCases:
    def test_all_lanes_stop_at_time_zero(self):
        """A predicate already true at the initial marking retires every
        lane before any draw — scalar semantics, batched."""
        model = pipeline_model()
        runs = SANBatchEngine(model).run(
            50.0, 5, np.random.default_rng(0), stop=PlaceThreshold("s0", 1)
        )
        assert len(runs) == 5
        for run in runs:
            assert run.stop_time == 0.0
            assert run.end_time == 0.0
            assert run.completions == []
            assert run.final_marking.as_dict() == {"s0": 1}

    def test_ragged_final_batch(self):
        """replications % batch_size != 0 — the tail unit is smaller but
        every replication still runs, deterministically."""
        sim = SANSimulator(pipeline_model())
        first = sim.batch(50.0, 5, rng=7, batch_size=2)
        again = sim.batch(50.0, 5, rng=7, batch_size=2)
        assert len(first) == 5
        for a, b in zip(first, again):
            assert runs_equal(a, b)

    def test_batch_size_larger_than_replications(self):
        sim = SANSimulator(pipeline_model())
        runs = sim.batch(50.0, 3, rng=7, batch_size=64)
        assert len(runs) == 3

    def test_engine_run_is_the_one_shot_entry_point(self):
        """``SANBatchEngine(model).run`` replaces the removed module
        helper ``simulate_batch``: one generator, ``size`` lanes."""
        import repro.san.batched as batched

        assert not hasattr(batched, "simulate_batch")
        first = SANBatchEngine(pipeline_model()).run(
            50.0, 4, np.random.default_rng(3)
        )
        again = SANBatchEngine(pipeline_model()).run(
            50.0, 4, np.random.default_rng(3)
        )
        assert len(first) == 4
        for a, b in zip(first, again):
            assert runs_equal(a, b)


class TestDistributionalIdentity:
    def test_terminal_place_distribution_matches_scalar(self):
        """P(token reaches s3) is 0.6^3; batched and scalar estimates
        agree within sampling error at a fixed seed."""
        model = pipeline_model()
        n = 800
        sim = SANSimulator(model)
        scalar = sim.batch(50.0, n, rng=99, batch_size=1)
        batched = sim.batch(50.0, n, rng=99, batch_size=n)
        p_scalar = sum(
            r.final_marking.as_dict().get("s3", 0) for r in scalar
        ) / n
        p_batched = sum(
            r.final_marking.as_dict().get("s3", 0) for r in batched
        ) / n
        p = 0.6 ** 3
        bound = 4.0 * math.sqrt(p * (1 - p) / n)
        assert abs(p_scalar - p) < bound
        assert abs(p_batched - p) < bound
        assert abs(p_scalar - p_batched) < 2 * bound

    def test_mean_end_time_matches_scalar(self):
        model = pipeline_model()
        n = 800
        sim = SANSimulator(model)
        scalar = np.mean(
            [r.end_time for r in sim.batch(50.0, n, rng=5, batch_size=1)]
        )
        batched = np.mean(
            [r.end_time for r in sim.batch(50.0, n, rng=5, batch_size=n)]
        )
        assert abs(scalar - batched) < 0.25


def _impaired(marking) -> bool:
    return marking["impaired"] > 0


class TestDefaultBatchSize:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_default_is_explicit_default_lane_count(self, backend):
        """No ``batch_size`` runs units of DEFAULT_BATCH_SIZE lanes —
        bit for bit, on every backend, ragged tail included."""
        assert DEFAULT_BATCH_SIZE == 1024
        sim = SANSimulator(pipeline_model())
        stop = PlaceThreshold("s2", 1)
        runner = ExperimentRunner(backend, n_workers=2)
        n = DEFAULT_BATCH_SIZE + 300
        default = sim.batch(50.0, n, rng=17, stop=stop, runner=runner)
        explicit = sim.batch(
            50.0, n, rng=17, stop=stop, batch_size=DEFAULT_BATCH_SIZE
        )
        assert len(default) == len(explicit) == n
        assert all(runs_equal(a, b) for a, b in zip(default, explicit))

    def test_default_unit_count(self):
        sim = SANSimulator(pipeline_model())
        telemetry = Telemetry()
        with telemetry.activate():
            sim.batch(50.0, 2 * DEFAULT_BATCH_SIZE + 5, rng=1)
        snapshot = telemetry.snapshot()
        assert snapshot.counter("batch.batches") == 3
        assert snapshot.span_paths()["exec.map/san.simulate"]["count"] == 3


@pytest.mark.parametrize("name", ["cooling_stuxnet", "smart_grid_stuxnet"])
class TestPaperSANs:
    """The default (vectorized) path on the paper's step-1 SANs."""

    N = 20_000
    SEED = 0

    def test_default_path_matches_exact_mass_and_scalar_times(self, name):
        from scipy.stats import ks_2samp

        scenario = SCENARIOS.get(name)
        model = scenario.build_san_model(give_up=True)
        ctmc = san_to_ctmc(model)
        distribution = ctmc.transient_distribution(scenario.horizon)
        exact = float(
            sum(
                distribution[index]
                for index, state in enumerate(ctmc.states)
                if dict(state).get("impaired")
            )
        )
        sim = SANSimulator(model)
        default = sim.batch(
            scenario.horizon, self.N, rng=self.SEED, stop=_impaired
        )
        scalar = sim.batch(
            scenario.horizon, self.N, rng=self.SEED, stop=_impaired,
            batch_size=1,
        )
        hits = sum(run.stopped for run in default)
        assert 0.0 < exact < 1.0
        z = (hits / self.N - exact) / math.sqrt(exact * (1 - exact) / self.N)
        assert abs(z) < 4.0
        times = [run.stop_time for run in default if run.stopped]
        reference = [run.stop_time for run in scalar if run.stopped]
        assert ks_2samp(times, reference).pvalue > 1e-3


class TestStopPredicateDedupe:
    """A plain-callable stop runs once per distinct marking row."""

    def test_mask_equals_per_row_evaluation(self):
        engine = SANBatchEngine(pipeline_model())
        rng = np.random.default_rng(4)
        markings = rng.integers(0, 3, size=(400, len(engine.places)))
        rows = np.sort(rng.choice(400, size=250, replace=False))
        calls = []

        def stop(marking):
            calls.append(marking.as_dict())
            return marking["s1"] + 2 * marking["dropped"] >= 3

        mask = engine._stop_mask(stop, markings, rows)
        per_row = [
            stop(_row_marking(engine.places, row)) for row in markings[rows]
        ]
        assert mask.tolist() == per_row
        distinct = np.unique(markings[rows], axis=0).shape[0]
        assert len(calls) - len(per_row) == distinct < len(rows)

    def test_calls_bounded_by_distinct_rows_per_step(self, monkeypatch):
        model = pipeline_model(stages=4)
        calls = [0]

        def stop(marking):
            calls[0] += 1
            return marking["s3"] >= 1

        original = SANBatchEngine._stop_mask
        steps = []

        def counted(self, predicate, markings, rows=None):
            before = calls[0]
            mask = original(self, predicate, markings, rows)
            fired = markings if rows is None else markings[rows]
            distinct = np.unique(fired, axis=0).shape[0]
            steps.append((calls[0] - before, distinct, fired.shape[0]))
            return mask

        monkeypatch.setattr(SANBatchEngine, "_stop_mask", counted)
        runs = SANBatchEngine(model).run(
            50.0, 500, np.random.default_rng(8), stop=stop
        )
        assert steps
        assert all(n <= distinct for n, distinct, _ in steps)
        assert sum(n for n, _, _ in steps) < sum(f for _, _, f in steps)
        monkeypatch.undo()
        vectorized = SANBatchEngine(model).run(
            50.0, 500, np.random.default_rng(8), stop=PlaceThreshold("s3")
        )
        assert all(runs_equal(a, b) for a, b in zip(runs, vectorized))

    def test_placeless_model_evaluates_the_empty_marking(self):
        """A model without places has zero-width marking rows."""
        model = SANModel("clock")
        model.add_timed_activity(
            "tick",
            distribution=Exponential(1.0),
            input_places={},
            cases=[simple_case({}, probability=1.0)],
        )
        seen = []

        def stop(marking):
            seen.append(marking.as_dict())
            return False

        runs = SANBatchEngine(model).run(
            5.0, 4, np.random.default_rng(0), stop=stop
        )
        assert len(runs) == 4 and not any(run.stopped for run in runs)
        assert len(seen) > 1 and all(m == {} for m in seen)


class TestValidation:
    def test_replications_must_be_integer(self):
        sim = SANSimulator(pipeline_model())
        with pytest.raises(
            TypeError, match=r"replications must be an integer, got 2\.5"
        ):
            sim.batch(50.0, 2.5)
        with pytest.raises(
            TypeError, match=r"replications must be an integer, got True"
        ):
            sim.batch(50.0, True)

    def test_replications_must_be_positive(self):
        sim = SANSimulator(pipeline_model())
        with pytest.raises(
            ValueError, match=r"replications must be >= 1, got 0"
        ):
            sim.batch(50.0, 0)

    def test_batch_size_must_be_integer(self):
        sim = SANSimulator(pipeline_model())
        with pytest.raises(
            TypeError, match=r"batch_size must be an integer, got 2\.5"
        ):
            sim.batch(50.0, 4, batch_size=2.5)
        with pytest.raises(
            TypeError, match=r"batch_size must be an integer, got True"
        ):
            sim.batch(50.0, 4, batch_size=True)

    def test_batch_size_must_be_positive(self):
        sim = SANSimulator(pipeline_model())
        with pytest.raises(
            ValueError, match=r"batch_size must be >= 1, got 0"
        ):
            sim.batch(50.0, 4, batch_size=0)

    def test_engine_rejects_empty_batch(self):
        with pytest.raises(ValueError, match=r"size must be >= 1, got 0"):
            SANBatchEngine(pipeline_model()).run(
                50.0, 0, np.random.default_rng(0)
            )


class TestPlaceThreshold:
    def test_rejects_non_positive_threshold(self):
        with pytest.raises(ValueError, match=r"min_tokens must be >= 1"):
            PlaceThreshold("s0", 0)

    def test_scalar_and_batch_agree(self):
        stop = PlaceThreshold("s1", 2)
        index = {"s0": 0, "s1": 1}
        markings = np.array([[0, 2], [3, 1], [0, 5]])
        mask = stop.batch_mask(markings, index)
        assert mask.tolist() == [True, False, True]

    def test_unknown_place_never_stops(self):
        stop = PlaceThreshold("missing")
        mask = stop.batch_mask(np.ones((4, 2), dtype=np.int64), {"s0": 0})
        assert not mask.any()


class TestTelemetry:
    def test_batch_counters_and_headline(self):
        sim = SANSimulator(pipeline_model())
        telemetry = Telemetry()
        with telemetry.activate():
            sim.batch(50.0, 64, rng=1, batch_size=32)
        snapshot = telemetry.snapshot()
        assert snapshot.counter("batch.batches") == 2
        assert snapshot.counter("batch.lanes") == 64
        assert snapshot.counter("batch.lane_retirements") == 64
        assert snapshot.counter("batch.steps") > 0
        report = render_snapshot(snapshot)
        assert "batch: 64 lanes in 2 batches" in report
        assert "lane utilization" in report


class TestFallbackEvent:
    @staticmethod
    def _instantaneous_model() -> SANModel:
        model = SANModel("inst")
        model.add_timed_activity(
            "arrive",
            distribution=Exponential(1.0),
            input_places={"idle": 1},
            output_places={"queued": 1},
        )
        model.add_instantaneous_activity(
            "serve", input_places={"queued": 1}, output_places={"done": 1}
        )
        model.set_initial("idle", 1)
        return model

    def test_fallback_emits_event_while_telemetry_is_active(self):
        engine = SANBatchEngine(self._instantaneous_model())
        assert not engine.vectorizable
        telemetry = Telemetry()
        with telemetry.activate():
            runs = engine.run(5.0, 3, np.random.default_rng(0))
        assert [run.final_marking.as_dict() for run in runs] == [
            {"done": 1}
        ] * 3
        events = [e for e in telemetry.events if e["kind"] == "batch.fallback"]
        assert events == [
            {
                "kind": "batch.fallback",
                "engine": "san",
                "fallback_reason": engine.fallback_reason,
                "seq": events[0]["seq"],
            }
        ]
        assert "instantaneous" in engine.fallback_reason

    def test_vectorized_run_emits_no_fallback_event(self):
        telemetry = Telemetry()
        with telemetry.activate():
            SANBatchEngine(pipeline_model()).run(
                5.0, 3, np.random.default_rng(0)
            )
        assert not [
            e for e in telemetry.events if e["kind"] == "batch.fallback"
        ]


class TestEnginePerBatchCall:
    def _count_engines(self, monkeypatch):
        built = []
        original = SANBatchEngine.__init__

        def counting(self, model):
            built.append(model)
            original(self, model)

        monkeypatch.setattr(SANBatchEngine, "__init__", counting)
        return built

    def test_one_engine_serves_every_unit(self, monkeypatch):
        built = self._count_engines(monkeypatch)
        sim = SANSimulator(pipeline_model())
        telemetry = Telemetry()
        with telemetry.activate():
            runs = sim.batch(50.0, 100, rng=3, batch_size=32)
        assert len(runs) == 100
        assert telemetry.snapshot().counter("batch.batches") == 4
        assert len(built) == 1

    def test_scalar_paths_build_no_engine(self, monkeypatch):
        built = self._count_engines(monkeypatch)
        SANSimulator(pipeline_model()).batch(50.0, 5, rng=3, batch_size=1)
        SANSimulator(pipeline_model()).batch(50.0, 1, rng=3)
        assert built == []


def _lazy_unit(seed: int = 5, size: int = 64):
    """One engine unit of lazy runs; some lanes stop, some drop."""
    return SANBatchEngine(pipeline_model(stages=4)).run(
        50.0, size, np.random.default_rng(seed), stop=PlaceThreshold("s3")
    )


def _record(run):
    """A run's exact fields (NaN-safe)."""
    return (
        run.final_marking.freeze(),
        run.end_time.hex(),
        repr(run.stop_time),
        list(run.completions),
    )


def _replay(completions):
    """The pipeline marking the completions imply from ``{s0: 1}``."""
    counts = {"s0": 1}
    for _, name, label in completions:
        stage = int(name[1:])
        counts[f"s{stage}"] -= 1
        target = f"s{stage + 1}" if label == "go" else "dropped"
        counts[target] = counts.get(target, 0) + 1
    return {place: count for place, count in counts.items() if count}


class TestLazyRuns:
    """Engine runs build marking and completions on first access."""

    def test_fields_are_unread_until_accessed_then_cached(self):
        run = _lazy_unit()[0]
        assert run._final_marking is None and run._completions is None
        marking = run.final_marking
        assert run._unit is not None  # completions still need the unit
        completions = run.completions
        assert run.final_marking is marking
        assert run.completions is completions
        assert run._unit is None  # both built: the columns are released

    def test_each_lane_matches_its_own_event_log(self):
        """Every lane's completions replay to its final marking, end at
        its stop time and are chronological."""
        runs = _lazy_unit(size=200)
        assert {run.stopped for run in runs} == {True, False}
        assert any(run.final_marking["dropped"] for run in runs)
        for run in runs:
            times = [t for t, _, _ in run.completions]
            assert times == sorted(times)
            assert _replay(run.completions) == run.final_marking.as_dict()
            if run.stopped:
                assert times[-1] == run.stop_time == run.end_time

    def test_lazy_run_equals_eager_run_with_same_fields(self):
        lazy, reference = _lazy_unit(), _lazy_unit()
        for run, ref in zip(lazy, reference):
            eager = SimulationRun(
                ref.final_marking.copy(),
                ref.end_time,
                run.stop_time,  # NaN != NaN: share the float, as fields do
                list(ref.completions),
            )
            assert run._final_marking is None  # still unread
            assert run == eager and eager == run
        run = lazy[0]
        fields = (
            run.final_marking, run.end_time, run.stop_time, run.completions
        )
        for index, changed in enumerate([
            SANMarking({"elsewhere": 1}),
            run.end_time + 1.0,
            run.end_time + 2.0,
            run.completions + [(99.0, "a9", "go")],
        ]):
            other = list(fields)
            other[index] = changed
            assert run != SimulationRun(*other)
        assert run != _record(run)

    def test_repr_matches_eager_and_dataclass_format(self):
        unread, reference = _lazy_unit(), _lazy_unit()
        assert [repr(run) for run in unread] == [
            repr(
                SimulationRun(
                    ref.final_marking, ref.end_time, ref.stop_time,
                    ref.completions,
                )
            )
            for ref in reference
        ]
        run = SimulationRun(
            SANMarking({"s1": 1}), 1.5, float("nan"), [(1.5, "a0", "go")]
        )
        assert repr(run) == (
            "SimulationRun(final_marking=SANMarking({s1:1}), end_time=1.5, "
            "stop_time=nan, completions=[(1.5, 'a0', 'go')])"
        )

    def test_pickle_round_trip_unread_and_read(self):
        reference = [_record(run) for run in _lazy_unit()]
        unread = pickle.loads(pickle.dumps(_lazy_unit()))
        assert unread[0]._final_marking is None
        assert [_record(run) for run in unread] == reference
        read = _lazy_unit()
        assert [_record(run) for run in read] == reference
        assert [
            _record(run) for run in pickle.loads(pickle.dumps(read))
        ] == reference
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            single = pickle.loads(pickle.dumps(_lazy_unit()[3], protocol))
            assert _record(single) == reference[3]

    def test_mutating_one_lane_leaves_the_others_alone(self):
        reference = [_record(run) for run in _lazy_unit()]
        runs = _lazy_unit()
        shared = [
            i for i, rec in enumerate(reference) if rec[0] == reference[0][0]
        ]
        assert len(shared) > 1  # lanes with the same final marking
        runs[0].final_marking["intruder"] = 7
        runs[0].completions.append((99.0, "a9", "go"))
        assert runs[0].final_marking["intruder"] == 7
        assert runs[0].completions[-1] == (99.0, "a9", "go")
        assert [_record(run) for run in runs[1:]] == reference[1:]

    def test_setters_replace_lazy_fields(self):
        run = _lazy_unit()[0]
        run.final_marking = SANMarking({"s9": 2})
        run.completions = [(0.5, "x", "y")]
        assert run.final_marking.as_dict() == {"s9": 2}
        assert run.completions == [(0.5, "x", "y")]
        assert run._unit is None

    def test_keyword_construction(self):
        marking = SANMarking({"s0": 1})
        run = SimulationRun(
            final_marking=marking,
            end_time=2.0,
            stop_time=1.0,
            completions=[(1.0, "a0", "go")],
        )
        assert run.final_marking is marking
        assert (run.end_time, run.stop_time) == (2.0, 1.0)
        assert run.completions == [(1.0, "a0", "go")]
        assert run.stopped
        assert run == SimulationRun(marking, 2.0, 1.0, [(1.0, "a0", "go")])

    def test_default_completions_are_not_shared(self):
        first = SimulationRun(SANMarking(), 0.0, float("nan"))
        second = SimulationRun(SANMarking(), 0.0, float("nan"))
        first.completions.append((0.0, "a", "b"))
        assert second.completions == []
        assert first.completions is not second.completions

    def test_runs_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(SimulationRun(SANMarking(), 0.0, 0.0))
