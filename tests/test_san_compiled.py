"""Equivalence suite: ``SANSimulator.simulate`` vs the reference
interpreter ``SANSimulator._simulate_legacy``.

The compiled interpreter consumes the random stream identically to the
reference (``rng.choice(n, p=...)`` is a single-uniform inverse-CDF
draw), so from the same seed the two must produce **bit-identical**
completion sequences, markings, times — and leave the generator in the
same state.
"""

import numpy as np
import pytest

from repro.exec import replication_generators
from repro.san.builder import SANBuilder
from repro.san.compiled import CompiledSAN, case_cdf
from repro.san.model import (
    Case,
    InputGate,
    OutputGate,
    SANModel,
    simple_case,
)
from repro.san.simulator import SANSimulator
from repro.scenarios.registry import SCENARIOS
from repro.stats.distributions import (
    Deterministic,
    Exponential,
    Weibull,
)


def assert_equivalent(model, horizon, stop=None, seeds=range(15),
                      max_completions=1_000_000):
    """Compiled and reference runs must match bit-for-bit on every seed."""
    sim = SANSimulator(model)
    for seed in seeds:
        rng_fast = np.random.default_rng(seed)
        rng_slow = np.random.default_rng(seed)
        a = sim.simulate(horizon, rng_fast, stop=stop,
                         max_completions=max_completions)
        b = sim._simulate_legacy(horizon, rng_slow, stop=stop,
                                 max_completions=max_completions)
        assert a.completions == b.completions
        assert a.final_marking == b.final_marking
        assert a.end_time == b.end_time
        assert a.stop_time == b.stop_time or (
            np.isnan(a.stop_time) and np.isnan(b.stop_time)
        )
        # Identical residual generator state: the paths consumed exactly
        # the same draws.
        assert rng_fast.random() == rng_slow.random()


def stage_chain(n=5, p=0.7):
    builder = SANBuilder()
    builder.place("s0", 1)
    for i in range(n):
        builder.place(f"s{i + 1}", 0)
        builder.stage(f"a{i}", f"s{i}", f"s{i + 1}", rate=1.0,
                      success_probability=p)
    return builder.build()


class TestBasicEquivalence:
    def test_stage_chain(self):
        assert_equivalent(stage_chain(), 1000.0,
                          stop=lambda m: m["s5"] > 0)

    def test_stage_chain_no_stop(self):
        assert_equivalent(stage_chain(), 50.0)

    def test_racing_activities_abort(self):
        model = SANModel()
        model.set_initial("shared", 1)
        model.add_timed_activity(
            "fast", Exponential(100.0), input_places={"shared": 1},
            output_places={"a": 1},
        )
        model.add_timed_activity(
            "slow", Exponential(0.01), input_places={"shared": 1},
            output_places={"b": 1},
        )
        assert_equivalent(model, 10_000.0)

    def test_deterministic_distributions(self):
        model = SANModel()
        model.set_initial("x", 1)
        model.add_timed_activity(
            "tick", Deterministic(2.0), input_places={"x": 1},
            output_places={"x": 1},
        )
        model.add_timed_activity(
            "tock", Deterministic(3.0), input_places={"x": 1},
            output_places={"y": 1},
        )
        assert_equivalent(model, 25.0)

    def test_non_memoryless_distribution(self):
        model = SANModel()
        model.set_initial("w", 0)
        model.add_timed_activity(
            "src", Weibull(1.5, 2.0), output_places={"w": 1}
        )
        model.add_timed_activity(
            "sink", Exponential(1.0), input_places={"w": 2},
        )
        assert_equivalent(model, 40.0)


class TestInstantaneousEquivalence:
    def test_priorities_and_weights(self):
        model = SANModel()
        model.set_initial("p", 1)
        model.set_initial("q", 1)
        model.add_timed_activity(
            "t1", Exponential(2.0), input_places={"q": 1},
            output_places={"p": 1},
        )
        model.add_timed_activity(
            "t2", Exponential(1.0), input_places={"p": 2},
            output_places={"q": 1},
        )
        model.add_instantaneous_activity(
            "i1", input_places={"p": 3}, output_places={"q": 2},
            weight=3.0, priority=2,
        )
        model.add_instantaneous_activity(
            "i2", input_places={"p": 3}, output_places={"q": 1},
            weight=1.0, priority=2,
        )
        model.add_instantaneous_activity(
            "i3", input_places={"q": 4}, output_places={"p": 1},
            priority=1,
        )
        assert_equivalent(model, 60.0)

    def test_invalid_case_probabilities_raise_identically(self):
        """Both paths validate [0, 1] range before any draw."""
        for probs in ([1.5, -0.5], [lambda m: 1.5, lambda m: -0.5]):
            model = SANModel()
            model.set_initial("a", 1)
            model.add_timed_activity(
                "bad", Exponential(1.0), input_places={"a": 1},
                cases=(
                    Case(probability=probs[0], output_places=(("b", 1),)),
                    Case(probability=probs[1], output_places=(("c", 1),)),
                ),
            )
            sim = SANSimulator(model)
            for simulate in (sim.simulate, sim._simulate_legacy):
                with pytest.raises(ValueError, match="outside"):
                    simulate(10.0, np.random.default_rng(0))

    def test_instantaneous_loop_raises_in_both(self):
        model = SANModel()
        model.set_initial("a", 1)
        model.add_instantaneous_activity(
            "ping", input_places={"a": 1}, output_places={"b": 1}
        )
        model.add_instantaneous_activity(
            "pong", input_places={"b": 1}, output_places={"a": 1}
        )
        sim = SANSimulator(model)
        for simulate in (sim.simulate, sim._simulate_legacy):
            with pytest.raises(RuntimeError):
                simulate(1.0, np.random.default_rng(0), max_completions=50)


class TestGatesAndMarkingDependence:
    def _gated_model(self):
        model = SANModel()
        model.set_initial("a", 3)
        model.set_initial("b", 0)
        gate = InputGate(
            "g",
            predicate=lambda m: m["a"] >= 1 and m["b"] < 5,
            function=lambda m: m.add("b", 0),
        )

        def drain(m):
            m["b"] = max(0, m["b"] - 1)

        og = OutputGate("og", function=drain)
        model.add_timed_activity(
            "mv",
            lambda m: Exponential(1.0 + m["a"]),
            input_places={"a": 1},
            input_gates=(gate,),
            cases=(
                Case(
                    probability=lambda m: 0.5 if m["a"] > 1 else 1.0,
                    output_places=(("b", 2),),
                    output_gates=(og,),
                    label="x",
                ),
                Case(
                    probability=lambda m: 0.5 if m["a"] > 1 else 0.0,
                    output_places=(("a", 1),),
                    label="y",
                ),
            ),
        )
        model.add_timed_activity(
            "re", Exponential(0.5), input_places={"b": 1},
            output_places={"a": 1},
        )
        return model

    def test_undeclared_gates_and_dynamic_probabilities(self):
        assert_equivalent(self._gated_model(), 200.0)

    def test_declared_guard_reads(self):
        builder = SANBuilder()
        builder.place("src", 2).place("dst", 0).place("fuel", 3)
        gate = builder.predicate_gate(
            lambda m: m["fuel"] > 0, reads=("fuel",)
        )
        builder._model.add_timed_activity(
            "move", Exponential(1.0), input_places={"src": 1},
            input_gates=(gate,), output_places={"dst": 1},
        )
        builder.timed("burn", Exponential(0.8), inputs={"fuel": 1})
        builder.timed("refill", Exponential(0.3), inputs={"dst": 1},
                      outputs={"src": 1, "fuel": 1})
        assert_equivalent(builder.build(), 100.0)

    def test_guard_via_stage(self):
        builder = SANBuilder()
        builder.place("s0", 1).place("s1", 0).place("key", 1)
        builder.stage("a", "s0", "s1", rate=2.0, success_probability=0.6,
                      guard=lambda m: m["key"] > 0)
        builder.timed("drop", Exponential(0.5), inputs={"key": 1})
        assert_equivalent(builder.build(), 80.0)


class TestScenarioCatalogEquivalence:
    """Bit-equivalence across the SAN models of every built-in scenario."""

    @pytest.mark.parametrize("name", SCENARIOS.names())
    def test_builtin_scenario_model(self, name):
        scenario = SCENARIOS.get(name)
        model = scenario.build_san_model(give_up=True)
        assert_equivalent(
            model, 200.0, stop=lambda m: m["impaired"] > 0,
            seeds=range(5),
        )

    def test_retry_variant_on_one_scenario(self):
        model = SCENARIOS.get("smoke").build_san_model(give_up=False)
        assert_equivalent(
            model, 100.0, stop=lambda m: m["impaired"] > 0,
            seeds=range(5),
        )


class TestOneInterpreter:
    """``simulate`` and ``batch`` run the compiled interpreter only;
    ``_simulate_legacy`` is a reference the equivalence suite calls."""

    @staticmethod
    def _refuse_reference(monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("reference interpreter reached")

        monkeypatch.setattr(SANSimulator, "_simulate_legacy", refuse)

    @staticmethod
    def _instantaneous_model():
        model = SANModel()
        model.add_timed_activity(
            "t", Exponential(1.0), input_places={"a": 1},
            output_places={"b": 1},
        )
        model.add_instantaneous_activity(
            "i", input_places={"b": 1}, output_places={"c": 1}
        )
        model.set_initial("a", 1)
        return model

    def test_constructor_takes_no_interpreter_selector(self):
        with pytest.raises(TypeError, match="compiled"):
            SANSimulator(stage_chain(), compiled=False)

    def test_simulate_and_batch_skip_the_reference(self, monkeypatch):
        self._refuse_reference(monkeypatch)
        sim = SANSimulator(stage_chain())
        sim.simulate(100.0, np.random.default_rng(0))
        assert len(sim.batch(100.0, 8, rng=7, batch_size=1)) == 8
        assert len(sim.batch(100.0, 40, rng=7)) == 40

    def test_fallback_batch_lanes_run_the_compiled_interpreter(
        self, monkeypatch
    ):
        """Lanes of a model the SoA lowering cannot express run one by
        one on ``simulate``, never on the reference interpreter."""
        self._refuse_reference(monkeypatch)
        calls = []
        original = SANSimulator.simulate

        def counted(self, *args, **kwargs):
            calls.append(args[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SANSimulator, "simulate", counted)
        runs = SANSimulator(self._instantaneous_model()).batch(
            10.0, 40, rng=7
        )
        assert len(runs) == len(calls) == 40
        assert all(run.final_marking["c"] == 1 for run in runs)


class TestCompiledStructures:
    def test_compile_is_cached_and_invalidated(self):
        model = stage_chain()
        first = model.compile()
        assert model.compile() is first
        model.set_initial("s0", 2)
        assert model.compile() is not first
        second = model.compile()
        model.add_timed_activity("extra", Exponential(1.0),
                                 input_places={"s0": 1})
        assert model.compile() is not second

    def test_compiled_survives_pickle_roundtrip(self):
        import pickle

        model = stage_chain()
        model.compile()
        clone = pickle.loads(pickle.dumps(model))
        assert clone._compiled is None  # rebuilt lazily on the far side
        assert_equivalent(clone, 100.0, seeds=range(3))

    def test_case_cdf_matches_numpy_choice(self):
        from bisect import bisect_right

        probs = [0.15, 0.25, 0.6]
        cdf = case_cdf(probs)
        for seed in range(50):
            r1 = np.random.default_rng(seed)
            r2 = np.random.default_rng(seed)
            assert int(r1.choice(3, p=probs)) == bisect_right(
                cdf, r2.random()
            )

    def test_dependency_index_covers_reads(self):
        compiled = CompiledSAN(stage_chain())
        # a3 reads s3, which a2 writes: a3 must be indexed under s3.
        readers = compiled.timed_readers["s3"]
        names = {compiled.timed[i].name for i in readers}
        assert "a3" in names

    def test_scalar_batch_matches_reference_on_spawned_streams(self):
        """``batch_size=1`` runs replication ``i`` on child ``i`` of the
        root seed, bit for bit the reference interpreter's run there."""
        sim = SANSimulator(stage_chain())
        runs = sim.batch(100.0, 16, rng=7, batch_size=1)
        reference = [
            sim._simulate_legacy(100.0, generator)
            for generator in replication_generators(7, 16)
        ]
        assert [r.completions for r in runs] == [
            r.completions for r in reference
        ]
        assert [r.final_marking for r in runs] == [
            r.final_marking for r in reference
        ]
        assert [r.end_time for r in runs] == [r.end_time for r in reference]
        assert [r.stop_time for r in runs] == pytest.approx(
            [r.stop_time for r in reference], nan_ok=True
        )
