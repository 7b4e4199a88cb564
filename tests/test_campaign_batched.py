"""The campaign mega-batch lowering and its wiring.

``CampaignBatchEngine`` vectorizes exfiltration and reconnaissance
campaigns (duqu-like, flame-like goals) as flat array resolutions;
impair-goal campaigns resume the scalar tick loop per lane.  Either
way the public contract holds: ``batch_size=1`` is bit-identical to
the scalar runner path, wider batches are distribution-identical, and
``batch_size`` threads through ``run_batch_table``, the scenario
suite, ``Session`` and ``StudyBuilder``, recorded on
``Provenance.execution`` outside the spec digest.
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import Session
from repro.attacks.batched import (
    CampaignBatchEngine,
    _pad_by_target,
    _relax_compromise,
)
from repro.attacks.campaign import AttackCampaign
from repro.core.measurement import MeasurementPlan
from repro.core.study import DiversityStudy
from repro.exec.runner import ExperimentRunner
from repro.results.streaming import StreamingTableBuilder
from repro.scenarios.registry import SCENARIOS, get_scenario
from repro.scenarios.suite import ScenarioSuite
from repro.telemetry import Telemetry

VECTORIZED = {"cooling_duqu", "smart_grid_duqu", "cooling_flame"}


def campaign_for(name: str) -> AttackCampaign:
    scenario = get_scenario(name)
    return AttackCampaign(
        scenario.build_network(),
        scenario.build_catalog(),
        scenario.build_threat(),
        scenario.build_campaign_config(),
    )


def columns(table):
    return {c: np.asarray(table.column(c)) for c in table.columns}


def assert_tables_identical(a, b):
    ca, cb = columns(a), columns(b)
    assert sorted(ca) == sorted(cb)
    for name in ca:
        np.testing.assert_array_equal(ca[name], cb[name], err_msg=name)


class TestEngineLowering:
    def test_exfiltration_and_recon_goals_vectorize(self):
        for name in sorted(VECTORIZED):
            engine = CampaignBatchEngine(campaign_for(name))
            assert engine.vectorized, (name, engine.fallback_reason)

    def test_impair_goal_falls_back(self):
        engine = CampaignBatchEngine(campaign_for("cooling_stuxnet"))
        assert not engine.vectorized
        assert "impair" in engine.fallback_reason

    def test_fallback_rows_match_sequential_scalar_runs(self):
        campaign = campaign_for("smoke")
        engine = CampaignBatchEngine(campaign)
        rows = engine.run_rows(5, np.random.default_rng(3))
        assert rows.shape == (5, 4)
        reference_rng = np.random.default_rng(3)
        for row in rows:
            expected = campaign.run(reference_rng).response_row(
                campaign.config.horizon
            )
            np.testing.assert_array_equal(row, np.asarray(expected))

    def test_duplicate_entry_hosts_fall_back(self):
        campaign = campaign_for("cooling_duqu")
        tables = campaign._compile_tables()
        first = next(item for item in tables.entry if item[1] > 0)
        tables.entry = tables.entry + [first]
        engine = CampaignBatchEngine(campaign)
        assert not engine.vectorized
        assert "duplicate entry" in engine.fallback_reason
        assert engine.run_rows(3, np.random.default_rng(1)).shape == (3, 4)


def reference_relax(entry_idx, entry, act_delay, src, tgt, delay, horizon):
    """The scatter-min Bellman–Ford the grouped relaxation replaced."""
    size, n = act_delay.shape
    lanes = np.arange(size)[:, None]
    comp = np.full((size, n), np.inf)
    if entry_idx.size:
        entry = np.where(entry <= horizon, entry, np.inf)
        np.minimum.at(comp, (lanes, entry_idx[None, :]), entry)
    for _ in range(n):
        act = comp + act_delay
        act[act > horizon] = np.inf
        if not src.size:
            break
        cand = act[:, src] + delay
        cand[cand > horizon] = np.inf
        before = comp.copy()
        np.minimum.at(comp, (lanes, tgt[None, :]), cand)
        if not (comp < before).any():
            break
    act = comp + act_delay
    act[act > horizon] = np.inf
    return comp, act


def grouped(entry_idx, src, tgt):
    in_tgt, slot_src, slot_edge, slot_valid = _pad_by_target(src, tgt)
    return SimpleNamespace(
        entry_idx=entry_idx, in_tgt=in_tgt, slot_src=slot_src,
        slot_edge=slot_edge, slot_valid=slot_valid,
    )


def relax(entry_idx, entry, act_delay, src, tgt, delay, horizon):
    """The engine's node-major relaxation on lane-major inputs and
    outputs (one row per lane), like the reference's."""
    comp, act, sweeps = _relax_compromise(
        grouped(entry_idx, src, tgt), entry.T, act_delay.T, delay.T,
        horizon,
    )
    return comp.T, act.T, sweeps


def random_graph(rng, n, n_edges):
    """Random edges with repeated (source, target) pairs and some
    nodes never targeted."""
    targets = rng.choice(n, size=max(1, n // 2 + 1), replace=False)
    src = rng.integers(0, n, n_edges)
    tgt = rng.choice(targets, n_edges)
    if n_edges >= 2:
        src[-1], tgt[-1] = src[0], tgt[0]
    return src.astype(np.intp), tgt.astype(np.intp)


class TestRelaxation:
    """The padded per-target min against a scatter-min reference."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_scatter_reference_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        size = int(rng.integers(1, 6))
        src, tgt = random_graph(rng, n, int(rng.integers(0, 3 * n + 1)))
        entry_idx = rng.choice(
            n, size=int(rng.integers(0, n + 1)), replace=False
        ).astype(np.intp)
        entry = rng.exponential(1.0, (size, entry_idx.size))
        entry[0] = np.inf  # an all-inf lane
        act_delay = rng.exponential(0.5, (size, n))
        delay = rng.exponential(1.0, (size, src.size))
        horizon = float(rng.uniform(0.5, 4.0))
        comp, act, sweeps = relax(
            entry_idx, entry, act_delay, src, tgt, delay, horizon
        )
        ref_comp, ref_act = reference_relax(
            entry_idx, entry, act_delay, src, tgt, delay, horizon
        )
        np.testing.assert_array_equal(comp, ref_comp)
        np.testing.assert_array_equal(act, ref_act)
        assert np.isinf(comp[0]).all() and np.isinf(act[0]).all()
        assert 0 <= sweeps <= n

    def test_multi_edges_take_the_faster_vector(self):
        # Two vectors 0 -> 1; the slower one is listed first.
        src = np.array([0, 0], dtype=np.intp)
        tgt = np.array([1, 1], dtype=np.intp)
        comp, _, _ = relax(
            np.array([0], dtype=np.intp), np.array([[0.5]]),
            np.zeros((1, 2)), src, tgt, np.array([[3.0, 1.0]]), 10.0,
        )
        np.testing.assert_array_equal(comp, [[0.5, 1.5]])

    def test_no_edges(self):
        entry_idx = np.array([1], dtype=np.intp)
        empty = np.array([], dtype=np.intp)
        entry = np.array([[1.0], [7.0]])
        act_delay = np.array([[0.5, 0.5], [0.5, 0.5]])
        comp, act, sweeps = relax(
            entry_idx, entry, act_delay, empty, empty,
            np.empty((2, 0)), 5.0,
        )
        np.testing.assert_array_equal(comp, [[np.inf, 1.0], [np.inf] * 2])
        np.testing.assert_array_equal(act, [[np.inf, 1.5], [np.inf] * 2])
        assert sweeps == 0

    def test_times_exactly_at_the_horizon_are_kept(self):
        # Chain 0 -> 1 -> 2: entry lands on the horizon in lane 1, the
        # second hop in lane 0; anything past it is censored.
        horizon = 2.0
        src = np.array([0, 1], dtype=np.intp)
        tgt = np.array([1, 2], dtype=np.intp)
        entry_idx = np.array([0], dtype=np.intp)
        entry = np.array([[0.5], [2.0], [2.25]])
        act_delay = np.zeros((3, 3))
        delay = np.array([[0.5, 1.0], [0.0, 0.0], [0.0, 0.0]])
        comp, act, _ = relax(
            entry_idx, entry, act_delay, src, tgt, delay, horizon
        )
        np.testing.assert_array_equal(
            comp, [[0.5, 1.0, 2.0], [2.0, 2.0, 2.0], [np.inf] * 3]
        )
        np.testing.assert_array_equal(act, comp)
        delay[0, 1] = 1.25
        comp, _, _ = relax(
            entry_idx, entry, act_delay, src, tgt, delay, horizon
        )
        assert comp[0, 2] == np.inf

    def test_path_takes_one_sweep_per_hop_plus_a_check(self):
        n = 6
        src = np.arange(n - 1, dtype=np.intp)
        tgt = src + 1
        comp, _, sweeps = relax(
            np.array([0], dtype=np.intp), np.zeros((2, 1)),
            np.full((2, n), 0.25), src, tgt, np.full((2, n - 1), 0.25),
            100.0,
        )
        np.testing.assert_array_equal(comp[0], np.arange(n) * 0.5)
        assert sweeps == n

    def test_padded_layout_keeps_edge_order_within_a_target(self):
        rng = np.random.default_rng(0)
        tgt = rng.integers(0, 5, 64).astype(np.intp)
        src = rng.integers(0, 9, 64).astype(np.intp)
        in_tgt, slot_src, slot_edge, slot_valid = _pad_by_target(src, tgt)
        width = slot_src.size // in_tgt.size
        for row, target in enumerate(in_tgt):
            slots = slice(row * width, (row + 1) * width)
            edges = slot_edge[slots][slot_valid[slots]]
            np.testing.assert_array_equal(edges, np.flatnonzero(tgt == target))
            np.testing.assert_array_equal(
                slot_src[slots][slot_valid[slots]], src[edges]
            )

    def test_padded_layout_by_target(self):
        in_tgt, slot_src, slot_edge, slot_valid = _pad_by_target(
            np.array([5, 6, 7, 8, 9], dtype=np.intp),
            np.array([2, 0, 2, 0, 2], dtype=np.intp),
        )
        np.testing.assert_array_equal(in_tgt, [0, 2])
        np.testing.assert_array_equal(slot_edge, [1, 3, 0, 0, 2, 4])
        np.testing.assert_array_equal(slot_src, [6, 8, 0, 5, 7, 9])
        np.testing.assert_array_equal(
            slot_valid, [True, True, False, True, True, True]
        )

    def test_padded_layout_omits_untargeted_nodes(self):
        src, tgt = random_graph(np.random.default_rng(3), 9, 20)
        in_tgt, _, _, _ = _pad_by_target(src, tgt)
        np.testing.assert_array_equal(in_tgt, np.unique(tgt))
        untargeted = set(range(9)) - set(tgt.tolist())
        assert untargeted and not untargeted & set(in_tgt.tolist())
        empty = np.array([], dtype=np.intp)
        assert all(a.size == 0 for a in _pad_by_target(empty, empty))

    def test_target_at_the_maximum_in_degree_has_no_padding(self):
        tgt = np.array([4, 1, 4, 4, 1, 0], dtype=np.intp)
        in_tgt, _, _, slot_valid = _pad_by_target(
            np.arange(6, dtype=np.intp), tgt
        )
        per_target = slot_valid.reshape(in_tgt.size, -1)
        assert per_target.shape == (3, 3)
        np.testing.assert_array_equal(per_target.sum(axis=1), [1, 2, 3])
        assert per_target[list(in_tgt).index(4)].all()

    def test_padding_slots_are_masked_to_inf(self):
        # Node 2 has one in-edge, so one padding slot, which points at
        # edge 0 (0 -> 1, delay 0.1) from node 0; unmasked, it would
        # compromise node 2 at 0.1 instead of 0.1 + 3.0 via node 1.
        src = np.array([0, 0, 1], dtype=np.intp)
        tgt = np.array([1, 1, 2], dtype=np.intp)
        layout = grouped(np.array([0], dtype=np.intp), src, tgt)
        assert layout.slot_src[-1] == 0 and layout.slot_edge[-1] == 0
        assert not layout.slot_valid[-1]
        comp, _, _ = relax(
            layout.entry_idx, np.zeros((1, 1)), np.zeros((1, 3)), src,
            tgt, np.array([[0.1, 0.2, 3.0]]), 10.0,
        )
        np.testing.assert_array_equal(comp, [[0.0, 0.1, 0.1 + 3.0]])

    def test_stops_at_the_first_sweep_without_improvement(self):
        # A star 0 -> 1..5 settles in one sweep; the second confirms.
        n = 6
        tgt = np.arange(1, n, dtype=np.intp)
        _, _, sweeps = relax(
            np.array([0], dtype=np.intp), np.zeros((1, 1)),
            np.zeros((1, n)), np.zeros(n - 1, dtype=np.intp), tgt,
            np.ones((1, n - 1)), 100.0,
        )
        assert sweeps == 2

    def test_sweep_counter_is_deterministic_and_bounded(self):
        engine = CampaignBatchEngine(campaign_for("cooling_flame"))
        n_nodes = engine._arrays.n_nodes

        def per_batch(seed):
            counts = []
            rng = np.random.default_rng(seed)
            for size in (64, 7, 256):
                telemetry = Telemetry()
                with telemetry.activate():
                    engine.run_rows(size, rng)
                counts.append(
                    telemetry.snapshot().counter("batch.relax_sweeps")
                )
            return counts

        counts = per_batch(9)
        assert counts == per_batch(9)
        assert all(1 <= count <= n_nodes for count in counts)

        telemetry = Telemetry()
        with telemetry.activate():
            engine.run_outcomes(64, np.random.default_rng(9))
        assert telemetry.snapshot().counter("batch.relax_sweeps") == counts[0]


class TestBitExactness:
    def test_batch_size_one_bit_identical_fallback_scenario(self):
        campaign = campaign_for("smoke")
        scalar = campaign.run_batch_table(6, rng=11)
        batched = campaign.run_batch_table(6, rng=11, batch_size=1)
        assert_tables_identical(scalar, batched)

    def test_batch_size_one_bit_identical_vectorized_scenario(self):
        campaign = campaign_for("cooling_duqu")
        scalar = campaign.run_batch_table(6, rng=11)
        batched = campaign.run_batch_table(6, rng=11, batch_size=1)
        assert_tables_identical(scalar, batched)

    def test_ragged_batch_deterministic(self):
        campaign = campaign_for("cooling_duqu")
        first = campaign.run_batch_table(10, rng=5, batch_size=4)
        again = campaign.run_batch_table(10, rng=5, batch_size=4)
        assert len(first) == 10
        assert_tables_identical(first, again)

    def test_streaming_rows_identical_to_collected(self):
        campaign = campaign_for("cooling_duqu")
        collected = campaign.run_batch_table(20, rng=7, batch_size=8)
        streamed = campaign.run_batch_table(
            20, rng=7, batch_size=8, max_records_in_ram=6
        )
        assert_tables_identical(collected, streamed)


@pytest.mark.scenario
class TestDistributionalIdentity:
    """Every built-in scenario: batched statistics agree with scalar
    within Monte-Carlo error at fixed seeds."""

    REPS = 256

    @pytest.mark.parametrize("name", sorted(SCENARIOS.names()))
    def test_builtin_scenario(self, name):
        campaign = campaign_for(name)
        n = self.REPS
        scalar = columns(campaign.run_batch_table(n, rng=2026))
        batched = columns(
            campaign.run_batch_table(n, rng=8080, batch_size=n)
        )

        p1 = float(scalar["success"].mean())
        p2 = float(batched["success"].mean())
        pooled = (p1 + p2) / 2.0
        se = math.sqrt(max(pooled * (1 - pooled), 1e-4) * 2.0 / n)
        assert abs(p1 - p2) < 4.0 * se + 1e-9, (name, p1, p2)

        r1, r2 = scalar["final_ratio"], batched["final_ratio"]
        spread = max(float(np.std(r1)), float(np.std(r2)), 1e-2)
        assert abs(float(r1.mean()) - float(r2.mean())) < (
            4.0 * spread * math.sqrt(2.0 / n)
        ), (name, r1.mean(), r2.mean())

        for column in ("tta", "ttsf"):
            m1 = scalar[column][np.isfinite(scalar[column])]
            m2 = batched[column][np.isfinite(batched[column])]
            if len(m1) < 30 or len(m2) < 30:
                continue
            spread = max(float(np.std(m1)), float(np.std(m2)), 1e-2)
            se = spread * math.sqrt(1.0 / len(m1) + 1.0 / len(m2))
            assert abs(float(m1.mean()) - float(m2.mean())) < 4.5 * se, (
                name,
                column,
            )


def _plan(batch_size=None):
    study = DiversityStudy.from_scenario(get_scenario("smoke"))
    return MeasurementPlan(
        study.network_factory,
        study.catalog,
        study.threat,
        study.build_design(study.build_factors()),
        replications=2,
        campaign_config=study.campaign_config,
        batch_size=batch_size,
    )


#: ``(knob, bad value, error type, message)`` — every case names its
#: knob; ``max_records_in_ram=True`` / ``2.5`` once ran, ``"10"`` failed
#: deep inside the work, ``0`` under ``on_error="skip"`` returned an
#: empty suite.
BAD_KNOBS = [
    ("batch_size", 2.5, TypeError, r"batch_size must be an integer, got 2\.5"),
    (
        "batch_size",
        True,
        TypeError,
        r"batch_size must be an integer, got True",
    ),
    ("batch_size", 0, ValueError, r"batch_size must be >= 1, got 0"),
    (
        "max_records_in_ram",
        True,
        TypeError,
        r"max_records_in_ram must be an integer, got True",
    ),
    (
        "max_records_in_ram",
        2.5,
        TypeError,
        r"max_records_in_ram must be an integer, got 2\.5",
    ),
    (
        "max_records_in_ram",
        "10",
        TypeError,
        r"max_records_in_ram must be an integer, got '10'",
    ),
    (
        "max_records_in_ram",
        0,
        ValueError,
        r"max_records_in_ram must be >= 1, got 0",
    ),
    ("on_error", "ignore", ValueError, r'on_error must be "raise" or "skip"'),
    ("on_error", None, ValueError, r"on_error must be .*, got None"),
]

#: The knobs each entry point takes.
KNOB_ENTRIES = {
    "Session.run": ("batch_size", "on_error"),
    "Session.submit": ("batch_size", "on_error"),
    "Session.campaign": ("batch_size", "max_records_in_ram"),
    "Session.submit_campaign": ("batch_size", "max_records_in_ram"),
    "ScenarioSuite.run": ("batch_size", "max_records_in_ram", "on_error"),
    "StudyBuilder.batch_size": ("batch_size",),
    "MeasurementPlan": ("batch_size",),
    "MeasurementPlan.execute": ("max_records_in_ram",),
    "StreamingTableBuilder": ("max_records_in_ram",),
    "AttackCampaign.run_batch_table": ("batch_size", "max_records_in_ram"),
}

#: ``entry(journal path, **knobs)``; suite entries run under
#: ``on_error="skip"`` unless the case sets ``on_error`` itself.
ENTRY_CALLS = {
    "Session.run": lambda journal, **knobs: Session().run(
        ["smoke"], seed=1, journal=journal, **{"on_error": "skip", **knobs}
    ),
    "Session.submit": lambda journal, **knobs: Session().submit(
        ["smoke"], seed=1, journal=journal, **{"on_error": "skip", **knobs}
    ),
    "Session.campaign": lambda journal, **knobs: Session().campaign(
        "smoke", 5, seed=1, **knobs
    ),
    "Session.submit_campaign": lambda journal, **knobs: (
        Session().submit_campaign("smoke", 5, seed=1, **knobs)
    ),
    "ScenarioSuite.run": lambda journal, **knobs: ScenarioSuite(
        ["smoke"]
    ).run(seed=1, journal=journal, **{"on_error": "skip", **knobs}),
    "StudyBuilder.batch_size": lambda journal, batch_size: (
        Session().study("smoke").batch_size(batch_size)
    ),
    "MeasurementPlan": lambda journal, **knobs: _plan(**knobs),
    "MeasurementPlan.execute": lambda journal, **knobs: _plan().execute(
        1, **knobs
    ),
    "StreamingTableBuilder": lambda journal, **knobs: (
        StreamingTableBuilder(**knobs)
    ),
    "AttackCampaign.run_batch_table": lambda journal, **knobs: (
        campaign_for("smoke").run_batch_table(5, rng=1, **knobs)
    ),
}


class TestValidation:
    def test_error_messages_match_san_batch(self):
        campaign = campaign_for("smoke")
        with pytest.raises(
            TypeError, match=r"replications must be an integer, got 2\.5"
        ):
            campaign.run_batch_table(2.5)
        with pytest.raises(
            TypeError, match=r"replications must be an integer, got True"
        ):
            campaign.run_batch_table(True)
        with pytest.raises(
            ValueError, match=r"replications must be >= 1, got 0"
        ):
            campaign.run_batch_table(0)
        with pytest.raises(
            ValueError, match=r"batch_size must be >= 1, got 0"
        ):
            campaign.run_batch_table(4, batch_size=0)
        with pytest.raises(
            TypeError, match=r"batch_size must be an integer, got 2\.5"
        ):
            campaign.run_batch_table(4, batch_size=2.5)

    @pytest.mark.parametrize(
        "entry, knob, value, error, message",
        [
            pytest.param(
                entry, knob, value, error, message,
                id=f"{entry}-{knob}={value!r}",
            )
            for knob, value, error, message in BAD_KNOBS
            for entry, accepted in KNOB_ENTRIES.items()
            if knob in accepted
        ],
    )
    def test_bad_knob_raises_before_any_work(
        self, tmp_path, monkeypatch, entry, knob, value, error, message
    ):
        """Every entry point rejects a bad knob with an error naming it,
        before a work unit runs or a journal file is written — also
        under ``on_error="skip"``, which isolates scenario failures,
        not the caller's own."""

        def no_work(*args, **kwargs):
            raise AssertionError("a work unit ran before the knob check")

        monkeypatch.setattr(ExperimentRunner, "map", no_work)
        journal = tmp_path / "run.journal"
        with pytest.raises(error, match=message):
            ENTRY_CALLS[entry](journal, **{knob: value})
        assert not journal.exists()


class TestSuiteWiring:
    def test_suite_batch_size_one_bit_identical(self):
        baseline = ScenarioSuite(["smoke"]).run(seed=42)
        batched = ScenarioSuite(["smoke"]).run(seed=42, batch_size=1)
        assert (
            baseline.records_by_scenario() == batched.records_by_scenario()
        )
        assert (
            baseline.provenance.spec_digest
            == batched.provenance.spec_digest
        )
        assert baseline.provenance.execution is None
        assert batched.provenance.execution == {"batch_size": 1}

    def test_suite_numpy_batch_size_keys_like_int(self, tmp_path):
        # A NumPy integer is normalised once, so it keys the cache and the
        # journal exactly like the equal int (it used to fail to
        # serialize into the journal identity).
        runs = {}
        for name, lanes in (("int", 2), ("numpy", np.int64(2))):
            journal = tmp_path / f"{name}.journal"
            result = ScenarioSuite(
                ["smoke"], cache_dir=str(tmp_path / name)
            ).run(seed=1, batch_size=lanes, journal=journal)
            state = json.loads(journal.read_text())
            runs[name] = (
                state["identity"],
                state["completed"],
                result.provenance.execution,
            )
        assert runs["numpy"] == runs["int"]

    def test_suite_rejects_bad_batch_size(self):
        with pytest.raises(
            ValueError, match=r"batch_size must be >= 1, got 0"
        ):
            ScenarioSuite(["smoke"]).run(seed=1, batch_size=0)


class TestSessionWiring:
    def test_campaign_batch_size_recorded_on_provenance(self):
        with Session() as session:
            result = session.campaign("smoke", 8, seed=3, batch_size=4)
        assert result.provenance.execution == {"batch_size": 4}
        assert len(result.table) == 8

    def test_campaign_batch_size_one_bit_identical(self):
        with Session() as session:
            scalar = session.campaign("smoke", 8, seed=3)
            batched = session.campaign("smoke", 8, seed=3, batch_size=1)
        assert scalar.provenance.execution is None
        assert (
            scalar.provenance.spec_digest == batched.provenance.spec_digest
        )
        assert_tables_identical(scalar.table, batched.table)

    def test_streaming_campaign_merges_batch_execution(self):
        with Session() as session:
            result = session.campaign(
                "cooling_duqu",
                16,
                seed=5,
                batch_size=8,
                max_records_in_ram=6,
            )
        execution = result.provenance.execution
        assert execution["stream"] is True
        assert execution["batch_size"] == 8

    def test_builder_pins_batch_size(self):
        with Session() as session:
            study = session.study("smoke").batch_size(4)
            result = session.campaign(study, 8, seed=3)
            explicit = session.campaign("smoke", 8, seed=3, batch_size=4)
        assert result.provenance.execution == {"batch_size": 4}
        assert_tables_identical(result.table, explicit.table)

    def test_builder_rejects_bad_batch_size(self):
        with Session() as session:
            with pytest.raises(
                ValueError, match=r"batch_size must be >= 1, got 0"
            ):
                session.study("smoke").batch_size(0)
