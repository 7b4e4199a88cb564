"""Performance benchmarks of the substrates.

These are classic pytest-benchmark timings (multiple rounds) rather than
experiment regenerations: DES event throughput, SAN simulation, GSPN
simulation, CTMC transient analysis, variable-elimination inference, DoE
generation and protocol codec throughput.  They guard against
performance regressions that would make the Monte-Carlo studies
impractical.

The ``*_legacy`` / ``*_dense_expm`` variants time the retained reference
implementations (interpreter without the compiled fast path, dense
``scipy.linalg.expm`` transient solver) so every run measures the
compiled-path speedups in place, for reading by hand.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bayes.attackgraph import attack_graph_from_topology
from repro.doe.fractional import fractional_factorial
from repro.petri.gspn import GSPN
from repro.petri.net import PetriNet
from repro.san.builder import SANBuilder
from repro.san.ctmc import san_to_ctmc
from repro.san.simulator import SANSimulator
from repro.scada.protocol import (
    FunctionCode,
    ModbusFrame,
    STANDARD_DIALECT,
    decode_frame,
    encode_frame,
)
from repro.sim.engine import SimulationEngine


def test_perf_des_engine_100k_events(benchmark):
    def run():
        engine = SimulationEngine()
        count = 0

        def reschedule(ev):
            nonlocal count
            count += 1
            if count < 100_000:
                engine.schedule_after(1.0, reschedule)

        engine.schedule(0.0, reschedule)
        engine.run()
        return count

    assert benchmark(run) == 100_000


def _stage_chain_model():
    builder = SANBuilder()
    builder.place("s0", 1)
    for i in range(5):
        builder.place(f"s{i + 1}", 0)
        builder.stage(f"a{i}", f"s{i}", f"s{i + 1}", rate=1.0,
                      success_probability=0.7)
    return builder.build()


def _san_simulation_case(benchmark, compiled: bool):
    sim = SANSimulator(_stage_chain_model(), compiled=compiled)
    rng = np.random.default_rng(1)

    def run():
        return sim.batch(
            1000.0, 50, rng, stop=lambda m: m["s5"] > 0, batch_size=1
        )

    runs = benchmark(run)
    assert len(runs) == 50


def test_perf_san_simulation(benchmark):
    """Compiled fast path (the default interpreter)."""
    _san_simulation_case(benchmark, compiled=True)


def test_perf_san_simulation_legacy(benchmark):
    """Legacy re-scanning interpreter — the pre-compilation baseline."""
    _san_simulation_case(benchmark, compiled=False)


def _gspn_case(benchmark, compiled: bool):
    net = PetriNet()
    net.add_place("idle", 5)
    net.add_place("busy", 0)
    net.add_transition("arrive", {"idle": 1}, {"busy": 1})
    net.add_transition("finish", {"busy": 1}, {"idle": 1})
    gspn = GSPN(net, compiled=compiled)
    gspn.add_timed("arrive", lambda m: 1.0 * max(m["idle"], 1))
    gspn.add_timed("finish", lambda m: 2.0 * max(m["busy"], 1))
    rng = np.random.default_rng(2)

    def run():
        return gspn.transient_analysis(50.0, 20, rng)

    result = benchmark(run)
    assert len(result.final_markings) == 20


def test_perf_gspn_simulation(benchmark):
    """Compiled fast path (the default interpreter)."""
    _gspn_case(benchmark, compiled=True)


def test_perf_gspn_simulation_legacy(benchmark):
    """Legacy re-scanning interpreter — the pre-compilation baseline."""
    _gspn_case(benchmark, compiled=False)


def _ctmc_1k():
    """A ~1k-state birth-death CTMC explored from a SAN."""
    from repro.stats.distributions import Exponential

    builder = SANBuilder("bd1k")
    builder.place("free", 999).place("load", 0)
    builder.timed("grow", Exponential(1.2), inputs={"free": 1},
                  outputs={"load": 1})
    builder.timed("shrink", Exponential(0.9), inputs={"load": 1},
                  outputs={"free": 1})
    return san_to_ctmc(builder.build())


@pytest.fixture(scope="module", name="ctmc_1k")
def ctmc_1k_fixture():
    ctmc = _ctmc_1k()
    assert ctmc.n_states == 1000
    return ctmc


def test_perf_ctmc_transient_1k_uniformized(benchmark, ctmc_1k):
    """Sparse uniformization — the default for large chains."""
    dist = benchmark(ctmc_1k.transient_distribution, 5.0)
    assert dist.sum() == pytest.approx(1.0)


def test_perf_ctmc_transient_1k_dense_expm(benchmark, ctmc_1k):
    """Dense O(n³) expm — the pre-PR baseline, kept for validation."""
    dist = benchmark(
        ctmc_1k.transient_distribution, 5.0, method="expm"
    )
    assert dist.sum() == pytest.approx(1.0)


def test_perf_ctmc_transient_grid_1k(benchmark, ctmc_1k):
    """A 20-point time grid answered from one uniformization pass."""
    times = [0.5 * (i + 1) for i in range(20)]

    def run():
        return ctmc_1k.transient_at(times)

    grid = benchmark(run)
    assert grid.shape == (20, 1000)


def test_perf_variable_elimination(benchmark):
    # A 12-host layered attack graph.
    edges = []
    layers = [[f"h{l}_{i}" for i in range(3)] for l in range(4)]
    for a, b in zip(layers, layers[1:]):
        for src in a:
            for dst in b:
                edges.append((src, dst, 0.4))
    graph = attack_graph_from_topology(
        edges, {h: 0.5 for h in layers[0]}
    )

    def run():
        return graph.compromise_probability(layers[-1][0])

    p = benchmark(run)
    assert 0.0 < p < 1.0


def test_perf_doe_generation(benchmark):
    names = list("abcdefghjk")

    def run():
        design, info = fractional_factorial(names, ["K=ABCDEFGHJ"])
        return design

    design = benchmark(run)
    assert design.n_runs == 2 ** (len(names) - 1)


def test_perf_protocol_codec(benchmark):
    frame = ModbusFrame(
        unit=7,
        function=FunctionCode.WRITE_MULTIPLE_REGISTERS,
        address=100,
        values=tuple(range(20)),
        count=20,
    )

    def run():
        for _ in range(200):
            decoded = decode_frame(
                encode_frame(frame, STANDARD_DIALECT), STANDARD_DIALECT
            )
        return decoded

    assert benchmark(run) == frame
