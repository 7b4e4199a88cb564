"""The attack-campaign simulator.

Couples a :class:`~repro.attacks.profiles.ThreatProfile`, a
:class:`~repro.scada.network.SCADANetwork` (with installed variants), the
:class:`~repro.diversity.catalog.VariantCatalog`, the cooling plant and
the SCADA master into one discrete-event simulation.  Each replication
produces an :class:`AttackOutcome`, from which the paper's security
indicators — Time-To-Attack, Time-To-Security-Failure, compromised ratio
— are computed (:mod:`repro.core.indicators`).

Modeling notes
--------------

* Attempt processes are *thinned Poisson processes*: attempts occur at a
  vector's base rate and each succeeds with the per-variant probability
  from the catalog, so the time to first success is exponential with
  rate ``base_rate × p_success`` — zero-probability targets are simply
  never compromised.  This is exactly the paper's mechanism of *"varying
  the success probabilities involved at each attack stage"* as a function
  of the installed component variants.
* Failed attempts are noisy: they feed a detection process whose rate
  grows when behavioural antivirus variants are deployed.
* Sabotage couples to the physical plant through the PLC register image;
  the payload spoofs the monitoring signal (replay or constant-hold),
  and the master's alarm/spoof-detection logic defines the perceived
  manifestation time (TTSF).
* Time unit: hours.
"""

from __future__ import annotations

import bisect
import copy
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.telemetry.core import current as _current_telemetry
from repro.telemetry.core import metric_inc as _metric_inc
from repro.telemetry.core import trace as _span

if TYPE_CHECKING:  # avoid import cost on the hot serial path
    from repro.exec.runner import ExperimentRunner
    from repro.exec.seeding import SeedLike

from repro.attacks.profiles import ThreatProfile
from repro.attacks.stages import AttackStage, StageTracker
from repro.attacks.vectors import PropagationVector
from repro.diversity.catalog import VariantCatalog
from repro.scada.components import ComponentKind, HostRole
from repro.scada.monitoring import Alarm, SCADAMaster
from repro.scada.network import SCADANetwork, Zone
from repro.scada.plant.cooling import CoolingPlant, CoolingPlantConfig
from repro.scada.plant.process import PhysicalProcess
from repro.sim.engine import SimulationEngine
from repro.sim.trace import TraceRecorder


def _default_plant() -> PhysicalProcess:
    """The SCoPE-like cooling plant, history off for Monte-Carlo speed."""
    return CoolingPlant(CoolingPlantConfig(), record_history=False)


@dataclass
class CampaignConfig:
    """Campaign simulation parameters.

    Attributes:
        horizon: Simulation horizon (hours).
        tick_interval: Plant/master polling period (hours).
        failed_attempt_noise: Baseline probability that one failed
            exploit attempt is noticed by host defenses.
        response_enabled: If True, incident response reacts to the first
            detection; if False (default) the attack continues and
            detection is recorded as TTSF only.
        response_delay_rate: With response enabled, the eviction happens
            an Exp(rate)-distributed delay after detection (triage +
            containment time).  ``None`` means instantaneous eviction
            (the pre-existing stop-at-detection behaviour).
        plant_factory: Builds the physical process under control — the
            cooling plant by default; pass e.g.
            ``lambda: PowerFeeder()`` for the smart-grid scenario.  It
            must be deterministic: every call returns a plant in the
            same initial state.  Tick elision relies on that, and the
            healthy trajectory is cached per process under the factory
            object, so campaigns passing the same factory share it.
        tick_elision: Run the campaign event loop on the tick-elision
            fast path (default).  Pre-sabotage plant/master ticks are
            rng-free and independent of the attack state, so they are
            served from one lazily-extended healthy trajectory shared
            by every replication of every campaign with the same plant
            factory, tick interval and horizon; the per-tick loop
            resumes bit-exactly when a controller is reprogrammed.
            ``False`` keeps the legacy per-tick loop — outcomes are
            identical either way for the same seed (see
            ``tests/test_campaign_tick_elision.py``).
    """

    horizon: float = 400.0
    tick_interval: float = 0.25
    failed_attempt_noise: float = 0.03
    response_enabled: bool = False
    response_delay_rate: Optional[float] = None
    plant_factory: Callable[[], PhysicalProcess] = field(
        default=_default_plant
    )
    tick_elision: bool = True


@dataclass
class AttackOutcome:
    """Result of one campaign replication.

    Attributes:
        success: Whether the threat achieved its goal before the horizon.
        success_time: Goal-achievement time (nan when unsuccessful) —
            the Time-To-Attack sample.
        detection_time: First perceived manifestation (nan if never) —
            the Time-To-Security-Failure sample.
        compromise_times: ``{host: first_compromise_time}``.
        root_times: ``{host: root_access_time}``.
        sabotage_start: When the controller was reprogrammed (nan if
            never).
        stage_times: First-entry time per canonical attack stage.
        horizon: Horizon used.
        n_hosts: Total computer hosts in the system (denominator of the
            compromised ratio).
        trace: Full event trace.
        evicted: Whether incident response evicted the attacker before
            the goal (always False when response is disabled).
    """

    success: bool
    success_time: float
    detection_time: float
    compromise_times: Dict[str, float]
    root_times: Dict[str, float]
    sabotage_start: float
    stage_times: Dict[AttackStage, float]
    horizon: float
    n_hosts: int
    trace: TraceRecorder
    evicted: bool = False

    def compromised_ratio_at(self, time: float) -> float:
        """Fraction of hosts compromised by ``time``."""
        if self.n_hosts == 0:
            return 0.0
        count = sum(1 for t in self.compromise_times.values() if t <= time)
        return count / self.n_hosts

    def compromised_ratio_curve(
        self, times: List[float]
    ) -> List[Tuple[float, float]]:
        """The compromised-ratio step function sampled at ``times``."""
        return [(t, self.compromised_ratio_at(t)) for t in times]

    def response_row(
        self, horizon: float
    ) -> Tuple[float, float, float, float]:
        """The long-format response tuple
        ``(success, tta, ttsf, final_ratio)`` with the library's
        horizon-censoring conventions (censored times count ``horizon``).
        """
        return (
            1.0 if self.success else 0.0,
            self.success_time if self.success else horizon,
            (
                self.detection_time
                if not math.isnan(self.detection_time)
                else horizon
            ),
            self.compromised_ratio_at(horizon),
        )


def _response_row_unit(
    campaign: "AttackCampaign", rng: np.random.Generator
) -> Tuple[float, float, float, float]:
    """Run one replication, return only its compact response row.

    Module-level so the ``process`` backend can pickle it; shipping four
    floats back instead of a full :class:`AttackOutcome` (with its
    trace) is what makes :meth:`AttackCampaign.run_batch_table` cheap
    across process boundaries.
    """
    return campaign.run(rng).response_row(campaign.config.horizon)


def _feed_aggregators(
    aggregators: Tuple[Callable[..., None], ...],
    columns: Dict[str, np.ndarray],
    rows: np.ndarray,
) -> None:
    """Fold one chunk of response rows into every aggregator.

    Aggregators with an ``observe_columns`` method (e.g.
    :class:`~repro.results.streaming.StreamingSummary`) get the whole
    chunk vectorized; plain callables are invoked once per row of the
    ``(n, 4)`` block with the ``(success, tta, ttsf, final_ratio)``
    tuple.
    """
    for aggregator in aggregators:
        observe = getattr(aggregator, "observe_columns", None)
        if observe is not None:
            observe(columns)
        else:
            for row in rows.tolist():
                aggregator(tuple(row))


@dataclass
class _CampaignTables:
    """Static probability tables shared by every replication.

    Attributes:
        entry: ``(host, p_entry)`` per entry candidate, candidate order.
        escalation: ``host → p_escalation`` for computer hosts.
        detection_noise: ``host → p_detect`` for every host.
        propagation: ``source host → [(vector, target, rate, p), ...]``
            in the vector × target order the inline loop used.
        reprogram: ``host → [(plc, p), ...]`` over flow-allowed PLCs,
            with the host's engineering-tool factor folded in.
        spoof: Probability the payload can tamper the monitored signal.
        c2_p: Per-beacon detection probability of the threat's C2
            channel (``0.0`` without one).
        plcs: PLC host names, network order.
        n_hosts: Number of computer hosts (the compromised-ratio
            denominator).
    """

    entry: List[Tuple[str, float]]
    escalation: Dict[str, float]
    detection_noise: Dict[str, float]
    propagation: Dict[str, List[Tuple[str, str, float, float]]]
    reprogram: Dict[str, List[Tuple[str, float]]]
    spoof: float
    c2_p: float
    plcs: List[str]
    n_hosts: int


def _build_master(plant: PhysicalProcess) -> SCADAMaster:
    """The master configuration every replication (and the healthy
    trajectory probe) uses: one stress alarm plus spoof detection on the
    plant's monitored register."""
    monitored = plant.monitored_register
    master = SCADAMaster(
        alarms=[
            Alarm(
                "process_stress",
                monitored,
                high=plant.alarm_threshold,
                scale=plant.alarm_scale,
            )
        ]
    )
    master.watch(monitored)
    return master


#: Ticks scanned per milestone-pump step on the elided path.  Small
#: enough that replications ending early never pay for the full horizon,
#: large enough that pump events are negligible next to real ticks.
_MILESTONE_SCAN_CHUNK = 64


def _tick_times(tick_interval: float, horizon: float) -> List[float]:
    """Tick firing times ``[0.0, t_1, ..., t_n]`` up to ``horizon``.

    ``times[k]`` is tick ``k``'s firing time, built by repeated addition
    (``t += interval``) exactly like the legacy tick chain, so every
    path that reads it reproduces the same float values.
    """
    times = [0.0]
    while True:
        nxt = times[-1] + tick_interval
        if nxt > horizon:
            break
        times.append(nxt)
    return times


class _HealthyTickTrajectory:
    """The deterministic pre-sabotage tick trajectory of a plant.

    Until a controller is reprogrammed, the campaign's ``on_tick``
    handler is a pure function of the plant factory, the tick interval
    and the horizon: it draws no randomness, reads no attack state, and
    the control registers never change.  Every replication therefore
    ticks through the *same* healthy trajectory — so one probe
    simulation, extended lazily and shared by all replications of every
    campaign with an equal key (:func:`_shared_trajectory`), replaces
    the per-tick loop.  The probe records, per tick ``k`` (1-based,
    times built by the same float accumulation the event loop uses):

    * the master's first finding (alarm or spoof-detector label) and
      the first tick at which accumulated damage crosses impairment —
      the only two tick-loop effects visible to a replication that
      never reaches sabotage;
    * the monitored reading stream (for spoofer/detector state
      restoration) and full ``(plant, registers, damage)`` snapshots,
      so a replication whose sabotage starts after tick ``j`` can
      resume the exact legacy per-tick loop from tick ``j + 1``.

    Thread-safe: extension is serialized by a lock (the ``thread``
    backend runs replications concurrently); already scanned ticks are
    immutable and read lock-free.
    """

    def __init__(
        self, config: CampaignConfig, record_snapshots: bool = True
    ) -> None:
        # The trajectory is shared across campaigns (see
        # _shared_trajectory), so it copies the config fields it reads
        # now and never holds the config: a caller mutating one
        # campaign's config in place cannot corrupt the others'.
        self.tick_interval = config.tick_interval
        self.horizon = config.horizon
        self._dt_seconds = config.tick_interval * 3600.0
        self.record_snapshots = record_snapshots
        self.plant = config.plant_factory()
        # Duck-typed plants that do not subclass PhysicalProcess have no
        # clone(); they are snapshotted with its deep-copy default.
        self._clone = getattr(type(self.plant), "clone", copy.deepcopy)
        self.registers = self.plant.default_registers()
        self.damage = self.plant.make_damage_model()
        self.monitored = self.plant.monitored_register
        self.master = _build_master(self.plant)
        self.times = _tick_times(config.tick_interval, config.horizon)
        self.n_ticks = len(self.times) - 1
        self.scanned = 0
        # Index k holds post-tick-k state; index 0 is the initial state.
        self.snapshots: List[Tuple[PhysicalProcess, Dict[int, int], float]] = [
            (self._clone(self.plant), dict(self.registers), 0.0)
        ]
        self.readings: List[float] = [float("nan")]  # index 0 unused
        self.first_finding: Optional[Tuple[int, str]] = None
        self.first_impairment: Optional[int] = None
        self._lock = threading.Lock()

    @property
    def scan_exhausted(self) -> bool:
        """Whether every tick up to the horizon has been scanned."""
        return self.scanned >= self.n_ticks

    def tick_time(self, k: int) -> Optional[float]:
        """Tick ``k``'s firing time, or None past the horizon."""
        if 1 <= k <= self.n_ticks:
            return self.times[k]
        return None

    def ticks_at_or_before(self, time: float) -> int:
        """How many ticks fire at or before ``time``."""
        return min(bisect.bisect_right(self.times, time) - 1, self.n_ticks)

    def scan_to(self, k: int) -> None:
        """Extend the probe simulation through tick ``min(k, n_ticks)``."""
        if self.scanned >= min(k, self.n_ticks):
            return
        with self._lock:
            start = self.scanned
            target = min(k, self.n_ticks)
            while self.scanned < target:
                self._step_once()
            stepped = self.scanned - start
        if stepped:
            _metric_inc("campaign.healthy_ticks_scanned", stepped)

    def _step_once(self) -> None:
        """One healthy tick, mirroring ``on_tick``'s pre-sabotage body."""
        k = self.scanned + 1
        now = self.times[k]
        dt_seconds = self._dt_seconds
        self.plant.step(self.registers, dt=dt_seconds)
        self.damage.update(self.plant.stress_level(), dt_seconds, now)
        reported = dict(self.registers)
        actual = float(self.registers.get(self.monitored, 0))
        findings = self.master.poll(now, reported)
        self.readings.append(actual)
        if self.record_snapshots:
            self.snapshots.append(
                (
                    self._clone(self.plant),
                    dict(self.registers),
                    self.damage.damage,
                )
            )
        if findings and self.first_finding is None:
            self.first_finding = (k, findings[0])
        if self.damage.impaired and self.first_impairment is None:
            self.first_impairment = k
        self.scanned = k

    # -------------------- replication restore helpers --------------------

    def _require_snapshots(self) -> None:
        if not self.record_snapshots:
            raise RuntimeError(
                "trajectory was built without state snapshots "
                "(record_snapshots=False); restore is only needed — and "
                "snapshots only recorded — for sabotage-capable "
                "(impair-goal) campaigns"
            )

    def plant_at(self, k: int) -> PhysicalProcess:
        """A private copy of the plant state after tick ``k``."""
        self._require_snapshots()
        self.scan_to(k)
        return self._clone(self.snapshots[k][0])

    def registers_at(self, k: int) -> Dict[int, int]:
        """The register image after tick ``k``."""
        self._require_snapshots()
        self.scan_to(k)
        return dict(self.snapshots[k][1])

    def damage_at(self, k: int) -> float:
        """Accumulated damage after tick ``k``."""
        self._require_snapshots()
        self.scan_to(k)
        return self.snapshots[k][2]

    def readings_through(self, k: int) -> List[float]:
        """Monitored readings of ticks ``1..k`` (the healthy record
        stream seen by spoofers and the master's spoof detector)."""
        self.scan_to(k)
        return self.readings[1 : k + 1]


#: Distinct healthy trajectories kept per process.  A DoE study varies
#: only the diversity configuration between runs, so its campaigns share
#: one key; the 12 built-in scenarios use 5.
_TRAJECTORY_CACHE_SIZE = 8

_trajectory_cache: "OrderedDict[tuple, _HealthyTickTrajectory]" = OrderedDict()
_trajectory_cache_lock = threading.Lock()


def _shared_trajectory(
    config: CampaignConfig, record_snapshots: bool
) -> _HealthyTickTrajectory:
    """The process-wide healthy trajectory for ``config`` (LRU-cached).

    The key is the content the trajectory reads: the plant factory, the
    tick interval (value and type, since the tick times are accumulated
    in its type), the horizon and whether snapshots are recorded.  It
    holds the factory by strong reference, so a collected factory's
    address can never alias a live entry; factories must be
    deterministic (see :attr:`CampaignConfig.plant_factory`).  The lock
    guards only the lookup and the insert — a trajectory is cheap to
    construct because it scans lazily, and a racing duplicate is dropped
    in favour of the entry that got there first.
    """
    key = (
        config.plant_factory,
        config.tick_interval,
        type(config.tick_interval),
        config.horizon,
        record_snapshots,
    )
    try:
        hash(key)
    except TypeError:  # an unhashable factory object: build uncached
        _metric_inc("campaign.trajectory_builds")
        return _HealthyTickTrajectory(config, record_snapshots)
    with _trajectory_cache_lock:
        trajectory = _trajectory_cache.get(key)
        if trajectory is not None:
            _trajectory_cache.move_to_end(key)
            return trajectory
    built = _HealthyTickTrajectory(config, record_snapshots)
    with _trajectory_cache_lock:
        trajectory = _trajectory_cache.setdefault(key, built)
        _trajectory_cache.move_to_end(key)
        while len(_trajectory_cache) > _TRAJECTORY_CACHE_SIZE:
            _trajectory_cache.popitem(last=False)
    if trajectory is built:
        _metric_inc("campaign.trajectory_builds")
    return trajectory


class AttackCampaign:
    """Runs attack campaigns against a configured SCADA system.

    The per-host success/detection probabilities are pure functions of
    the (network, catalog, threat, config) quadruple, which is fixed for
    the campaign's lifetime — they are compiled into lookup tables on
    the first replication (:meth:`_compile_tables`) instead of being
    recomputed from catalog lookups on every event.  Values and
    iteration orders replicate the inline computations exactly, so
    outcomes are bit-identical to the uncached path.

    Mutating the network/catalog/threat *after* a replication has run
    therefore requires :meth:`invalidate_tables` (in-repo callers build
    a fresh campaign per configuration, which is the recommended
    pattern).
    """

    def __init__(
        self,
        network: SCADANetwork,
        catalog: VariantCatalog,
        threat: ThreatProfile,
        config: Optional[CampaignConfig] = None,
    ) -> None:
        self.network = network
        self.catalog = catalog
        self.threat = threat
        self.config = config or CampaignConfig()
        self._tables: Optional[_CampaignTables] = None
        self._trajectory: Optional[_HealthyTickTrajectory] = None

    def __getstate__(self) -> Dict[str, object]:
        """Pickle without the healthy trajectory (it holds a lock; a
        worker looks it up in its own process cache, or the one it
        inherited at fork)."""
        state = self.__dict__.copy()
        state["_trajectory"] = None
        return state

    # ------------------------------------------------------------------
    # probability helpers
    # ------------------------------------------------------------------

    def _entry_candidates(self) -> List[str]:
        """Hosts the initial infection can land on.

        Removable media crosses air gaps: any computer with USB ports is
        a candidate; enterprise-zone computers are candidates regardless
        (mail/web entry).
        """
        names: List[str] = []
        for host in self.network.hosts:
            if not host.is_computer:
                continue
            if host.usb_ports or self.network.zone_of(host.name) == Zone.ENTERPRISE:
                names.append(host.name)
        return names

    def _entry_probability(self, host_name: str) -> float:
        host = self.network.host(host_name)
        os_variant = host.variant_of(ComponentKind.OPERATING_SYSTEM)
        action = "usb_autorun" if host.usb_ports else "net_exploit"
        p = self.catalog.success_probability(
            ComponentKind.OPERATING_SYSTEM, os_variant, action
        )
        av = host.variant_of(ComponentKind.ANTIVIRUS)
        if av is not None:
            p *= self.catalog.success_probability(
                ComponentKind.ANTIVIRUS, av, "av_evasion"
            )
        if host.resilient:
            p *= 0.05
        return p

    def _escalation_probability(self, host_name: str) -> float:
        host = self.network.host(host_name)
        os_variant = host.variant_of(ComponentKind.OPERATING_SYSTEM)
        p = self.catalog.success_probability(
            ComponentKind.OPERATING_SYSTEM, os_variant, "priv_escalation"
        )
        if host.resilient:
            p *= 0.05
        return p

    def _propagation_probability(
        self, vector: PropagationVector, target_name: str
    ) -> float:
        target = self.network.host(target_name)
        p = vector.success_probability(target, self.catalog)
        if target.resilient:
            p *= 0.05
        return p

    def _reprogram_probability(self, plc_name: str) -> float:
        plc = self.network.host(plc_name)
        p_fw = self.catalog.success_probability(
            ComponentKind.PLC_FIRMWARE,
            plc.variant_of(ComponentKind.PLC_FIRMWARE),
            "reprogram",
        )
        p_stack = self.catalog.success_probability(
            ComponentKind.PROTOCOL_STACK,
            plc.variant_of(ComponentKind.PROTOCOL_STACK),
            "reprogram",
        )
        p = p_fw * p_stack
        if plc.resilient:
            p *= 0.05
        return p

    def _spoof_probability(self) -> float:
        """Probability the payload can tamper with the monitored signal."""
        sensors = self.network.hosts_with_role(HostRole.SENSOR)
        if not sensors:
            return 1.0
        # The attacker must tamper with the sensor path feeding the
        # master; authenticated sensors make that unlikely.
        probs = [
            self.catalog.success_probability(
                ComponentKind.SENSOR_MODEL,
                s.variant_of(ComponentKind.SENSOR_MODEL),
                "signal_tamper",
            )
            for s in sensors
        ]
        return max(probs)

    def _detection_noise(self, host_name: str) -> float:
        """Per-failed-attempt detection probability at ``host_name``."""
        host = self.network.host(host_name)
        base = self.config.failed_attempt_noise
        av = host.variant_of(ComponentKind.ANTIVIRUS)
        if av is not None:
            evasion = self.catalog.success_probability(
                ComponentKind.ANTIVIRUS, av, "av_evasion"
            )
            base += 0.25 * (1.0 - evasion)
        return min(1.0, base)

    def _propagation_plans(
        self,
        host: str,
        memo: Optional[Dict[Tuple[int, str], float]] = None,
    ) -> List[Tuple[str, str, float, float]]:
        """``(vector, target, rate, p)`` lateral-movement plans from ``host``.

        ``p`` depends on the vector and the target only, so
        :meth:`_compile_tables` shares one ``memo`` (keyed by vector
        index and target) across all source hosts.
        """
        if memo is None:
            memo = {}
        plans: List[Tuple[str, str, float, float]] = []
        for index, vector in enumerate(self.threat.vectors):
            for target in vector.targets(host, self.network):
                p = memo.get((index, target))
                if p is None:
                    p = self._propagation_probability(vector, target)
                    memo[index, target] = p
                plans.append((vector.name, target, vector.rate, p))
        return plans

    def _reprogram_plans(
        self,
        host: str,
        plcs: List[str],
        memo: Optional[Dict[str, float]] = None,
    ) -> List[Tuple[str, float]]:
        """``(plc, p)`` over flow-allowed PLCs, engineering tool folded in.

        Stuxnet drove the PLC through the engineering suite: a tool
        variant on ``host`` scales the reprogram probability.  The
        per-PLC probability before that scaling is cached in ``memo``
        (shared across hosts by :meth:`_compile_tables`).
        """
        if memo is None:
            memo = {}
        tool = self.network.host(host).variant_of(
            ComponentKind.ENGINEERING_TOOL
        )
        tool_factor = (
            self.catalog.success_probability(
                ComponentKind.ENGINEERING_TOOL, tool, "reprogram"
            )
            if tool is not None
            else None
        )
        plans: List[Tuple[str, float]] = []
        for plc_name in plcs:
            if not self.network.flow_allowed(host, plc_name, "modbus"):
                continue
            p = memo.get(plc_name)
            if p is None:
                p = memo[plc_name] = self._reprogram_probability(plc_name)
            if tool_factor is not None:
                p *= tool_factor
            plans.append((plc_name, p))
        return plans

    def invalidate_tables(self) -> None:
        """Drop the compiled probability tables and healthy trajectory.

        Call after mutating the campaign's network, catalog, threat or
        config in place; the next replication recompiles the tables and
        looks the trajectory up again under the current configuration.
        The shared trajectory itself is left in the cache for other
        campaigns.
        """
        self._tables = None
        self._trajectory = None

    def _healthy_trajectory(self) -> _HealthyTickTrajectory:
        """The shared healthy tick trajectory (looked up on first use).

        Per-tick state snapshots exist to resume the per-tick loop at
        sabotage, which only ``"impair"``-goal threats can trigger —
        other goals skip the clone-per-tick cost entirely.
        """
        trajectory = self._trajectory
        if trajectory is None:
            trajectory = _shared_trajectory(
                self.config,
                record_snapshots=(self.threat.goal == "impair"),
            )
            self._trajectory = trajectory
        return trajectory

    def _compile_tables(self) -> _CampaignTables:
        """Build (once) the static probability tables ``run`` reads."""
        if self._tables is not None:
            return self._tables
        computers = [h.name for h in self.network.hosts if h.is_computer]
        plcs = [h.name for h in self.network.hosts_with_role(HostRole.PLC)]
        propagation_memo: Dict[Tuple[int, str], float] = {}
        reprogram_memo: Dict[str, float] = {}
        self._tables = _CampaignTables(
            entry=[
                (h, self._entry_probability(h))
                for h in self._entry_candidates()
            ],
            escalation={h: self._escalation_probability(h) for h in computers},
            detection_noise={
                h: self._detection_noise(h) for h in self.network.host_names
            },
            propagation={
                h: self._propagation_plans(h, propagation_memo)
                for h in computers
            },
            reprogram={
                h: self._reprogram_plans(h, plcs, reprogram_memo)
                for h in computers
            },
            spoof=self._spoof_probability(),
            c2_p=(
                0.0
                if self.threat.c2 is None
                else self.threat.c2.detection_probability(
                    self.network, self.catalog
                )
            ),
            plcs=plcs,
            n_hosts=len(computers),
        )
        return self._tables

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------

    def run(self, rng: np.random.Generator) -> AttackOutcome:
        """One campaign replication.

        Runs the tick-elision fast path when
        :attr:`CampaignConfig.tick_elision` is set (the default): the
        rng-free healthy tick stream is served from the campaign's
        shared :class:`_HealthyTickTrajectory` and the legacy per-tick
        loop is resumed — from a bit-exact state restore — only once a
        controller is reprogrammed.  Outcomes are identical to the
        legacy loop for the same generator state.

        A replication frees its own object graph (engine, pending
        events, plant, master, spoofer) by refcount as soon as it
        returns or raises; see :meth:`_replicate` for why that needs
        explicit cycle breaks.
        """
        # The per-campaign tables and trajectory (built by the first
        # call, cached after) stay outside the per-replication span.
        tables = self._compile_tables()
        traj = self._healthy_trajectory() if self.config.tick_elision else None
        with _span("campaign.replication"):
            return self._replicate(rng, tables, traj)

    def _replicate(
        self,
        rng: np.random.Generator,
        tables: _CampaignTables,
        traj: Optional[_HealthyTickTrajectory],
    ) -> AttackOutcome:
        """The body of :meth:`run`, inside its ``campaign.replication``
        span: per-replication set-up, event loop and outcome assembly.

        The handler closures below call each other through closure
        cells, and events still queued when the loop ends reach the
        engine (and ``elided``) back through theirs, so the whole
        replication is one reference cycle.  Left alone, every
        replication would wait for the cyclic garbage collector, whose
        passes then scan ~177k objects per 12-built-in suite run.  The
        ``finally`` block breaks the cycles (drops the pending events,
        the pending exfiltration check and the handler names), so the
        graph is freed by refcount; it touches no RNG or simulation
        state the outcome reads.
        """
        cfg = self.config
        elide = cfg.tick_elision
        engine = SimulationEngine()
        trace = TraceRecorder()
        stages = StageTracker()

        plcs = tables.plcs
        n_hosts = tables.n_hosts

        compromised: Set[str] = set()
        activated: Set[str] = set()
        rooted: Set[str] = set()
        compromise_times: Dict[str, float] = {}
        root_times: Dict[str, float] = {}
        scheduled_pairs: Set[Tuple[str, str, str]] = set()
        reprogram_scheduled: Set[str] = set()

        state = {
            "detection_time": float("nan"),
            "success_time": float("nan"),
            "sabotage_start": float("nan"),
            "exfiltrated": 0.0,
            "spoof_effective": False,
            "c2_started": False,
            "done": False,
            "evicted": False,
        }

        plant = cfg.plant_factory()
        registers = plant.default_registers()
        damage = plant.make_damage_model()
        monitored = plant.monitored_register
        master = _build_master(plant)
        spoofer = self.threat.make_spoofer()

        # Tick-elision bookkeeping (one dict to keep the closures below
        # free of nonlocal declarations).  ``suspended`` flips when the
        # legacy per-tick loop takes over at sabotage; stale milestone
        # events then no-op instead of being cancelled.
        elided: Dict[str, object] = {
            "suspended": False,
            "detect_scheduled": False,
            "impair_scheduled": False,
            "effects_tick": 0,
            "frontier": 0,
            "exfil_idx": 0,
            "exfil_amount": 0.0,
            "exfil_n": 0,
            "exfil_event": None,
        }

        def evict(time: float) -> None:
            if state["done"]:
                return
            state["evicted"] = True
            state["done"] = True
            trace.record(time, "eviction", "incident_response")
            engine.request_stop()

        def detect(time: float, source: str) -> None:
            if math.isnan(state["detection_time"]):
                state["detection_time"] = time
                trace.record(time, "detection", source)
                if cfg.response_enabled:
                    if cfg.response_delay_rate is None:
                        evict(time)
                    else:
                        delay = rng.exponential(
                            1.0 / cfg.response_delay_rate
                        )
                        if time + delay <= cfg.horizon:
                            engine.schedule(
                                time + delay, lambda ev: evict(ev.time)
                            )

        def succeed(time: float, how: str) -> None:
            if math.isnan(state["success_time"]):
                state["success_time"] = time
                trace.record(time, "goal", how)
                state["done"] = True
                engine.request_stop()

        # -------------------------- handlers ---------------------------

        def schedule_detection_noise(
            now: float, rate: float, p_success: float, host: str
        ) -> None:
            """Failed attempts against ``host`` may be noticed."""
            noisy_rate = (
                rate * (1.0 - p_success) * tables.detection_noise[host]
            )
            if noisy_rate <= 0:
                return
            t = now + rng.exponential(1.0 / noisy_rate)
            if t <= cfg.horizon:
                engine.schedule(
                    t, lambda ev, h=host: detect(ev.time, f"host_ids:{h}")
                )

        def schedule_compromise(
            now: float,
            source: str,
            target: str,
            vector_name: str,
            rate: float,
            p_success: float,
        ) -> None:
            key = (source, target, vector_name)
            if key in scheduled_pairs or target in compromised:
                return
            scheduled_pairs.add(key)
            schedule_detection_noise(now, rate, p_success, target)
            effective = rate * p_success
            if effective <= 0:
                return
            t = now + rng.exponential(1.0 / effective)
            if t <= cfg.horizon:
                engine.schedule(
                    t,
                    lambda ev, tgt=target, vec=vector_name: on_compromise(
                        ev.time, tgt, vec
                    ),
                )

        def on_compromise(now: float, host: str, how: str) -> None:
            if host in compromised or state["done"]:
                return
            compromised.add(host)
            compromise_times[host] = now
            trace.record(now, "compromise", host, vector=how)
            stages.reach(AttackStage.INITIAL, now, host)
            if how != "entry":
                # Lateral movement, not an independent initial infection.
                stages.reach(AttackStage.PROPAGATION, now, host)
            delay = rng.exponential(1.0 / self.threat.activation_delay_rate)
            if now + delay <= cfg.horizon:
                engine.schedule(
                    now + delay, lambda ev, h=host: on_activation(ev.time, h)
                )
            if self.threat.goal == "recon":
                if len(compromised) >= self.threat.recon_fraction * n_hosts:
                    succeed(now, "recon_complete")

        def on_activation(now: float, host: str) -> None:
            if state["done"] or host in activated:
                return
            activated.add(host)
            trace.record(now, "activation", host)
            stages.reach(AttackStage.ACTIVATED, now, host)
            # C2 channel comes alive with the first activation.
            if self.threat.c2 is not None and not state["c2_started"]:
                state["c2_started"] = True
                t_detect = self.threat.c2.sample_detection_time(
                    now, cfg.horizon, tables.c2_p, rng
                )
                if t_detect is not None:
                    engine.schedule(
                        t_detect, lambda ev: detect(ev.time, "c2_beacon")
                    )
            # Privilege escalation.
            p_root = tables.escalation.get(host)
            if p_root is None:
                p_root = self._escalation_probability(host)
            schedule_detection_noise(
                now, self.threat.escalation_rate, p_root, host
            )
            rate = self.threat.escalation_rate * p_root
            if rate > 0:
                t = now + rng.exponential(1.0 / rate)
                if t <= cfg.horizon:
                    engine.schedule(
                        t, lambda ev, h=host: on_root(ev.time, h)
                    )
            # Lateral movement.
            plans = tables.propagation.get(host)
            if plans is None:  # non-computer host: not precompiled
                plans = self._propagation_plans(host)
            for vector_name, target, rate, p in plans:
                schedule_compromise(
                    now, host, target, vector_name, rate, p
                )

        def on_root(now: float, host: str) -> None:
            if state["done"] or host in rooted:
                return
            rooted.add(host)
            root_times[host] = now
            trace.record(now, "root", host)
            stages.reach(AttackStage.ROOT_ACCESS, now, host)
            maybe_schedule_reprogram(now, host)
            if elide and self.threat.goal == "exfiltrate":
                _exfil_update(now)

        def maybe_schedule_reprogram(now: float, host: str) -> None:
            if self.threat.goal != "impair":
                return
            role = self.network.host(host).role
            if (
                self.threat.requires_engineering_host
                and role != HostRole.ENGINEERING_WORKSTATION
            ):
                return
            plc_probs = tables.reprogram.get(host)
            if plc_probs is None:  # non-computer host: not precompiled
                plc_probs = self._reprogram_plans(host, plcs)
            for plc_name, p in plc_probs:
                if plc_name in reprogram_scheduled:
                    continue
                schedule_detection_noise(
                    now, self.threat.reprogram_rate, p, plc_name
                )
                rate = self.threat.reprogram_rate * p
                if rate <= 0:
                    continue
                reprogram_scheduled.add(plc_name)
                t = now + rng.exponential(1.0 / rate)
                if t <= cfg.horizon:
                    engine.schedule(
                        t,
                        lambda ev, p_name=plc_name: on_sabotage(
                            ev.time, p_name
                        ),
                    )

        def on_sabotage(now: float, plc_name: str) -> None:
            if state["done"] or not math.isnan(state["sabotage_start"]):
                return
            if elide:
                _resume_ticking(now)
            state["sabotage_start"] = now
            trace.record(now, "sabotage", plc_name)
            plant.sabotage(registers)
            state["spoof_effective"] = (
                spoofer is not None and rng.random() < tables.spoof
            )

        def _reachable_data() -> List[str]:
            """Rooted hosts with process-data access (exfiltration)."""
            return [
                h
                for h in rooted
                if self.network.host(h).role
                in (HostRole.HISTORIAN, HostRole.SCADA_SERVER)
                or any(
                    self.network.flow_allowed(h, other, "historian")
                    for other in self.network.host_names
                    if self.network.host(other).role == HostRole.HISTORIAN
                )
            ]

        def on_tick(now: float) -> None:
            if state["done"]:
                return
            state["ticks"] = state.get("ticks", 0) + 1
            dt_seconds = cfg.tick_interval * 3600.0
            plant.step(registers, dt=dt_seconds)
            damage.update(plant.stress_level(), dt_seconds, now)
            sabotage_active = not math.isnan(state["sabotage_start"])
            # What the master sees.
            reported = dict(registers)
            actual_reading = float(registers.get(monitored, 0))
            if sabotage_active and state["spoof_effective"] and spoofer is not None:
                reported[monitored] = max(0, int(spoofer.emit(rng)))
            elif spoofer is not None and not sabotage_active:
                spoofer.record(actual_reading)
            findings = master.poll(now, reported)
            if findings:
                detect(now, findings[0])
            # Goal progress.
            if self.threat.goal == "impair" and damage.impaired:
                stages.reach(
                    AttackStage.DEVICE_IMPAIRMENT, now, "physical_process"
                )
                succeed(now, "device_impairment")
            if self.threat.goal == "exfiltrate":
                reachable_data = _reachable_data()
                if reachable_data:
                    state["exfiltrated"] += (
                        self.threat.exfiltration_rate
                        * cfg.tick_interval
                        * len(reachable_data)
                    )
                    if state["exfiltrated"] >= self.threat.exfiltration_target:
                        succeed(now, "exfiltration_complete")
            next_tick = now + cfg.tick_interval
            if next_tick <= cfg.horizon:
                engine.schedule(next_tick, lambda ev: on_tick(ev.time))

        # ---------------------- tick-elision fast path ------------------
        #
        # Pre-sabotage, ``on_tick`` draws no randomness and depends only
        # on the (plant, config) pair, so its three observable effects —
        # the master's first finding, healthy impairment, and
        # exfiltration accrual — are reproduced from the shared healthy
        # trajectory (the first two) and tick arithmetic (the third).
        # Once sabotage starts, ``_resume_ticking`` restores the exact
        # legacy state at the last elided tick and hands control back to
        # ``on_tick``.

        def _healthy_tick_effects(ev) -> None:
            """Replay every elided effect of the tick firing at ``ev.time``.

            One idempotent dispatcher backs all scheduled milestone /
            exfiltration-check events, because the legacy ``on_tick``
            body does *not* stop mid-tick when detection evicts the
            attacker: an eviction (which sets ``done``) is still
            followed, within the same tick, by the impairment and
            exfiltration success checks.  Processing the whole tick from
            whichever coinciding event fires first — in the legacy
            sub-order detect → impair → exfiltrate, with ``done``
            guarding only the tick *entry* — reproduces that exactly.
            """
            if elided["suspended"] or state["done"]:
                return
            now = ev.time
            k = traj.ticks_at_or_before(now)
            if elided["effects_tick"] == k:
                return  # a coinciding event already replayed this tick
            elided["effects_tick"] = k
            finding = traj.first_finding
            if finding is not None and finding[0] == k:
                detect(now, finding[1])
            if (
                self.threat.goal == "impair"
                and traj.first_impairment == k
            ):
                stages.reach(
                    AttackStage.DEVICE_IMPAIRMENT, now, "physical_process"
                )
                succeed(now, "device_impairment")
            if self.threat.goal == "exfiltrate":
                _exfil_catch_up(now)
                if (
                    float(elided["exfil_amount"])
                    >= self.threat.exfiltration_target
                ):
                    succeed(now, "exfiltration_complete")

        def _advance_milestones(ev=None) -> None:
            """Scan the next trajectory chunk; schedule found milestones.

            Re-scheduled at the scan frontier while a milestone is still
            unresolved, so replications that end early never pay for a
            full-horizon scan.
            """
            if state["done"] or elided["suspended"]:
                return
            need_impair = self.threat.goal == "impair"
            traj.scan_to(int(elided["frontier"]) + _MILESTONE_SCAN_CHUNK)
            elided["frontier"] = traj.scanned
            if not elided["detect_scheduled"] and traj.first_finding:
                elided["detect_scheduled"] = True
                engine.schedule(
                    traj.tick_time(traj.first_finding[0]),
                    _healthy_tick_effects,
                )
            if (
                need_impair
                and not elided["impair_scheduled"]
                and traj.first_impairment is not None
            ):
                elided["impair_scheduled"] = True
                engine.schedule(
                    traj.tick_time(traj.first_impairment),
                    _healthy_tick_effects,
                )
            unresolved = (
                not elided["detect_scheduled"]
                or (need_impair and not elided["impair_scheduled"])
            ) and not traj.scan_exhausted
            if unresolved:
                engine.schedule(
                    traj.tick_time(int(elided["frontier"])),
                    _advance_milestones,
                )

        def _exfil_catch_up(now: float) -> None:
            """Accrue the elided ticks at or before ``now`` with the
            current reachable-host count (exactly one addition per tick,
            in tick order, matching the legacy loop's float stream)."""
            idx = int(elided["exfil_idx"])
            n = int(elided["exfil_n"])
            while True:
                t_next = traj.tick_time(idx + 1)
                if t_next is None or t_next > now:
                    break
                idx += 1
                if n > 0:
                    elided["exfil_amount"] = float(elided["exfil_amount"]) + (
                        self.threat.exfiltration_rate * cfg.tick_interval * n
                    )
            elided["exfil_idx"] = idx

        def _exfil_update(now: float) -> None:
            """Re-predict the exfiltration-complete tick after ``rooted``
            changed; keeps exactly one pending check event at the tick
            where the legacy loop would declare success."""
            _exfil_catch_up(now)
            elided["exfil_n"] = len(_reachable_data())
            pending = elided["exfil_event"]
            if pending is not None:
                engine.cancel(pending)
                elided["exfil_event"] = None
            n = int(elided["exfil_n"])
            if n <= 0:
                return
            amount = float(elided["exfil_amount"])
            k = int(elided["exfil_idx"])
            while True:
                t_next = traj.tick_time(k + 1)
                if t_next is None:
                    return  # never crosses the target before the horizon
                k += 1
                amount += (
                    self.threat.exfiltration_rate * cfg.tick_interval * n
                )
                if amount >= self.threat.exfiltration_target:
                    elided["exfil_event"] = engine.schedule(
                        t_next, _healthy_tick_effects
                    )
                    return

        def _resume_ticking(now: float) -> None:
            """Hand control back to the legacy per-tick loop at sabotage.

            Restores plant, registers, damage, spoofer and the master's
            spoof-detector window to their exact states after the last
            elided tick ``j <= now``, then schedules tick ``j + 1`` —
            from there on the resumed loop is byte-for-byte the legacy
            one (including its per-tick spoofed-signal rng draws).
            """
            nonlocal plant
            elided["suspended"] = True
            j = traj.ticks_at_or_before(now)
            elided["resume_tick"] = j
            plant = traj.plant_at(j)
            registers.clear()
            registers.update(traj.registers_at(j))
            # repro: allow[RACE002] engine callbacks run single-threaded inside one work unit's event loop
            damage.damage = traj.damage_at(j)
            healthy_readings = traj.readings_through(j)
            if spoofer is not None:
                for value in healthy_readings:
                    spoofer.record(value)
            detector = master.detectors.get(monitored)
            if detector is not None:
                detector.preload(healthy_readings[-detector.window:])
            t_next = traj.tick_time(j + 1)
            if t_next is not None:
                engine.schedule(t_next, lambda ev: on_tick(ev.time))

        # --------------------------- kick-off ---------------------------

        try:
            for entry, p in tables.entry:
                schedule_detection_noise(0.0, self.threat.entry_rate, p, entry)
                rate = self.threat.entry_rate * p
                if rate > 0:
                    t = rng.exponential(1.0 / rate)
                    if t <= cfg.horizon:
                        engine.schedule(
                            t,
                            lambda ev, h=entry: on_compromise(
                                ev.time, h, "entry"
                            ),
                        )
            if elide:
                _advance_milestones()
            else:
                engine.schedule(cfg.tick_interval, lambda ev: on_tick(ev.time))
            engine.run(horizon=cfg.horizon)

            # Telemetry accounting happens after the event loop has
            # fully settled and touches no RNG or simulation state, so
            # enabling it can never perturb the outcome.
            telemetry = _current_telemetry()
            if telemetry is not None:
                metrics = telemetry.metrics
                metrics.inc("campaign.replications")
                metrics.inc("campaign.ticks_executed", state.get("ticks", 0))
                if elide:
                    if elided["suspended"]:
                        metrics.inc("campaign.sabotage_resumes")
                        metrics.inc(
                            "campaign.ticks_elided", int(elided["resume_tick"])
                        )
                    else:
                        metrics.inc(
                            "campaign.ticks_elided",
                            traj.ticks_at_or_before(
                                min(engine.now, cfg.horizon)
                            ),
                        )

            return AttackOutcome(
                success=not math.isnan(state["success_time"]),
                success_time=state["success_time"],
                detection_time=state["detection_time"],
                compromise_times=compromise_times,
                root_times=root_times,
                sabotage_start=state["sabotage_start"],
                stage_times={
                    r.stage: r.time for r in stages.records()
                },
                horizon=cfg.horizon,
                n_hosts=n_hosts,
                trace=trace,
                evicted=bool(state["evicted"]),
            )
        finally:
            # Break the reference cycles the docstring describes, so the
            # replication is freed by refcount, raised or not.
            engine.reset()
            elided["exfil_event"] = None
            del (
                evict, detect, succeed, schedule_detection_noise,
                schedule_compromise, on_compromise, on_activation, on_root,
                maybe_schedule_reprogram, on_sabotage, _reachable_data,
                on_tick, _healthy_tick_effects, _advance_milestones,
                _exfil_catch_up, _exfil_update, _resume_ticking,
            )

    def run_batch(
        self,
        replications: int,
        rng: "SeedLike" = None,
        runner: Optional["ExperimentRunner"] = None,
        on_result: Optional[Callable[[int], None]] = None,
        cancel: Optional[object] = None,
    ) -> List[AttackOutcome]:
        """Independent replications.

        Two execution modes:

        * **Shared-generator (legacy)** — when ``rng`` is a
          :class:`numpy.random.Generator` and no ``runner`` is given,
          replications draw sequentially from that one generator,
          preserving the library's historical streams.
        * **Runner** — when a ``runner`` is given (or ``rng`` is a seed
          / ``SeedSequence`` / ``None``), each replication gets its own
          generator spawned centrally from the root seed, so results
          are identical across the ``serial``, ``thread`` and
          ``process`` backends and any worker count.  A ``Generator``
          passed together with a runner contributes one draw to derive
          the root seed.

        ``on_result(replication_index)`` (optional) reports partial
        progress; ``cancel`` (optional, ``is_set()`` protocol) aborts
        the batch with
        :class:`~repro.exec.backends.ExecutionCancelled`.  Neither
        affects outcomes.

        Raises:
            ValueError: If ``replications < 1``.
        """
        if replications < 1:
            raise ValueError(f"replications must be >= 1, got {replications}")
        if runner is None and isinstance(rng, np.random.Generator):
            outcomes: List[AttackOutcome] = []

            def take(index: int, outcome: AttackOutcome) -> None:
                outcomes.append(outcome)
                if on_result is not None:
                    on_result(index)

            self._legacy_batch(replications, rng, self.run, take, cancel)
            return outcomes
        from repro.exec import ExperimentRunner

        active = runner or ExperimentRunner()

        def unit_hook(index: int, _outcome: AttackOutcome) -> None:
            if on_result is not None:
                on_result(index)

        return active.run_replications(
            self.run,
            replications,
            seed=rng,
            on_result=unit_hook,
            cancel=cancel,
        )

    @staticmethod
    def _legacy_batch(
        replications: int,
        rng: np.random.Generator,
        body: Callable[[np.random.Generator], object],
        take: Callable[[int, object], None],
        cancel: Optional[object],
    ) -> None:
        """The shared-generator loop: replication ``index`` draws from
        ``rng`` after every earlier one and hands its result to
        ``take(index, result)``."""
        from repro.exec.backends import ExecutionCancelled

        for index in range(replications):
            if cancel is not None and cancel.is_set():
                raise ExecutionCancelled(
                    f"batch cancelled after {index} of "
                    f"{replications} replications"
                )
            take(index, body(rng))

    def run_batch_table(
        self,
        replications: int,
        rng: "SeedLike" = None,
        runner: Optional["ExperimentRunner"] = None,
        on_result: Optional[Callable[[int], None]] = None,
        cancel: Optional[object] = None,
        max_records_in_ram: Optional[int] = None,
        aggregators: Tuple[Callable[..., None], ...] = (),
        batch_size: Optional[int] = None,
    ):
        """Independent replications as a columnar response table.

        Same seeding/execution modes as :meth:`run_batch`, but each
        replication reduces to its ``(success, tta, ttsf, final_ratio)``
        response row worker-side — the ``process`` backend ships four
        floats per replication instead of pickling full
        :class:`AttackOutcome` objects (traces included) — and the batch
        comes back as a :class:`repro.results.RecordTable`.

        One body serves every mode: whichever producer runs (the
        shared-generator loop, runner replications or the mega-batch
        engine) streams float64 row blocks into a single sink, and the
        runner never collects per-unit results.  By default the sink
        concatenates the blocks once into a ``RecordTable``.
        ``max_records_in_ram`` switches it to **streaming**: rows flow
        through a :class:`~repro.results.streaming.StreamingTableBuilder`
        that spills fixed-size chunks to ``.npz`` shards, and the result
        is a lazy :class:`~repro.results.streaming.ShardedRecordTable`.
        Rows are identical in both modes for the same seed — only where
        they live differs.

        ``aggregators`` are fed every response row in submission order,
        once per sink flush (the whole batch in RAM, every
        ``min(max_records_in_ram, 4096)`` rows when streaming) —
        :class:`~repro.results.streaming.StreamingSummary` instances
        take whole chunks, any other callable is invoked per row as
        ``agg((success, tta, ttsf, final_ratio))`` — so running
        summaries/CIs come out of a campaign without touching the table
        at all.

        ``batch_size`` switches replications to the **mega-batch**
        lowering: lanes advance ``batch_size`` at a time through
        :class:`repro.attacks.batched.CampaignBatchEngine`, each batch
        unit seeded exactly like :meth:`ExperimentRunner
        .run_batched_replications` (``batch_size=1`` is therefore
        bit-identical to the runner-mode scalar path; larger batches on
        the vectorized path are distribution-identical).  Batching
        always uses runner-mode seeding — a ``Generator`` passed as
        ``rng`` contributes one draw to derive the root seed — and
        composes with streaming and aggregators; progress hooks observe
        one *unit* (one batch) per call.

        Returns:
            A :class:`repro.results.RecordTable` with the library's
            response columns, one row per replication in order (a
            ``ShardedRecordTable`` in streaming mode).

        Raises:
            TypeError: If ``replications``, ``batch_size`` or
                ``max_records_in_ram`` is not an integer.
            ValueError: If any of them is ``< 1``.
        """
        from repro.exec import ExperimentRunner
        from repro.exec.options import RunOptions, check_count
        from repro.results import RecordTable

        check_count("replications", replications)
        options = RunOptions(batch_size, max_records_in_ram)
        builder = flush_at = None
        if options.max_records_in_ram is not None:
            from repro.results.streaming import StreamingTableBuilder

            builder = StreamingTableBuilder(
                max_records_in_ram=options.max_records_in_ram
            )
            flush_at = min(options.max_records_in_ram, 4096)
        blocks: List[np.ndarray] = []
        pending = 0

        def flush() -> Dict[str, np.ndarray]:
            nonlocal pending
            data = np.concatenate(blocks, axis=0)
            blocks.clear()
            pending = 0
            columns = {
                "success": data[:, 0],
                "tta": data[:, 1],
                "ttsf": data[:, 2],
                "final_ratio": data[:, 3],
            }
            if aggregators:
                _feed_aggregators(aggregators, columns, data)
            if builder is not None:
                builder.append_rows(columns)
            return columns

        def take(index: int, rows: np.ndarray) -> None:
            nonlocal pending
            blocks.append(rows)
            pending += len(rows)
            if on_result is not None:
                on_result(index)
            if flush_at is not None and pending >= flush_at:
                flush()

        def take_row(index: int, row: Tuple[float, ...]) -> None:
            take(index, np.asarray(row, dtype=np.float64).reshape(1, 4))

        active = runner or ExperimentRunner()
        if options.batch_size is not None:
            from repro.attacks.batched import (
                CampaignBatchEngine,
                simulate_batch_rows,
            )

            active.run_batched_replications(
                simulate_batch_rows,
                replications,
                options.batch_size,
                seed=rng,
                common_args=(CampaignBatchEngine(self),),
                on_result=take,
                cancel=cancel,
                collect=False,
            )
        elif runner is None and isinstance(rng, np.random.Generator):
            self._legacy_batch(
                replications,
                rng,
                lambda gen: _response_row_unit(self, gen),
                take_row,
                cancel,
            )
        else:
            active.run_replications(
                _response_row_unit,
                replications,
                seed=rng,
                common_args=(self,),
                on_result=take_row,
                cancel=cancel,
                collect=False,
            )
        if builder is None:
            return RecordTable(flush())
        if blocks:
            flush()
        return builder.build()
