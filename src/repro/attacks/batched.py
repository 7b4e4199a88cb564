"""Vectorized mega-batch lowering of the attack campaign.

:class:`CampaignBatchEngine` advances *B* campaign replications per
vectorized step instead of one: the per-host probability tables that
:meth:`~repro.attacks.campaign.AttackCampaign._compile_tables` already
precomputes are applied as array operations across the whole batch —
entry/propagation/escalation become block-drawn exponential races over an
``(n_nodes, B)`` compromise-time matrix, detection candidates reduce to
one min per lane, and the exfiltration accrual / predicted-crossing check
runs in closed form against the healthy tick trajectory that the
scalar engine shares per process (``campaign._shared_trajectory``).

Determinism contract (mirrors :mod:`repro.san.batched`):

* ``batch_size=1`` lanes run the scalar :meth:`AttackCampaign.run` on
  the unit's own spawned generator, so single-lane batches are
  **bit-identical** to the scalar path for the same root seed.
* ``batch_size>1`` lanes on the vectorized path are
  **distribution-identical** to the scalar engine: every used random
  variable has the same law and independence structure (exponential
  attempt races, geometric beacon detection, censored response delays),
  but block draws reorder the stream and the closed-form exfiltration
  crossing accumulates floats differently, so individual rows differ.
* Campaigns the lowering cannot vectorize fall back to per-lane scalar
  :meth:`AttackCampaign.run` calls inside the batch unit.  The
  ``"impair"`` goal always takes this fallback: sabotage couples each
  lane to the physical plant, so post-sabotage dynamics stay bit-exact
  by running each lane's scalar resume path unchanged.

Why the vectorized resolution is sound
--------------------------------------

The scalar event loop draws an exponential attempt timer only when its
triggering event fires (entry at ``t=0``, lateral movement at the
source's activation, escalation at activation, ...).  Because
exponential races are memoryless and every timer is independent, the
first-compromise times solve a shortest-path problem over *per-edge*
draws: ``comp[tgt] = min(entry[tgt], min over edges (act[src] +
Exp(1/(rate·p))))``.  Drawing every edge unconditionally and relaxing to
the fixpoint yields the same joint law — unused draws are independent
of used ones, and a draw whose source never activates is censored to
infinity by the horizon cut, exactly like the scalar path's "never
scheduled" case.

The relaxation (:func:`_relax_compromise`) runs Bellman–Ford sweeps over
the whole batch.  Every array is node-major — one row per node, edge or
slot, the batch's lanes contiguous along it — so each operation runs
over whole rows of ``B`` lanes.  The lowering lays the edges out once
as a padded slot table (:func:`_pad_by_target`): every target with
in-edges gets ``m`` slots, ``m`` the largest in-degree, holding its
in-edges in edge order, and the padding slots hold ``inf`` delays.  A
sweep gathers every slot's candidate ``act[src] + delay``, takes the
min over each target's ``m`` slots (a reshape to ``(targets, m, B)``)
and keeps it where it beats the current compromise time.  Entry hosts
are distinct, so entry times are a plain row assignment.  A min is
exact and independent of the order it visits its operands, and an
``inf`` pad never wins it, so the layout changes no value.  The
random draws keep the lane-major ``(B, k)`` block shape that fixes the
stream; each block is transposed once when it is scaled.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.attacks.campaign import AttackCampaign, AttackOutcome, _tick_times
from repro.scada.components import HostRole
from repro.sim.trace import TraceRecorder
from repro.telemetry.core import current as _current_telemetry

__all__ = ["CampaignBatchEngine", "simulate_batch_rows"]

#: Trajectory ticks scanned per chunk while resolving the healthy
#: master's first finding (cheap: exfil/recon trajectories record no
#: snapshots).
_FINDING_SCAN_CHUNK = 256


class _CampaignArrays:
    """The campaign's probability tables lowered to flat arrays.

    One instance is shared by every batch unit of a campaign; all
    members are plain arrays/floats, so the engine pickles to the
    ``process`` backend.
    """

    __slots__ = (
        "nodes", "n_nodes", "n_hosts",
        "entry_idx", "entry_scale",
        "entry_noise_scale",
        "act_scale",
        "root_idx", "root_scale",
        "esc_noise_idx", "esc_noise_scale",
        "edge_src", "edge_tgt", "edge_scale",
        "in_tgt", "slot_src", "slot_edge", "slot_valid",
        "edge_noise_src", "edge_noise_tgt", "edge_noise_scale",
        "c2_p", "c2_interval",
        "recon_k",
        "eligible_idx", "exfil_cost", "tick_times",
        "response_enabled", "response_delay_rate",
    )


def _lower_campaign(campaign: AttackCampaign) -> _CampaignArrays:
    """Flatten the compiled probability tables into batch arrays.

    Raises:
        ValueError: If the campaign shape cannot be vectorized (no
            entry candidates with positive rate, non-positive activation
            rate, ...) — callers catch and fall back to scalar lanes.
    """
    tables = campaign._compile_tables()
    threat = campaign.threat
    network = campaign.network
    if threat.goal not in ("recon", "exfiltrate"):
        raise ValueError(f"goal {threat.goal!r} is not vectorizable")
    if threat.activation_delay_rate <= 0:
        raise ValueError("activation_delay_rate must be positive")

    # Node universe: the propagation closure from the entry candidates,
    # with the same probability fallbacks the scalar loop applies to
    # hosts outside the precompiled (computer-only) tables.
    plans_cache: Dict[str, List[Tuple[str, str, float, float]]] = {}

    def plans_for(host: str) -> List[Tuple[str, str, float, float]]:
        plans = plans_cache.get(host)
        if plans is None:
            plans = tables.propagation.get(host)
            if plans is None:
                plans = campaign._propagation_plans(host)
            plans_cache[host] = plans
        return plans

    arrays = _CampaignArrays()
    nodes: List[str] = []
    index: Dict[str, int] = {}
    queue = [host for host, _ in tables.entry]
    while queue:
        host = queue.pop(0)
        if host in index:
            continue
        index[host] = len(nodes)
        nodes.append(host)
        queue.extend(target for _, target, _, _ in plans_for(host))
    if not nodes:
        raise ValueError("no entry candidates")
    arrays.nodes = nodes
    arrays.n_nodes = len(nodes)
    arrays.n_hosts = sum(1 for h in network.hosts if h.is_computer)

    detect_p = tables.detection_noise

    def escalation_p(host: str) -> float:
        p = tables.escalation.get(host)
        return campaign._escalation_probability(host) if p is None else p

    # Entry attempts and their failed-attempt noise, both at t=0.
    entry_idx: List[int] = []
    entry_scale: List[float] = []
    entry_noise_scale: List[float] = []
    for host, p in tables.entry:
        eff = threat.entry_rate * p
        if eff > 0:
            entry_idx.append(index[host])
            entry_scale.append(1.0 / eff)
        noisy = threat.entry_rate * (1.0 - p) * detect_p[host]
        if noisy > 0:
            entry_noise_scale.append(1.0 / noisy)
    arrays.entry_idx = np.asarray(entry_idx, dtype=np.intp)
    if np.unique(arrays.entry_idx).size != arrays.entry_idx.size:
        # The relaxation assigns entry times by row, which needs one
        # entry draw per host.
        raise ValueError("duplicate entry hosts")
    arrays.entry_scale = np.asarray(entry_scale)
    arrays.entry_noise_scale = np.asarray(entry_noise_scale)
    # One activation-delay scale per node, like every other draw's.
    arrays.act_scale = np.full(len(nodes), 1.0 / threat.activation_delay_rate)

    # Privilege escalation (root) and its noise, per node, from the
    # node's activation time.
    root_idx: List[int] = []
    root_scale: List[float] = []
    esc_noise_idx: List[int] = []
    esc_noise_scale: List[float] = []
    for i, host in enumerate(nodes):
        p_root = escalation_p(host)
        rate = threat.escalation_rate * p_root
        if rate > 0:
            root_idx.append(i)
            root_scale.append(1.0 / rate)
        noisy = threat.escalation_rate * (1.0 - p_root) * detect_p[host]
        if noisy > 0:
            esc_noise_idx.append(i)
            esc_noise_scale.append(1.0 / noisy)
    arrays.root_idx = np.asarray(root_idx, dtype=np.intp)
    arrays.root_scale = np.asarray(root_scale)
    arrays.esc_noise_idx = np.asarray(esc_noise_idx, dtype=np.intp)
    arrays.esc_noise_scale = np.asarray(esc_noise_scale)

    # Lateral-movement edges (one draw per (source, target, vector) key,
    # like the scalar ``scheduled_pairs`` dedup) and their noise.
    edge_src: List[int] = []
    edge_tgt: List[int] = []
    edge_scale: List[float] = []
    edge_noise_src: List[int] = []
    edge_noise_tgt: List[int] = []
    edge_noise_scale: List[float] = []
    for i, host in enumerate(nodes):
        for _vector, target, rate, p in plans_for(host):
            j = index[target]
            eff = rate * p
            if eff > 0:
                edge_src.append(i)
                edge_tgt.append(j)
                edge_scale.append(1.0 / eff)
            noisy = rate * (1.0 - p) * detect_p[target]
            if noisy > 0:
                edge_noise_src.append(i)
                edge_noise_tgt.append(j)
                edge_noise_scale.append(1.0 / noisy)
    arrays.edge_src = np.asarray(edge_src, dtype=np.intp)
    arrays.edge_tgt = np.asarray(edge_tgt, dtype=np.intp)
    arrays.edge_scale = np.asarray(edge_scale)
    (
        arrays.in_tgt, arrays.slot_src, arrays.slot_edge, arrays.slot_valid
    ) = _pad_by_target(arrays.edge_src, arrays.edge_tgt)
    arrays.edge_noise_src = np.asarray(edge_noise_src, dtype=np.intp)
    arrays.edge_noise_tgt = np.asarray(edge_noise_tgt, dtype=np.intp)
    arrays.edge_noise_scale = np.asarray(edge_noise_scale)

    # C2 beaconing: per-beacon Bernoulli(p) from the first activation is
    # a geometric beacon count.
    arrays.c2_p = tables.c2_p
    arrays.c2_interval = (
        0.0 if threat.c2 is None else threat.c2.beacon_interval
    )

    # Goal thresholds.
    arrays.recon_k = 0
    arrays.eligible_idx = np.asarray([], dtype=np.intp)
    arrays.exfil_cost = math.inf
    arrays.tick_times = np.asarray(
        _tick_times(campaign.config.tick_interval, campaign.config.horizon)
    )
    if threat.goal == "recon":
        # Smallest compromise count satisfying the scalar check
        # ``len(compromised) >= recon_fraction * n_hosts`` (computed on
        # the same float product).
        arrays.recon_k = max(
            1, int(math.ceil(threat.recon_fraction * arrays.n_hosts))
        )
    else:
        historians = [
            h.name
            for h in network.hosts_with_role(HostRole.HISTORIAN)
        ]
        eligible = []
        for i, host in enumerate(nodes):
            role = network.host(host).role
            if role in (HostRole.HISTORIAN, HostRole.SCADA_SERVER) or any(
                network.flow_allowed(host, other, "historian")
                for other in historians
            ):
                eligible.append(i)
        arrays.eligible_idx = np.asarray(eligible, dtype=np.intp)
        per_tick = (
            threat.exfiltration_rate * campaign.config.tick_interval
        )
        arrays.exfil_cost = (
            threat.exfiltration_target / per_tick
            if per_tick > 0
            else math.inf
        )
    arrays.response_enabled = campaign.config.response_enabled
    arrays.response_delay_rate = campaign.config.response_delay_rate
    return arrays


def _pad_by_target(
    edge_src: np.ndarray, edge_tgt: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lay the edges out as the padded slot table of
    :func:`_relax_compromise`.

    Returns ``(in_tgt, slot_src, slot_edge, slot_valid)``: the distinct
    targets (ascending; nodes with in-degree 0 are absent) and, per
    target, ``m`` consecutive slots (``m`` the largest in-degree) that
    hold its in-edges in edge order — each slot's source node, the edge
    whose delay it takes, and whether it holds an edge at all.  Padding
    slots fill the rest with source and edge 0.
    """
    order = np.argsort(edge_tgt, kind="stable")
    in_tgt, degree = np.unique(edge_tgt, return_counts=True)
    width = int(degree.max()) if degree.size else 0
    # Slot of each edge in target order: its target's first slot plus
    # its rank among that target's in-edges.
    first_edge = np.cumsum(degree) - degree
    rank = np.arange(order.size) - np.repeat(first_edge, degree)
    slot = np.repeat(np.arange(in_tgt.size) * width, degree) + rank
    slot_src = np.zeros(in_tgt.size * width, dtype=np.intp)
    slot_edge = np.zeros_like(slot_src)
    slot_valid = np.zeros(slot_src.size, dtype=bool)
    slot_src[slot] = edge_src[order]
    slot_edge[slot] = order
    slot_valid[slot] = True
    return in_tgt, slot_src, slot_edge, slot_valid


def _relax_compromise(
    arrays: _CampaignArrays, entry: np.ndarray, act_delay: np.ndarray,
    edge_delay: np.ndarray, horizon: float,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """First-compromise and activation times of every node and lane.

    Solves ``comp[tgt] = min(entry[tgt], min over edges (act[src] +
    edge_delay))`` with ``act = comp + act_delay`` by Bellman–Ford
    sweeps over the batch; every time past ``horizon`` is ``inf``.
    All arrays are node-major (one row per entry host, node or edge,
    one column per lane).  Each sweep takes the min over every target's
    slots of the padded table (``arrays.in_tgt``/``slot_*``, see
    :func:`_pad_by_target`), whose padding holds ``inf`` delays.
    ``edge_delay`` rows follow ``arrays.edge_src``; entry hosts
    (``arrays.entry_idx``) are distinct.

    Returns:
        ``(comp, act, sweeps)`` — the ``(n_nodes, size)`` matrices and
        the number of relaxation sweeps run (at most ``n_nodes``).
    """
    n, size = act_delay.shape
    comp = np.full((n, size), np.inf)
    comp[arrays.entry_idx] = np.where(entry <= horizon, entry, np.inf)
    act = np.empty_like(comp)
    targets = arrays.in_tgt
    if targets.size:
        # Sweep buffers, allocated once per batch.
        in_delay = edge_delay[arrays.slot_edge]
        in_delay[~arrays.slot_valid] = np.inf
        cand = np.empty(in_delay.shape)
        per_target = cand.reshape(targets.size, -1, size)
        best = np.empty((targets.size, size))
        current = np.empty_like(best)
        improved = np.empty(best.shape, dtype=bool)
    sweeps = 0
    while True:
        # Activations stay uncensored inside the loop: a candidate from
        # one past the horizon is past it too, and the censored min
        # below drops it, so only the returned ``act`` needs the cut.
        np.add(comp, act_delay, out=act)
        # Each sweep extends the earliest attack chains by one edge, so
        # n_nodes sweeps reach the fixpoint (chains are simple paths).
        if not targets.size or sweeps == n:
            break
        sweeps += 1
        # mode="clip" skips the buffered copy "raise" makes for ``out=``;
        # the lowered indices are always in range.
        np.take(act, arrays.slot_src, axis=0, out=cand, mode="clip")
        cand += in_delay
        per_target.min(axis=1, out=best)
        # Censoring the min instead of every candidate keeps the same
        # values: a target's min is past the horizon only when all of
        # its candidates are.
        best[best > horizon] = np.inf
        np.take(comp, targets, axis=0, out=current, mode="clip")
        np.less(best, current, out=improved)
        if not improved.any():
            break
        np.minimum(best, current, out=best)
        comp[targets] = best
    act[act > horizon] = np.inf
    return comp, act, sweeps


class CampaignBatchEngine:
    """SoA batch lowering of one :class:`AttackCampaign`.

    Args:
        campaign: The campaign to batch.  Its compiled probability
            tables are flattened once into arrays shared by every batch
            unit; like the campaign itself, the engine must not be
            reused after mutating the network/catalog/threat in place.

    The engine is picklable (it ships to ``process`` backend workers
    alongside its campaign) and exposes two unit bodies:
    :meth:`run_rows` returning compact ``(success, tta, ttsf,
    final_ratio)`` response rows, and :meth:`run_outcomes` returning
    lightweight :class:`AttackOutcome` objects (compromise/root times
    and detection, no trace) for the indicator pipeline.
    """

    def __init__(self, campaign: AttackCampaign) -> None:
        self.campaign = campaign
        self.horizon = campaign.config.horizon
        self._arrays: Optional[_CampaignArrays] = None
        self.fallback_reason: Optional[str] = None
        if campaign.threat.goal == "impair":
            # Sabotage resumes the per-tick plant loop; each lane runs
            # the scalar path so post-sabotage dynamics stay bit-exact.
            self.fallback_reason = "impair goal resumes the scalar tick loop"
            return
        try:
            self._arrays = _lower_campaign(campaign)
        except Exception as exc:
            self.fallback_reason = str(exc)

    @property
    def vectorized(self) -> bool:
        """Whether batches run the vectorized resolution (vs per-lane
        scalar fallback)."""
        return self._arrays is not None

    # ------------------------------------------------------------------
    # batch bodies
    # ------------------------------------------------------------------

    def run_rows(
        self, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Advance ``size`` lanes; return ``(size, 4)`` response rows
        ``(success, tta, ttsf, final_ratio)`` with the library's
        horizon-censoring conventions."""
        if size == 1 or self._arrays is None:
            rows = np.asarray(
                [
                    self.campaign.run(rng).response_row(self.horizon)
                    for _ in range(size)
                ],
                dtype=np.float64,
            ).reshape(size, 4)
            self._record_telemetry(size)
            return rows
        comp, root, detection, evict_at, goal_at, sweeps = self._resolve(
            size, rng
        )
        done = np.minimum(np.minimum(goal_at, evict_at), self.horizon)
        success = np.isfinite(goal_at) & (goal_at <= evict_at)
        detected = np.isfinite(detection) & (detection <= goal_at)
        rows = np.empty((size, 4), dtype=np.float64)
        rows[:, 0] = success
        rows[:, 1] = np.where(success, goal_at, self.horizon)
        rows[:, 2] = np.where(detected, detection, self.horizon)
        rows[:, 3] = (
            (comp <= done).sum(axis=0) / self._arrays.n_hosts
            if self._arrays.n_hosts
            else 0.0
        )
        self._record_telemetry(size, sweeps)
        return rows

    def run_outcomes(
        self, size: int, rng: np.random.Generator
    ) -> List[AttackOutcome]:
        """Advance ``size`` lanes; return lightweight outcomes.

        The outcomes carry everything the indicator pipeline consumes —
        success/``success_time``, ``detection_time``,
        ``compromise_times``/``root_times``, horizon, host count — with
        an empty trace and no stage timeline (the vectorized resolution
        does not materialize per-event traces).  Scalar-fallback lanes
        return full scalar outcomes.
        """
        if size == 1 or self._arrays is None:
            outcomes = [self.campaign.run(rng) for _ in range(size)]
            self._record_telemetry(size)
            return outcomes
        comp, root, detection, evict_at, goal_at, sweeps = self._resolve(
            size, rng
        )
        done = np.minimum(np.minimum(goal_at, evict_at), self.horizon)
        success = np.isfinite(goal_at) & (goal_at <= evict_at)
        detected = np.isfinite(detection) & (detection <= goal_at)
        evicted = np.isfinite(evict_at) & (evict_at < goal_at)
        nodes = self._arrays.nodes
        n_hosts = self._arrays.n_hosts
        # Python rows once per batch: ``tolist`` yields the same floats
        # as ``float()`` on each NumPy scalar, without the per-lane
        # scalar boxing.
        lanes = zip(
            done.tolist(),
            comp.T.tolist(),
            root.T.tolist(),
            success.tolist(),
            np.where(success, goal_at, np.nan).tolist(),
            np.where(detected, detection, np.nan).tolist(),
            evicted.tolist(),
        )
        outcomes: List[AttackOutcome] = []
        for (
            cutoff, comp_row, root_row, won, success_time, detection_time,
            was_evicted,
        ) in lanes:
            outcomes.append(
                AttackOutcome(
                    success=won,
                    success_time=success_time,
                    detection_time=detection_time,
                    compromise_times={
                        nodes[i]: t
                        for i, t in enumerate(comp_row)
                        if t <= cutoff
                    },
                    root_times={
                        nodes[i]: t
                        for i, t in enumerate(root_row)
                        if t <= cutoff
                    },
                    sabotage_start=float("nan"),
                    stage_times={},
                    horizon=self.horizon,
                    n_hosts=n_hosts,
                    trace=TraceRecorder(),
                    evicted=was_evicted,
                )
            )
        self._record_telemetry(size, sweeps)
        return outcomes

    # ------------------------------------------------------------------
    # vectorized resolution
    # ------------------------------------------------------------------

    def _resolve(
        self, size: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, ...]:
        """Resolve ``size`` lanes in closed form.

        Returns ``(comp, root, detection, evict_at, goal_at, sweeps)``
        — node-major ``(n_nodes, size)`` first-compromise / root
        matrices (``inf`` = never before the horizon), per-lane first
        detection, eviction and goal-achievement times, and the
        relaxation sweep count.
        """
        arrays = self._arrays
        horizon = self.horizon
        n = arrays.n_nodes

        def draw(scale: np.ndarray) -> np.ndarray:
            # A lane-major (size, k) block, the shape that fixes the
            # stream, scaled per column into node-major (k, size) order.
            block = rng.standard_exponential((size, scale.size))
            out = np.empty((scale.size, size))
            np.multiply(block.T, scale[:, None], out=out)
            return out

        # Fixed block-draw order, so a unit's row stream is a pure
        # function of its spawned seed.
        entry = draw(arrays.entry_scale)
        entry_noise = draw(arrays.entry_noise_scale)
        act_delay = draw(arrays.act_scale)
        root_delay = draw(arrays.root_scale)
        esc_noise = draw(arrays.esc_noise_scale)
        edge_delay = draw(arrays.edge_scale)
        edge_noise = draw(arrays.edge_noise_scale)

        comp, act, sweeps = _relax_compromise(
            arrays, entry, act_delay, edge_delay, horizon
        )

        root = np.full((n, size), np.inf)
        if arrays.root_idx.size:
            drawn = act[arrays.root_idx] + root_delay
            root[arrays.root_idx] = np.where(drawn <= horizon, drawn, np.inf)

        # First detection: the min over every noise/beacon candidate,
        # censored once at the horizon (the min is past it only when
        # every candidate is).
        detection = np.full(size, np.inf)
        if arrays.entry_noise_scale.size:
            np.minimum(detection, entry_noise.min(axis=0), out=detection)
        if arrays.esc_noise_idx.size:
            cand = act[arrays.esc_noise_idx] + esc_noise
            np.minimum(detection, cand.min(axis=0), out=detection)
        if arrays.edge_noise_src.size:
            # The scalar loop schedules an edge's noise only when the
            # target is still uncompromised at the source's activation.
            src_act = act[arrays.edge_noise_src]
            cand = src_act + edge_noise
            cand[comp[arrays.edge_noise_tgt] <= src_act] = np.inf
            np.minimum(detection, cand.min(axis=0), out=detection)
        if arrays.c2_p > 0.0:
            first_act = act.min(axis=0)
            beacons = rng.geometric(arrays.c2_p, size)
            c2 = first_act + beacons * arrays.c2_interval
            np.minimum(detection, c2, out=detection)
        detection[detection > horizon] = np.inf
        finding_time = self._healthy_finding_time()
        if finding_time is not None:
            np.minimum(detection, finding_time, out=detection)

        # Incident response: eviction delayed past the horizon never
        # fires (the scalar path schedules nothing).
        evict_at = np.full(size, np.inf)
        if arrays.response_enabled:
            if arrays.response_delay_rate is None:
                evict_at = detection.copy()
            else:
                delay = rng.standard_exponential(size) * (
                    1.0 / arrays.response_delay_rate
                )
                evict_at = detection + delay
                evict_at[evict_at > horizon] = np.inf

        if arrays.recon_k:
            goal_at = self._recon_time(comp)
        else:
            goal_at = self._exfiltration_time(root)
        return comp, root, detection, evict_at, goal_at, sweeps

    def _recon_time(self, comp: np.ndarray) -> np.ndarray:
        """Per-lane time of the K-th compromise (``inf`` = never)."""
        k = self._arrays.recon_k
        if k > comp.shape[0]:
            return np.full(comp.shape[1], np.inf)
        return np.partition(comp, k - 1, axis=0)[k - 1]

    def _exfiltration_time(self, root: np.ndarray) -> np.ndarray:
        """Per-lane first tick crossing the exfiltration target.

        Mirrors the scalar predicted-crossing check in array form: a
        rooted data-reachable host starts contributing one
        ``rate × tick_interval`` unit per tick at the first tick
        *after* its root time, so within the segment where ``s`` hosts
        contribute, the accrued amount at tick ``j`` is
        ``s·(j+1) − Σ q_i`` units and the crossing tick solves a linear
        inequality per segment.
        """
        arrays = self._arrays
        size = root.shape[1]
        goal_at = np.full(size, np.inf)
        if not arrays.eligible_idx.size or not math.isfinite(
            arrays.exfil_cost
        ):
            return goal_at
        times = arrays.tick_times
        n_ticks = times.size - 1
        if n_ticks < 1:
            return goal_at
        sentinel = n_ticks + 1
        # First contributing tick per host: the first tick strictly
        # after the root time (the root tick itself still accrues with
        # the pre-root count, as in ``_exfil_catch_up``).  A host never
        # rooted, or rooted at or after the last tick, gets the
        # sentinel ``len(times)``.
        q = np.searchsorted(
            times, root[arrays.eligible_idx], side="right"
        ).astype(np.float64)
        q.sort(axis=0)
        prefix = np.cumsum(q, axis=0)
        counts = np.arange(1, q.shape[0] + 1, dtype=np.float64)[:, None]
        bound = np.empty_like(q)
        bound[:-1] = q[1:]
        bound[-1] = sentinel
        np.minimum(bound, sentinel, out=bound)
        # Smallest j with counts·(j+1) − prefix ≥ cost inside each
        # segment [q_s, bound_s); +1 fixes float-boundary rounding.
        j = np.ceil((arrays.exfil_cost + prefix) / counts) - 1.0
        np.maximum(j, q, out=j)
        j += counts * (j + 1.0) - prefix < arrays.exfil_cost
        valid = (q <= n_ticks) & (j < bound) & (j <= n_ticks)
        j[~valid] = sentinel
        jstar = j.min(axis=0)
        crossing = jstar <= n_ticks
        goal_at[crossing] = times[jstar[crossing].astype(np.intp)]
        return goal_at

    def _healthy_finding_time(self) -> Optional[float]:
        """The shared healthy trajectory's first master finding time.

        Scanned lazily in chunks (shared with the scalar engine through
        the per-process trajectory cache);
        ``None`` when the healthy plant never trips the master before
        the horizon.
        """
        traj = self.campaign._healthy_trajectory()
        while traj.first_finding is None and not traj.scan_exhausted:
            traj.scan_to(traj.scanned + _FINDING_SCAN_CHUNK)
        if traj.first_finding is None:
            return None
        return traj.tick_time(traj.first_finding[0])

    @staticmethod
    def _record_telemetry(size: int, sweeps: int = 0) -> None:
        telemetry = _current_telemetry()
        if telemetry is None:
            return
        metrics = telemetry.metrics
        metrics.inc("batch.batches")
        metrics.inc("batch.lanes", size)
        metrics.inc("batch.lane_retirements", size)
        if sweeps:
            metrics.inc("batch.relax_sweeps", sweeps)


def simulate_batch_rows(
    engine: CampaignBatchEngine, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Module-level batch unit body (picklable for ``process``
    backends): one unit advances ``size`` lanes on its own generator."""
    return engine.run_rows(size, rng)

