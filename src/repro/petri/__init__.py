"""Place/transition Petri nets and generalized stochastic Petri nets.

The paper lists Petri nets among the candidate attack-modeling formalisms
(section II, *Attack Modeling*).  This package provides:

* :mod:`repro.petri.net` — untimed P/T nets with arc weights and
  inhibitor arcs.
* :mod:`repro.petri.analysis` — reachability, boundedness, deadlock and
  invariant analysis.
* :mod:`repro.petri.gspn` — generalized stochastic Petri nets (timed
  exponential + immediate transitions): one interpreter that re-scans
  the enabled transitions at every firing, and Monte-Carlo transient
  analysis over independent replications
  (:meth:`GSPN.transient_analysis`).

The richer stochastic-activity-network formalism used for the paper's
SCoPE case study lives in :mod:`repro.san`; GSPNs serve as a simpler,
well-understood substrate and as a cross-validation target for the SAN
engine.  Only SANs have a vectorized many-replications engine
(:class:`repro.san.SANBatchEngine`).
"""

from repro.petri.analysis import (
    ReachabilityGraph,
    deadlock_markings,
    is_bounded,
    p_invariants,
    reachability_graph,
    t_invariants,
)
from repro.petri.gspn import GSPN, GSPNResult, ImmediateTransition, TimedTransition
from repro.petri.net import Marking, PetriNet, Place, Transition

__all__ = [
    "GSPN",
    "GSPNResult",
    "ImmediateTransition",
    "Marking",
    "PetriNet",
    "Place",
    "ReachabilityGraph",
    "TimedTransition",
    "Transition",
    "deadlock_markings",
    "is_bounded",
    "p_invariants",
    "reachability_graph",
    "t_invariants",
]
