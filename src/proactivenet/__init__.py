"""Slotted-network simulation and analysis of prediction-aware resource allocation.

The package is organized as:

- ``traffic``  : arrival-process generators (unicast, imperfect prediction,
  multicast) under linear and polynomial capacity scaling.
- ``sched``    : one earliest-deadline-first path kernel over the vector of
  pending requests per residual deadline, shared by all six policies.
- ``sim``      : Monte Carlo paths (arrival draws, one kernel call each),
  outage estimation, capacity sweeps and decay-rate fitting.
- ``analytic`` : closed-form decay-rate (diversity) bounds and a numeric
  Chernoff-exponent optimizer used as an independent cross-check.
- ``oracle``   : exact small-instance ground truth (truncated Markov chains,
  exact event-probability bounds, root verification).
- ``cli``      : batch experiment harness with CSV/JSON outputs.
"""

from proactivenet.traffic import (
    Regime,
    LookaheadLaw,
    PredictionErrorSpec,
    MulticastSpec,
    mean_rate,
)
from proactivenet.analytic import BoundValue, Constant

__all__ = [
    "Regime",
    "LookaheadLaw",
    "PredictionErrorSpec",
    "MulticastSpec",
    "mean_rate",
    "BoundValue",
    "Constant",
]

__version__ = "0.1.0"
