"""Slotted-network simulation and analysis of prediction-aware resource allocation.

The package is organized as:

- ``traffic``  : arrival-process specs (unicast, imperfect prediction,
  multicast) under linear and polynomial capacity scaling, and the cdf
  tables through which a path inverts its uniforms into counts.
- ``sched``    : the compiled earliest-deadline-first slot loop over the
  vector of pending requests per residual deadline, shared by all six
  policies, and its overflow guard.
- ``sim``      : Monte Carlo paths (a group of configs' paths in one kernel
  call), outage estimation, capacity sweeps and decay-rate fitting.
- ``analytic`` : closed-form decay-rate (diversity) bounds and a numeric
  Chernoff-exponent optimizer used as an independent cross-check.
- ``oracle``   : exact ground truth (the deterministic-window EDF chain over
  the accepted backlog, solved by GTH; exact event-probability bounds; root
  verification).
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
