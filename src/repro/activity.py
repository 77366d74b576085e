"""The shared idle/active boundary predicates.

Two distinct notions of "this port is doing something" exist in the
codebase, and both used to be spelled inline wherever an active-port
set was built:

* **Prediction-side** (:func:`prediction_active`): an interface counts
  as *active* when its observed SNMP packet rate exceeds a small
  threshold.  The threshold absorbs counter noise -- a truly idle
  interface still shows the odd keepalive packet -- and is the paper's
  §6.2 idle/unplugged heuristic.  ``predict_trace``, the serve
  prediction cache, and any batched matrix evaluation must all sit on
  the *same* side of this boundary for the same input, or the cached
  tier diverges from the full tier at exactly ``pps == threshold``.
* **Truth-side** (:func:`carrying_traffic` /
  :func:`carrying_traffic_mask`): a simulated port draws dynamic power
  when it carries any traffic at all.  The object engine and the
  columnar vector engine must agree bit-for-bit, so both call the
  predicates defined here instead of re-deriving ``!= 0`` masks.

Keeping both comparisons in one leaf module (importable before the
rest of the package, like :mod:`repro.units`) means the boundary can
never silently fork between layers.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = [
    "ACTIVE_PPS_THRESHOLD",
    "prediction_active",
    "carrying_traffic",
    "carrying_traffic_mask",
]

#: Packet rate (packets/s, both directions) above which a deployed
#: interface counts as *active* for prediction purposes.  Exactly at
#: the threshold is idle: the comparison is strict.
ACTIVE_PPS_THRESHOLD: float = 1e-3

#: Scalar or numpy array of packet rates.
PpsLike = Union[float, np.ndarray]


def prediction_active(pps: PpsLike) -> Union[bool, np.ndarray]:
    """Whether an observed packet rate exceeds
    :data:`ACTIVE_PPS_THRESHOLD` (strict ``>``).

    Works elementwise on arrays and on scalars; every prediction path
    (trace, instant, serve cache, batched matrix) must route through
    this single comparison.
    """
    return pps > ACTIVE_PPS_THRESHOLD


def carrying_traffic(rx_bps: float, tx_bps: float) -> bool:
    """Truth-side predicate: does a simulated port carry any traffic?

    A port with a non-zero rate in either direction draws dynamic
    power.  The scalar twin of :func:`carrying_traffic_mask`; the
    object engine uses this one, the vector engine the mask, and both
    compile to the same IEEE comparison.
    """
    return rx_bps != 0.0 or tx_bps != 0.0


def carrying_traffic_mask(rx_bps: np.ndarray,
                          tx_bps: np.ndarray) -> np.ndarray:
    """Columnar twin of :func:`carrying_traffic` for the vector engine."""
    return (rx_bps != 0.0) | (tx_bps != 0.0)
