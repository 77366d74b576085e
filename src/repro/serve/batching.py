"""The matrix reference for ``/predict``.

:func:`evaluate_group` evaluates router entries that share a
:attr:`~repro.serve.schemas.RouterQuery.signature` as **one**
:func:`~repro.core.prediction.predict_trace` call whose sample axis is
the entries -- column ``k`` is entry ``k``.  The server does not call
it: :meth:`~repro.serve.cache.PredictionCache.insert` computes each
miss with the cache's scalar expression and fold.  The tests and the
serve-miss benchmark check compare every served reply with it.

``predict_trace`` folds each class group's member rows sequentially,
so a column is a pure function of its own entry whatever the width,
and the cache's scalar fold reproduces it bit for bit.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.model import PowerModel
from repro.core.prediction import DeployedInterface, predict_trace
from repro.serve.schemas import RouterQuery


def evaluate_group(model: PowerModel,
                   entries: List[RouterQuery]) -> List[float]:
    """One matrix call for a batch of structurally identical entries."""
    first = entries[0]
    members = first.resolved
    if not members:
        values = predict_trace(
            model, [],
            assume_unplugged_when_idle=first.assume_unplugged_when_idle,
            active_pps_threshold=first.active_pps_threshold,
            n_samples=len(entries))
        return [float(v) for v in values]
    interfaces = []
    for j, member in enumerate(members):
        columns = [entry.resolved[j] for entry in entries]
        interfaces.append(DeployedInterface(
            name=f"m{j}", trx_name=member.trx_name,
            octet_rate_rx=np.array([c.oct_rx for c in columns]),
            octet_rate_tx=np.array([c.oct_tx for c in columns]),
            packet_rate_rx=np.array([c.pkt_rx for c in columns]),
            packet_rate_tx=np.array([c.pkt_tx for c in columns]),
            speed_gbps=member.speed_gbps))
    values = predict_trace(
        model, interfaces,
        assume_unplugged_when_idle=first.assume_unplugged_when_idle,
        active_pps_threshold=first.active_pps_threshold)
    return [float(v) for v in values]
