"""Both tiers of ``/predict``: a per-interface-class prediction cache.

A cache entry is the scalar power contribution of one interface --
``(router model, resolved class, flags, quantised two-direction
rates) -> watts`` -- computed with exactly the IEEE operation sequence
:func:`~repro.core.prediction.predict_trace` applies elementwise to a
matrix column.  A router's power is then one fold, :func:`_fold`, that
replays that function's own reduction order (base power first, then
each class group's sequential member sum, groups in first-appearance
order).

:meth:`PredictionCache.lookup` is the cheap tier: it folds a router
whose members are all cached.  :meth:`PredictionCache.insert` is the
full tier: it computes the members that are missing, caches them, and
folds the values it just computed.  Both are bit-equal to
:func:`~repro.serve.batching.evaluate_group`, the matrix reference the
tests compare every reply with.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro import units
from repro.activity import prediction_active
from repro.core.model import PowerModel
from repro.serve.schemas import InterfaceQuery, RouterQuery

#: Cache capacity (entries); least-recently-used beyond this.
DEFAULT_CAPACITY = 65536


def member_contribution(model: PowerModel, member: InterfaceQuery,
                        assume_unplugged_when_idle: bool) -> float:
    """One interface's scalar power term, matrix-bit-equal.

    Mirrors the elementwise expression inside ``predict_trace`` --
    same operand order, same IEEE doubles -- evaluated at this
    member's quantised rates.
    """
    iface_model = model.interface_model(member.class_key)
    octets = member.oct_rate
    packets = member.pkt_rate
    bps = units.BITS_PER_BYTE * (
        octets + units.ETHERNET_OVERHEAD_BYTES * packets)
    pps = packets
    if prediction_active(pps):
        return (iface_model.p_trx_in_w.value + iface_model.p_port_w.value
                + iface_model.p_trx_up_w.value
                + iface_model.p_offset_w.value
                + iface_model.e_bit_j * bps + iface_model.e_pkt_j * pps)
    if assume_unplugged_when_idle:
        return 0.0
    return iface_model.p_trx_in_w.value


def _member_key(query: RouterQuery, member: InterfaceQuery) -> Tuple:
    """The cache key of one resolved member.

    Rates enter as their exact float bit patterns (``hex()``): the
    quantised sums are all the model consumes, so two differently
    split but equal-sum polls share an entry.
    """
    return (query.router_model, query.assume_unplugged_when_idle,
            member.class_key, member.oct_rate.hex(), member.pkt_rate.hex())


def _fold(model: PowerModel, members: Sequence[InterfaceQuery],
          values: Sequence[float]) -> float:
    """A router's power from its members' contributions.

    Base power first, then each class group's sequential member sum,
    groups in first-appearance (canonical) order -- exactly the
    grouping dict and row fold of ``predict_trace``.
    """
    groups: Dict[object, List[float]] = {}
    for member, value in zip(members, values):
        groups.setdefault(member.class_key, []).append(value)
    total = float(model.p_base_w.value)
    for group in groups.values():
        group_sum = group[0]
        for value in group[1:]:
            group_sum = group_sum + value
        total = total + group_sum
    return total


class PredictionCache:
    """LRU cache of per-member contributions with fold-order assembly."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, float]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, query: RouterQuery,
               model: PowerModel) -> Optional[float]:
        """The router's power if *every* member is cached, else ``None``.

        A single missing member routes the whole entry to
        :meth:`insert`.
        """
        members = query.resolved
        keys = [_member_key(query, m) for m in members]
        if any(key not in self._entries for key in keys):
            self.misses += 1
            return None
        self.hits += 1
        values = []
        for key in keys:
            values.append(self._entries[key])
            self._entries.move_to_end(key)
        return _fold(model, members, values)

    def insert(self, query: RouterQuery, model: PowerModel) -> float:
        """Cache every member not yet cached; the router's power.

        The power folds the values this call computed or found, not a
        second :meth:`lookup`: with a capacity below the router's
        member count, its own first members are evicted by its last.
        """
        members = query.resolved
        values = []
        for member in members:
            key = _member_key(query, member)
            value = self._entries.get(key)
            if value is None:
                value = member_contribution(
                    model, member, query.assume_unplugged_when_idle)
                self._entries[key] = value
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
            else:
                self._entries.move_to_end(key)
            values.append(value)
        return _fold(model, members, values)
