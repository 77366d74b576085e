"""The cheap tier: a per-interface-class prediction cache.

A cache entry is the scalar power contribution of one interface --
``(router model, resolved class, flags, quantised two-direction
rates) -> watts`` -- computed with exactly the IEEE operation sequence
:func:`~repro.core.prediction.predict_trace` applies elementwise to a
matrix column.  Assembly then replays that function's own reduction
order (its explicit sequential row fold per class group, groups in
canonical order, base power first), so a cache-served response is
bit-equal to the full tier's.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro import units
from repro.activity import prediction_active
from repro.core.model import PowerModel
from repro.serve.schemas import InterfaceQuery, RouterQuery

#: Cache capacity (entries); least-recently-used beyond this.
DEFAULT_CAPACITY = 65536


def member_contribution(model: PowerModel, member: InterfaceQuery,
                        assume_unplugged_when_idle: bool,
                        active_pps_threshold: float) -> float:
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
    if prediction_active(pps, active_pps_threshold):
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
            query.active_pps_threshold, member.class_key,
            member.oct_rate.hex(), member.pkt_rate.hex())


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

        Replays the full tier's float fold: start from base power,
        then add each class group's sequential member fold in
        canonical group order.  A single missing member routes the
        whole entry to the full tier (which back-fills the cache).
        """
        members = query.resolved
        keys = [_member_key(query, m) for m in members]
        if any(key not in self._entries for key in keys):
            self.misses += 1
            return None
        self.hits += 1
        # Group members by class in first-appearance (canonical) order,
        # exactly like predict_trace's grouping dict.
        groups: Dict[object, list] = {}
        for member, key in zip(members, keys):
            value = self._entries[key]
            self._entries.move_to_end(key)
            groups.setdefault(member.class_key, []).append(value)
        total = float(model.p_base_w.value)
        for values in groups.values():
            group_sum = values[0]
            for value in values[1:]:
                group_sum = group_sum + value
            total = total + group_sum
        return total

    def insert(self, query: RouterQuery, model: PowerModel) -> None:
        """Back-fill every member contribution after a full-tier eval."""
        for member in query.resolved:
            key = _member_key(query, member)
            if key in self._entries:
                self._entries.move_to_end(key)
                continue
            self._entries[key] = member_contribution(
                model, member, query.assume_unplugged_when_idle,
                query.active_pps_threshold)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
