"""Turning a fitted power model into deployed power predictions (§6.2).

The paper predicts the power of production routers by combining three
things: the lab-derived :class:`~repro.core.model.PowerModel`, the module
inventory file (which transceiver sits in which interface), and the SNMP
traffic counters.  This module implements that pipeline.

A faithful detail: the paper's analysis treats an interface with no
traffic counters as *unplugged* -- which is exactly why the model
over-reacted when an operator took a flapping interface down but left the
transceiver seated (Fig. 4a, Oct 22-25).  ``assume_unplugged_when_idle``
reproduces that behaviour by default; set it to ``False`` to keep
inventory-listed modules drawing ``P_trx,in`` when idle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import units
from repro.activity import prediction_active
from repro.core.model import InterfaceClassKey, PowerModel
from repro.hardware.transceiver import TRANSCEIVER_CATALOG


def resolve_class_key(trx_name: Optional[str],
                      speed_gbps: Optional[float] = None
                      ) -> Optional[InterfaceClassKey]:
    """The interface class implied by an inventory entry.

    ``None`` when the module name is missing or unknown to the catalog
    (such interfaces contribute nothing to a prediction).  The port
    speed defaults to the module's nominal rate; a configured
    ``speed_gbps`` overrides it (clocked-down DACs).
    """
    if trx_name is None:
        return None
    model = TRANSCEIVER_CATALOG.get(trx_name)
    if model is None:
        return None
    speed = speed_gbps if speed_gbps else model.speed_gbps
    return InterfaceClassKey(port_type=model.form_factor.value,
                             reach=model.reach.value, speed_gbps=speed)


@dataclass
class DeployedInterface:
    """One production interface: its module and its observed traffic rates.

    Rate arrays are aligned to a shared timestamp grid (one entry per SNMP
    poll).  Octet rates are layer-2 bytes per second (counter deltas over
    the poll interval); packet rates are packets per second.
    """

    name: str
    trx_name: Optional[str]
    octet_rate_rx: np.ndarray
    octet_rate_tx: np.ndarray
    packet_rate_rx: np.ndarray
    packet_rate_tx: np.ndarray
    speed_gbps: Optional[float] = None

    def __post_init__(self):
        lengths = {len(self.octet_rate_rx), len(self.octet_rate_tx),
                   len(self.packet_rate_rx), len(self.packet_rate_tx)}
        if len(lengths) != 1:
            raise ValueError(
                f"interface {self.name}: rate arrays have differing lengths "
                f"{sorted(lengths)}")
        self._class_key_memo = None

    @property
    def n_samples(self) -> int:
        """Number of time points."""
        return len(self.octet_rate_rx)

    @property
    def class_key(self) -> Optional[InterfaceClassKey]:
        """The interface class implied by the inventory entry.

        The catalog lookup is memoized on ``(trx_name, speed_gbps)`` --
        prediction loops resolve it once per interface rather than once
        per evaluation.
        """
        source = (self.trx_name, self.speed_gbps)
        if self._class_key_memo is None or self._class_key_memo[0] != source:
            self._class_key_memo = (source, self._resolve_class_key())
        return self._class_key_memo[1]

    def _resolve_class_key(self) -> Optional[InterfaceClassKey]:
        return resolve_class_key(self.trx_name, self.speed_gbps)

    def physical_bit_rate(self) -> np.ndarray:
        """Two-direction physical-layer bit rate from the counters.

        SNMP octet counters exclude preamble and inter-packet gap; the
        model's ``r_i`` is the physical rate, so we add the fixed 20 B of
        layer-1 overhead per counted packet.
        """
        octets = self.octet_rate_rx + self.octet_rate_tx
        packets = self.packet_rate_rx + self.packet_rate_tx
        return units.BITS_PER_BYTE * (
            octets + units.ETHERNET_OVERHEAD_BYTES * packets)

    def packet_rate(self) -> np.ndarray:
        """Two-direction packet rate (the model's ``p_i``)."""
        return self.packet_rate_rx + self.packet_rate_tx


def predict_trace(model: PowerModel,
                  interfaces: Sequence[DeployedInterface],
                  assume_unplugged_when_idle: bool = True,
                  n_samples: Optional[int] = None) -> np.ndarray:
    """Predicted power time series for one deployed router.

    Parameters
    ----------
    model:
        The lab-derived power model for this router product.
    interfaces:
        Per-interface inventory and traffic rates on a shared time grid.
    assume_unplugged_when_idle:
        The paper's §6.2 behaviour: an interface with no traffic is
        treated as absent (its module assumed unplugged).  When ``False``,
        idle inventory-listed modules still contribute ``P_trx,in``.
    n_samples:
        Length of the time grid.  Required when ``interfaces`` is
        empty -- a router with no inventory still draws ``P_base``, so
        the caller must say how many samples of base power it wants;
        an empty sequence with no ``n_samples`` raises ``ValueError``
        rather than silently dropping the router from a fleet sum.
        When interfaces are given it is validated against their length.
    """
    if not interfaces:
        if n_samples is None:
            raise ValueError(
                "predict_trace with no interfaces needs n_samples: a "
                "router without inventory still draws P_base, and a "
                "zero-length trace would silently drop it")
        return np.full(n_samples, model.p_base_w.value, dtype=float)
    n = interfaces[0].n_samples
    if n_samples is not None and n_samples != n:
        raise ValueError(
            f"n_samples={n_samples} disagrees with the interface rate "
            f"arrays ({n} samples)")
    for iface in interfaces:
        if iface.n_samples != n:
            raise ValueError(
                f"interface {iface.name} has {iface.n_samples} samples, "
                f"expected {n}")

    # Group interfaces by class so each class's parameters are resolved
    # once and its members evaluate as one (members, samples) matrix.
    groups: dict = {}
    for iface in interfaces:
        key = iface.class_key
        if key is None:
            continue
        groups.setdefault(key, []).append(iface)

    # Each class group's member rows fold sequentially, row 0 first
    # (``np.add.accumulate`` is a running sum), so sample k depends on
    # column k alone: a one-sample call equals that sample of the full
    # trace bit for bit, whatever the trace length.
    total = np.full(n, model.p_base_w.value, dtype=float)
    for key, members in groups.items():
        iface_model = model.interface_model(key)
        bps = np.stack([m.physical_bit_rate() for m in members])
        pps = np.stack([m.packet_rate() for m in members])
        active = prediction_active(pps)

        active_power = (
            iface_model.p_trx_in_w.value + iface_model.p_port_w.value
            + iface_model.p_trx_up_w.value + iface_model.p_offset_w.value
            + iface_model.e_bit_j * bps + iface_model.e_pkt_j * pps)
        if assume_unplugged_when_idle:
            idle_power = 0.0
        else:
            idle_power = iface_model.p_trx_in_w.value
        total += np.add.accumulate(
            np.where(active, active_power, idle_power), axis=0)[-1]
    return total


def predict_instant(model: PowerModel,
                    interfaces: Sequence[DeployedInterface],
                    index: int,
                    assume_unplugged_when_idle: bool = True,
                    n_samples: Optional[int] = None) -> float:
    """Predicted power at one time index.

    Slices every interface's rate arrays down to the requested sample
    before evaluating, so the cost is O(interfaces) rather than
    O(interfaces x samples).  Supports negative indices; raises
    ``IndexError`` when out of range, like indexing the full trace would.
    ``n_samples`` plays the same role as in :func:`predict_trace`: an
    inventory-less router needs it to bounds-check ``index`` and then
    reports plain base power.
    """
    if not interfaces:
        if n_samples is None:
            raise ValueError(
                "predict_instant with no interfaces needs n_samples")
        if not -n_samples <= index < n_samples:
            raise IndexError(
                f"index {index} out of range for {n_samples} samples")
        return float(model.p_base_w.value)
    sliced = [
        DeployedInterface(
            name=iface.name,
            trx_name=iface.trx_name,
            octet_rate_rx=np.atleast_1d(iface.octet_rate_rx[index]),
            octet_rate_tx=np.atleast_1d(iface.octet_rate_tx[index]),
            packet_rate_rx=np.atleast_1d(iface.packet_rate_rx[index]),
            packet_rate_tx=np.atleast_1d(iface.packet_rate_tx[index]),
            speed_gbps=iface.speed_gbps,
        )
        for iface in interfaces
    ]
    trace = predict_trace(model, sliced,
                          assume_unplugged_when_idle=assume_unplugged_when_idle)
    return float(trace[0])


def transceiver_power_w(model: PowerModel,
                        interfaces: Sequence[DeployedInterface]) -> float:
    """Total transceiver power of the plugged inventory (§7's ≈10 % figure).

    Sums ``P_trx,in + P_trx,up`` over every interface with a module listed
    in the inventory, regardless of traffic.
    """
    total = 0.0
    for iface in interfaces:
        key = iface.class_key
        if key is None:
            continue
        total += model.interface_model(key).p_trx_total_w
    return total
