"""Cabling layouts for the §5 experiments, including the RFC 8239 snake.

Two layouts are used by the methodology:

* **pair cabling** for Idle / Port / Trx: DUT ports connected in pairs
  (port 0 <-> port 1, port 2 <-> port 3, ...), so bringing both ends of a
  pair admin-up takes the link up without any external device;
* **snake cabling** for the Snake traffic experiments: the orchestrator
  injects traffic into the first port, it loops through every interface of
  the DUT via loopback cables, and returns to the orchestrator (RFC 8239
  layer-2 snake test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.hardware.router import (Cable, ExternalPeerPort, Port, connect,
                                   disconnect)
from repro.lab.traffic_gen import Flow


@dataclass
class SnakeLayout:
    """The result of snake cabling: the ordered DUT port chain."""

    ports: List[Port]
    host_tx: ExternalPeerPort
    host_rx: ExternalPeerPort

    @property
    def n_pairs(self) -> int:
        """Number of DUT port pairs in the chain."""
        return len(self.ports) // 2


def cable_pairs(ports: Sequence[Port]) -> List[Cable]:
    """Connect an even number of ports in adjacent pairs (Idle/Port/Trx)."""
    if len(ports) % 2 != 0:
        raise ValueError(f"pair cabling needs an even port count, got {len(ports)}")
    return [connect(ports[i], ports[i + 1]) for i in range(0, len(ports), 2)]


def cable_snake(ports: Sequence[Port]) -> SnakeLayout:
    """Wire a snake: host -> port[0], port[1] <-> port[2], ... -> host.

    Traffic entering ``ports[0]`` is forwarded out ``ports[1]``, loops back
    in ``ports[2]``, and so on, leaving the DUT at ``ports[-1]``.
    """
    if len(ports) % 2 != 0:
        raise ValueError(f"snake cabling needs an even port count, got {len(ports)}")
    if not ports:
        raise ValueError("snake cabling needs at least one port pair")
    host_tx = ExternalPeerPort(name="orchestrator-tx")
    host_rx = ExternalPeerPort(name="orchestrator-rx")
    connect(ports[0], host_tx)
    for i in range(1, len(ports) - 1, 2):
        connect(ports[i], ports[i + 1])
    connect(ports[-1], host_rx)
    return SnakeLayout(ports=list(ports), host_tx=host_tx, host_rx=host_rx)


def apply_snake_traffic(layout: SnakeLayout, flow: Flow) -> None:
    """Offer a flow through the snake: every interface carries it once.

    Even-indexed ports receive the flow, odd-indexed ports transmit it, so
    each interface's two-direction total equals the flow rate -- the
    ``r_i`` of the paper's Eq. (6).
    """
    for i, port in enumerate(layout.ports):
        if i % 2 == 0:
            port.offer_traffic(rx_bps=flow.bit_rate_bps, tx_bps=0.0,
                               packet_bytes=flow.packet_bytes)
        else:
            port.offer_traffic(rx_bps=0.0, tx_bps=flow.bit_rate_bps,
                               packet_bytes=flow.packet_bytes)


def clear_traffic(ports: Sequence[Port]) -> None:
    """Stop all offered traffic on the given ports."""
    for port in ports:
        port.offer_traffic(rx_bps=0.0, tx_bps=0.0)


def teardown(ports: Sequence[Port]) -> None:
    """Return ports to the pristine state: no cables, down, unplugged."""
    for port in ports:
        disconnect(port)
        port.set_admin(False)
        port.set_speed(None)
        port.offer_traffic(0.0, 0.0)
        port.unplug()
