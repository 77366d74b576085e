"""Request/response documents for the ``repro.serve/v1`` wire format.

Everything the server emits is canonical JSON: keys sorted, compact
separators, one trailing newline.  Two properties follow:

* **Byte determinism** -- the same request body always renders the
  same response bytes, across restarts and regardless of which tier
  (cached or full) evaluated it.  Tier information therefore never
  enters a body; it travels in the ``X-Netpower-Tier`` header.
* **Schema stamping** -- every body carries ``"schema":
  "repro.serve/v1"`` so clients can reject version skew.

Rates are quantised *at admission*, before either tier sees them, so
the cache key and the matrix column are derived from exactly the same
floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import units
from repro.activity import ACTIVE_PPS_THRESHOLD
from repro.core.model import InterfaceClassKey
from repro.core.prediction import resolve_class_key

#: The wire-format version stamped into every response body.
SERVE_SCHEMA = "repro.serve/v1"

#: Default admission quanta: rates are snapped to this grid before
#: evaluation so near-identical polls share a cache entry.
DEFAULT_OCTET_QUANTUM = 125.0   # bytes/s, i.e. 1 kbit/s
DEFAULT_PACKET_QUANTUM = 1.0    # packets/s

#: Interfaces one ``/predict`` may carry across all its routers.  A
#: miss is computed on the event loop, so this bounds what one request
#: can hold it for; a synth-1k poll of the whole fleet has 8,908.
MAX_REQUEST_INTERFACES = 16384
#: Router entries one ``/predict`` may carry.
MAX_REQUEST_ROUTERS = 1024
#: Interfaces one ``/predict`` router entry may carry.
MAX_ROUTER_INTERFACES = 4096
#: Changes plus ``sleep_links`` entries one ``/whatif`` may carry.  A
#: what-if also runs on the event loop, so this bounds it the same way.
MAX_WHATIF_CHANGES = 4096


class RequestError(ValueError):
    """A malformed request body; rendered as an HTTP 400."""


def canonical_json(document: Dict) -> bytes:
    """The one true rendering: sorted keys, compact, newline-terminated."""
    return (json.dumps(document, sort_keys=True,
                       separators=(",", ":")) + "\n").encode()


def error_body(message: str) -> bytes:
    """A schema-stamped error document."""
    return canonical_json({"schema": SERVE_SCHEMA, "kind": "error",
                           "error": message})


def quantize(value: float, quantum: float) -> float:
    """Snap ``value`` to the admission grid (identity when disabled)."""
    if quantum <= 0.0:
        return float(value)
    return round(value / quantum) * quantum


def _number(raw: object, where: str, key: str) -> float:
    """A finite, non-negative JSON number or a :class:`RequestError`.

    The field's name, ``where.key``, is formatted only for an error.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise RequestError(f"{where}.{key} must be a number")
    value = float(raw)
    if not math.isfinite(value):
        raise RequestError(f"{where}.{key} must be finite")
    if value < 0:
        raise RequestError(f"{where}.{key} must be non-negative")
    return value


@dataclass(frozen=True)
class InterfaceQuery:
    """One canonicalised interface of a ``/predict`` router entry.

    ``oct_rate`` / ``pkt_rate`` are the two-direction sums of the
    quantised per-direction rates -- the only traffic numbers the
    power model consumes.  ``sort_key`` orders members canonically so
    the float fold order is a pure function of the request content.
    """

    name: str
    trx_name: str
    speed_gbps: Optional[float]
    class_key: Optional[InterfaceClassKey]
    oct_rx: float
    oct_tx: float
    pkt_rx: float
    pkt_tx: float

    @property
    def oct_rate(self) -> float:
        """Two-direction octet rate (bytes/s)."""
        return self.oct_rx + self.oct_tx

    @property
    def pkt_rate(self) -> float:
        """Two-direction packet rate (packets/s)."""
        return self.pkt_rx + self.pkt_tx

    @property
    def sort_key(self) -> Tuple:
        """Canonical member order: resolved class first, then name."""
        if self.class_key is None:
            return (1, "", "", 0.0, self.name)
        return (0, self.class_key.port_type, self.class_key.reach,
                self.class_key.speed_gbps, self.name)


@dataclass(frozen=True)
class RouterQuery:
    """One canonicalised router entry of a ``/predict`` request."""

    router_model: str
    interfaces: Tuple[InterfaceQuery, ...]
    assume_unplugged_when_idle: bool
    active_pps_threshold: float

    @property
    def resolved(self) -> Tuple[InterfaceQuery, ...]:
        """The members that actually contribute (known class, in order)."""
        return tuple(i for i in self.interfaces if i.class_key is not None)

    @property
    def signature(self) -> Tuple:
        """The matrix group key.

        Two router entries with the same signature evaluate as columns
        of one :func:`~repro.serve.batching.evaluate_group` matrix call:
        same model, same flags, and the same multiset of interface
        classes in the same canonical order, so every member row and
        every group fold aligns bit-for-bit.
        """
        classes = tuple(i.class_key for i in self.resolved)
        return (self.router_model, self.assume_unplugged_when_idle,
                self.active_pps_threshold, classes)


@dataclass(frozen=True)
class PredictRequest:
    """A parsed, canonicalised ``/predict`` request."""

    routers: Tuple[RouterQuery, ...] = field(default_factory=tuple)


def parse_predict_request(document: object,
                          octet_quantum: float = DEFAULT_OCTET_QUANTUM,
                          packet_quantum: float = DEFAULT_PACKET_QUANTUM
                          ) -> PredictRequest:
    """Validate, quantise, and canonicalise a ``/predict`` body.

    Canonicalisation sorts each router's interfaces by (resolved
    class, name): group order and member fold order then depend only
    on the request *content*, never on arrival order -- the keystone
    of the cached-tier == full-tier bit-equality contract.  The
    request-wide interface count is checked against
    :data:`MAX_REQUEST_INTERFACES` before any interface is parsed, and
    an interface whose quantised rates give a non-finite bit rate is
    refused, so no reply can carry a power that is not JSON.
    """
    if not isinstance(document, dict):
        raise RequestError("body must be a JSON object")
    routers_raw = document.get("routers")
    if not isinstance(routers_raw, list) or not routers_raw:
        raise RequestError("'routers' must be a non-empty array")
    if len(routers_raw) > MAX_REQUEST_ROUTERS:
        raise RequestError(
            f"at most {MAX_REQUEST_ROUTERS} routers per request")
    n_interfaces = sum(
        len(entry["interfaces"]) for entry in routers_raw
        if isinstance(entry, dict)
        and isinstance(entry.get("interfaces"), list))
    if n_interfaces > MAX_REQUEST_INTERFACES:
        raise RequestError(
            f"at most {MAX_REQUEST_INTERFACES} interfaces per request")
    unplugged = document.get("assume_unplugged_when_idle", True)
    if not isinstance(unplugged, bool):
        raise RequestError("'assume_unplugged_when_idle' must be a boolean")

    routers: List[RouterQuery] = []
    for r, entry in enumerate(routers_raw):
        if not isinstance(entry, dict):
            raise RequestError(f"routers[{r}] must be an object")
        model_name = entry.get("router_model")
        if not isinstance(model_name, str) or not model_name:
            raise RequestError(f"routers[{r}].router_model must be a string")
        ifaces_raw = entry.get("interfaces", [])
        if not isinstance(ifaces_raw, list):
            raise RequestError(f"routers[{r}].interfaces must be an array")
        if len(ifaces_raw) > MAX_ROUTER_INTERFACES:
            raise RequestError(
                f"at most {MAX_ROUTER_INTERFACES} interfaces per router")
        members: List[InterfaceQuery] = []
        for i, iface in enumerate(ifaces_raw):
            where = f"routers[{r}].interfaces[{i}]"
            if not isinstance(iface, dict):
                raise RequestError(f"{where} must be an object")
            trx = iface.get("trx")
            if not isinstance(trx, str) or not trx:
                raise RequestError(f"{where}.trx must be a string")
            speed = iface.get("speed_gbps")
            if speed is not None:
                speed = _number(speed, where, "speed_gbps")
            name = iface.get("name", f"if{i}")
            if not isinstance(name, str):
                raise RequestError(f"{where}.name must be a string")
            oct_rx = quantize(_number(iface.get("octet_rate_rx", 0.0),
                                      where, "octet_rate_rx"),
                              octet_quantum)
            oct_tx = quantize(_number(iface.get("octet_rate_tx", 0.0),
                                      where, "octet_rate_tx"),
                              octet_quantum)
            pkt_rx = quantize(_number(iface.get("packet_rate_rx", 0.0),
                                      where, "packet_rate_rx"),
                              packet_quantum)
            pkt_tx = quantize(_number(iface.get("packet_rate_tx", 0.0),
                                      where, "packet_rate_tx"),
                              packet_quantum)
            # The bit rate member_contribution derives from the two-
            # direction sums.  The sums are non-negative, so it is
            # infinite whenever one of them is, and a reply would then
            # carry Infinity, which is not JSON.
            bps = units.BITS_PER_BYTE * (
                (oct_rx + oct_tx)
                + units.ETHERNET_OVERHEAD_BYTES * (pkt_rx + pkt_tx))
            if not math.isfinite(bps):
                raise RequestError(
                    f"{where} rates must give a finite bit rate")
            members.append(InterfaceQuery(
                name=name, trx_name=trx, speed_gbps=speed,
                class_key=resolve_class_key(trx, speed),
                oct_rx=oct_rx, oct_tx=oct_tx, pkt_rx=pkt_rx,
                pkt_tx=pkt_tx))
        members.sort(key=lambda m: m.sort_key)
        routers.append(RouterQuery(
            router_model=model_name, interfaces=tuple(members),
            assume_unplugged_when_idle=unplugged,
            active_pps_threshold=ACTIVE_PPS_THRESHOLD))
    return PredictRequest(routers=tuple(routers))


def predict_response(entries: List[Dict], fleet_power_w: float) -> Dict:
    """The ``/predict`` response document (tier-free by contract)."""
    return {"schema": SERVE_SCHEMA, "kind": "predict",
            "fleet_power_w": fleet_power_w, "routers": entries}


@dataclass(frozen=True)
class WhatIfChange:
    """One admin-state toggle of a ``/whatif`` request."""

    hostname: str
    port_index: int
    admin_up: bool


@dataclass(frozen=True)
class WhatIfRequest:
    """A parsed ``/whatif`` body: explicit toggles plus link sleeps."""

    changes: Tuple[WhatIfChange, ...]
    sleep_links: Tuple[int, ...]


def parse_whatif_request(document: object) -> WhatIfRequest:
    """Validate a ``/whatif`` body."""
    if not isinstance(document, dict):
        raise RequestError("body must be a JSON object")
    changes_raw = document.get("changes", [])
    links_raw = document.get("sleep_links", [])
    if not isinstance(changes_raw, list):
        raise RequestError("'changes' must be an array")
    if not isinstance(links_raw, list):
        raise RequestError("'sleep_links' must be an array")
    if not changes_raw and not links_raw:
        raise RequestError("need at least one change or sleep_links entry")
    if len(changes_raw) + len(links_raw) > MAX_WHATIF_CHANGES:
        raise RequestError(
            f"at most {MAX_WHATIF_CHANGES} changes per request")
    changes: List[WhatIfChange] = []
    for c, entry in enumerate(changes_raw):
        if not isinstance(entry, dict):
            raise RequestError(f"changes[{c}] must be an object")
        hostname = entry.get("hostname")
        if not isinstance(hostname, str) or not hostname:
            raise RequestError(f"changes[{c}].hostname must be a string")
        port_index = entry.get("port_index")
        if isinstance(port_index, bool) or not isinstance(port_index, int) \
                or port_index < 0:
            raise RequestError(
                f"changes[{c}].port_index must be a non-negative integer")
        admin_up = entry.get("admin_up")
        if not isinstance(admin_up, bool):
            raise RequestError(f"changes[{c}].admin_up must be a boolean")
        changes.append(WhatIfChange(hostname=hostname,
                                    port_index=port_index,
                                    admin_up=admin_up))
    links: List[int] = []
    for j, raw in enumerate(links_raw):
        if isinstance(raw, bool) or not isinstance(raw, int) or raw < 0:
            raise RequestError(
                f"sleep_links[{j}] must be a non-negative integer")
        links.append(raw)
    return WhatIfRequest(changes=tuple(changes), sleep_links=tuple(links))
