"""Autopower: external power measurement units for production routers (§6.1).

An Autopower unit is a Raspberry Pi plus a two-channel MCP39F511N power
meter: channel 0 monitors a router PSU feed, channel 1 powers the Pi
itself (no extra power plug needed in the PoP).  The original system's
operational properties are reproduced faithfully, because §6's comparisons
depend on them:

* **client-initiated** connections only (works behind NAT) -- the client
  pushes to the server, the server never contacts the client;
* **store and forward** -- samples buffer locally and upload in chunks
  when the network allows, so connectivity outages lose nothing;
* **boot resilience** -- measurement restarts automatically after a power
  failure; only the outage window itself is missing from the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import units
from repro.hardware.router import VirtualRouter
from repro.lab.power_meter import PowerMeter, PowerSample
from repro.obs import metrics
from repro.obs.logging import get_logger
from repro.telemetry.traces import TimeSeries

#: Idle power draw of the Raspberry Pi 4 measurement computer itself.
RASPBERRY_PI_POWER_W = 4.5

_log = get_logger("telemetry.autopower")

M_DEPLOYS = metrics.counter(
    "netpower_autopower_deploys_total",
    "Autopower units installed on routers")
M_SAMPLES = metrics.counter(
    "netpower_autopower_samples_total",
    "Power samples taken by a unit's meter", labels=("unit",))
M_CHUNKS_SENT = metrics.counter(
    "netpower_autopower_chunks_sent_total",
    "Sample chunks pushed to the server", labels=("unit",))
M_SAMPLES_UPLOADED = metrics.counter(
    "netpower_autopower_samples_uploaded_total",
    "Samples accepted by the server", labels=("unit",))
M_UPLOAD_OFFLINE = metrics.counter(
    "netpower_autopower_upload_offline_total",
    "Upload attempts skipped because the uplink was down (retried later)",
    labels=("unit",))
M_BOOTS = metrics.counter(
    "netpower_autopower_boots_total",
    "Unit boots (initial power-on plus post-outage restarts)",
    labels=("unit",))
M_BACKLOG = metrics.gauge(
    "netpower_autopower_backlog_samples",
    "Samples buffered locally, awaiting upload", labels=("unit",))
M_OUTAGE_WINDOWS = metrics.gauge(
    "netpower_autopower_outage_windows",
    "Scheduled outage windows, by kind", labels=("unit", "kind"))
M_OUTAGE_SECONDS = metrics.gauge(
    "netpower_autopower_outage_seconds",
    "Total scheduled outage duration, by kind", labels=("unit", "kind"))
M_SERVER_CHUNKS = metrics.counter(
    "netpower_autopower_server_chunks_received_total",
    "Chunks the collection server accepted")
M_SERVER_SAMPLES = metrics.counter(
    "netpower_autopower_server_samples_received_total",
    "Samples the collection server accepted")


@dataclass
class OutageWindow:
    """A half-open interval during which something is unavailable."""

    start_s: float
    end_s: float

    def __post_init__(self):
        if self.end_s <= self.start_s:
            raise ValueError(
                f"outage must end after it starts "
                f"({self.start_s} .. {self.end_s})")

    def contains(self, t: float) -> bool:
        """Whether ``t`` falls inside the window."""
        return self.start_s <= t < self.end_s


class Transport:
    """The unit's uplink to the server, with injectable outages."""

    def __init__(self, outages: Optional[Sequence[OutageWindow]] = None):
        self.outages = list(outages or [])

    def available(self, t: float) -> bool:
        """Whether the uplink works at time ``t``."""
        return not any(w.contains(t) for w in self.outages)


class AutopowerServer:
    """The collection server: receives chunks, serves downloads.

    Mirrors the original's gRPC service surface: clients push measurement
    chunks; operators list units, start/stop measurements, and download
    data (the web interface of the paper's Fig. 7).
    """

    def __init__(self):
        self._samples: Dict[str, List[PowerSample]] = {}
        self._measuring: Dict[str, bool] = {}

    def register(self, unit_id: str) -> None:
        """A unit announcing itself (client-initiated)."""
        self._samples.setdefault(unit_id, [])
        self._measuring.setdefault(unit_id, True)

    def receive_chunk(self, unit_id: str,
                      samples: Sequence[PowerSample]) -> int:
        """Accept a chunk of samples from a unit; returns count accepted."""
        if unit_id not in self._samples:
            self.register(unit_id)
        self._samples[unit_id].extend(samples)
        M_SERVER_CHUNKS.inc()
        M_SERVER_SAMPLES.inc(len(samples))
        return len(samples)

    def units(self) -> List[str]:
        """Known measurement units."""
        return sorted(self._samples)

    def should_measure(self, unit_id: str) -> bool:
        """Server-side measurement toggle polled by clients."""
        return self._measuring.get(unit_id, True)

    def start_measurement(self, unit_id: str) -> None:
        """Operator action: start measuring on a unit."""
        self._measuring[unit_id] = True

    def stop_measurement(self, unit_id: str) -> None:
        """Operator action: stop measuring on a unit."""
        self._measuring[unit_id] = False

    def download(self, unit_id: str) -> TimeSeries:
        """The unit's uploaded power data, ordered by time."""
        samples = sorted(self._samples.get(unit_id, []),
                         key=lambda s: s.timestamp_s)
        if not samples:
            return TimeSeries(np.array([]), np.array([]))
        ts = np.array([s.timestamp_s for s in samples])
        vs = np.array([s.power_w for s in samples])
        keep = np.concatenate([[True], np.diff(ts) > 0])
        return TimeSeries(ts[keep], vs[keep])

    def status_page(self) -> str:
        """The Fig. 7 web interface, as text: units, state, last reading.

        The original offers a browser UI to "conveniently start/stop
        measurements or download the power data"; this renders the same
        overview for terminals and logs.
        """
        lines = [f"{'unit':28s} {'state':10s} {'samples':>8s} "
                 f"{'last reading':>14s}"]
        for unit_id in self.units():
            samples = self._samples[unit_id]
            state = ("measuring" if self.should_measure(unit_id)
                     else "stopped")
            if samples:
                last = max(samples, key=lambda s: s.timestamp_s)
                reading = f"{last.power_w:8.1f} W"
            else:
                reading = "-"
            lines.append(f"{unit_id:28s} {state:10s} {len(samples):>8d} "
                         f"{reading:>14s}")
        return "\n".join(lines)


class AutopowerClient:
    """One deployed measurement unit.

    Parameters
    ----------
    unit_id:
        Identifier of the unit (hostname of the Pi).
    router:
        The router whose feed is plugged through meter channel 0.
    server:
        The collection server (reached through ``transport``).
    transport:
        Uplink with optional outage windows.
    sample_period_s:
        Meter sampling period; the paper's deployment used 0.5 s.
    upload_period_s:
        How often the client tries to flush its local buffer.
    rng:
        Randomness for the meter error model.
    """

    #: Maximum samples per upload chunk (bounded gRPC message size).
    CHUNK_SIZE = 4096

    def __init__(self, unit_id: str, router: VirtualRouter,
                 server: AutopowerServer,
                 transport: Optional[Transport] = None,
                 sample_period_s: float = units.AUTOPOWER_SAMPLE_PERIOD_S,
                 upload_period_s: float = 60.0,
                 rng: Optional[np.random.Generator] = None):
        self.unit_id = unit_id
        self.router = router
        self.server = server
        self.transport = transport if transport is not None else Transport()
        # Let the transport label its outage metrics with the unit id.
        if not hasattr(self.transport, "unit_id"):
            self.transport.unit_id = unit_id
        self.sample_period_s = sample_period_s
        self.upload_period_s = upload_period_s
        self.meter = PowerMeter(rng=rng)
        self.meter.attach(router.wall_power_w, channel=0)
        self.meter.attach(lambda: RASPBERRY_PI_POWER_W, channel=1)
        #: Locally stored, not-yet-uploaded samples (survives outages).
        self.local_buffer: List[PowerSample] = []
        self.power_outages: List[OutageWindow] = []
        self._registered = False
        self._last_upload_s = -np.inf
        #: Last toggle state heard from the server; holds through
        #: uplink outages (units default to measuring until told not to).
        self._measuring_cached = True
        self.boots = 1
        M_BOOTS.labels(unit=unit_id).inc()

    # -- failure injection ------------------------------------------------------

    def add_power_outage(self, start_s: float, end_s: float) -> None:
        """Schedule a PoP power failure affecting the unit itself."""
        self.power_outages.append(OutageWindow(start_s, end_s))
        M_OUTAGE_WINDOWS.labels(unit=self.unit_id, kind="power").set(
            len(self.power_outages))
        M_OUTAGE_SECONDS.labels(unit=self.unit_id, kind="power").set(
            sum(w.end_s - w.start_s for w in self.power_outages))

    def _powered(self, t: float) -> bool:
        return not any(w.contains(t) for w in self.power_outages)

    # -- the measurement loop ------------------------------------------------------

    def tick(self, timestamp_s: float) -> None:
        """One scheduler tick: sample if due and possible, then maybe upload.

        The caller (the network simulation) invokes this at the sampling
        cadence; a unit without power silently skips the tick and resumes
        on the next one -- the paper's "start on boot" behaviour.
        """
        if not self._powered(timestamp_s):
            return
        was_down = any(w.end_s <= timestamp_s for w in self.power_outages
                       if w.end_s > timestamp_s - self.sample_period_s)
        if was_down:
            self.boots += 1
            M_BOOTS.labels(unit=self.unit_id).inc()
            _log.debug("unit rebooted after power outage",
                       extra={"unit": self.unit_id,
                              "timestamp_s": timestamp_s})
        if self._measuring(timestamp_s):
            self.local_buffer.append(
                self.meter.read(timestamp_s, channel=0))
            M_SAMPLES.labels(unit=self.unit_id).inc()
            M_BACKLOG.labels(unit=self.unit_id).set(len(self.local_buffer))
        if timestamp_s - self._last_upload_s >= self.upload_period_s:
            self.try_upload(timestamp_s)

    def _measuring(self, timestamp_s: float) -> bool:
        # The client polls the server's toggle when reachable; when not,
        # it keeps its last known state (default: measuring).
        if self.transport.available(timestamp_s):
            self._measuring_cached = self.server.should_measure(
                self.unit_id)
        return self._measuring_cached

    def try_upload(self, timestamp_s: float) -> int:
        """Flush buffered samples to the server if the uplink is up.

        Returns the number of samples uploaded (0 when offline).  An
        offline attempt does not advance the upload clock, so the first
        due tick after an outage drains the backlog immediately instead
        of waiting out another ``upload_period_s``.
        """
        if not self.transport.available(timestamp_s):
            M_UPLOAD_OFFLINE.labels(unit=self.unit_id).inc()
            return 0
        self._last_upload_s = timestamp_s
        if not self._registered:
            self.server.register(self.unit_id)
            self._registered = True
        uploaded = 0
        while self.local_buffer:
            chunk = self.local_buffer[: self.CHUNK_SIZE]
            accepted = self.server.receive_chunk(self.unit_id, chunk)
            del self.local_buffer[: accepted]
            M_CHUNKS_SENT.labels(unit=self.unit_id).inc()
            uploaded += accepted
        if uploaded:
            M_SAMPLES_UPLOADED.labels(unit=self.unit_id).inc(uploaded)
            M_BACKLOG.labels(unit=self.unit_id).set(len(self.local_buffer))
        return uploaded


def deploy_unit(router: VirtualRouter, server: AutopowerServer,
                rng: Optional[np.random.Generator] = None,
                sample_period_s: float = units.AUTOPOWER_SAMPLE_PERIOD_S,
                transport: Optional[Transport] = None,
                ) -> AutopowerClient:
    """Install an Autopower unit on a router's power feed.

    Installing the meter requires briefly unplugging each PSU (§6.2 notes
    this power cycle alone changed one router's self-reported power), so
    the router is power-cycled here.  A custom ``transport`` (e.g. one
    with scheduled uplink outages) is forwarded to the client.
    """
    router.power_cycle()
    M_DEPLOYS.inc()
    _log.info("autopower unit deployed",
              extra={"router": router.hostname})
    return AutopowerClient(
        unit_id=f"autopower-{router.hostname}",
        router=router, server=server, rng=rng,
        sample_period_s=sample_period_s, transport=transport)
