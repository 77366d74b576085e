"""The ``netpower serve`` HTTP server (stdlib ``asyncio`` only).

A deliberately small HTTP/1.1 implementation: request line + headers
via ``readuntil``, body via ``readexactly(Content-Length)``,
keep-alive by default.  Endpoints:

========  ======  ==================================================
path      method  behaviour
========  ======  ==================================================
/healthz  GET     liveness (200 as soon as the socket is bound)
/readyz   GET     readiness (503 until models + fleet are loaded)
/metrics  GET     Prometheus text from the obs registry (404 if off)
/fleet    GET     the warmed fleet snapshot with attribution block
/predict  POST    per-router + fleet power from posted rates
/whatif   POST    admin-state / link-sleep counterfactual deltas
========  ======  ==================================================

``/predict`` classifies each router entry: a full cache hit is served
from the cheap tier, anything else is computed by the cache's own
insert, which fills in the missing members (:mod:`repro.serve.cache`).
The two tiers are bit-equal, so the response *bytes* never depend on
the route taken; the route is reported in the ``X-Netpower-Tier``
header (``cached``, ``full``, or ``mixed``).

``/predict`` and ``/whatif`` both run inline on the event loop, which
serialises them; only fleet loading and the snapshot write run in the
executor.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.ioutil import atomic_write_text
from repro.obs import metrics
from repro.obs.export import render_prometheus
from repro.serve.cache import DEFAULT_CAPACITY, PredictionCache
from repro.serve.schemas import (DEFAULT_OCTET_QUANTUM,
                                 DEFAULT_PACKET_QUANTUM, SERVE_SCHEMA,
                                 RequestError, canonical_json, error_body,
                                 parse_predict_request,
                                 parse_whatif_request, predict_response)
from repro.serve.state import FleetService

#: Largest accepted request body.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Stream buffer limit (headers must fit well within this).
STREAM_LIMIT = 1024 * 1024

M_REQUESTS = metrics.counter(
    "netpower_serve_requests_total",
    "HTTP requests served, by endpoint and status.",
    labels=("endpoint", "status"))
M_TIER = metrics.counter(
    "netpower_serve_predict_tier_total",
    "Predict router entries by serving tier.",
    labels=("tier",))
M_LATENCY = metrics.histogram(
    "netpower_serve_request_seconds",
    "Wall-clock request handling latency.",
    labels=("endpoint",))
M_READY = metrics.gauge(
    "netpower_serve_ready",
    "1 once the fleet and models are loaded.")
M_CONNECTIONS = metrics.gauge(
    "netpower_serve_open_connections",
    "Currently open client connections.")


@dataclass
class ServeConfig:
    """Everything ``netpower serve`` needs to boot."""

    preset: str = "synth-200"
    seed: int = 42
    host: str = "127.0.0.1"
    port: int = 8080
    warmup_steps: int = 8
    warmup_step_s: float = 300.0
    octet_quantum: float = DEFAULT_OCTET_QUANTUM
    packet_quantum: float = DEFAULT_PACKET_QUANTUM
    cache_capacity: int = DEFAULT_CAPACITY
    metrics_enabled: bool = True
    snapshot_out: Optional[str] = None


class NetpowerServer:
    """One serving process: load task, cache, and the HTTP loop."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.cache = PredictionCache(capacity=config.cache_capacity)
        self.service: Optional[FleetService] = None
        self.load_error: Optional[str] = None
        self._ready = asyncio.Event()
        self._stop = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._load_task: Optional["asyncio.Task[None]"] = None
        self.bound_port: Optional[int] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket, then begin loading the fleet off-loop."""
        config = self.config
        self._server = await asyncio.start_server(
            self._handle_client, host=config.host, port=config.port,
            limit=STREAM_LIMIT)
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.bound_port = sock.getsockname()[1]
            break
        # Keep the handle: a task the loop holds no strong reference
        # to can be garbage-collected mid-flight, and shutdown() needs
        # something to cancel if loading is still underway.
        self._load_task = \
            asyncio.get_running_loop().create_task(self._load())

    async def _load(self) -> None:
        config = self.config
        loop = asyncio.get_running_loop()
        try:
            service = await loop.run_in_executor(
                None, lambda: FleetService.load(
                    config.preset, config.seed,
                    warmup_steps=config.warmup_steps,
                    warmup_step_s=config.warmup_step_s))
        except Exception as exc:
            self.load_error = f"{type(exc).__name__}: {exc}"
            self._stop.set()
            return
        self.service = service
        if config.snapshot_out:
            # Disk I/O stays off-loop: the snapshot can be megabytes,
            # and /healthz must keep answering while it lands.
            await loop.run_in_executor(
                None, atomic_write_text, config.snapshot_out,
                canonical_json(service.fleet_doc).decode())
        M_READY.set(1.0)
        self._ready.set()

    async def run_until_stopped(self) -> int:
        """Serve until a signal or fatal load error; returns exit code."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self._stop.set)
            except NotImplementedError:  # non-Unix event loops
                pass
        await self._stop.wait()
        await self.shutdown()
        return 1 if self.load_error else 0

    async def shutdown(self) -> None:
        """Close the listener and stop the loader."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._load_task is not None:
            if not self._load_task.done():
                self._load_task.cancel()
            try:
                await self._load_task
            except asyncio.CancelledError:
                pass
            self._load_task = None
        M_READY.set(0.0)

    # -- HTTP plumbing ------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        M_CONNECTIONS.inc()
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                ConnectionResetError, BrokenPipeError):
            pass
        finally:
            M_CONNECTIONS.dec()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_one(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> bool:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                raise
            return False  # clean EOF between requests
        request_line, _, header_block = head.partition(b"\r\n")
        try:
            method, target, _version = \
                request_line.decode("latin-1").split(" ", 2)
        except ValueError:
            await self._respond(writer, 400, error_body("bad request line"),
                                endpoint="<bad>", started=time.perf_counter())
            return False
        headers = self._parse_headers(header_block)
        length_text = headers.get("content-length", "0") or "0"
        if not (length_text.isascii() and length_text.isdigit()):
            await self._respond(writer, 400,
                                error_body("bad Content-Length"),
                                endpoint=target, started=time.perf_counter(),
                                keep_alive=False)
            return False
        length = int(length_text)
        if length > MAX_BODY_BYTES:
            await self._respond(writer, 413, error_body("body too large"),
                                endpoint=target, started=time.perf_counter())
            return False
        body = await reader.readexactly(length) if length else b""
        started = time.perf_counter()
        path = target.split("?", 1)[0]
        status, payload, content_type, extra = await self._route(
            method, path, body)
        keep_alive = headers.get("connection", "").lower() != "close"
        await self._respond(writer, status, payload, endpoint=path,
                            started=started, content_type=content_type,
                            keep_alive=keep_alive, extra=extra)
        return keep_alive

    @staticmethod
    def _parse_headers(block: bytes) -> Dict[str, str]:
        headers: Dict[str, str] = {}
        for line in block.split(b"\r\n"):
            if not line:
                continue
            name, _, value = line.partition(b":")
            headers[name.decode("latin-1").strip().lower()] = \
                value.decode("latin-1").strip()
        return headers

    _REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 413: "Payload Too Large",
                500: "Internal Server Error", 503: "Service Unavailable"}

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: bytes, endpoint: str, started: float,
                       content_type: str = "application/json",
                       keep_alive: bool = True,
                       extra: Tuple[Tuple[str, str], ...] = ()) -> None:
        reason = self._REASONS.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(payload)}",
                 f"Connection: {'keep-alive' if keep_alive else 'close'}"]
        lines.extend(f"{name}: {value}" for name, value in extra)
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + payload)
        await writer.drain()
        M_REQUESTS.labels(endpoint=endpoint, status=str(status)).inc()
        M_LATENCY.labels(endpoint=endpoint).observe(
            time.perf_counter() - started)

    # -- routing ------------------------------------------------------------

    async def _route(self, method: str, path: str, body: bytes
                     ) -> Tuple[int, bytes, str,
                                Tuple[Tuple[str, str], ...]]:
        json_type = "application/json"
        if path == "/healthz":
            if method != "GET":
                return 405, error_body("GET only"), json_type, ()
            return 200, canonical_json(
                {"schema": SERVE_SCHEMA, "kind": "health",
                 "ok": True}), json_type, ()
        if path == "/readyz":
            if method != "GET":
                return 405, error_body("GET only"), json_type, ()
            if self.load_error:
                return 503, error_body(self.load_error), json_type, ()
            ready = self._ready.is_set()
            return (200 if ready else 503), canonical_json(
                {"schema": SERVE_SCHEMA, "kind": "ready",
                 "ready": ready}), json_type, ()
        if path == "/metrics":
            if method != "GET":
                return 405, error_body("GET only"), json_type, ()
            registry = metrics.get_registry()
            if registry is None:
                return 404, error_body("metrics disabled"), json_type, ()
            text = render_prometheus(registry)
            return 200, text.encode(), "text/plain; version=0.0.4", ()
        if path == "/fleet":
            if method != "GET":
                return 405, error_body("GET only"), json_type, ()
            if not self._ready.is_set():
                return 503, error_body("fleet still loading"), json_type, ()
            assert self.service is not None
            return 200, canonical_json(self.service.fleet_doc), \
                json_type, ()
        if path == "/predict":
            if method != "POST":
                return 405, error_body("POST only"), json_type, ()
            return self._predict(body)
        if path == "/whatif":
            if method != "POST":
                return 405, error_body("POST only"), json_type, ()
            return self._whatif(body)
        return 404, error_body(f"no such endpoint {path}"), json_type, ()

    # -- /predict -----------------------------------------------------------

    def _predict(self, body: bytes
                 ) -> Tuple[int, bytes, str, Tuple[Tuple[str, str], ...]]:
        json_type = "application/json"
        if not self._ready.is_set():
            return 503, error_body("models still loading"), json_type, ()
        assert self.service is not None
        try:
            request = parse_predict_request(
                _load_json(body),
                octet_quantum=self.config.octet_quantum,
                packet_quantum=self.config.packet_quantum)
        except RequestError as exc:
            return 400, error_body(str(exc)), json_type, ()
        models = self.service.models
        for query in request.routers:
            if query.router_model not in models:
                return 400, error_body(
                    f"no power model for router model "
                    f"{query.router_model!r}"), json_type, ()
        tiers: List[str] = []
        powers: List[Optional[float]] = []
        for query in request.routers:
            power = self.cache.lookup(query, models[query.router_model])
            tier = "full" if power is None else "cached"
            powers.append(power)
            tiers.append(tier)
            M_TIER.labels(tier=tier).inc()
        # Every lookup runs before any insert, so a router's tier never
        # depends on the members an earlier router of the request adds.
        for index, query in enumerate(request.routers):
            if powers[index] is None:
                powers[index] = self.cache.insert(
                    query, models[query.router_model])
        entries = []
        fleet_power = 0.0
        for query, power in zip(request.routers, powers):
            assert power is not None
            fleet_power = fleet_power + power
            entries.append({
                "router_model": query.router_model,
                "power_w": power,
                "n_interfaces": len(query.interfaces),
                "unresolved_interfaces":
                    len(query.interfaces) - len(query.resolved),
            })
        tier = tiers[0] if len(set(tiers)) == 1 else "mixed"
        return 200, canonical_json(
            predict_response(entries, fleet_power)), json_type, \
            (("X-Netpower-Tier", tier),)

    # -- /whatif ------------------------------------------------------------

    def _whatif(self, body: bytes
                ) -> Tuple[int, bytes, str, Tuple[Tuple[str, str], ...]]:
        json_type = "application/json"
        if not self._ready.is_set():
            return 503, error_body("fleet still loading"), json_type, ()
        assert self.service is not None
        try:
            document = self.service.whatif(
                parse_whatif_request(_load_json(body)))
        except RequestError as exc:
            return 400, error_body(str(exc)), json_type, ()
        return 200, canonical_json(document), json_type, ()


def _load_json(body: bytes) -> object:
    """Parse a request body, mapping failures to :class:`RequestError`."""
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RequestError(f"invalid JSON body: {exc}") from None


async def serve_forever(config: ServeConfig,
                        announce: Callable[[str], None] = print) -> int:
    """Boot a :class:`NetpowerServer` and run until stopped."""
    server = NetpowerServer(config)
    await server.start()
    announce(f"netpower serve: listening on "
             f"http://{config.host}:{server.bound_port} "
             f"(preset {config.preset}, seed {config.seed})")
    return await server.run_until_stopped()
