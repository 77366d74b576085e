"""``serve-hit`` and ``serve-miss``: ``netpower serve --preset synth-1k``.

The server runs in its own process; this process is the one client.
Every ``/predict`` carries one PoP's routers, each with its real model
and installed transceivers, at rates taken from ``FleetTrafficModel``
on a client-side copy of the same seeded fleet.

* ``serve-hit`` replays a fixed set of polls, each sent once before
  timing starts, so the cached tier answers and the batcher idles.
* ``serve-miss`` sends fresh rates on every poll, so router entries go
  through batching, ``predict_trace`` and the cache insert; one request
  in ten is a ``/whatif`` that sleeps a seeded set of internal links.

Phases, all at offered rates fixed from the seed commit's capacity:
``light`` and ``busy`` are open-loop Poisson arrivals timed from each
request's due time; ``capacity`` keeps a fixed number of requests in
flight on the two connections and counts completions per second.  The
phases are sent in interleaved rounds.  The server runs under the
speed meter (:mod:`perfbench.speed`), and its set-up, latencies and
throughputs are read in its reference seconds.
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import json
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import loadgen, speed
from perfbench.common import (ROOT, SETUP_REPEATS, median, metric,
                              peak_rss_mb, program_env, run_dir, say, sha256)
from perfbench.loadgen import Request

PRESET = "synth-1k"
POLL_PERIOD_S = 300.0
CONNECTIONS = 2
#: Requests kept in flight in the capacity phase (two per connection).
IN_FLIGHT = 4
READY_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Shape:
    """A serve workload's fixed load shape.

    Rates are offered requests per second, chosen once from the seed
    commit's capacity on a shared 2-core box (280-420/s on ``serve-hit``
    and 110-170/s on ``serve-miss`` with four requests in flight):
    ``light`` near a quarter of the lower figure, ``busy`` near 60 %,
    clearly below the knee.
    Phase lengths are shares of ``--seconds``; the capacity phase sends
    as many requests as the seed commit completes in its share.
    """

    fresh: bool
    light_rps: float
    busy_rps: float
    capacity_rps: float
    whatif_every: int
    #: Distinct polls a hit workload replays.
    polls: int = 2


SHAPES = {
    "serve-hit": Shape(fresh=False, light_rps=80.0, busy_rps=180.0,
                       capacity_rps=300.0, whatif_every=0),
    "serve-miss": Shape(fresh=True, light_rps=30.0, busy_rps=70.0,
                        capacity_rps=120.0, whatif_every=10),
}
#: Share of ``--seconds`` per phase.
PHASE_SHARE = {"light": 0.35, "busy": 0.15, "capacity": 0.3}
#: Each phase is sent in this many interleaved rounds (light, busy,
#: capacity, light, ...), so a slow spell of the shared host is spread
#: over all phases instead of landing on one.
ROUNDS = 3
#: Internal links one ``/whatif`` puts to sleep.
WHATIF_LINKS = 4


# -- inputs


class Polls:
    """``/predict`` bodies from a client-side copy of the served fleet."""

    def __init__(self, seed: int) -> None:
        import repro.network as rn

        # The same generators, seeds and order as FleetService.load, so
        # every entry names a router the server knows.
        self.network = rn.generate_synth_network(
            rn.synth_config(PRESET), rng=np.random.default_rng(seed))
        self.traffic = rn.FleetTrafficModel(
            self.network, rng=np.random.default_rng(seed + 1))

    def poll(self, k: int) -> List[bytes]:
        """One body per PoP at poll ``k`` (fresh counters every call)."""
        from repro import units
        from repro.network.simulation import FLEET_PACKET_BYTES

        t_s = k * POLL_PERIOD_S
        external = self.traffic.external_rates_at(t_s)
        internal = self.traffic.internal_rates_at(t_s)
        rate: Dict[Tuple[str, int], float] = {}
        for link in self.network.links:
            if link.is_internal:
                bps = min(internal.get(link.link_id, 0.0),
                          0.95 * units.gbps_to_bps(link.speed_gbps))
                rate[(link.b.hostname, link.b.port_index)] = bps
            else:
                bps = external.get(link.link_id, 0.0)
            rate[(link.a.hostname, link.a.port_index)] = bps
        bodies = []
        for pop in sorted(self.network.pops):
            routers = []
            for host in self.network.pops[pop]:
                router = self.network.routers[host]
                interfaces = []
                for port in router.ports:
                    if port.transceiver is None:
                        continue
                    octets = rate.get((host, port.index), 0.0) \
                        / units.BITS_PER_BYTE
                    packets = octets / FLEET_PACKET_BYTES
                    interfaces.append({
                        "name": port.name, "trx": port.transceiver.name,
                        "speed_gbps": port.speed_gbps,
                        "octet_rate_rx": octets, "octet_rate_tx": octets,
                        "packet_rate_rx": packets,
                        "packet_rate_tx": packets})
                routers.append({"router_model": router.model_name,
                                "interfaces": interfaces})
            bodies.append(json.dumps({"routers": routers},
                                     sort_keys=True).encode())
        return bodies

    def whatif(self, rng: np.random.Generator) -> bytes:
        """A ``/whatif`` sleeping a seeded set of internal links."""
        ids = sorted(link.link_id for link in self.network.internal_links())
        chosen = sorted(int(i) for i in rng.choice(ids, WHATIF_LINKS,
                                                   replace=False))
        return json.dumps({"sleep_links": chosen}).encode()


def _plan(shape: Shape, polls: Polls, seed: int, seconds: int,
          scale: float) -> Tuple[List[bytes], Dict[str, Tuple[float, list]]]:
    """Warm-up bodies and each phase's ``(rate, [(path, body)])``."""
    rng = np.random.default_rng(seed + 7)
    counts = {
        "light": (shape.light_rps,
                  round(shape.light_rps * PHASE_SHARE["light"] * seconds
                        * scale)),
        "busy": (shape.busy_rps,
                 round(shape.busy_rps * PHASE_SHARE["busy"] * seconds
                       * scale)),
        "capacity": (0.0,
                     round(shape.capacity_rps * PHASE_SHARE["capacity"]
                           * seconds * scale)),
    }
    # A hit workload warms up with (and then replays) its fixed polls; a
    # miss workload warms up with one poll and never sends a body twice.
    n_warm = 1 if shape.fresh else shape.polls
    warm = [body for k in range(n_warm) for body in polls.poll(k)]
    next_poll = n_warm
    pending: List[bytes] = []
    phases = {}
    for name, (rate, n) in counts.items():
        items = []
        for i in range(n):
            if shape.whatif_every and i % shape.whatif_every \
                    == shape.whatif_every - 1:
                items.append(("/whatif", polls.whatif(rng)))
                continue
            if shape.fresh:
                if not pending:
                    pending = polls.poll(next_poll)
                    next_poll += 1
                body = pending.pop()
            else:
                body = warm[int(rng.integers(len(warm)))]
            items.append(("/predict", body))
        phases[name] = (rate, items)
    return warm, phases


# -- the server process


class Server:
    """One ``netpower serve`` process on an ephemeral port, started by
    :mod:`perfbench.serve_launcher` under the speed meter."""

    _ids = itertools.count()

    def __init__(self, seed: int, spans: Optional[Path] = None) -> None:
        self.meter = run_dir() / f"meter-{seed}-{next(self._ids)}.json"
        self.meter.unlink(missing_ok=True)
        #: The meter's bursts, read once the server has exited.
        self.bursts: Optional[speed.Bursts] = None
        command = [sys.executable,
                   str(ROOT / "perfbench" / "serve_launcher.py"),
                   str(self.meter), str(spans) if spans else "-",
                   "serve", "--preset", PRESET, "--seed", str(seed),
                   "--port", "0"]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     env=program_env(), text=True)
        line = self.proc.stdout.readline()
        found = re.search(r"http://[^:/]+:(\d+)", line)
        if found is None:
            self.stop()
            raise RuntimeError(f"server did not announce a port: {line!r}")
        self.port = int(found.group(1))
        deadline = self.started + READY_TIMEOUT_S
        while self.get("/readyz")[0] != 200:
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError("server never became ready")
            time.sleep(0.01)
        #: When the first 200 from /readyz arrived.
        self.ready = time.perf_counter()

    @property
    def setup_s(self) -> float:
        """Process start until the first 200 from /readyz, in reference
        seconds (known once the server has stopped)."""
        if self.bursts is None:
            raise RuntimeError("the server wrote no speed-meter bursts")
        return self.bursts.seconds(self.started, self.ready)

    def get(self, path: str) -> Tuple[int, bytes]:
        """One blocking GET on a fresh connection."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        except OSError:
            return 0, b""
        finally:
            connection.close()

    def stop(self) -> None:
        """SIGTERM, then wait; kill if it will not exit.  Reads the
        meter's bursts the server wrote on its way out."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if self.meter.is_file():
            self.bursts = speed.Bursts.load(self.meter)


def _scrape(server: Server) -> Dict[str, float]:
    """The server's /metrics samples, keyed by name plus labels."""
    status, text = server.get("/metrics")
    samples: Dict[str, float] = {}
    if status == 200:
        for line in text.decode().splitlines():
            if line and not line.startswith("#"):
                key, _, value = line.rpartition(" ")
                samples[key] = float(value)
    return samples


# -- one measured session


async def _session(server: Server, shape: Shape, warm: List[bytes],
                   phases: Dict[str, Tuple[float, list]], seed: int,
                   names: Tuple[str, ...], scrape: bool) -> Dict:
    client = loadgen.Client()
    await client.open(server.port, CONNECTIONS)
    requests: List[Request] = []
    try:
        warmup = [Request("POST", "/predict", body) for body in warm]
        for request in warmup:
            await client.send(request)
        requests.extend(warmup)
        window = [time.perf_counter()]
        before = _scrape(server) if scrape else {}
        rounds: Dict[str, list] = {name: [] for name in names}
        for k in range(ROUNDS):
            for name in names:
                rate, items = phases[name]
                batch = [Request("POST", path, body)
                         for path, body in items[k::ROUNDS]]
                if name == "capacity":
                    start = await loadgen.closed_loop(client, batch,
                                                      IN_FLIGHT)
                else:
                    start = time.perf_counter()
                    await loadgen.open_loop(
                        client, batch, rate,
                        np.random.default_rng([seed, len(requests)]))
                rounds[name].append((start, batch))
                requests.extend(batch)
        window.append(time.perf_counter())
        after = _scrape(server) if scrape else {}
    finally:
        await client.close()
    return {"requests": requests, "rounds": rounds, "window": window,
            "metrics": {k: after.get(k, 0.0) - before.get(k, 0.0)
                        for k in after}}


def _summarize(shape: Shape, rounds: Dict[str, list],
               clock: speed.Bursts) -> Dict[str, loadgen.PhaseStats]:
    """Each phase's figures in the server's reference seconds."""
    stats = {name: loadgen.summarize(name, parts, clock=clock)
             for name, parts in rounds.items()}
    if shape.whatif_every and "light" in rounds:
        stats["whatif"] = loadgen.summarize(
            "whatif", [(start, [r for r in batch if r.path == "/whatif"])
                       for start, batch in rounds["light"]],
            path="/whatif", clock=clock)
    return stats


# -- output checks


def reference_answers(seed: int, bodies: List[bytes]) -> Dict[bytes, bytes]:
    """The ``/predict`` answer to each body, computed in this process.

    A ``FleetService.load`` of the same preset and seed supplies the
    models; bodies go through ``parse_predict_request`` and router
    entries through ``evaluate_group``, one call per batch signature
    (a column depends on its own entry only, whatever the width).
    """
    from repro.serve.batching import evaluate_group
    from repro.serve.schemas import (canonical_json, parse_predict_request,
                                     predict_response)
    from repro.serve.state import FleetService

    models = FleetService.load(PRESET, seed).models
    parsed = {body: parse_predict_request(json.loads(body))
              for body in dict.fromkeys(bodies)}
    groups: Dict[tuple, Dict[object, None]] = {}
    for request in parsed.values():
        for query in request.routers:
            groups.setdefault(query.signature, {})[query] = None
    powers: Dict[object, float] = {}
    for signature, queries in groups.items():
        members = list(queries)
        powers.update(zip(members,
                          evaluate_group(models[signature[0]], members)))
    answers = {}
    for body, request in parsed.items():
        entries = []
        fleet_power = 0.0
        for query in request.routers:
            power = powers[query]
            fleet_power = fleet_power + power
            entries.append({
                "router_model": query.router_model, "power_w": power,
                "n_interfaces": len(query.interfaces),
                "unresolved_interfaces":
                    len(query.interfaces) - len(query.resolved)})
        answers[body] = canonical_json(
            predict_response(entries, fleet_power))
    return answers


def _check_whatif(document: Dict, baselines: set) -> str:
    baselines.add(document["baseline_w"])
    if len(baselines) > 1:
        return "baseline moved between what-ifs"
    rows = [(document["baseline_w"], document["variant_w"],
             document["delta_w"])]
    rows += [(r["baseline_w"], r["variant_w"], r["delta_w"])
             for r in document["routers"]]
    for baseline, variant, delta in rows:
        if abs(delta - (variant - baseline)) > 2e-6:
            return f"delta {delta} != {variant} - {baseline}"
    return ""


def _checks(requests: List[Request], reference: Optional[Dict[bytes, bytes]],
            ) -> Tuple[int, int, List[str]]:
    attempted, failed, notes = len(requests), 0, []
    first: Dict[bytes, bytes] = {}
    baselines: set = set()
    for request in requests:
        if not request.ok:
            failed += 1
            notes.append(f"{request.path}: status {request.status} "
                         f"{request.error}")
            continue
        if request.path == "/whatif":
            problem = _check_whatif(json.loads(request.payload), baselines)
        elif reference is not None:
            problem = ("" if request.payload == reference[request.body]
                       else "differs from in-process evaluation")
        else:
            expected = first.setdefault(request.body, request.payload)
            problem = "" if request.payload == expected else \
                "differs from the first answer to the same body"
        if problem:
            failed += 1
            notes.append(f"{request.path}: {problem}")
    return attempted, failed, notes


# -- the workload


def _measure(seed: int, shape: Shape, warm: List[bytes],
             phases: Dict[str, Tuple[float, list]], names: Tuple[str, ...],
             spans: Optional[Path] = None) -> Dict:
    """One server process through warm-up and the named phases; a
    traced server's ``/metrics`` is scraped around the phases."""
    server = Server(seed, spans)
    try:
        fleet = server.get("/fleet")
        session = asyncio.run(_session(server, shape, warm, phases, seed,
                                       names, scrape=spans is not None))
        session["fleet_ok"] = fleet[0] == 200 and \
            server.get("/fleet") == fleet
        session["rss"] = peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
    session["setup_s"] = server.setup_s
    session["bursts"] = server.bursts
    session["stats"] = _summarize(shape, session["rounds"], server.bursts)
    return session


def run(workload: str, seed: int, seconds: int, trace: bool) -> Dict:
    """One run of a serve workload; see :mod:`perfbench.run`."""
    shape = SHAPES[workload]
    polls = Polls(seed)
    warm, phases = _plan(shape, polls, seed, seconds,
                         scale=0.5 if trace else 1.0)
    setups: List[float] = []
    if trace:
        names: Tuple[str, ...] = ("light", "capacity")
    else:
        names = ("light", "busy", "capacity")
        for _ in range(SETUP_REPEATS - 1):
            server = Server(seed)
            server.stop()
            setups.append(server.setup_s)
    sessions = [_measure(seed, shape, warm, phases, names)]
    setups.append(sessions[0]["setup_s"])
    if trace:
        spans = run_dir() / f"spans-{workload}-{seed}.json"
        sessions.append(_measure(seed, shape, warm, phases, names, spans))

    requests = [r for s in sessions for r in s["requests"]]
    reference = reference_answers(
        seed, [r.body for r in requests if r.path == "/predict"]) \
        if shape.fresh else None
    attempted, failed, notes = _checks(requests, reference)
    attempted += 1
    if not all(s["fleet_ok"] for s in sessions):
        failed += 1
        notes.append("/fleet bytes changed over the run")
    for note in notes[:20]:
        say(f"check failed: {note}")

    main = sessions[0]
    stats = main["stats"]
    say(speed.host_speed(main["bursts"]))
    _report(workload, stats)
    out = {"attempted": attempted, "failed": failed,
           "digest": sha256([r.payload for r in main["requests"]]),
           "valid": all(s.valid for s in stats.values() if s.sent),
           "end_to_end": {
               "setup_s": metric(median(setups), "s"),
               "ops_per_s": metric(stats["capacity"].throughput, "1/s"),
               "p50_ms": metric(stats["light"].latency_ms["p50"], "ms"),
               "peak_rss_mb": metric(main["rss"], "MB")}}
    if trace:
        traced = sessions[1]
        dump = json.loads(spans.read_text())
        dump["window"] = traced["window"]
        dump["server"] = traced["metrics"]
        dump["loadgen"] = list(traced["stats"].values())
        dump["requests"] = traced["requests"]
        dump["overhead"] = (stats["capacity"].throughput
                            / traced["stats"]["capacity"].throughput - 1.0)
        out["trace"] = dump
    return out


def _report(workload: str, stats: Dict[str, loadgen.PhaseStats]) -> None:
    shape = SHAPES[workload]
    rates = {"light": shape.light_rps, "busy": shape.busy_rps}
    for name, phase in stats.items():
        say(f"phase {name}: sent {phase.sent} succeeded {phase.succeeded} "
            f"failed {phase.failed} loadgen.late_ms.p99 "
            f"{phase.late_p99_ms:.3f}"
            + ("" if phase.valid else "  INVALID: generator fell behind"))
        if name in rates:
            for label, value in phase.latency_ms.items():
                say(f"{label}_ms.{name} = {value:.3f} ms "
                    f"(at {rates[name]:g} req/s, n={phase.succeeded})")
        elif name == "whatif":
            if "p50" in phase.latency_ms:
                say(f"p50_ms.whatif = {phase.latency_ms['p50']:.3f} ms "
                    f"(n={phase.succeeded})")
        else:
            say(f"capacity_rps = {phase.throughput:.2f} req/s "
                f"({IN_FLIGHT} in flight on {CONNECTIONS} connections)")
