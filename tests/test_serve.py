"""The ``netpower serve`` contract: determinism, tiering, endpoints.

The headline guarantees under test:

* responses are **byte**-deterministic -- identical request bodies get
  identical response bytes, across repeats, across interleaved
  traffic, and across full server restarts;
* the cheap (cache) tier is bit-equal to the full (batched matrix)
  tier, so the route taken never shows in the payload;
* metrics on/off changes observability only, never response bodies.

The synth-200 fleet load is the expensive part, so most tests share
one preloaded :class:`~repro.serve.state.FleetService` injected via a
patched loader; the restart-determinism test does two real loads.
"""

from __future__ import annotations

import asyncio
import json
import threading
from unittest import mock

import pytest

from repro.obs import metrics as obs_metrics
from repro.serve import NetpowerServer, ServeConfig
from repro.serve.batching import evaluate_group
from repro.serve.cache import PredictionCache
from repro.serve.schemas import (RequestError, parse_predict_request,
                                 parse_whatif_request)
from repro.serve.state import FleetService

PRESET = "synth-200"
SEED = 42

_SERVICE = None


def shared_service() -> FleetService:
    """One real fleet load, shared by every injected-server test."""
    global _SERVICE
    if _SERVICE is None:
        _SERVICE = FleetService.load(PRESET, SEED, warmup_steps=2)
    return _SERVICE


def run_with_server(test_coro, config: ServeConfig = None):
    """Boot an injected-service server, run the coroutine, tear down."""
    cfg = config or ServeConfig(preset=PRESET, seed=SEED, port=0,
                                warmup_steps=2)
    service = shared_service()

    async def main():
        with mock.patch.object(FleetService, "load",
                               lambda *a, **k: service):
            server = NetpowerServer(cfg)
            await server.start()
            await asyncio.wait_for(server._ready.wait(), timeout=60)
            try:
                return await test_coro(server)
            finally:
                await server.shutdown()

    return asyncio.run(main())


async def http(port: int, method: str, path: str, body: bytes = b""):
    """One exchange on a fresh connection -> (status, headers, payload)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode()
        writer.write(head + body)
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        payload = await reader.readexactly(length) if length else b""
        return status, headers, payload
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def predict_body(model: str, n_ifaces: int = 2, scale: float = 1.0,
                 trx: str = "QSFP28-100G-DAC") -> bytes:
    interfaces = [{
        "name": f"et{i}", "trx": trx,
        "octet_rate_rx": scale * (1.0e9 + 7.0e7 * i),
        "octet_rate_tx": scale * (8.0e8 + 3.0e7 * i),
        "packet_rate_rx": scale * (1.2e5 + 900.0 * i),
        "packet_rate_tx": scale * (1.0e5 + 700.0 * i),
    } for i in range(n_ifaces)]
    return json.dumps({"routers": [
        {"router_model": model, "interfaces": interfaces}]}).encode()


def first_model() -> str:
    return sorted(shared_service().models)[0]


# -- byte determinism ---------------------------------------------------------


def test_repeat_request_is_byte_identical_and_cached():
    body = predict_body(first_model())

    async def scenario(server):
        status, headers, first = await http(
            server.bound_port, "POST", "/predict", body)
        assert status == 200
        assert headers["x-netpower-tier"] == "full"
        status, headers, second = await http(
            server.bound_port, "POST", "/predict", body)
        assert status == 200
        assert headers["x-netpower-tier"] == "cached"
        assert second == first

    run_with_server(scenario)


def test_interleaved_traffic_keeps_tiers_bit_equal():
    """Replays under concurrent unrelated load must not move a byte."""
    model = first_model()
    bodies = [predict_body(model, n_ifaces=1 + (k % 4),
                           scale=0.5 + 0.1 * k) for k in range(12)]

    async def scenario(server):
        port = server.bound_port
        first_round = await asyncio.gather(*[
            http(port, "POST", "/predict", body) for body in bodies])
        for status, _headers, _payload in first_round:
            assert status == 200
        # Replay every body concurrently, interleaved with fresh
        # never-seen bodies that force full-tier batching around them.
        fresh = [predict_body(model, n_ifaces=3, scale=2.0 + 0.01 * k)
                 for k in range(12)]
        mixed = []
        for body, extra in zip(bodies, fresh):
            mixed.append(body)
            mixed.append(extra)
        second_round = await asyncio.gather(*[
            http(port, "POST", "/predict", body) for body in mixed])
        replayed = second_round[::2]
        for (_s1, _h1, before), (s2, headers, after) in zip(
                first_round, replayed):
            assert s2 == 200
            assert headers["x-netpower-tier"] == "cached"
            assert after == before
        assert server.cache.hits > 0
        assert server.batcher.flushed_entries > 0

    run_with_server(scenario)


def test_restart_byte_determinism():
    """Two real loads serve byte-identical /fleet and /predict."""
    config = ServeConfig(preset=PRESET, seed=SEED, port=0,
                         warmup_steps=2)
    body = predict_body("8201-32FH")

    async def boot_and_sample():
        server = NetpowerServer(config)
        await server.start()
        await asyncio.wait_for(server._ready.wait(), timeout=120)
        try:
            _s, _h, fleet = await http(server.bound_port, "GET", "/fleet")
            _s, _h, predict = await http(
                server.bound_port, "POST", "/predict", body)
            return fleet, predict
        finally:
            await server.shutdown()

    fleet_a, predict_a = asyncio.run(boot_and_sample())
    fleet_b, predict_b = asyncio.run(boot_and_sample())
    assert fleet_a == fleet_b
    assert predict_a == predict_b


def test_metrics_toggle_leaves_bodies_identical():
    body = predict_body(first_model())

    async def scenario(server):
        port = server.bound_port
        _s, _h, predict = await http(port, "POST", "/predict", body)
        _s, _h, fleet = await http(port, "GET", "/fleet")
        status, _h, _p = await http(port, "GET", "/metrics")
        return predict, fleet, status

    with obs_metrics.use_registry(obs_metrics.MetricsRegistry()):
        predict_on, fleet_on, metrics_on = run_with_server(scenario)
    with obs_metrics.use_registry(None):
        predict_off, fleet_off, metrics_off = run_with_server(scenario)
    assert metrics_on == 200
    assert metrics_off == 404
    assert predict_on == predict_off
    assert fleet_on == fleet_off


# -- tier bit-equality at the unit level --------------------------------------


def test_cache_replay_is_bit_equal_to_matrix_columns():
    """Cache fold == each column of one shared matrix evaluation."""
    service = shared_service()
    model_name = first_model()
    model = service.models[model_name]
    # One signature group (same class structure), varied rates -- the
    # shape the batcher hands to evaluate_group.
    queries = []
    for k in range(6):
        document = json.loads(predict_body(
            model_name, n_ifaces=2, scale=0.3 + 0.2 * k))
        request = parse_predict_request(document, octet_quantum=125.0,
                                        packet_quantum=1.0)
        queries.append(request.routers[0])
    assert len({q.signature for q in queries}) == 1
    cache = PredictionCache()
    for query in queries:
        cache.insert(query, model)
    for width in (1, 2, 6):
        batch = queries[:width]
        values = evaluate_group(model, batch)
        for query, value in zip(batch, values):
            assert cache.lookup(query, model) == value


def test_batch_width_never_changes_a_column():
    service = shared_service()
    model_name = first_model()
    model = service.models[model_name]
    request = parse_predict_request(
        json.loads(predict_body(model_name, n_ifaces=2)),
        octet_quantum=125.0, packet_quantum=1.0)
    query = request.routers[0]
    alone = evaluate_group(model, [query])[0]
    others = [parse_predict_request(
        json.loads(predict_body(model_name, n_ifaces=2,
                                scale=1.0 + 0.1 * k)),
        octet_quantum=125.0, packet_quantum=1.0).routers[0]
        for k in range(1, 5)]
    crowded = evaluate_group(model, [query] + others)[0]
    assert alone == crowded


def test_single_entry_of_a_wide_class_matches_the_cache():
    """A lone entry with many same-class members folds like the cache."""
    service = shared_service()
    model_name = first_model()
    model = service.models[model_name]
    query = parse_predict_request(
        json.loads(predict_body(model_name, n_ifaces=12)),
        octet_quantum=125.0, packet_quantum=1.0).routers[0]
    cache = PredictionCache()
    cache.insert(query, model)
    assert evaluate_group(model, [query]) == [cache.lookup(query, model)]


# -- schema parsing -----------------------------------------------------------


def test_interfaces_are_canonically_ordered():
    """Member order in the request body must not affect the signature."""
    document = json.loads(predict_body(first_model(), n_ifaces=3))
    entry = document["routers"][0]
    request_fwd = parse_predict_request(
        document, octet_quantum=125.0, packet_quantum=1.0)
    entry["interfaces"] = list(reversed(entry["interfaces"]))
    request_rev = parse_predict_request(
        document, octet_quantum=125.0, packet_quantum=1.0)
    fwd, rev = request_fwd.routers[0], request_rev.routers[0]
    assert fwd.signature == rev.signature
    assert [m.name for m in fwd.interfaces] == \
        [m.name for m in rev.interfaces]


def test_quantization_is_applied_at_admission():
    document = json.loads(predict_body(first_model(), n_ifaces=1))
    iface = document["routers"][0]["interfaces"][0]
    iface["octet_rate_rx"] = 1000.4
    iface["packet_rate_rx"] = 10.49
    request = parse_predict_request(
        document, octet_quantum=125.0, packet_quantum=1.0)
    member = request.routers[0].interfaces[0]
    assert member.oct_rx == 1000.0
    assert member.pkt_rx == 10.0


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.__setitem__("routers", "x"), "routers"),
    (lambda d: d["routers"][0].__setitem__("router_model", 7), "router_model"),
    (lambda d: d["routers"][0]["interfaces"][0].__setitem__("trx", 9), "trx"),
    (lambda d: d["routers"][0]["interfaces"][0].__setitem__(
        "octet_rate_rx", -1.0), "octet_rate_rx"),
    (lambda d: d["routers"][0]["interfaces"][0].__setitem__(
        "packet_rate_tx", float("nan")), "packet_rate_tx"),
])
def test_predict_parse_errors(mutate, message):
    document = json.loads(predict_body("m", n_ifaces=1))
    mutate(document)
    with pytest.raises(RequestError, match=message):
        parse_predict_request(document, octet_quantum=125.0,
                              packet_quantum=1.0)


def test_whatif_parse_errors():
    with pytest.raises(RequestError, match="at least one"):
        parse_whatif_request({})
    with pytest.raises(RequestError, match="hostname"):
        parse_whatif_request({"changes": [{"port_index": 0,
                                           "admin_up": False}]})
    with pytest.raises(RequestError, match="sleep_links"):
        parse_whatif_request({"sleep_links": ["a"]})


# -- endpoints ----------------------------------------------------------------


def test_endpoint_statuses():
    async def scenario(server):
        port = server.bound_port
        checks = [
            ("GET", "/healthz", b"", 200),
            ("GET", "/readyz", b"", 200),
            ("GET", "/fleet", b"", 200),
            ("POST", "/healthz", b"", 405),
            ("POST", "/fleet", b"", 405),
            ("GET", "/predict", b"", 405),
            ("GET", "/nope", b"", 404),
            ("POST", "/predict", b"not json", 400),
            ("POST", "/predict", json.dumps(
                {"routers": [{"router_model": "ghost",
                              "interfaces": []}]}).encode(), 400),
            ("POST", "/whatif", json.dumps(
                {"changes": [{"hostname": "ghost", "port_index": 0,
                              "admin_up": False}]}).encode(), 400),
        ]
        for method, path, body, expected in checks:
            status, _headers, payload = await http(port, method, path, body)
            assert status == expected, (method, path, status, payload)

    run_with_server(scenario)


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_bad_content_length_gets_400_and_close(length):
    async def scenario(server):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.bound_port)
        try:
            writer.write(f"POST /predict HTTP/1.1\r\nHost: t\r\n"
                         f"Content-Length: {length}\r\n\r\n".encode())
            await writer.drain()
            reply = await asyncio.wait_for(reader.read(), timeout=10)
        finally:
            writer.close()
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert json.loads(payload)["error"] == "bad Content-Length"

    run_with_server(scenario)


def test_readyz_is_503_until_load_finishes():
    gate = threading.Event()
    service = shared_service()

    def slow_load(*args, **kwargs):
        gate.wait(timeout=30)
        return service

    async def main():
        with mock.patch.object(FleetService, "load", slow_load):
            server = NetpowerServer(ServeConfig(
                preset=PRESET, seed=SEED, port=0, warmup_steps=2))
            await server.start()
            try:
                status, _h, _p = await http(
                    server.bound_port, "GET", "/healthz")
                assert status == 200
                status, _h, payload = await http(
                    server.bound_port, "GET", "/readyz")
                assert status == 503
                assert json.loads(payload)["ready"] is False
                status, _h, _p = await http(
                    server.bound_port, "POST", "/predict",
                    predict_body(first_model()))
                assert status == 503
                gate.set()
                await asyncio.wait_for(server._ready.wait(), timeout=30)
                status, _h, payload = await http(
                    server.bound_port, "GET", "/readyz")
                assert status == 200
                assert json.loads(payload)["ready"] is True
            finally:
                gate.set()
                await server.shutdown()

    asyncio.run(main())


def test_whatif_round_trip_restores_the_fleet():
    change = json.dumps({"changes": [
        {"hostname": "r000001", "port_index": 0,
         "admin_up": False}]}).encode()

    async def scenario(server):
        port = server.bound_port
        _s, _h, first = await http(port, "POST", "/whatif", change)
        document = json.loads(first)
        assert document["changes_applied"] == 1
        assert document["delta_w"] <= 0
        _s, _h, second = await http(port, "POST", "/whatif", change)
        assert second == first

    run_with_server(scenario)


def test_whatif_accounts_for_the_peer_side_of_a_link():
    # Toggling one end of an internal link flips link_up on BOTH
    # ends, so the peer router's power must move too.  Regression:
    # whatif used to re-patch only the named router, leaving the
    # peer's columns stale and its delta missing from variant_w.
    service = shared_service()
    state = service._state
    network = service._network
    target = None
    for hostname in sorted(network.routers):
        for port in network.routers[hostname].ports:
            peer = port.peer
            if port.link_up and peer is not None and \
                    peer.router.hostname != hostname and \
                    peer.router.hostname in state.router_index:
                target = port
                break
        if target is not None:
            break
    assert target is not None, "no live cross-router link in fleet"

    request = parse_whatif_request({"changes": [
        {"hostname": target.router.hostname,
         "port_index": target.index, "admin_up": False}]})
    document = service.whatif(request)

    # Ground truth: apply the same toggle by hand with a full-column
    # rebuild, which cannot miss anyone.
    baseline = float(state.wall_power().sum())
    target.set_admin(False)
    state.refresh()
    expected_variant = float(state.wall_power().sum())
    target.set_admin(True)
    state.refresh()

    assert document["variant_w"] == round(expected_variant, 6)
    assert document["delta_w"] == round(expected_variant - baseline, 6)
    # And the fleet is fully restored, peer included.
    assert float(state.wall_power().sum()) == baseline


def test_interfaceless_router_gets_base_power():
    model_name = first_model()
    body = json.dumps({"routers": [
        {"router_model": model_name, "interfaces": []}]}).encode()

    async def scenario(server):
        status, _h, payload = await http(
            server.bound_port, "POST", "/predict", body)
        assert status == 200
        document = json.loads(payload)
        expected = float(
            shared_service().models[model_name].p_base_w.value)
        assert document["routers"][0]["power_w"] == expected

    run_with_server(scenario)
