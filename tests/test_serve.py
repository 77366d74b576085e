"""The ``netpower serve`` contract: determinism, tiering, endpoints.

The headline guarantees under test:

* responses are **byte**-deterministic -- identical request bodies get
  identical response bytes, across repeats, across interleaved
  traffic, and across full server restarts;
* the cheap (cache lookup) tier and the full (cache insert) tier are
  bit-equal to the matrix reference ``evaluate_group``, so the route
  taken never shows in the payload;
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

from repro.network.engine import FleetState
from repro.network.topology import ExternalPeerPort
from repro.obs import metrics as obs_metrics
from repro.serve import NetpowerServer, ServeConfig
from repro.serve.batching import evaluate_group
from repro.serve.cache import PredictionCache
from repro.serve.schemas import (MAX_REQUEST_INTERFACES, RequestError,
                                 parse_predict_request,
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


async def exchange(reader, writer, method: str, path: str,
                   body: bytes = b"", close: bool = False):
    """One exchange on an open connection -> (status, headers, payload)."""
    connection = "Connection: close\r\n" if close else ""
    head = (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n{connection}\r\n").encode()
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


async def http(port: int, method: str, path: str, body: bytes = b""):
    """One exchange on a fresh connection -> (status, headers, payload)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await exchange(reader, writer, method, path, body,
                              close=True)
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
        # never-seen bodies that force full-tier work around them.
        fresh = [predict_body(model, n_ifaces=3, scale=2.0 + 0.01 * k)
                 for k in range(12)]
        mixed = []
        for body, extra in zip(bodies, fresh):
            mixed.append(body)
            mixed.append(extra)
        misses_before = server.cache.misses
        second_round = await asyncio.gather(*[
            http(port, "POST", "/predict", body) for body in mixed])
        replayed = second_round[::2]
        for (_s1, _h1, before), (s2, headers, after) in zip(
                first_round, replayed):
            assert s2 == 200
            assert headers["x-netpower-tier"] == "cached"
            assert after == before
        assert server.cache.hits > 0
        for status, headers, _payload in second_round[1::2]:
            assert status == 200
            assert headers["x-netpower-tier"] == "full"
        assert server.cache.misses >= misses_before + len(fresh)

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
    # shape evaluate_group takes as one matrix call.
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
    # Each rate is finite, but a two-direction sum or the bit rate the
    # model derives from the sums is not: a 200 would carry Infinity.
    pytest.param(lambda d: d["routers"][0]["interfaces"][0].update(
        octet_rate_rx=1.7e308, octet_rate_tx=1.7e308),
        "finite bit rate", id="octet-sum-overflows"),
    pytest.param(lambda d: d["routers"][0]["interfaces"][0].update(
        packet_rate_rx=1.7e308, packet_rate_tx=1.7e308),
        "finite bit rate", id="packet-sum-overflows"),
    pytest.param(lambda d: d["routers"][0]["interfaces"][0].update(
        octet_rate_rx=1e308),
        "finite bit rate", id="octet-bit-rate-overflows"),
    pytest.param(lambda d: d["routers"][0]["interfaces"][0].update(
        packet_rate_rx=1e307),
        "finite bit rate", id="packet-bit-rate-overflows"),
])
def test_predict_parse_errors(mutate, message):
    document = json.loads(predict_body("m", n_ifaces=1))
    mutate(document)
    with pytest.raises(RequestError, match=message):
        parse_predict_request(document, octet_quantum=125.0,
                              packet_quantum=1.0)


def wide_body(n_interfaces: int) -> dict:
    """``n_interfaces`` unknown-transceiver interfaces, 4096 a router."""
    routers = []
    while n_interfaces > 0:
        count = min(n_interfaces, 4096)
        routers.append({"router_model": "m",
                        "interfaces": [{"trx": "x"}] * count})
        n_interfaces -= count
    return {"routers": routers}


def test_interfaces_are_capped_per_request():
    assert MAX_REQUEST_INTERFACES == 16384
    request = parse_predict_request(wide_body(16384))
    assert sum(len(r.interfaces) for r in request.routers) == 16384
    with pytest.raises(RequestError,
                       match="at most 16384 interfaces per request"):
        parse_predict_request(wide_body(16385))


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


def test_oversized_request_gets_400_and_the_server_keeps_serving():
    body = json.dumps(wide_body(16385)).encode()

    async def scenario(server):
        port = server.bound_port
        status, _h, payload = await http(port, "POST", "/predict", body)
        assert status == 400
        assert json.loads(payload)["error"] == \
            "at most 16384 interfaces per request"
        status, _h, _p = await http(port, "POST", "/predict",
                                    predict_body(first_model()))
        assert status == 200

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


def test_whatif_on_an_external_port_answers_and_keeps_the_connection():
    # An external port's peer is another network's port, with no router
    # to patch.  Regression: whatif read peer.router, the AttributeError
    # escaped the handler, and the client saw the connection close.
    service = shared_service()
    state = service._state
    network = service._network
    target = None
    for link in sorted(network.links, key=lambda link: link.link_id):
        if link.is_internal:
            continue
        port = network.routers[link.a.hostname].ports[link.a.port_index]
        if port.link_up:
            target = port
            break
    assert target is not None, "no live external link in fleet"
    assert isinstance(target.peer, ExternalPeerPort)
    body = json.dumps({"changes": [
        {"hostname": target.router.hostname, "port_index": target.index,
         "admin_up": False}]}).encode()

    async def scenario(server):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.bound_port)
        try:
            whatif = await exchange(reader, writer, "POST", "/whatif", body)
            health = await exchange(reader, writer, "GET", "/healthz")
        finally:
            writer.close()
        return whatif, health

    (status, _h, payload), (health, _h2, _p2) = run_with_server(scenario)
    assert status == 200
    assert health == 200
    document = json.loads(payload)

    # Ground truth, as for the peer side of an internal link.
    baseline = float(state.wall_power().sum())
    target.set_admin(False)
    state.refresh()
    expected_variant = float(state.wall_power().sum())
    target.set_admin(True)
    state.refresh()

    assert document["variant_w"] == round(expected_variant, 6)
    assert document["delta_w"] == round(expected_variant - baseline, 6)
    assert float(state.wall_power().sum()) == baseline


def whatif_bodies(count: int) -> list:
    """``count`` distinct link-sleep what-ifs over overlapping links."""
    links = sorted(shared_service()._internal_links)
    return [json.dumps({"sleep_links": links[k:k + 4]}).encode()
            for k in range(0, 2 * count, 2)]


def test_interleaved_whatifs_equal_their_solo_replies():
    """What-ifs from two connections, between /predict calls, never
    see each other's toggles: the event loop serialises them."""
    whatifs = whatif_bodies(6)
    model = first_model()
    predicts = [predict_body(model, n_ifaces=3, scale=1.0 + 0.1 * k)
                for k in range(6)]

    async def client(port, items):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            return [(path, body,
                     await exchange(reader, writer, "POST", path, body))
                    for path, body in items]
        finally:
            writer.close()

    async def scenario(server):
        port = server.bound_port
        solo = {}
        for body in whatifs:
            status, _h, payload = await http(port, "POST", "/whatif", body)
            assert status == 200
            solo[body] = payload
        forward = [item for pair in zip(whatifs, predicts)
                   for item in (("/whatif", pair[0]), ("/predict", pair[1]))]
        backward = [item for pair in zip(reversed(whatifs), predicts)
                    for item in (("/predict", pair[1]), ("/whatif", pair[0]))]
        return solo, await asyncio.gather(client(port, forward),
                                          client(port, backward))

    solo, replies = run_with_server(scenario)
    whatif_replies = 0
    for path, body, (status, _headers, payload) in \
            replies[0] + replies[1]:
        assert status == 200, (path, payload)
        if path == "/whatif":
            assert payload == solo[body]
            whatif_replies += 1
    assert whatif_replies == 2 * len(whatifs)

    service = shared_service()
    fresh = FleetState(service._network, service._state.traffic)
    expected = round(float(fresh.wall_power().sum()), 6)
    for payload in solo.values():
        assert json.loads(payload)["baseline_w"] == expected


def test_each_whatif_reads_the_fleet_wall_power_once():
    """The baseline is read at load, so a what-if reads only its variant."""
    service = shared_service()
    bodies = whatif_bodies(5)
    calls = []
    wall_power = FleetState.wall_power

    def counted(self, *args, **kwargs):
        calls.append(self)
        return wall_power(self, *args, **kwargs)

    with mock.patch.object(FleetState, "wall_power", counted):
        for body in bodies:
            service.whatif(parse_whatif_request(json.loads(body)))
    assert len(calls) == len(bodies)


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
