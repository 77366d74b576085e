"""Generated ``/predict`` bodies against the matrix reference.

``PredictionCache.insert`` computes every miss of ``/predict`` with the
cache's scalar member expression and fold; ``evaluate_group`` is the
``predict_trace`` matrix call the tiers must equal.  Bodies mix catalog
and unknown transceivers, optional speed overrides, idle, tiny and
large rates, both idle policies, and both packet quanta -- with a
packet quantum of 0, packet rates land exactly on
``ACTIVE_PPS_THRESHOLD``.  Every reply must be strict JSON: rates near
the float limit get a 400, never a 200 carrying ``Infinity``.
"""

from __future__ import annotations

import json
import struct
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.activity import ACTIVE_PPS_THRESHOLD
from repro.hardware.transceiver import TRANSCEIVER_CATALOG
from repro.serve import ServeConfig
from repro.serve.batching import evaluate_group
from repro.serve.cache import DEFAULT_CAPACITY, PredictionCache
from repro.serve.schemas import (canonical_json, parse_predict_request,
                                 predict_response)
from tests.test_serve import PRESET, SEED, http, run_with_server, \
    shared_service

MAX_INTERFACES = 40

rates = st.one_of(
    st.just(0.0),
    st.sampled_from([ACTIVE_PPS_THRESHOLD / 2, ACTIVE_PPS_THRESHOLD]),
    st.floats(min_value=0.0, max_value=1e-2),
    st.floats(min_value=1e3, max_value=1e12))

#: Rates up to the float limit, where a sum or the bit rate overflows.
huge_rates = st.one_of(
    rates,
    st.sampled_from([1e307, 1e308, 1.7e308, sys.float_info.max]),
    st.floats(min_value=1e300, max_value=sys.float_info.max))


def interfaces(rate: st.SearchStrategy) -> st.SearchStrategy:
    """One interface entry with every rate drawn from ``rate``."""
    return st.fixed_dictionaries(
        {"trx": st.one_of(st.sampled_from(sorted(TRANSCEIVER_CATALOG)),
                          st.sampled_from(["SFP-9G-NOPE", "QSFP-UNKNOWN"])),
         "octet_rate_rx": rate, "octet_rate_tx": rate,
         "packet_rate_rx": rate, "packet_rate_tx": rate},
        optional={"speed_gbps": st.sampled_from([1.0, 10.0, 25.0, 100.0,
                                                 400.0]),
                  "name": st.sampled_from(["a", "b", "c"])})


@st.composite
def bodies(draw, max_routers: int, rate: st.SearchStrategy = rates) -> dict:
    """A ``/predict`` document with at most ``MAX_INTERFACES`` in all."""
    models = sorted(shared_service().models)
    n_routers = draw(st.integers(1, max_routers))
    budget = MAX_INTERFACES
    routers = []
    for _ in range(n_routers):
        members = draw(st.lists(interfaces(rate), max_size=budget))
        budget -= len(members)
        routers.append({"router_model": draw(st.sampled_from(models)),
                        "interfaces": members})
    return {"routers": routers,
            "assume_unplugged_when_idle": draw(st.booleans())}


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def strict_json(payload: bytes) -> dict:
    """Parse a reply, refusing the non-JSON tokens Infinity and NaN."""

    def refuse(token: str) -> None:
        raise ValueError(f"{token} is not JSON")

    return json.loads(payload, parse_constant=refuse)


@settings(max_examples=120, deadline=None)
@given(body=bodies(max_routers=1), packet_quantum=st.sampled_from([1.0, 0.0]))
def test_insert_is_bit_equal_to_the_matrix_reference(body, packet_quantum):
    query = parse_predict_request(
        body, packet_quantum=packet_quantum).routers[0]
    model = shared_service().models[query.router_model]
    expected = bits(evaluate_group(model, [query])[0])
    roomy = PredictionCache(capacity=DEFAULT_CAPACITY)
    roomy.insert(query, model)
    distinct = len(roomy)
    for capacity in (1, 3, DEFAULT_CAPACITY):
        cache = PredictionCache(capacity=capacity)
        assert bits(cache.insert(query, model)) == expected
        found = cache.lookup(query, model)
        if capacity >= distinct:
            assert found is not None and bits(found) == expected
        else:
            assert found is None


def reference_reply(body: bytes, packet_quantum: float) -> bytes:
    """The reply ``perfbench`` expects: ``evaluate_group`` per signature."""
    models = shared_service().models
    request = parse_predict_request(json.loads(body),
                                    packet_quantum=packet_quantum)
    groups: dict = {}
    for query in request.routers:
        groups.setdefault(query.signature, {})[query] = None
    powers: dict = {}
    for signature, queries in groups.items():
        members = list(queries)
        powers.update(zip(members,
                          evaluate_group(models[signature[0]], members)))
    entries = []
    fleet_power = 0.0
    for query in request.routers:
        fleet_power = fleet_power + powers[query]
        entries.append({
            "router_model": query.router_model, "power_w": powers[query],
            "n_interfaces": len(query.interfaces),
            "unresolved_interfaces":
                len(query.interfaces) - len(query.resolved)})
    return canonical_json(predict_response(entries, fleet_power))


@settings(max_examples=40, deadline=None)
@given(body=bodies(max_routers=4), packet_quantum=st.sampled_from([1.0, 0.0]),
       capacity=st.sampled_from([3, DEFAULT_CAPACITY]))
def test_served_replies_equal_the_matrix_reference(body, packet_quantum,
                                                   capacity):
    raw = json.dumps(body).encode()
    expected = reference_reply(raw, packet_quantum)
    config = ServeConfig(preset=PRESET, seed=SEED, port=0, warmup_steps=2,
                         packet_quantum=packet_quantum,
                         cache_capacity=capacity)

    async def scenario(server):
        # The second post finds whatever the first one cached.
        return [await http(server.bound_port, "POST", "/predict", raw)
                for _ in range(2)]

    for status, _headers, payload in run_with_server(scenario, config):
        assert status == 200
        assert payload == expected
        strict_json(payload)


@settings(max_examples=40, deadline=None)
@given(body=bodies(max_routers=2, rate=huge_rates))
def test_replies_near_the_float_limit_are_strict_json_or_400(body):
    raw = json.dumps(body).encode()

    async def scenario(server):
        return await http(server.bound_port, "POST", "/predict", raw)

    status, _headers, payload = run_with_server(scenario)
    document = strict_json(payload)
    if status == 400:
        assert document["error"].endswith("rates must give a finite "
                                          "bit rate")
    else:
        assert status == 200
