"""``netpower serve``: the async fleet-power query service.

The package turns the batch prediction stack into a long-running
HTTP+JSON service (stdlib ``asyncio`` only):

* :mod:`repro.serve.schemas` -- request/response documents, canonical
  JSON, and rate quantisation (``repro.serve/v1``);
* :mod:`repro.serve.cache` -- both tiers: a per-interface-class
  contribution cache keyed on class + quantised rates, whose lookup
  serves a router whose members are all cached and whose insert
  computes the missing members and folds the router's power;
* :mod:`repro.serve.batching` -- the matrix reference: one
  :func:`~repro.core.prediction.predict_trace` call per group of
  structurally identical entries, which the tests and the serve-miss
  benchmark compare every reply with;
* :mod:`repro.serve.state` -- fleet loading, lab-model derivation,
  the warmup simulation behind ``/fleet``, and what-if evaluation on
  the vector engine;
* :mod:`repro.serve.app` -- the HTTP server and endpoint routing.

Both tiers are bit-equal to the matrix reference by construction, and
every response is byte-deterministic for identical request bodies.
"""

from repro.serve.app import NetpowerServer, ServeConfig
from repro.serve.schemas import SERVE_SCHEMA

__all__ = ["NetpowerServer", "ServeConfig", "SERVE_SCHEMA"]
