"""The full tier: per-event-loop-tick matrix batching.

Router entries that miss the cache are queued; once per event-loop
tick the batcher drains the queue, groups entries by
:attr:`~repro.serve.schemas.RouterQuery.signature`, and evaluates each
group as **one** :func:`~repro.core.prediction.predict_trace` call
whose sample axis is the batch -- column ``k`` is request ``k``.

Bit-determinism across batch widths
-----------------------------------

``predict_trace`` folds each class group's member rows sequentially,
so a column is a pure function of its own entry whatever the batch
width -- a request's floats never depend on who else arrived in the
same tick -- and the cheap tier's scalar fold
(:mod:`repro.serve.cache`) reproduces it bit-for-bit.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.model import PowerModel
from repro.core.prediction import DeployedInterface, predict_trace
from repro.obs import metrics
from repro.serve.schemas import RouterQuery

M_BATCH_SIZE = metrics.histogram(
    "netpower_serve_batch_size",
    "Router entries per full-tier flush batch.",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024))
M_GROUPS = metrics.counter(
    "netpower_serve_batch_groups_total",
    "Signature groups evaluated (one matrix call each).")


def evaluate_group(model: PowerModel,
                   entries: List[RouterQuery]) -> List[float]:
    """One matrix call for a batch of structurally identical entries."""
    first = entries[0]
    members = first.resolved
    if not members:
        values = predict_trace(
            model, [],
            assume_unplugged_when_idle=first.assume_unplugged_when_idle,
            active_pps_threshold=first.active_pps_threshold,
            n_samples=len(entries))
        return [float(v) for v in values]
    interfaces = []
    for j, member in enumerate(members):
        columns = [entry.resolved[j] for entry in entries]
        interfaces.append(DeployedInterface(
            name=f"m{j}", trx_name=member.trx_name,
            octet_rate_rx=np.array([c.oct_rx for c in columns]),
            octet_rate_tx=np.array([c.oct_tx for c in columns]),
            packet_rate_rx=np.array([c.pkt_rx for c in columns]),
            packet_rate_tx=np.array([c.pkt_tx for c in columns]),
            speed_gbps=member.speed_gbps))
    values = predict_trace(
        model, interfaces,
        assume_unplugged_when_idle=first.assume_unplugged_when_idle,
        active_pps_threshold=first.active_pps_threshold)
    return [float(v) for v in values]


class PredictBatcher:
    """Collects full-tier entries and flushes them once per tick."""

    def __init__(self, models: Dict[str, PowerModel]):
        self.models = models
        self._pending: List[Tuple[RouterQuery, asyncio.Future]] = []
        self._task: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        #: Batch sizes flushed so far (for the metrics histogram).
        self.flushed_batches = 0
        self.flushed_entries = 0

    def start(self) -> None:
        """Spawn the flush task on the running loop."""
        self._wake = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Cancel the flush task and fail any stranded waiters."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        for _entry, future in self._pending:
            if not future.done():
                future.cancel()
        self._pending.clear()

    async def submit(self, query: RouterQuery) -> float:
        """Queue one router entry; resolves to its power in watts."""
        future: asyncio.Future = \
            asyncio.get_running_loop().create_future()
        self._pending.append((query, future))
        assert self._wake is not None, "batcher not started"
        self._wake.set()
        return await future

    async def _run(self) -> None:
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            # Yield once so every coroutine runnable this tick gets to
            # enqueue before the flush -- that is what makes the batch
            # "per event-loop tick" rather than "first come alone".
            await asyncio.sleep(0)
            while self._pending:
                batch, self._pending = self._pending, []
                self._flush(batch)
                await asyncio.sleep(0)

    def _flush(self,
               batch: List[Tuple[RouterQuery, asyncio.Future]]) -> None:
        M_BATCH_SIZE.observe(len(batch))
        groups: Dict[Tuple, List[Tuple[RouterQuery, asyncio.Future]]] = {}
        for query, future in batch:
            if future.done():
                continue
            groups.setdefault(query.signature, []).append((query, future))
        for signature, entries in groups.items():
            model = self.models.get(signature[0])
            queries = [query for query, _future in entries]
            try:
                if model is None:
                    raise KeyError(
                        f"no power model for router model "
                        f"{signature[0]!r}")
                values = evaluate_group(model, queries)
            except Exception as exc:  # surface to every waiter
                for _query, future in entries:
                    if not future.done():
                        future.set_exception(exc)
                continue
            M_GROUPS.inc()
            self.flushed_batches += 1
            self.flushed_entries += len(entries)
            for (_query, future), value in zip(entries, values):
                if not future.done():
                    future.set_result(value)
