"""Performance benchmark: the vectorized engine vs the object loop.

Not a paper artefact -- this guards the speedup the columnar engine
(:mod:`repro.network.engine`) was built for.  The full-size numbers (the
2x fleet over 10k steps, >=10x) live in ``BENCH_simulation.json`` via
``netpower bench``; this test keeps runtime modest by using the
default 107-router fleet over a few hundred steps and asserting a
conservative floor, so it stays meaningful on slow CI machines.
"""

import time

import numpy as np
import pytest

from repro.network import (
    FleetTrafficModel,
    NetworkSimulation,
    build_switch_like_network,
)
from repro.obs import metrics

N_STEPS = 300
STEP_S = 300.0


def _timed_run(engine: str):
    network = build_switch_like_network(rng=np.random.default_rng(7))
    traffic = FleetTrafficModel(network, rng=np.random.default_rng(8))
    sim = NetworkSimulation(network, traffic, rng=np.random.default_rng(9))
    start = time.perf_counter()
    result = sim.run(duration_s=N_STEPS * STEP_S, step_s=STEP_S,
                     engine=engine)
    return time.perf_counter() - start, result


class TestEngineSpeedup:
    def test_vector_engine_is_much_faster_and_equivalent(self):
        object_s, object_result = _timed_run("object")
        vector_s, vector_result = _timed_run("vector")
        speedup = object_s / vector_s
        print(f"\nobject {object_s:.2f}s, vector {vector_s:.2f}s "
              f"-> {speedup:.1f}x over {N_STEPS} steps "
              f"({len(object_result.snmp)} routers)")
        np.testing.assert_allclose(object_result.total_power.values,
                                   vector_result.total_power.values,
                                   rtol=1e-9)
        # Measured ~8-15x at this size (init costs amortize further over
        # longer runs); 3x is the never-regress floor.
        assert speedup >= 3.0, (
            f"vectorized engine only {speedup:.1f}x faster "
            f"({object_s:.2f}s vs {vector_s:.2f}s)")


class TestObservabilityOverhead:
    """With no registry installed, instrumentation must cost ~nothing.

    Every instrument call site resolves against the active registry and
    returns a shared no-op when none is installed, so a bare run should
    be indistinguishable from the pre-observability engine.  The bound
    is deliberately loose (machine noise dwarfs the real cost, which is
    one attribute check per call site); the acceptance target is <= 3 %
    and the assertion allows measurement jitter on top of that.
    """

    def test_noop_instrumentation_overhead_is_small(self):
        assert not metrics.enabled(), (
            "a metrics registry leaked into the benchmark process")
        _timed_run("vector")  # warm-up: imports, caches, allocator
        samples = [_timed_run("vector")[0] for _ in range(3)]
        bare_s = min(samples)
        with metrics.use_registry(metrics.MetricsRegistry()):
            observed_samples = [_timed_run("vector")[0] for _ in range(3)]
        observed_s = min(observed_samples)
        print(f"\nvector bare {bare_s:.3f}s, "
              f"with live registry {observed_s:.3f}s "
              f"({100 * (observed_s / bare_s - 1):+.1f} %)")
        # Even a LIVE registry (strictly more work than the no-op path)
        # must stay within 25 % of the bare run at this fleet size.
        assert observed_s <= bare_s * 1.25, (
            f"instrumentation overhead too high: bare {bare_s:.3f}s vs "
            f"instrumented {observed_s:.3f}s")


class TestMonitorOverhead:
    """Continuous monitoring must fit the observability perf budget.

    The rollup store is O(1) amortized per sample with fixed memory,
    so the honest budget is *absolute overhead per step*: view-host
    sync plus rollup arithmetic, independent of how fast the bare
    engine underneath gets.  A percentage-of-bare envelope (the
    original formulation) turned into a coin flip once the compact
    active-port working set roughly halved the bare step at this fleet
    size -- the same ~0.2 ms/step of monitor work became a noise-sized
    ratio on a shrinking denominator.  Observed cost is ~0.13-0.27
    ms/step on a loaded single-core container, with individual samples
    jittering by 2x either way, so samples are interleaved (bare /
    monitored back to back, min of 4 each) and the never-regress
    ceiling is 1.0 ms/step -- 4x the signal, yet far below what any
    real regression costs (an accidental per-router Python loop in the
    step path is ~3 ms/step even on this 107-router fleet).
    """

    MAX_OVERHEAD_MS_PER_STEP = 1.0

    def _timed(self, monitored: bool):
        from repro.monitor import FleetMonitor

        network = build_switch_like_network(rng=np.random.default_rng(7))
        traffic = FleetTrafficModel(network, rng=np.random.default_rng(8))
        sim = NetworkSimulation(network, traffic,
                                rng=np.random.default_rng(9))
        for hostname in sorted(network.routers)[:2]:
            sim.deploy_autopower(hostname)
        if monitored:
            sim.add_observer(FleetMonitor())
        start = time.perf_counter()
        sim.run(duration_s=N_STEPS * STEP_S, step_s=STEP_S,
                engine="vector")
        return time.perf_counter() - start

    def test_monitored_run_within_budget(self):
        self._timed(monitored=False)  # warm-up
        bare_samples, monitored_samples = [], []
        for _ in range(4):  # interleaved: noise hits both paths alike
            bare_samples.append(self._timed(monitored=False))
            monitored_samples.append(self._timed(monitored=True))
        bare_s = min(bare_samples)
        monitored_s = min(monitored_samples)
        overhead_ms = 1000.0 * max(0.0, monitored_s - bare_s) / N_STEPS
        print(f"\nvector bare {bare_s:.3f}s, monitored {monitored_s:.3f}s "
              f"({overhead_ms:.2f} ms/step overhead)")
        assert overhead_ms <= self.MAX_OVERHEAD_MS_PER_STEP, (
            f"monitoring overhead too high: {overhead_ms:.2f} ms/step "
            f"(bare {bare_s:.3f}s vs monitored {monitored_s:.3f}s over "
            f"{N_STEPS} steps)")


class TestAttributionOverhead:
    """The energy ledger must fit the attribution perf budget.

    Two contracts, mirroring the monitor budget above.  Off: the ledger
    is a ``None`` check per step, so an attribution-off run must be
    indistinguishable from the pre-ledger engine (covered by the bare
    samples here doubling as the off path).  On: the vector engine fills
    an ``(n_routers, n_components)`` buffer from columns it already
    computes, so the acceptance target is <= 15 % over the bare step at
    the ``large`` rung.  Observed is <= ~9 % at ``large`` and ~0.1 % at
    ``xxl``, where the fixed cost amortizes (BENCH_simulation.json
    records the same delta at both rungs); the ceiling is
    1.5x to absorb single-core container jitter, which swings individual
    samples 2x either way -- hence interleaved min-of-4 on both paths.
    A real regression (a per-router Python loop in the vector step) is
    >5x at this fleet size, far above the ceiling.
    """

    MAX_OVERHEAD_RATIO = 1.5
    LADDER_STEPS = 200

    def _timed(self, attribution: bool) -> float:
        from repro import bench

        case = bench.CASES["large"]
        sim = bench._build_simulation(case, seed=7)
        start = time.perf_counter()
        sim.run(duration_s=self.LADDER_STEPS * STEP_S, step_s=STEP_S,
                engine="vector", attribution=attribution)
        return time.perf_counter() - start

    def test_ledger_overhead_within_budget(self):
        self._timed(attribution=True)  # warm-up
        off_samples, on_samples = [], []
        for _ in range(4):  # interleaved: noise hits both paths alike
            off_samples.append(self._timed(attribution=False))
            on_samples.append(self._timed(attribution=True))
        off_s = min(off_samples)
        on_s = min(on_samples)
        print(f"\nvector off {off_s:.3f}s, with ledger {on_s:.3f}s "
              f"({100 * (on_s / off_s - 1):+.1f} %)")
        assert on_s <= off_s * self.MAX_OVERHEAD_RATIO, (
            f"attribution overhead too high: off {off_s:.3f}s vs "
            f"on {on_s:.3f}s over {self.LADDER_STEPS} steps")


class TestProfilerOverhead:
    """The tracer's profile view must fit the observability perf budget.

    Off: :func:`repro.obs.tracing.span` is one module-global check
    returning a shared no-op context, so an untraced run must be
    indistinguishable from the pre-profiler engine (the bare samples
    here double as that contract).  On, as ``--profile-out`` alone
    installs it (no timeline): each span entry/exit is one small
    allocation, two ``perf_counter`` reads, a few list ops, and a dict
    upsert -- about a microsecond against step kernels that run for
    tens of microseconds at the ``large`` rung.  The acceptance target
    is <= 10 % over the bare step.  The ceiling is 1.35x to absorb
    single-core container jitter (individual samples swing 2x either
    way -- hence interleaved min-of-4 on both paths); a real regression
    (e.g. keeping a span per call, or formatting a name per call)
    costs well over that.
    """

    MAX_OVERHEAD_RATIO = 1.35
    LADDER_STEPS = 200

    def _timed(self, profiled: bool) -> float:
        from repro import bench
        from repro.obs import tracing

        case = bench.CASES["large"]
        sim = bench._build_simulation(case, seed=7)
        tracer = tracing.Tracer(timeline=False) if profiled else None
        start = time.perf_counter()
        with tracing.use_tracer(tracer):
            sim.run(duration_s=self.LADDER_STEPS * STEP_S, step_s=STEP_S,
                    engine="vector")
        return time.perf_counter() - start

    def test_profiler_overhead_within_budget(self):
        from repro.obs import tracing

        assert not tracing.enabled(), (
            "a tracer leaked into the benchmark process")
        self._timed(profiled=True)  # warm-up
        off_samples, on_samples = [], []
        for _ in range(4):  # interleaved: noise hits both paths alike
            off_samples.append(self._timed(profiled=False))
            on_samples.append(self._timed(profiled=True))
        off_s = min(off_samples)
        on_s = min(on_samples)
        print(f"\nvector bare {off_s:.3f}s, profiled {on_s:.3f}s "
              f"({100 * (on_s / off_s - 1):+.1f} %)")
        assert on_s <= off_s * self.MAX_OVERHEAD_RATIO, (
            f"profiler overhead too high: bare {off_s:.3f}s vs "
            f"profiled {on_s:.3f}s over {self.LADDER_STEPS} steps")


class TestLadderScaling:
    """The bench ladder's `xl` rung must not scale superlinearly.

    The guarded quantity is ms/step *per 1000 routers*: per-step SNMP
    polling and the object-side hooks are O(routers) with a fixed
    per-router cost, so raw ms/step necessarily grows with fleet size
    and comparing it across rungs would only measure that the `xl`
    fleet is bigger.  What the columnar engine promises is that the
    per-router rate holds (or improves -- wider columns amortize numpy
    dispatch), and the 2x allowance keeps the floor meaningful on noisy
    CI machines.  BENCH_simulation.json records the same normalization
    for every rung (`ms_per_step_per_1k_routers`).
    """

    LADDER_STEPS = 200

    def _ms_per_step(self, case_name: str) -> float:
        from repro import bench

        case = bench.CASES[case_name]
        sim = bench._build_simulation(case, seed=7)
        start = time.perf_counter()
        sim.run(duration_s=self.LADDER_STEPS * STEP_S, step_s=STEP_S,
                engine="vector")
        wall_s = time.perf_counter() - start
        return 1000.0 * wall_s / self.LADDER_STEPS

    def test_xl_per_router_rate_within_2x_of_large(self):
        from repro import bench

        large_ms = self._ms_per_step("large")
        xl_ms = self._ms_per_step("xl")
        large_routers = bench._case_routers(bench.CASES["large"])
        xl_routers = bench._case_routers(bench.CASES["xl"])
        large_norm = large_ms / (large_routers / 1000.0)
        xl_norm = xl_ms / (xl_routers / 1000.0)
        print(f"\nlarge {large_ms:.2f} ms/step ({large_norm:.2f}/1k "
              f"routers), xl {xl_ms:.2f} ms/step ({xl_norm:.2f}/1k)")
        assert xl_norm <= 2.0 * large_norm, (
            f"xl per-router step rate regressed: {xl_norm:.2f} ms/step/1k "
            f"routers vs large {large_norm:.2f} (allowance 2x)")


class TestStepLoopOverhead:
    """The step loop's own time must stay a small share of a run.

    ``sim.steps`` self time is what no span inside it covers: the
    loop's bookkeeping between kernels (gathering due events, writing
    the grid and totals, the SNMP cadence).  The one-time columnar
    build has its own ``sim.build`` span, so at the ``xl`` rung
    (synth-1k, 600 steps, vector engine) the remainder read 3.5-4.2 %
    of ``sim.run`` over ten runs on a 2-core host.  The bound is 6 %;
    an unspanned per-router Python loop in the step, or the build
    losing its span, lands well above it.
    """

    MAX_SHARE = 0.06

    def test_loop_self_time_is_a_small_share_of_the_run(self):
        from repro import bench
        from repro.obs import tracing

        case = bench.CASES["xl"]
        sim = bench._build_simulation(case, seed=7)
        tracer = tracing.Tracer(timeline=False)
        with tracing.use_tracer(tracer):
            sim.run(duration_s=case.n_steps * STEP_S, step_s=STEP_S,
                    engine="vector")
        kernels = tracer.profile_dict()["kernels"]
        loop_s = kernels["sim.steps"]["self_s"]
        run_s = kernels["sim.run"]["cum_s"]
        print(f"\nsim.steps self {1e3 * loop_s:.1f} ms of sim.run "
              f"{1e3 * run_s:.1f} ms ({100 * loop_s / run_s:.2f} %)")
        assert loop_s <= self.MAX_SHARE * run_s, (
            f"step loop overhead {100 * loop_s / run_s:.2f} % of sim.run "
            f"(bound {100 * self.MAX_SHARE:.0f} %)")
