"""``netpower`` -- the command-line face of the toolchain.

Mirrors how the paper's released artifacts are used from a shell:

* ``netpower derive``      -- NetPowerBench: characterise a device, emit
  its power model as JSON (the Zoo record format);
* ``netpower audit``       -- simulate the fleet briefly and print the
  §7/§9 energy audit;
* ``netpower sleep-study`` -- the §8 Hypnos savings analysis;
* ``netpower datasheets``  -- run the §3 corpus/extraction pipeline and
  print the trend and Table 1 statistics;
* ``netpower zoo``         -- derive every catalog device and export a
  Network Power Zoo JSON document;
* ``netpower bench``       -- time the object vs vectorized simulation
  engines and write ``BENCH_simulation.json``;
* ``netpower monitor``     -- run a small fleet with the continuous
  monitor attached and write a dashboard snapshot (JSON + HTML);
* ``netpower topo``        -- generate a deterministic synthetic
  multi-tier fleet and export its inventory (docs/TOPOLOGY.md);
* ``netpower sweep``       -- run a scenario matrix across worker
  processes and write a deterministic sweep report (docs/SWEEP.md);
* ``netpower explain``     -- run a fleet with the energy attribution
  ledger attached and print the fleet -> region -> router -> port
  drill-down (docs/OBSERVABILITY.md);
* ``netpower profile``     -- run a synthetic fleet under a tracer and
  print the per-span time table of its profile view
  (docs/OBSERVABILITY.md);
* ``netpower check``       -- the AST-based invariant checker behind the
  repository's determinism, unit, and schema conventions
  (docs/STATIC_ANALYSIS.md).

Every command takes ``--seed`` and is deterministic given it, plus the
shared observability flags (docs/OBSERVABILITY.md): ``--log-level`` /
``--log-json`` control the diagnostics channel on stderr,
``--metrics-out`` snapshots the metrics registry (Prometheus text, or
JSON for ``.json`` paths), and one tracer backs the last two:
``--trace-out`` writes its span tree (timeline view) and
``--profile-out`` its per-span profile (JSON, folded flamegraph text,
or speedscope, by extension).
Command *output* goes through report channels that print byte-identical
text by default and JSON lines under ``--log-json``.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.ioutil import atomic_write_text
from repro.obs import metrics as obs_metrics
from repro.obs.logging import _LEVELS, configure, configure_reporter

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core import PowerModel

M_COMMANDS = obs_metrics.counter(
    "netpower_cli_commands_total",
    "netpower CLI commands executed", labels=("command",))

#: Report channels: stdout carries command output, stderr carries
#: errors and progress.  Unlike diagnostics they are always on.
_OUT_NAME = "netpower.report.out"
_ERR_NAME = "netpower.report.err"


def _reporter(name: str, target: str) -> logging.Logger:
    logger = logging.getLogger(name)
    if not any(getattr(h, "_repro_obs", False) for h in logger.handlers):
        configure_reporter(name, target)
    return logger


def _out(message: str) -> None:
    """Print a report line to stdout (JSON record under ``--log-json``)."""
    _reporter(_OUT_NAME, "stdout").info(message)


def _err(message: str) -> None:
    """Print an error line to stderr (JSON record under ``--log-json``)."""
    _reporter(_ERR_NAME, "stderr").error(message)


def _progress(message: str) -> None:
    """Print a progress line to stderr without claiming error severity."""
    _reporter(_ERR_NAME, "stderr").info(message)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netpower",
        description="Router power modeling and optimisation "
                    "(IMC'25 reproduction)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=7,
                        help="root RNG seed (default: 7)")
    common.add_argument("--log-level", default="warning", choices=_LEVELS,
                        help="diagnostics verbosity on stderr "
                             "(default: %(default)s)")
    common.add_argument("--log-json", action="store_true",
                        help="emit diagnostics and report output as "
                             "JSON lines")
    common.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write a metrics snapshot here (Prometheus "
                             "text; .json for a JSON snapshot)")
    common.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write the span trace tree here as JSON")
    common.add_argument("--profile-out", metavar="PATH", default=None,
                        help="write the span profile here (JSON "
                             "document; .folded for flamegraph text, "
                             ".speedscope.json for speedscope)")
    sub = parser.add_subparsers(dest="command", required=True)

    derive = sub.add_parser(
        "derive", parents=[common],
        help="derive a power model on the virtual lab bench")
    derive.add_argument("device", help="router model, e.g. NCS-55A1-24H")
    derive.add_argument("transceiver", nargs="+",
                        help="module product(s), e.g. QSFP28-100G-DAC")
    derive.add_argument("--output", "-o", default=None,
                        help="write the model JSON here (default: stdout)")
    derive.add_argument("--quick", action="store_true",
                        help="short measurements (coarser fits)")

    audit = sub.add_parser("audit", parents=[common],
                           help="fleet energy audit (§7/§9)")
    audit.add_argument("--days", type=float, default=2.0,
                       help="simulated days (default: 2)")
    audit.add_argument("--autopower", type=int, default=2, metavar="N",
                       help="deploy Autopower meters on the first N "
                            "routers (default: 2)")
    audit.add_argument("--no-model-check", action="store_true",
                       help="skip the quick lab-derivation cross-check")

    sleep = sub.add_parser("sleep-study", parents=[common],
                           help="Hypnos link-sleeping savings (§8)")
    sleep.add_argument("--days", type=float, default=7.0,
                       help="planned days (default: 7)")
    sleep.add_argument("--max-utilisation", type=float, default=0.5,
                       help="post-rerouting cap (default: 0.5)")

    sheets = sub.add_parser("datasheets", parents=[common],
                            help="datasheet corpus & extraction (§3)")
    sheets.add_argument("--models", type=int, default=777,
                        help="corpus size (default: 777)")

    zoo = sub.add_parser("zoo", parents=[common],
                         help="export a Network Power Zoo document")
    zoo.add_argument("--output", "-o", default=None,
                     help="write the Zoo JSON here (default: stdout)")
    zoo.add_argument("--contributor", default="netpower-cli")

    validate = sub.add_parser(
        "validate", parents=[common],
        help="the §6 three-way validation on a small deployment")
    validate.add_argument("--days", type=float, default=3.0,
                          help="monitored days (default: 3)")

    rate = sub.add_parser(
        "rate-study", parents=[common],
        help="rate-adaptation savings (the sleeping alternative)")
    rate.add_argument("--headroom", type=float, default=4.0,
                      help="capacity headroom over peak load (default: 4)")

    bench = sub.add_parser(
        "bench", parents=[common],
        help="benchmark the object vs vectorized simulation engines")
    bench.add_argument("--quick", action="store_true",
                       help="run only the small case (a few seconds)")
    bench.add_argument("--cases", nargs="+", metavar="CASE",
                       help="cases to run: small, medium, large, "
                            "xl, xxl, xxxl")
    bench.add_argument("--steps", type=int, default=None,
                       help="override the per-case step count")
    bench.add_argument("--output", "-o", default="BENCH_simulation.json",
                       help="report path (default: %(default)s)")
    bench.add_argument("--compare", metavar="BASELINE", default=None,
                       help="diff the report against this baseline "
                            "report; exit 1 on regression")
    bench.add_argument("--tolerance", type=float, default=None,
                       help="fractional slowdown tolerated by --compare "
                            "(default: repro.bench.DEFAULT_TOLERANCE)")
    bench.add_argument("--min-kernel-ms", type=float, default=None,
                       help="skip kernels whose baseline total is below "
                            "this in --compare")
    bench.add_argument("--history", metavar="PATH", default=None,
                       help="trajectory file to append to (default: "
                            "BENCH_history.jsonl next to the report; "
                            "'-' disables)")

    prof = sub.add_parser(
        "profile", parents=[common],
        help="profile the simulation kernels on a synthetic fleet "
             "(docs/OBSERVABILITY.md)")
    prof.add_argument("--preset", default="synth-200",
                      help="synth fleet preset (default: %(default)s)")
    prof.add_argument("--steps", type=int, default=200,
                      help="simulation steps (default: %(default)s)")
    prof.add_argument("--step", type=float, default=300.0,
                      help="step size in seconds (default: %(default)s)")
    prof.add_argument("--engine", default="vector",
                      choices=("auto", "object", "vector"),
                      help="simulation engine (default: %(default)s)")
    prof.add_argument("--attribution", action="store_true",
                      help="attach the energy ledger so its kernel "
                           "shows up in the profile")
    prof.add_argument("--top", type=int, default=15,
                      help="kernels in the summary table "
                           "(default: %(default)s)")
    prof.add_argument("--out", "-o", default=None,
                      help="write the profile here (JSON; .folded / "
                           ".speedscope.json switch formats)")

    monitor = sub.add_parser(
        "monitor", parents=[common],
        help="continuous fleet monitoring: rollups, drift, alerts")
    monitor.add_argument("--days", type=float, default=1.0,
                         help="simulated days (default: 1)")
    monitor.add_argument("--step", type=float, default=900,
                         help="simulation step in seconds (default: 900)")
    monitor.add_argument("--engine", default="auto",
                         choices=("auto", "object", "vector"),
                         help="simulation engine (default: %(default)s)")
    monitor.add_argument("--out", "-o", default="dashboard.json",
                         help="dashboard snapshot path; the HTML page is "
                              "written next to it (default: %(default)s)")
    monitor.add_argument("--inject-psu-fault", action="store_true",
                         help="degrade one PSU mid-run to exercise the "
                              "alerting pipeline")

    explain = sub.add_parser(
        "explain", parents=[common],
        help="energy attribution drill-down: fleet -> region -> router "
             "-> port (docs/OBSERVABILITY.md)")
    explain.add_argument("--preset", default="synth-200",
                         help="synth fleet preset (default: %(default)s)")
    explain.add_argument("--steps", type=int, default=50,
                         help="simulation steps (default: %(default)s)")
    explain.add_argument("--step", type=float, default=300.0,
                         help="step size in seconds (default: %(default)s)")
    explain.add_argument("--engine", default="auto",
                         choices=("auto", "object", "vector"),
                         help="simulation engine (default: %(default)s)")
    explain.add_argument("--host", default=None,
                         help="add a port-level drill-down for this router")
    explain.add_argument("--top", type=int, default=10,
                         help="routers in the per-router section "
                              "(default: %(default)s)")
    explain.add_argument("--format", dest="format", default="text",
                         choices=("text", "json"),
                         help="report format (default: %(default)s)")
    explain.add_argument("--out", "-o", default=None,
                         help="write the report here (default: stdout)")

    check = sub.add_parser(
        "check", parents=[common],
        help="static invariant checks (docs/STATIC_ANALYSIS.md)")
    check.add_argument("paths", nargs="*", default=["src"],
                       help="files or directories to check "
                            "(default: src)")
    check.add_argument("--format", dest="format", default="text",
                       choices=("text", "json"),
                       help="report format (default: %(default)s)")
    check.add_argument("--select", metavar="RULES", default=None,
                       help="comma-separated rule ids or family "
                            "prefixes to run (default: all)")
    check.add_argument("--verbose", action="store_true",
                       help="also list suppressed findings")
    check.add_argument("--list-rules", action="store_true",
                       help="list every registered rule and exit")
    check.add_argument("--explain", metavar="RULE", default=None,
                       help="print one rule's documentation and an "
                            "example finding, then exit")

    topo = sub.add_parser(
        "topo", parents=[common],
        help="generate a deterministic synthetic multi-tier fleet "
             "(docs/TOPOLOGY.md)")
    topo.add_argument("--preset", default="synth-1k",
                      help="synth preset: synth-200, synth-1k, "
                           "synth-10k, synth-100k (default: %(default)s)")
    topo.add_argument("--routers", type=int, default=None,
                      help="override the preset's total router count")
    topo.add_argument("--backbone", type=int, default=None,
                      help="override the preset's backbone router count")
    topo.add_argument("--output", "-o", metavar="PATH", default=None,
                      help="write the fleet inventory JSON here "
                           "(default: summary only)")

    serve = sub.add_parser(
        "serve", parents=[common],
        help="async fleet-power query service (docs/SERVE.md)")
    serve.add_argument("--preset", default="synth-200",
                       help="synth fleet preset to load "
                            "(default: %(default)s)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: %(default)s)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port; 0 picks an ephemeral port "
                            "(default: %(default)s)")
    serve.add_argument("--warmup-steps", type=int, default=8,
                       help="warmup simulation steps behind /fleet "
                            "(default: %(default)s)")
    serve.add_argument("--warmup-step", type=float, default=300.0,
                       help="warmup step size in seconds "
                            "(default: %(default)s)")
    serve.add_argument("--octet-quantum", type=float, default=125.0,
                       help="admission quantum for octet rates, bytes/s "
                            "(0 disables; default: %(default)s)")
    serve.add_argument("--packet-quantum", type=float, default=1.0,
                       help="admission quantum for packet rates, pkt/s "
                            "(0 disables; default: %(default)s)")
    serve.add_argument("--no-metrics", action="store_true",
                       help="serve without a metrics registry "
                            "(/metrics returns 404)")
    serve.add_argument("--snapshot-out", metavar="PATH", default=None,
                       help="write the /fleet snapshot JSON here once "
                            "loaded (atomic replace)")

    sweep = sub.add_parser(
        "sweep", parents=[common],
        help="sharded multiprocess scenario sweep (docs/SWEEP.md)")
    sweep.add_argument("--preset", default=None,
                       help="built-in matrix: demo, sleep-policy, psu, "
                            "topo-xl (default: demo unless --matrix is "
                            "given)")
    sweep.add_argument("--matrix", metavar="PATH", default=None,
                       help="JSON scenario matrix file (docs/SWEEP.md)")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (default: 1; the report "
                            "is identical for any value)")
    sweep.add_argument("--shard", metavar="I/M", default=None,
                       help="run only the I-th of M round-robin shards "
                            "of the job list")
    sweep.add_argument("--resume", action="store_true",
                       help="skip jobs already present in the output "
                            "report")
    sweep.add_argument("--engine", default="auto",
                       choices=("auto", "object", "vector"),
                       help="simulation engine (default: %(default)s)")
    sweep.add_argument("--attribution", action="store_true",
                       help="attach the energy attribution ledger to "
                            "every job and include its rollup in the "
                            "report")
    sweep.add_argument("--output", "-o", default="sweep.json",
                       help="report path (default: %(default)s)")
    sweep.add_argument("--bench-output", metavar="PATH", default=None,
                       help="per-job timing rows path (default: "
                            "<output stem>.bench.json)")
    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_derive(args) -> int:
    from repro.core import derive_power_model
    from repro.hardware import VirtualRouter, router_spec
    from repro.lab import ExperimentPlan, Orchestrator

    rng = np.random.default_rng(args.seed)
    try:
        spec = router_spec(args.device)
    except KeyError as exc:
        _err(f"error: {exc}")
        return 2
    dut = VirtualRouter(spec, rng=rng, noise_std_w=0.2)
    orchestrator = Orchestrator(dut, rng=rng)
    if args.quick:
        extra = dict(n_pairs_values=(1, 2, 4), rates_gbps=(10, 50, 100),
                     packet_sizes=(256, 1500), measure_duration_s=10,
                     settle_time_s=1)
    else:
        extra = {}
    suites = []
    for trx in args.transceiver:
        try:
            plan = ExperimentPlan(trx_name=trx, **extra)
            suites.append(orchestrator.run_suite(plan))
        except (KeyError, ValueError) as exc:
            _err(f"error: {exc}")
            return 2
    model, reports = derive_power_model(suites)
    # netpower: ignore[NP-SCHEMA-001] -- the document is
    # PowerModel.to_dict(), the Network Power Zoo record layout; its
    # schema is owned and versioned by repro.zoo.database (ZOO_SCHEMA).
    document = json.dumps(model.to_dict(), indent=2)
    if args.output:
        atomic_write_text(args.output, document + "\n")
        _out(f"wrote {args.output}")
    else:
        _out(document)
    for key, report in reports.items():
        for warning in report.warnings:
            _err(f"warning [{key}]: {warning}")
    return 0


def _cmd_audit(args) -> int:
    from repro import units
    from repro.hardware import EightyPlus
    from repro.network import (FleetTrafficModel, NetworkSimulation,
                               build_switch_like_network)
    from repro.psu_opt import (clean_exports, single_psu_savings,
                               upgrade_savings)

    rng = np.random.default_rng(args.seed)
    network = build_switch_like_network(rng=rng)
    traffic = FleetTrafficModel(
        network, rng=np.random.default_rng(args.seed + 1))
    sim = NetworkSimulation(network, traffic,
                            rng=np.random.default_rng(args.seed + 2))
    hosts = sorted(network.routers)[:max(0, args.autopower)]
    for hostname in hosts:
        sim.deploy_autopower(hostname)
    result = sim.run(duration_s=units.days(args.days), step_s=1800)
    total = result.total_power.mean()
    _out(f"routers            : {len(network.routers)}")
    _out(f"mean total power   : {total:,.0f} W")
    _out(f"mean total traffic : "
         f"{units.bps_to_tbps(result.total_traffic_bps.mean()):.2f} Tbps")
    if hosts:
        n_samples = sum(len(series) for series in result.autopower.values())
        _out(f"autopower units    : {len(hosts)} "
             f"({n_samples} samples uploaded)")
    points = clean_exports(result.sensor_exports)
    for std in (EightyPlus.BRONZE, EightyPlus.PLATINUM,
                EightyPlus.TITANIUM):
        saving = upgrade_savings(points, std)
        _out(f"upgrade >= {std.value:9s}: {100 * saving.fraction:5.1f} % "
             f"({saving.saved_w:6,.0f} W)")
    single = single_psu_savings(points)
    _out(f"single PSU          : {100 * single.fraction:5.1f} % "
         f"({single.saved_w:6,.0f} W)")
    if not args.no_model_check:
        model, trx_fit = _audit_model_check(args.seed + 3)
        _out(f"model check        : {model.router_model} p_base "
             f"{model.p_base_w.value:.0f} W "
             f"(trx fit r^2 {trx_fit.r_squared:.3f})")
    return 0


def _audit_model_check(seed: int):
    """A quick lab derivation so the audit exercises the model pipeline.

    Deterministic in its own seed; returns the fitted model and the Trx
    fit whose r² the audit reports as a derivation health check.
    """
    from repro.core import derive_power_model
    from repro.hardware import VirtualRouter, router_spec
    from repro.lab import ExperimentPlan, Orchestrator

    rng = np.random.default_rng(seed)
    dut = VirtualRouter(router_spec("NCS-55A1-24H"), rng=rng,
                        noise_std_w=0.2)
    orchestrator = Orchestrator(dut, rng=rng)
    plan = ExperimentPlan(
        trx_name="QSFP28-100G-DAC", n_pairs_values=(1, 2, 4),
        rates_gbps=(10, 50, 100), packet_sizes=(256, 1500),
        measure_duration_s=10, settle_time_s=1)
    model, reports = derive_power_model([orchestrator.run_suite(plan)])
    report = next(iter(reports.values()))
    return model, report.trx_fit


def _cmd_sleep_study(args) -> int:
    from repro import units
    from repro.network import FleetTrafficModel, build_switch_like_network
    from repro.sleep import Hypnos, HypnosConfig, plan_savings

    if not (math.isfinite(args.days) and args.days >= 0):
        _err(f"error: --days must be finite and >= 0, got {args.days:g}")
        return 2
    try:
        config = HypnosConfig(max_utilisation=args.max_utilisation)
    except ValueError as exc:
        _err(f"error: --max-utilisation: {exc}")
        return 2
    rng = np.random.default_rng(args.seed)
    network = build_switch_like_network(rng=rng)
    traffic = FleetTrafficModel(network,
                                rng=np.random.default_rng(args.seed + 1),
                                n_demands=800)
    hypnos = Hypnos(network, traffic.matrix, config)
    plan = hypnos.plan(0, units.days(args.days))
    reference = network.total_wall_power_w()
    estimate = plan_savings(network, plan, reference)
    sleeping = plan.ever_sleeping()
    _out(f"internal links     : {len(network.internal_links())}")
    _out(f"ever asleep        : {len(sleeping)}")
    _out(f"estimated savings  : {estimate}")
    return 0


def _cmd_datasheets(args) -> int:
    from repro.datasheets import (build_corpus, datasheet_vs_measured,
                                  efficiency_trend, measure_accuracy,
                                  parse_corpus, trend_fit)
    from repro.hardware import TABLE1_MEASURED_MEDIAN_W

    rng = np.random.default_rng(args.seed)
    corpus = build_corpus(args.models, rng)
    parsed = parse_corpus(corpus)
    accuracy = measure_accuracy(corpus, parsed)
    _out(f"corpus             : {len(corpus)} datasheets")
    _out(f"extraction accuracy: typical {100 * accuracy.typical_rate:.0f} %, "
         f"max {100 * accuracy.max_rate:.0f} %, "
         f"bandwidth {100 * accuracy.bandwidth_rate:.0f} %")
    years = {m: d.truth.release_year
             for m, d in corpus.documents.items() if d.truth.release_year}
    points = efficiency_trend(parsed, release_years=years)
    if len(points) >= 2:
        fit = trend_fit(points)
        _out(f"efficiency trend   : {fit.slope:+.2f} W/100G/yr "
             f"over {len(points)} routers (r^2 = {fit.r_squared:.2f})")
    rows = datasheet_vs_measured(parsed, TABLE1_MEASURED_MEDIAN_W)
    for row in rows:
        _out(f"  {row.router_model:22s} typical "
             f"{row.datasheet_typical_w:5.0f} W vs measured "
             f"{row.measured_median_w:5.0f} W "
             f"({100 * row.relative_overestimate:+.0f} %)")
    return 0


def _cmd_zoo(args) -> int:
    from repro.core import derive_power_model
    from repro.hardware import MODELLED_DEVICES, VirtualRouter, router_spec
    from repro.lab import ExperimentPlan, Orchestrator
    from repro.zoo import NetworkPowerZoo, PowerModelRecord, Provenance

    zoo = NetworkPowerZoo()
    provenance = Provenance(contributor=args.contributor,
                            method="lab-measurement")
    default_trx = {
        "NCS-55A1-24H": "QSFP28-100G-DAC",
        "Nexus9336-FX2": "QSFP28-100G-DAC",
        "8201-32FH": "QSFP-100G-DAC",
        "N540X-8Z16G-SYS-A": "SFP-1G-T",
        "Wedge 100BF-32X": "QSFP28-100G-DAC",
        "Nexus 93108TC-FX3P": "QSFP28-100G-DAC",
        "VSP-4900": "SFP+-10G-T",
        "Catalyst 3560": "RJ45-100M-T",
    }
    for i, device in enumerate(MODELLED_DEVICES):
        rng = np.random.default_rng(args.seed + i)
        dut = VirtualRouter(router_spec(device), rng=rng, noise_std_w=0.2)
        orchestrator = Orchestrator(dut, rng=rng)
        from repro.hardware import TRANSCEIVER_CATALOG
        speed = TRANSCEIVER_CATALOG[default_trx[device]].speed_gbps
        plan = ExperimentPlan(
            trx_name=default_trx[device],
            n_pairs_values=(1, 2, 4),
            rates_gbps=tuple(round(f * min(speed, 100), 3)
                             for f in (0.2, 0.5, 0.95)),
            packet_sizes=(256, 1500),
            measure_duration_s=10, settle_time_s=1)
        model, _ = derive_power_model([orchestrator.run_suite(plan)])
        zoo.add(PowerModelRecord(vendor=router_spec(device).vendor,
                                 model=device, power_model=model,
                                 provenance=provenance))
        _progress(f"derived {device}")
    document = zoo.to_json()
    if args.output:
        atomic_write_text(args.output, document + "\n")
        _out(f"wrote {args.output}")
    else:
        _out(document)
    return 0


def lab_models(seed: int) -> Dict[str, "PowerModel"]:
    """Lab-derived power models of the two products ``validate`` and
    ``monitor`` watch in the field, keyed by router model.

    Each model comes from a §5 campaign on its own noisy DUT, seeded at
    ``seed + 10`` (8201-32FH) and ``seed + 11`` (NCS-55A1-24H).
    """
    from repro.core import derive_power_model
    from repro.hardware import VirtualRouter, router_spec
    from repro.lab import ExperimentPlan, Orchestrator

    def derive(device: str, trx_names: Sequence[str],
               seed: int) -> "PowerModel":
        rng = np.random.default_rng(seed)
        dut = VirtualRouter(router_spec(device), rng=rng, noise_std_w=0.2)
        orchestrator = Orchestrator(dut, rng=rng)
        suites = [orchestrator.run_suite(ExperimentPlan(
            trx_name=trx, n_pairs_values=(1, 2, 4),
            rates_gbps=(10, 50, 100), packet_sizes=(256, 1500),
            measure_duration_s=10, settle_time_s=1))
            for trx in trx_names]
        model, _ = derive_power_model(suites)
        return model

    return {
        "8201-32FH": derive(
            "8201-32FH", ("QSFP-DD-400G-FR4", "QSFP-DD-400G-LR4",
                          "QSFP-DD-400G-DAC", "QSFP28-100G-LR4"),
            seed + 10),
        "NCS-55A1-24H": derive(
            "NCS-55A1-24H", ("QSFP28-100G-DAC", "QSFP28-100G-LR4",
                             "QSFP28-100G-SR4"), seed + 11),
    }


def _cmd_validate(args) -> int:
    from repro import units
    from repro.network import (DeployAutopower, FleetConfig,
                               FleetTrafficModel, NetworkSimulation,
                               build_switch_like_network)
    from repro.validation import ValidationSummary, validate_router

    config = FleetConfig(
        model_counts=(("8201-32FH", 2), ("NCS-55A1-24H", 3),
                      ("NCS-55A1-24Q6H-SS", 3), ("ASR-920-24SZ-M", 6)),
        n_regional_pops=3, core_core_links=2)
    network = build_switch_like_network(
        config, rng=np.random.default_rng(args.seed))
    targets = {}
    for model_name in ("8201-32FH", "NCS-55A1-24H"):
        targets[model_name] = next(
            h for h in sorted(network.routers)
            if network.routers[h].model_name == model_name)
    traffic = FleetTrafficModel(
        network, rng=np.random.default_rng(args.seed + 1),
        mean_external_utilisation=0.05, internal_utilisation_scale=6.0)
    sim = NetworkSimulation(network, traffic,
                            rng=np.random.default_rng(args.seed + 2))
    result = sim.run(
        duration_s=units.days(args.days), step_s=900,
        events=[DeployAutopower(at_s=units.hours(6), hostname=h)
                for h in targets.values()],
        detailed_hosts=sorted(targets.values()))

    models = lab_models(args.seed)
    reports = {
        hostname: validate_router(
            hostname=hostname, trace=result.snmp[hostname],
            autopower=result.autopower[hostname],
            model=models[model_name])
        for model_name, hostname in targets.items()
    }
    _out(ValidationSummary.from_reports(reports).to_text())
    return 0


def _monitor_scenario(args):
    """Build the small monitored deployment ``netpower monitor`` runs.

    The e2e tests build the same fleet and share :func:`lab_models`.
    Returns ``(sim, monitor, events, targets)`` ready for ``sim.run``.
    """
    from repro import units
    from repro.monitor import FleetMonitor
    from repro.network import (DegradePsu, FleetConfig, FleetTrafficModel,
                               NetworkSimulation,
                               build_switch_like_network)

    config = FleetConfig(
        model_counts=(("8201-32FH", 1), ("NCS-55A1-24H", 2),
                      ("ASR-920-24SZ-M", 2)),
        n_regional_pops=1, core_core_links=1)
    network = build_switch_like_network(
        config, rng=np.random.default_rng(args.seed))
    targets = {}
    for model_name in ("8201-32FH", "NCS-55A1-24H"):
        targets[model_name] = next(
            h for h in sorted(network.routers)
            if network.routers[h].model_name == model_name)
    traffic = FleetTrafficModel(
        network, rng=np.random.default_rng(args.seed + 1),
        mean_external_utilisation=0.05, internal_utilisation_scale=6.0)
    sim = NetworkSimulation(network, traffic,
                            rng=np.random.default_rng(args.seed + 2))
    for hostname in targets.values():
        sim.deploy_autopower(hostname)

    models = lab_models(args.seed)
    monitor = FleetMonitor(models=models)
    sim.add_observer(monitor)
    events = []
    if args.inject_psu_fault:
        events.append(DegradePsu(
            at_s=units.days(args.days) / 2,
            hostname=targets["8201-32FH"], psu_index=0,
            efficiency_delta=-0.05))
    return sim, monitor, events, targets


def _cmd_monitor(args) -> int:
    from repro import units
    from repro.monitor import write_dashboard

    if args.days <= 0 or args.step <= 0:
        _err("error: --days and --step must be positive")
        return 2
    _progress("deriving lab models for the monitored products ...")
    sim, monitor, events, targets = _monitor_scenario(args)
    _progress(f"simulating {args.days:g} day(s) "
              f"({args.engine} engine) ...")
    sim.run(duration_s=units.days(args.days), step_s=args.step,
            events=events, detailed_hosts=sorted(targets.values()),
            engine=args.engine, attribution=True)
    write_dashboard(monitor, args.out)
    _out(f"monitored routers  : {len(monitor.hosts)}")
    fleet = monitor.store.get("fleet/total_power_w")
    if fleet is not None and fleet.raw.count:
        _out(f"fleet power (last) : {fleet.raw.last()[1]:,.0f} W")
    for host in sorted(monitor.drift):
        estimate = monitor.drift[host].estimate()
        if estimate is None:
            _out(f"  {host:12s}: drift pending (not enough windows)")
            continue
        _out(f"  {host:12s}: offset {estimate.offset_w:+8.2f} W  "
             f"sigma {estimate.stats.residual_std_w:6.2f} W  "
             f"verdict {estimate.verdict()}")
    alerts = monitor.alerts.alerts
    _out(f"alerts fired       : {len(alerts)} "
         f"({len(monitor.alerts.active())} active)")
    for alert in alerts:
        status = "active" if alert.active else "resolved"
        _out(f"  [{alert.severity.value:8s}] {alert.rule} "
             f"on {alert.signal} at t={alert.fired_at_s:,.0f}s "
             f"({status})")
    _out(f"wrote {args.out}")
    return 0


def _cmd_explain(args) -> int:
    from repro.network import (FleetTrafficModel, NetworkSimulation,
                               generate_synth_network, supports_vectorized,
                               synth_config)
    from repro.network.attribution import (build_explain_document,
                                           explain_to_json,
                                           render_explain_text)

    if args.steps <= 0 or args.step <= 0:
        _err("error: --steps and --step must be positive")
        return 2
    try:
        config = synth_config(args.preset)
    except ValueError as exc:
        _err(f"error: {exc}")
        return 2
    network = generate_synth_network(
        config, rng=np.random.default_rng(args.seed))
    traffic = FleetTrafficModel(
        network, rng=np.random.default_rng(args.seed + 1), n_demands=60)
    sim = NetworkSimulation(network, traffic,
                            rng=np.random.default_rng(args.seed + 2))
    engine = args.engine
    if engine == "auto":
        engine = ("vector" if supports_vectorized(network) else "object")
    _progress(f"simulating {args.steps} steps of {args.preset} "
              f"({engine} engine) with the energy ledger attached ...")
    try:
        result = sim.run(duration_s=args.steps * args.step,
                         step_s=args.step, engine=engine,
                         attribution=True)
        document = build_explain_document(
            result.ledger, network, engine=engine,
            scenario={"preset": args.preset, "seed": args.seed,
                      "steps": args.steps, "step_s": args.step},
            host=args.host, top=args.top)
    except ValueError as exc:
        _err(f"error: {exc}")
        return 2
    rendered = (explain_to_json(document) if args.format == "json"
                else render_explain_text(document))
    if args.out:
        atomic_write_text(args.out, rendered + "\n")
        _out(f"wrote {args.out}")
    else:
        _out(rendered)
    if not document["conservation"]["ok"]:
        _err("error: conservation violated (residual above tolerance)")
        return 1
    return 0


def _cmd_rate_study(args) -> int:
    from repro.network import FleetTrafficModel, build_switch_like_network
    from repro.sleep import plan_rate_adaptation

    network = build_switch_like_network(
        rng=np.random.default_rng(args.seed))
    traffic = FleetTrafficModel(
        network, rng=np.random.default_rng(args.seed + 1), n_demands=800)
    plan = plan_rate_adaptation(network, traffic.matrix,
                                headroom=args.headroom)
    reference = network.total_wall_power_w()
    downgraded = plan.downgraded()
    _out(f"internal links      : {len(network.internal_links())}")
    _out(f"links clocked down  : {len(downgraded)}")
    _out(f"estimated savings   : {plan.total_saving_w:.0f} W "
         f"({100 * plan.total_saving_w / reference:.2f} % of "
         f"{reference:,.0f} W)")
    for decision in downgraded[:10]:
        _out(f"  link {decision.link_id:4d}: "
             f"{decision.old_speed_gbps:g}G -> "
             f"{decision.new_speed_gbps:g}G  "
             f"(-{decision.saving_w:.2f} W)")
    if len(downgraded) > 10:
        _out(f"  ... and {len(downgraded) - 10} more")
    return 0


def _cmd_bench(args) -> int:
    from pathlib import Path

    from repro import bench

    if args.quick:
        case_names = ("small",)
    elif args.cases:
        unknown = [c for c in args.cases if c not in bench.CASES]
        if unknown:
            _err(f"error: unknown bench cases {unknown}; "
                 f"choose from {sorted(bench.CASES)}")
            return 2
        case_names = args.cases
    else:
        case_names = bench.DEFAULT_CASES
    if args.steps is not None and args.steps <= 0:
        _err("error: --steps must be positive")
        return 2
    output = Path(args.output)
    if output.parent and not output.parent.is_dir():
        _err(f"error: output directory {output.parent} does not exist")
        return 2
    tolerance = (args.tolerance if args.tolerance is not None
                 else bench.DEFAULT_TOLERANCE)
    min_kernel_ms = (args.min_kernel_ms if args.min_kernel_ms is not None
                     else bench.DEFAULT_MIN_KERNEL_MS)
    if tolerance <= 0:
        _err("error: --tolerance must be positive")
        return 2
    baseline = None
    if args.compare is not None:
        # Fail on a bad baseline before minutes of timing.
        try:
            baseline = json.loads(Path(args.compare).read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            _err(f"error: cannot read baseline {args.compare}: {exc}")
            return 2
        if (not isinstance(baseline, dict)
                or baseline.get("schema") != bench.SCHEMA):
            _err(f"error: baseline {args.compare} is not a "
                 f"{bench.SCHEMA} report")
            return 2
    if args.history is None:
        history = output.parent / "BENCH_history.jsonl"
    elif args.history == "-":
        history = None
    else:
        history = Path(args.history)
    report = bench.run_benchmarks(case_names, seed=args.seed,
                                  output=output,
                                  steps_override=args.steps,
                                  history=history)
    if baseline is not None:
        comparison = bench.compare_reports(report, baseline,
                                           tolerance=tolerance,
                                           min_kernel_ms=min_kernel_ms)
        bench.render_comparison(comparison, sys.stdout)
        if comparison["regressions"]:
            return 1
    return 0


def _cmd_profile(args) -> int:
    from pathlib import Path

    from repro import units
    from repro.network import (FleetTrafficModel, NetworkSimulation,
                               generate_synth_network, synth_config)
    from repro.obs import export, tracing

    if args.steps <= 0:
        _err("error: --steps must be positive")
        return 2
    if args.step <= 0:
        _err("error: --step must be positive")
        return 2
    try:
        config = synth_config(args.preset)
    except (KeyError, ValueError) as exc:
        _err(f"error: {exc}")
        return 2
    network = generate_synth_network(
        config, rng=np.random.default_rng(args.seed))
    traffic = FleetTrafficModel(network,
                                rng=np.random.default_rng(args.seed + 1))
    sim = NetworkSimulation(network, traffic,
                            rng=np.random.default_rng(args.seed + 2))
    # Read the session tracer (--profile-out / --trace-out) when one is
    # installed, so the table and those files show the same data.
    tracer = tracing.get_tracer() or tracing.Tracer(timeline=False)
    with tracing.use_tracer(tracer):
        sim.run(duration_s=args.steps * args.step, step_s=args.step,
                engine=args.engine, attribution=args.attribution)
    kernels = sorted(tracer.profile_dict()["kernels"].items(),
                     key=lambda item: (-item[1]["self_s"], item[0]))
    _out(f"{args.preset}: {len(network.routers)} routers, "
         f"{args.steps} steps, engine {args.engine}")
    _out(f"{'kernel':<28} {'calls':>8} {'cum_ms':>10} {'self_ms':>10}")
    for name, stats in kernels[:max(args.top, 0)]:
        _out(f"{name:<28} {stats['calls']:>8} "
             f"{units.s_to_ms(stats['cum_s']):>10.2f} "
             f"{units.s_to_ms(stats['self_s']):>10.2f}")
    if args.out:
        path = export.write_profile(Path(args.out), tracer)
        _out(f"profile written to {path}")
    return 0


def _cmd_sweep(args) -> int:
    from pathlib import Path

    from repro.sweep import (MATRIX_PRESETS, ScenarioMatrix, expand,
                             parse_shard, run_sweep, shard_jobs)

    if args.preset is not None and args.matrix is not None:
        _err("error: --preset and --matrix are mutually exclusive")
        return 2
    if args.workers < 1:
        _err("error: --workers must be >= 1")
        return 2
    if args.matrix is not None:
        try:
            matrix = ScenarioMatrix.from_dict(
                json.loads(Path(args.matrix).read_text()))
        except (OSError, json.JSONDecodeError, TypeError,
                ValueError) as exc:
            _err(f"error: bad matrix file {args.matrix}: {exc}")
            return 2
    else:
        preset = args.preset if args.preset is not None else "demo"
        if preset not in MATRIX_PRESETS:
            _err(f"error: unknown preset {preset!r}; "
                 f"choose from {sorted(MATRIX_PRESETS)}")
            return 2
        matrix = MATRIX_PRESETS[preset]
    jobs = expand(matrix)
    if args.shard is not None:
        try:
            index, count = parse_shard(args.shard)
        except ValueError as exc:
            _err(f"error: {exc}")
            return 2
        jobs = shard_jobs(jobs, index, count)
    output = Path(args.output)
    if output.parent and not output.parent.is_dir():
        _err(f"error: output directory {output.parent} does not exist")
        return 2
    _progress(f"sweeping {len(jobs)} of {matrix.n_jobs} job(s) with "
              f"{args.workers} worker(s) ...")
    try:
        document = run_sweep(
            matrix, root_seed=args.seed, workers=args.workers,
            jobs=jobs, resume=args.resume, output=output,
            bench_output=(Path(args.bench_output)
                          if args.bench_output else None),
            engine=args.engine, attribution=args.attribution,
            progress=_progress)
    except (RuntimeError, ValueError) as exc:
        _err(f"error: {exc}")
        return 1
    for job in document["jobs"]:
        aggregates = job["aggregates"]
        sleep = job["sleep"]
        saving = (f"  sleep {sleep['saving_lower_w']:,.0f}-"
                  f"{sleep['saving_upper_w']:,.0f} W"
                  if sleep is not None else "")
        _out(f"  {job['key']:40s} mean "
             f"{aggregates['mean_power_w']:10,.1f} W  "
             f"energy {aggregates['energy_kwh']:8,.2f} kWh"
             f"{saving}")
    _out(f"jobs in report     : {len(document['jobs'])}/{matrix.n_jobs}")
    _out(f"wrote {output}")
    return 0


def _cmd_topo(args) -> int:
    import dataclasses

    from repro.network import (FleetInventory, generate_synth_network,
                               synth_config)

    try:
        config = synth_config(args.preset)
    except ValueError as exc:
        _err(f"error: {exc}")
        return 2
    overrides = {}
    if args.routers is not None:
        overrides["n_routers"] = args.routers
    if args.backbone is not None:
        overrides["n_backbone"] = args.backbone
    if overrides:
        config = dataclasses.replace(config, **overrides)
    try:
        network = generate_synth_network(
            config, rng=np.random.default_rng(args.seed))
    except ValueError as exc:
        _err(f"error: {exc}")
        return 2
    stats = network.interface_stats()
    share = (stats["external_interfaces"] / stats["total_interfaces"]
             if stats["total_interfaces"] else 0.0)
    _out(f"preset             : {args.preset}")
    _out(f"routers            : {len(network.routers)}")
    _out(f"pops               : {len(network.pops)}")
    _out(f"links              : {len(network.links)} "
         f"({len(network.internal_links())} internal, "
         f"{len(network.external_links())} external)")
    _out(f"external share     : {100 * share:.1f} % of interfaces")
    _out(f"total wall power   : {network.total_wall_power_w():,.0f} W")
    if args.output:
        document = FleetInventory.capture(network).to_json()
        atomic_write_text(args.output, document + "\n")
        _out(f"wrote {args.output}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import ServeConfig
    from repro.serve.app import serve_forever

    config = ServeConfig(
        preset=args.preset, seed=args.seed,
        host=args.host, port=args.port,
        warmup_steps=args.warmup_steps,
        warmup_step_s=args.warmup_step,
        octet_quantum=args.octet_quantum,
        packet_quantum=args.packet_quantum,
        metrics_enabled=not args.no_metrics,
        snapshot_out=args.snapshot_out)
    if config.metrics_enabled and obs_metrics.get_registry() is None:
        # A live /metrics endpoint needs a registry even when no
        # --metrics-out snapshot was requested.
        from repro.obs import load_instrument_catalog
        load_instrument_catalog()
        with obs_metrics.use_registry(obs_metrics.MetricsRegistry()):
            return asyncio.run(serve_forever(config, announce=_out))
    return asyncio.run(serve_forever(config, announce=_out))


def _cmd_check(args) -> int:
    from pathlib import Path

    from repro.analysis import (CheckConfig, check_sources,
                                render_explain, render_json,
                                render_rule_listing, render_text)
    from repro.analysis.engine import read_sources

    if args.list_rules:
        _out(render_rule_listing())
        return 0
    if args.explain:
        text = render_explain(args.explain)
        if text is None:
            _err(f"error: no such rule {args.explain!r} "
                 f"(see --list-rules)")
            return 2
        _out(text)
        return 0
    select = None
    if args.select:
        select = tuple(sorted({token.strip()
                               for token in args.select.split(",")
                               if token.strip()}))
        if not select:
            _err("error: --select given but names no rules")
            return 2
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        _err(f"error: no such path(s): {', '.join(sorted(missing))}")
        return 2
    try:
        sources = read_sources(args.paths)
    except ValueError as exc:
        _err(f"error: {exc}")
        return 2
    result = check_sources(sources, CheckConfig(select=select))
    if args.format == "json":
        _out(render_json(result))
    else:
        _out(render_text(result, verbose=args.verbose))
    return 0 if result.clean else 1


_COMMANDS = {
    "derive": _cmd_derive,
    "audit": _cmd_audit,
    "sleep-study": _cmd_sleep_study,
    "datasheets": _cmd_datasheets,
    "zoo": _cmd_zoo,
    "validate": _cmd_validate,
    "rate-study": _cmd_rate_study,
    "explain": _cmd_explain,
    "bench": _cmd_bench,
    "profile": _cmd_profile,
    "topo": _cmd_topo,
    "serve": _cmd_serve,
    "monitor": _cmd_monitor,
    "sweep": _cmd_sweep,
    "check": _cmd_check,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = _parser().parse_args(argv)

    from repro.obs import export, load_instrument_catalog, tracing

    configure(level=args.log_level, json_mode=args.log_json)
    configure_reporter(_OUT_NAME, "stdout", json_mode=args.log_json)
    configure_reporter(_ERR_NAME, "stderr", json_mode=args.log_json)

    registry = None
    tracer = None
    if args.metrics_out:
        # Import every instrumented module first so never-touched
        # instruments still register (and export an explicit zero).
        load_instrument_catalog()
        registry = obs_metrics.MetricsRegistry()
    if args.trace_out or args.profile_out:
        # One tracer serves both files; it keeps a span tree only when
        # a timeline is asked for.
        tracer = tracing.Tracer(timeline=bool(args.trace_out))

    prev_registry = obs_metrics.set_registry(registry) \
        if registry is not None else None
    prev_tracer = tracing.set_tracer(tracer) if tracer is not None else None
    try:
        M_COMMANDS.labels(command=args.command).inc()
        # netpower: ignore[NP-OBS-001] -- the command name comes from a
        # closed argparse choice set, so the span-name cardinality is
        # fixed even though the literal is assembled here.
        with tracing.span(f"cli.{args.command}", seed=args.seed):
            code = _COMMANDS[args.command](args)
    finally:
        if registry is not None:
            obs_metrics.set_registry(prev_registry)
        if tracer is not None:
            tracing.set_tracer(prev_tracer)
    if args.profile_out and registry is not None:
        # Fold profile totals into the netpower_profile_* families
        # before the snapshot is written.
        with obs_metrics.use_registry(registry):
            tracer.publish_metrics()
    if registry is not None:
        export.write_metrics(args.metrics_out, registry)
    if args.trace_out:
        export.write_trace(args.trace_out, tracer)
    if args.profile_out:
        export.write_profile(args.profile_out, tracer)
    return code


if __name__ == "__main__":
    sys.exit(main())
