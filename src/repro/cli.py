"""Command-line interface.

Examples::

    repro-lb list-strategies
    repro-lb parameters
    repro-lb simulate --pe 40 --strategy OPT-IO-CPU --joins 50
    repro-lb experiment figure6 --joins 30 --sizes 20 40 80 --workers 4
    repro-lb experiment figure6 --replicates 5 --workers 4 --export csv --output out.csv
    repro-lb experiment dynamic --sizes 20 --export csv
    repro-lb sweep --strategies MIN-IO OPT-IO-CPU --sizes 20 40 --rates 0.2 0.3
    repro-lb sweep --arrival mmpp --arrival-param burst_factor=4 --sizes 20 \
        --strategies OPT-IO-CPU psu_opt+RANDOM --timeline-window 2
    repro-lb sweep --rates 0.25 --replicates 5 --perturb arrival_rate=0.1

Experiments and sweeps run through the declarative scenario engine
(:mod:`repro.runner`): points fan out over ``--workers`` processes and
completed points are cached on disk (``--no-cache`` disables the cache,
``REPRO_CACHE_DIR`` relocates it).  ``--replicates N`` repeats every point
with distinct derived seeds and reports mean ± 95 % CI; ``--perturb``
additionally jitters a workload axis per replicate, so the intervals cover
workload noise.  ``--export csv|json`` writes the per-replicate and
aggregate rows to a file (plus one row per timeline window for dynamic
sweeps).  ``--arrival {poisson,deterministic,mmpp,sine,step,trace}`` drives
the sweep with a (possibly non-stationary) arrival process and records a
windowed time series per run.

Distributed sweeps run through one long-lived HTTP coordinator, whose
workers may sit on any host that reaches it::

    repro-lb serve --port 8723 --state-dir /var/lib/repro-lb   # coordinator host
    repro-lb dispatch figure5 --url http://coord:8723 --replicates 5
    repro-lb worker --url http://coord:8723                    # on each host
    repro-lb status --url http://coord:8723
    repro-lb experiment figure5 --replicates 5 --url http://coord:8723 --export csv
    curl http://coord:8723/metrics                             # Prometheus scrape

``experiment``/``sweep`` with ``--url`` enqueue any missing points, wait for
workers to drain the queue and fold the results in expansion order --
output is byte-identical to a local ``--workers N`` run.  With
``--state-dir`` the coordinator journals its queue and results to disk and
a restarted coordinator (even after ``kill -9``) picks up where it stopped.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Optional, Sequence

# Only the queue side loads with the parser: each subcommand imports what it
# runs, so `serve` and `status` start without the simulator.
from repro.config.parameters import OltpConfig, SystemConfig
from repro.runner.backends.base import DEFAULT_LEASE_SECONDS
from repro.runner.spec import DEFAULT_TIMELINE_WINDOW, ScenarioSpec, Sweep
from repro.workload.arrivals import ARRIVAL_KINDS

if TYPE_CHECKING:
    from repro.runner.runner import ParallelRunner

__all__ = ["main", "build_parser"]


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 1, or 0 for one per CPU core")
    return value


def _replicate_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=_worker_count,
        default=1,
        help="worker processes for independent points (0 = one per CPU core)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always simulate; do not read or write the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-lb)",
    )
    parser.add_argument(
        "--replicates",
        type=_replicate_count,
        default=1,
        help=(
            "independent runs per point with distinct derived seeds; tables "
            "then report mean ± 95%% CI across replicates"
        ),
    )
    parser.add_argument(
        "--export",
        choices=("csv", "json"),
        default=None,
        help="also write the result rows (per replicate + aggregates) to a file",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="export destination (default: <figure>.<format> in the working directory)",
    )
    parser.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help=(
            "run through a `repro-lb serve` coordinator instead of a local "
            "process pool (points are executed by `repro-lb worker` processes "
            "draining its queue)"
        ),
    )
    parser.add_argument(
        "--queue-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up waiting for workers after this long (default: wait forever)",
    )
    parser.add_argument(
        "--max-retries",
        type=_replicate_count,
        default=None,
        metavar="N",
        help=(
            "with --url only: attempts per newly enqueued task before it is "
            "marked failed (default 3; match the value used at dispatch time)"
        ),
    )


def _scenario_name(name: str) -> str:
    """A registered scenario's name, checked when a subcommand is parsed.

    Not ``choices=``: argparse reads the choices whenever it expands a help
    string, which newer versions do as each argument is added, and filling
    the registry imports every scenario module.
    """
    from repro.runner.registry import available_scenarios

    names = available_scenarios()
    if name not in names:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(map(repr, names))})"
        )
    return name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lb",
        description=(
            "Dynamic multi-resource load balancing in parallel database systems "
            "(reproduction of Rahm & Marek, VLDB 1995)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-strategies", help="list the registered load balancing strategies")
    sub.add_parser("parameters", help="print the Fig. 4 parameter table")

    simulate = sub.add_parser("simulate", help="run one multi-user simulation point")
    simulate.add_argument("--pe", type=int, default=40, help="number of processing elements")
    simulate.add_argument("--strategy", default="OPT-IO-CPU", help="load balancing strategy")
    simulate.add_argument("--joins", type=int, default=50, help="measured join completions")
    simulate.add_argument("--selectivity", type=float, default=0.01, help="scan selectivity")
    simulate.add_argument("--rate", type=float, default=0.25, help="join arrival rate per PE (QPS)")
    simulate.add_argument("--oltp", choices=["none", "A", "B"], default="none",
                          help="add a debit-credit OLTP load on the A or B nodes")
    simulate.add_argument("--oltp-tps", type=float, default=100.0, help="OLTP TPS per OLTP node")
    simulate.add_argument("--single-user", action="store_true", help="single-user mode instead")
    simulate.add_argument("--time-limit", type=float, default=120.0, help="simulated seconds cap")

    experiment = sub.add_parser("experiment", help="reproduce one of the paper's figures")
    experiment.add_argument("figure", type=_scenario_name,
                            help="registered scenario to reproduce")
    experiment.add_argument("--joins", type=int, default=None, help="measured joins per point")
    experiment.add_argument("--sizes", type=int, nargs="*", default=None, help="system sizes")
    experiment.add_argument("--time-limit", type=float, default=None, help="simulated seconds cap")
    _add_runner_arguments(experiment)

    sweep = sub.add_parser(
        "sweep",
        help="run an ad-hoc scenario straight from CLI axes (no figure module needed)",
    )
    sweep.add_argument("--strategies", nargs="+", default=["OPT-IO-CPU"],
                       help="load balancing strategies to compare")
    sweep.add_argument("--sizes", type=int, nargs="+", default=[40], help="system sizes (#PE)")
    sweep.add_argument("--rates", type=float, nargs="*", default=None,
                       help="join arrival rates per PE (QPS)")
    sweep.add_argument("--selectivities", type=float, nargs="*", default=None,
                       help="scan selectivities (fractions, e.g. 0.01)")
    sweep.add_argument("--scenario", choices=["homogeneous", "memory-bound", "mixed"],
                       default="homogeneous", help="base scenario configuration")
    sweep.add_argument("--oltp", choices=["A", "B"], default=None,
                       help="OLTP placement (implies --scenario mixed)")
    sweep.add_argument("--joins", type=int, default=None, help="measured joins per point")
    sweep.add_argument("--time-limit", type=float, default=None,
                       help="simulated seconds cap (timeline sweeps: the run duration)")
    sweep.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="PATH=VALUE",
                       help="dotted config override, e.g. --set buffer.buffer_pages=25")
    sweep.add_argument(
        "--arrival",
        choices=ARRIVAL_KINDS,
        default=None,
        help=(
            "arrival process (switches the sweep to windowed timeline points; "
            "'trace' pre-materialises and replays the Poisson streams)"
        ),
    )
    sweep.add_argument(
        "--arrival-param", dest="arrival_params", action="append", default=[],
        metavar="NAME=VALUE",
        help=(
            "arrival-process shape parameter, e.g. --arrival-param surge_factor=3 "
            "(repeatable; see repro.workload.arrivals.make_arrival_process)"
        ),
    )
    sweep.add_argument(
        "--timeline-window", type=float, default=None, metavar="SECONDS",
        help=(
            "window length for the per-run time series (implies timeline points; "
            f"default {DEFAULT_TIMELINE_WINDOW:g} s when --arrival is given)"
        ),
    )
    sweep.add_argument(
        "--perturb", dest="perturb", action="append", default=[],
        metavar="AXIS=FRACTION",
        help=(
            "jitter a workload axis per replicate, e.g. --perturb arrival_rate=0.1 "
            "(axes: arrival_rate, selectivity; needs --replicates >= 2 and "
            "explicit values on the perturbed axis)"
        ),
    )
    sweep.add_argument(
        "--node-class", dest="node_classes", action="append", default=[],
        metavar="NAME=SIZE[:ATTR=FACTOR...]",
        help=(
            "declare a hardware class covering SIZE PEs (a count, or a fraction "
            "< 1) with scaled resources, e.g. --node-class fast=0.5:mips=2.0"
            ":memory=2.0 (attrs: mips, memory, disk; repeatable -- classes fill "
            "contiguous PE blocks from PE 0, remaining PEs keep the baseline)"
        ),
    )
    sweep.add_argument(
        "--topology", default=None,
        metavar="KEY=VALUE[:KEY=VALUE...]",
        help=(
            "tiered interconnect, e.g. --topology racks=4:inter_latency=8.0"
            ":inter_bandwidth=2.0 (keys: racks, regions, inter_latency, "
            "inter_bandwidth, region_latency, region_bandwidth)"
        ),
    )
    sweep.add_argument(
        "--fault", dest="faults", action="append", default=[],
        metavar="KIND@TIME[:KEY=VALUE...]",
        help=(
            "inject a fault, e.g. --fault crash@15:pe=1:duration=15, "
            "--fault crash@15:rack=1:duration=15 (correlated rack crash), "
            "--fault crash@15:pe=1:surge=3 (arrival surge while down) or "
            "--fault remove@20:pe=5:drain=true (planned zero-abort drain; "
            "kinds: crash, recover, degrade, restore, disk_fail, add, "
            "remove; keys: pe, factor, duration, restart_delay, pages, "
            "rack, surge, drain; repeatable -- all faults form one plan "
            "applied to every point)"
        ),
    )
    sweep.add_argument(
        "--replication", choices=["none", "mirror", "chained"], default=None,
        help=(
            "replica placement for every relation: mirror (partner PE) or "
            "chained (chained declustering -- backups on the next decluster-"
            "ring PE, spreading a failed PE's read load across survivors)"
        ),
    )
    _add_runner_arguments(sweep)

    dispatch = sub.add_parser(
        "dispatch",
        help="enqueue a scenario's points on a coordinator (no execution)",
    )
    dispatch.add_argument("figure", type=_scenario_name,
                          help="registered scenario to enqueue")
    dispatch.add_argument("--url", required=True, metavar="URL",
                          help="`repro-lb serve` coordinator URL")
    dispatch.add_argument("--joins", type=int, default=None, help="measured joins per point")
    dispatch.add_argument("--sizes", type=int, nargs="*", default=None, help="system sizes")
    dispatch.add_argument("--time-limit", type=float, default=None,
                          help="simulated seconds cap")
    dispatch.add_argument("--replicates", type=_replicate_count, default=1,
                          help="independent runs per point (distinct derived seeds)")
    dispatch.add_argument("--max-retries", type=_replicate_count, default=3,
                          metavar="N", help="attempts per task before it is marked failed")

    worker = sub.add_parser(
        "worker",
        help="claim and execute a coordinator's tasks until its queue drains",
    )
    worker.add_argument("--url", required=True, metavar="URL",
                        help="`repro-lb serve` coordinator URL")
    worker.add_argument("--max-tasks", type=_replicate_count, default=None, metavar="N",
                        help="exit after claiming at most N tasks (default: drain)")
    worker.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                        help="sleep between claim attempts when nothing is claimable")
    worker.add_argument("--worker-id", default=None,
                        help="stable worker name for leases/logs (default: host-pid)")

    profile = sub.add_parser(
        "profile",
        help="run one scenario point under cProfile and print the hottest entries",
    )
    profile.add_argument("figure", type=_scenario_name,
                         help="registered scenario to profile")
    profile.add_argument("--point", type=int, default=0, metavar="N",
                         help="index into the expanded point list (default 0; "
                              "see --list-points)")
    profile.add_argument("--top", type=int, default=25, metavar="K",
                         help="number of profile entries to print (default %(default)s)")
    profile.add_argument("--sort", choices=["cumulative", "tottime", "ncalls"],
                         default="cumulative",
                         help="profile sort order (default %(default)s)")
    profile.add_argument("--list-points", action="store_true",
                         help="list the scenario's expanded points and exit")
    profile.add_argument("--joins", type=int, default=None, help="measured joins per point")
    profile.add_argument("--sizes", type=int, nargs="*", default=None, help="system sizes")
    profile.add_argument("--time-limit", type=float, default=None,
                         help="simulated seconds cap")
    profile.add_argument("--output", default=None, metavar="PATH",
                         help="also dump the raw pstats data to PATH "
                              "(inspect with python -m pstats)")

    status = sub.add_parser("status", help="summarise a coordinator's task states")
    status.add_argument("--url", required=True, metavar="URL",
                        help="`repro-lb serve` coordinator URL")
    status.add_argument("--json", action="store_true",
                        help="print machine-readable JSON instead of the text summary")

    serve = sub.add_parser(
        "serve",
        help=(
            "run the HTTP coordinator: the work queue + result store with "
            "/sweeps submission and a Prometheus /metrics endpoint"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default %(default)s)")
    serve.add_argument("--port", type=int, default=None,
                       help="bind port (default 8723; 0 picks a free port)")
    serve.add_argument("--lease", type=float, default=DEFAULT_LEASE_SECONDS,
                       metavar="SECONDS",
                       help="lease/heartbeat timeout handed to connecting workers")
    serve.add_argument("--max-retries", type=_replicate_count, default=3, metavar="N",
                       help="attempts per task before it is marked failed")
    serve.add_argument("--state-dir", default=None, metavar="DIR",
                       help=(
                           "keep the queue durable: journal every state change to "
                           "DIR/journal.jsonl and every result to DIR/results/, and "
                           "replay them on start (default: memory only)"
                       ))
    return parser


def _make_runner(args: argparse.Namespace) -> ParallelRunner:
    from repro.runner.config import RunnerConfig

    return RunnerConfig.from_args(args).make_runner()


def _run_simulate(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.simulation.driver import SimulationDriver

    oltp = None if args.oltp == "none" else OltpConfig(placement=args.oltp,
                                                       arrival_rate_per_node=args.oltp_tps)
    config = SystemConfig(num_pe=args.pe, oltp=oltp)
    config = config.with_overrides(
        join_query=replace(
            config.join_query,
            scan_selectivity=args.selectivity,
            arrival_rate_per_pe=args.rate,
        )
    )
    driver = SimulationDriver(config, strategy=args.strategy)
    if args.single_user:
        result = driver.run_single_user(num_queries=max(1, args.joins // 10))
    else:
        result = driver.run_multi_user(
            measured_joins=args.joins, max_simulated_time=args.time_limit
        )
    print(config.describe())
    print(result.row())
    for key, value in result.report_dict().items():
        print(f"  {key}: {value}")
    return 0


def _print_spec_result(spec: ScenarioSpec, runner: ParallelRunner,
                       args: argparse.Namespace) -> None:
    if args.output and not args.export:
        raise SystemExit("--output requires --export csv|json")
    # Expand eagerly: axis/limit validation errors (e.g. a non-positive
    # timeline duration) should fail here, not as a worker traceback.
    try:
        spec.points()
    except ValueError as exc:
        raise SystemExit(f"invalid scenario: {exc}") from None
    if not spec.sweeps and spec.static_table is not None:
        print(spec.static_table())
        if args.replicates > 1:
            print("note: static tables have no points to replicate", file=sys.stderr)
        if args.export:
            print("note: static tables have no result rows to export", file=sys.stderr)
        return
    if args.replicates > 1:
        spec = spec.with_replicates(args.replicates)
    try:
        experiment = runner.run(spec)
    except TimeoutError as exc:
        raise SystemExit(f"distributed run timed out: {exc}") from None
    aggregated = experiment.aggregate() if experiment.has_replicates else None
    rendered = aggregated if aggregated is not None else experiment
    print(rendered.table())
    for extra in spec.extra_tables:
        print()
        print(extra(rendered))
    if args.export:
        from repro.experiments.export import collect_rows, export_rows

        rows = collect_rows(experiment, aggregated)
        path = export_rows(rows, args.output or f"{spec.name}.{args.export}", args.export)
        print(f"[export] wrote {len(rows)} row(s) to {path}", file=sys.stderr)
    if runner.cache is not None:
        print(
            f"[cache] {runner.cache.hits} hit(s), {runner.cache.misses} miss(es) "
            f"in {runner.cache.root}",
            file=sys.stderr,
        )


def _experiment_spec(args: argparse.Namespace) -> ScenarioSpec:
    """Build a registered scenario's spec from experiment/dispatch axes.

    ``dispatch`` and ``experiment --url`` must expand identical
    point sets for the same axes, so both go through this one builder.
    """
    from repro.runner.registry import build_scenario

    kwargs = {}
    if args.figure == "figure1":
        # Fig. 1 is a single-user sweep over the degree of parallelism.
        if args.joins is not None:
            kwargs["queries_per_point"] = max(1, args.joins // 10)
        if args.sizes:
            kwargs["degrees"] = args.sizes
    elif args.figure == "parameters":
        pass  # static table, no axes
    else:
        if args.joins is not None:
            kwargs["measured_joins"] = args.joins
        if args.time_limit is not None:
            kwargs["max_simulated_time"] = args.time_limit
        if args.sizes:
            if args.figure == "figure8":
                print("note: --sizes is ignored for figure8 (fixed 60 PE)", file=sys.stderr)
            else:
                kwargs["system_sizes"] = args.sizes
    return build_scenario(args.figure, **kwargs)


def _run_experiment(args: argparse.Namespace) -> int:
    spec = _experiment_spec(args)
    _print_spec_result(spec, _make_runner(args), args)
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    """Developer tooling for perf work: cProfile one point of a scenario."""
    import cProfile
    import pstats
    import time

    from repro.runner.runner import run_point_spec

    spec = _experiment_spec(args)
    try:
        points = spec.points()
    except ValueError as exc:
        raise SystemExit(f"invalid scenario: {exc}") from None
    if not points:
        raise SystemExit(f"scenario {args.figure!r} expands to no points")
    if args.list_points:
        for index, point in enumerate(points):
            print(f"{index:3d}  {point.kind:>8}  {point.series} @ x={point.x:g} "
                  f"({point.num_pe} PE, seed {point.seed})")
        return 0
    if not 0 <= args.point < len(points):
        raise SystemExit(
            f"--point must be in [0, {len(points) - 1}] for {args.figure!r} "
            "(see --list-points)"
        )
    point = points[args.point]
    print(f"[profile] {point.figure}: {point.series} @ x={point.x:g} "
          f"({point.num_pe} PE, kind {point.kind})", file=sys.stderr)
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = run_point_spec(point)
    profiler.disable()
    elapsed = time.perf_counter() - start
    print(f"[profile] wall {elapsed:.3f} s, joins_completed {result.joins_completed}",
          file=sys.stderr)
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(max(1, args.top))
    if args.output:
        stats.dump_stats(args.output)
        print(f"[profile] raw pstats written to {args.output}", file=sys.stderr)
    return 0


def _run_dispatch(args: argparse.Namespace) -> int:
    from repro.runner import DistributedRunner

    spec = _experiment_spec(args)
    if args.replicates > 1:
        spec = spec.with_replicates(args.replicates)
    try:
        points = spec.points()
    except ValueError as exc:
        raise SystemExit(f"invalid scenario: {exc}") from None
    if not points:
        print(f"scenario {spec.name!r} has no simulation points to dispatch")
        return 0
    runner = DistributedRunner(args.url, max_attempts=args.max_retries)
    with runner.queue:
        summary = runner.dispatch(points)
    print(
        f"queue {runner.queue.describe()}: {summary.enqueued} task(s) enqueued, "
        f"{summary.already_queued} already queued, {summary.already_done} already done "
        f"({len(points)} point(s), {summary.total} unique task(s))"
    )
    print(f"drain with: repro-lb worker --url {args.url}", file=sys.stderr)
    return 0


def _run_worker(args: argparse.Namespace) -> int:
    import signal

    from repro.runner import HttpBackend, Worker

    def terminate(signum, frame):
        # Raise through the worker loop so the current lease is released
        # (without consuming a retry) before the process exits.
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    with HttpBackend(args.url) as queue:
        worker = Worker(queue, worker_id=args.worker_id, poll_interval=args.poll)
        print(f"worker {worker.worker_id}: draining {queue.describe()}", file=sys.stderr)
        stats = worker.run(max_tasks=args.max_tasks)
    print(f"worker {worker.worker_id}: {stats.executed} executed, {stats.failed} failed")
    return 0


def _run_status(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.runner import HttpBackend

    with HttpBackend(args.url) as queue:
        status = queue.status()
    if args.json:
        print(json_module.dumps(status.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"queue {queue.describe()}")
        print(status.render())
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service import Coordinator
    from repro.service.coordinator import DEFAULT_PORT

    try:
        coordinator = Coordinator(
            lease_seconds=args.lease, max_attempts=args.max_retries, state_dir=args.state_dir
        )
    except ValueError as exc:
        raise SystemExit(f"repro-lb serve: {exc}") from None
    port = DEFAULT_PORT if args.port is None else args.port
    try:
        coordinator.serve_forever(host=args.host, port=port)
    except KeyboardInterrupt:
        print("coordinator: interrupted, shutting down", file=sys.stderr)
        coordinator.stop()
    return 0


def _parse_override(text: str) -> tuple:
    path, sep, raw = text.partition("=")
    if not sep or not path:
        raise SystemExit(f"invalid --set override {text!r} (expected PATH=VALUE)")
    for convert in (int, float):
        try:
            return (path, convert(raw))
        except ValueError:
            continue
    return (path, raw)


def _parse_float_pair(text: str, flag: str) -> tuple:
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise SystemExit(f"invalid {flag} {text!r} (expected NAME=VALUE)")
    try:
        return (name, float(raw))
    except ValueError:
        raise SystemExit(f"invalid {flag} value {raw!r} (expected a number)") from None


def _parse_arrival_param(text: str) -> tuple:
    """An arrival-process shape parameter; ``file=PATH`` keeps its string."""
    name, _, raw = text.partition("=")
    if name == "file" and raw:
        return (name, raw)
    return _parse_float_pair(text, "--arrival-param")


def _with_trace_digest(params: tuple) -> tuple:
    """Pin a trace file's *content* digest into the arrival parameters.

    The digest becomes part of the point -- and therefore of the cache key
    and the distributed task id -- so editing the captured log can neither
    hit a stale cache entry nor diverge silently between worker hosts (the
    executing side re-hashes the file and refuses a mismatch).
    """
    import hashlib
    from pathlib import Path

    mapping = dict(params)
    path = mapping.get("file")
    if path is None or "file_sha256" in mapping:
        return params
    try:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise SystemExit(f"invalid --arrival-param file: {exc}") from None
    return params + (("file_sha256", digest),)


#: Short ``--node-class`` attribute names -> :class:`NodeClass` fields.
_NODE_CLASS_ATTRS = {
    "mips": "mips_factor",
    "memory": "memory_factor",
    "disk": "disk_factor",
}

#: Short ``--topology`` keys -> :class:`TopologyConfig` fields (integer
#: tier counts keep int values, factors become floats).
_TOPOLOGY_KEYS = {
    "racks": ("racks", int),
    "regions": ("regions", int),
    "inter_latency": ("cross_rack_latency_factor", float),
    "inter_bandwidth": ("cross_rack_bandwidth_factor", float),
    "region_latency": ("cross_region_latency_factor", float),
    "region_bandwidth": ("cross_region_bandwidth_factor", float),
}


def _parse_node_class(text: str) -> tuple:
    """``NAME=SIZE[:ATTR=FACTOR...]`` -> one encoded node-class tuple.

    SIZE below 1 is a PE fraction, otherwise a PE count; attributes are the
    short names of :data:`_NODE_CLASS_ATTRS`.
    """
    head, *attrs = text.split(":")
    name, sep, raw_size = head.partition("=")
    if not sep or not name:
        raise SystemExit(
            f"invalid --node-class {text!r} (expected NAME=SIZE[:ATTR=FACTOR...])"
        )
    try:
        size = float(raw_size)
    except ValueError:
        raise SystemExit(f"invalid --node-class size {raw_size!r}") from None
    fields = [("name", name)]
    if size < 1.0:
        fields.append(("fraction", size))
    else:
        fields.append(("count", int(size)))
    for attr in attrs:
        key, sep, raw = attr.partition("=")
        if not sep or key not in _NODE_CLASS_ATTRS:
            raise SystemExit(
                f"invalid --node-class attribute {attr!r} "
                f"(expected one of {sorted(_NODE_CLASS_ATTRS)})"
            )
        try:
            fields.append((_NODE_CLASS_ATTRS[key], float(raw)))
        except ValueError:
            raise SystemExit(f"invalid --node-class factor {raw!r}") from None
    return tuple(fields)


def _parse_topology(text: str) -> tuple:
    """``KEY=VALUE[:KEY=VALUE...]`` -> one encoded topology tuple."""
    fields = []
    for part in text.split(":"):
        key, sep, raw = part.partition("=")
        if not sep or key not in _TOPOLOGY_KEYS:
            raise SystemExit(
                f"invalid --topology key {part!r} "
                f"(expected one of {sorted(_TOPOLOGY_KEYS)})"
            )
        field, convert = _TOPOLOGY_KEYS[key]
        try:
            fields.append((field, convert(raw)))
        except ValueError:
            raise SystemExit(f"invalid --topology value {raw!r}") from None
    return tuple(fields)


def _parse_fault(text: str) -> tuple:
    """``KIND@TIME[:KEY=VALUE...]`` -> one encoded fault event."""
    from repro.faults.plan import parse_fault

    try:
        return parse_fault(text)
    except ValueError as exc:
        raise SystemExit(f"invalid --fault {text!r}: {exc}") from None


def _build_adhoc_spec(args: argparse.Namespace) -> ScenarioSpec:
    scenario = "mixed" if args.oltp else args.scenario
    rates = tuple(args.rates) if args.rates else (None,)
    selectivities = tuple(args.selectivities) if args.selectivities else (None,)
    sizes = tuple(args.sizes)
    # --arrival / --timeline-window switch the sweep to windowed timeline
    # points (a fixed-duration run carrying a per-window time series).
    timeline = args.arrival is not None or args.timeline_window is not None
    arrival = args.arrival

    # Label series by every non-size axis that actually varies.
    series = "{strategy}"
    if len(selectivities) > 1:
        series += " sel={selectivity:g}"
    if len(rates) > 1:
        series += " @{rate:g} QPS/PE"
    x_axis = "num_pe"
    if len(sizes) == 1 and len(selectivities) > 1:
        x_axis, series = "selectivity_pct", series.replace(" sel={selectivity:g}", "")
    elif len(sizes) == 1 and len(rates) > 1:
        x_axis, series = "rate", series.replace(" @{rate:g} QPS/PE", "")
    if arrival is not None:
        series += " [{arrival}]"
    node_classes_entry = (
        tuple(_parse_node_class(text) for text in args.node_classes)
        if args.node_classes
        else None
    )
    topology_entry = _parse_topology(args.topology) if args.topology else None
    failures_entry = (
        tuple(_parse_fault(text) for text in args.faults) if args.faults else None
    )
    if node_classes_entry is not None:
        series += " [{nodes}]"
    if topology_entry is not None:
        series += " {topology}"
    if failures_entry is not None:
        series += " [{failures}]"
    if args.replication is not None:
        series += " {replication}"

    arrival_params = tuple(_parse_arrival_param(text) for text in args.arrival_params)
    if arrival == "trace":
        arrival_params = _with_trace_digest(arrival_params)
    try:
        sweep = Sweep(
            kind="timeline" if timeline else "multi",
            scenario=scenario,
            strategies=tuple(args.strategies),
            system_sizes=sizes,
            rates=rates,
            selectivities=selectivities,
            oltp_placements=(args.oltp,) if args.oltp else (None,),
            x_axis=x_axis,
            series=series,
            config_overrides=tuple(_parse_override(text) for text in args.overrides),
            arrivals=(arrival,),
            arrival_params=arrival_params,
            timeline_window=args.timeline_window if timeline else None,
            perturb=tuple(_parse_float_pair(text, "--perturb") for text in args.perturb),
            node_classes=(node_classes_entry,),
            topologies=(topology_entry,),
            failures=(failures_entry,),
            replication=(args.replication,),
        )
    except ValueError as exc:
        raise SystemExit(f"invalid sweep: {exc}") from None
    if sweep.perturb and args.replicates < 2:
        print(
            "note: --perturb only affects replicates >= 1; "
            "pass --replicates N to see workload noise",
            file=sys.stderr,
        )
    axes = [f"strategies={list(args.strategies)}", f"sizes={list(sizes)}"]
    if args.rates:
        axes.append(f"rates={list(rates)}")
    if args.selectivities:
        axes.append(f"selectivities={list(selectivities)}")
    if args.oltp:
        axes.append(f"oltp={args.oltp}")
    if arrival is not None:
        axes.append(f"arrival={arrival}")
    if node_classes_entry is not None:
        axes.append(
            "classes=" + "+".join(dict(cls)["name"] for cls in node_classes_entry)
        )
    if topology_entry is not None:
        axes.append(f"topology={dict(topology_entry).get('racks', 1)} racks")
    if failures_entry is not None:
        from repro.faults.plan import failures_label

        axes.append(f"faults={failures_label(failures_entry)}")
    if args.replication is not None:
        axes.append(f"replication={args.replication}")
    from repro.experiments.dynamic import render_timeline_table

    return ScenarioSpec(
        name="sweep",
        title=f"Ad-hoc sweep [{scenario}]: " + ", ".join(axes),
        x_label={"num_pe": "# PE", "selectivity_pct": "selectivity %", "rate": "QPS/PE"}[x_axis],
        sweeps=(sweep,),
        measured_joins=args.joins,
        max_simulated_time=args.time_limit,
        extra_tables=(render_timeline_table,) if timeline else (),
    )


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.scheduling.strategy import strategy_names

    known = set(strategy_names())
    unknown = [name for name in args.strategies if name not in known]
    if unknown:
        raise SystemExit(
            f"unknown strategy {', '.join(map(repr, unknown))}; "
            "see `repro-lb list-strategies`"
        )
    spec = _build_adhoc_spec(args)
    # Validate dotted overrides and arrival parameters eagerly (a worker
    # process would otherwise surface the failure as an opaque pool
    # traceback mid-run).
    from repro.runner.runner import apply_config_overrides

    try:
        apply_config_overrides(SystemConfig(), spec.sweeps[0].config_overrides)
    except (AttributeError, TypeError, ValueError) as exc:
        raise SystemExit(f"invalid --set override: {exc}") from None
    if args.arrival is not None and args.arrival != "trace":
        from repro.workload.arrivals import make_arrival_process

        try:
            make_arrival_process(args.arrival, 1.0, spec.sweeps[0].arrival_params)
        except ValueError as exc:
            raise SystemExit(f"invalid --arrival-param: {exc}") from None
    elif args.arrival == "trace":
        params = dict(spec.sweeps[0].arrival_params)
        trace_file = params.pop("file", None)
        params.pop("file_sha256", None)
        if params:
            raise SystemExit(
                "--arrival trace supports only the file=PATH parameter, "
                f"got {sorted(params)} (without a file, the trace replays "
                "the spec's own Poisson streams)"
            )
        if trace_file is not None:
            from repro.workload.traces import load_trace

            try:
                load_trace(trace_file)
            except (OSError, ValueError) as exc:
                raise SystemExit(f"invalid --arrival-param file: {exc}") from None
    _print_spec_result(spec, _make_runner(args), args)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list-strategies":
        from repro.scheduling.strategy import strategy_names

        for name in strategy_names():
            print(name)
        return 0
    if args.command == "parameters":
        from repro.experiments import render_parameter_table

        print(render_parameter_table())
        return 0
    if args.command == "simulate":
        return _run_simulate(args)
    if args.command == "experiment":
        return _run_experiment(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "profile":
        return _run_profile(args)
    if args.command == "dispatch":
        return _run_dispatch(args)
    if args.command == "worker":
        return _run_worker(args)
    if args.command == "status":
        return _run_status(args)
    if args.command == "serve":
        return _run_serve(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
