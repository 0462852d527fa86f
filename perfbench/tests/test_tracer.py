"""Tracer purity and self-time accounting on a tiny faulted point."""

import json
import time

from tracer import ROOT, Tracer

#: Relative tolerance of the self-time identity: only float rounding over
#: some hundred thousand span additions separates the two sides.
SUM_TOLERANCE = 1e-6
#: Root span vs the wall time measured just inside it: the calls that
#: open and close the root are the only difference.
WALL_TOLERANCE_S = 0.005


def _faulted_point():
    from repro.faults.plan import FaultEvent, encode_failures
    from repro.runner import ScenarioSpec, Sweep

    crash = encode_failures([FaultEvent(time=1.0, kind="pe_crash", pe=1, duration=1.0)])
    spec = ScenarioSpec(
        name="tiny_faulted",
        title="tiny faulted point",
        x_label="# PE",
        sweeps=(
            Sweep(
                kind="timeline",
                scenario="homogeneous",
                strategies=("OPT-IO-CPU",),
                system_sizes=(8,),
                rates=(0.5,),
                timeline_window=1.0,
                failures=(crash,),
                replication=("chained",),
            ),
        ),
        max_simulated_time=4.0,
    )
    (point,) = spec.points()
    return point


def _simulate(point):
    from repro.faults.plan import decode_failures
    from repro.runner.runner import build_config, build_workload
    from repro.simulation.driver import SimulationDriver

    config = build_config(point)
    driver = SimulationDriver(config, point.strategy, faults=decode_failures(point.failures))
    result = driver.run_timed(
        point.max_simulated_time,
        timeline_window=point.timeline_window,
        spec=build_workload(point, config),
    )
    runtime = driver.system.faults
    return {
        "result": json.dumps(result.to_dict(), sort_keys=True),
        "events_dispatched": driver.env.events_dispatched,
        "events_coalesced": driver.env.events_coalesced,
        "kills": runtime.kills,
        "resubmits": runtime.resubmits,
    }


def _traced(fn, *args):
    tracer = Tracer().install()
    try:
        tracer.open_root()
        start = time.perf_counter()
        output = fn(*args)
        wall = time.perf_counter() - start
        root = tracer.close_root()
    finally:
        tracer.uninstall()
    return output, tracer, wall, root


def test_traced_faulted_point_matches_untraced():
    point = _faulted_point()
    untraced = _simulate(point)
    traced, tracer, _, _ = _traced(_simulate, point)
    assert traced == untraced
    # The crash killed processes, so GeneratorExit went through wrapped
    # generators; the run must still be identical.
    assert untraced["kills"] > 0
    assert tracer.counts["trace.closes"] > 0
    assert tracer.counts["scheduling.control_node.reports"] > 0


def test_self_times_add_up_to_the_traced_wall_time():
    point = _faulted_point()
    _, tracer, wall, root = _traced(_simulate, point)
    total = sum(tracer.self_time.values())
    assert abs(total - root) <= SUM_TOLERANCE * root, (total, root)
    assert abs(root - wall) <= WALL_TOLERANCE_S, (root, wall)
    assert tracer.self_time[ROOT] < root
    assert tracer.self_time["sim"] > 0.0
    assert all(value >= 0.0 for value in tracer.self_time.values())


def _interrupted_consume():
    from repro.config.parameters import CpuConfig, InstructionCosts
    from repro.hardware.cpu import CpuServer
    from repro.sim import Environment
    from repro.sim.core import Interrupt

    env = Environment()
    cpu = CpuServer(env, CpuConfig(), InstructionCosts(), pe_id=0)
    log = []

    def victim():
        try:
            yield from cpu.consume(50_000_000)
            log.append(("done", env.now))
        except Interrupt as exc:
            log.append(("interrupted", env.now, exc.cause))
        yield from cpu.consume(1_000_000)
        log.append(("after", env.now))

    def crash(process):
        yield env.timeout(0.05)
        process.interrupt("crash")

    process = env.process(victim())
    env.process(crash(process))
    env.run()
    return log, env.events_dispatched, env.events_coalesced, cpu.utilization


def test_interrupt_thrown_through_a_wrapped_generator():
    untraced = _interrupted_consume()
    traced, tracer, _, _ = _traced(_interrupted_consume)
    assert untraced[0][0][0] == "interrupted"
    assert traced == untraced
    assert tracer.counts["trace.throws"] >= 1
    assert tracer.counts["hardware.cpu.calls"] == 2


def test_uninstall_restores_every_original():
    from repro.execution import parallel_join
    from repro.runner.backends.http import HttpBackend
    from repro.sim.core import Environment
    from repro.simulation.results import SimulationResult

    before = (Environment.run, parallel_join.failover_scan_sites,
              SimulationResult.__dict__["from_dict"], HttpBackend.__dict__["_backoff"])
    tracer = Tracer().install()
    assert Environment.run is not before[0]
    assert parallel_join.failover_scan_sites is not before[1]
    tracer.uninstall()
    after = (Environment.run, parallel_join.failover_scan_sites,
             SimulationResult.__dict__["from_dict"], HttpBackend.__dict__["_backoff"])
    assert after == before
