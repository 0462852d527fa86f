"""Tests for arrival processes, trace/live alignment and submit determinism."""

import random

import pytest

from repro.config import SystemConfig
from repro.sim import Environment
from repro.workload import (
    DeterministicArrivals,
    JoinQuery,
    OnOffArrivals,
    PoissonArrivals,
    SinusoidalArrivals,
    StepArrivals,
    WorkloadClass,
    WorkloadGenerator,
    WorkloadSpec,
    generate_trace,
    make_arrival_process,
)


def sample_times(process, n=200, seed=7):
    """First ``n`` arrival times of ``process`` under one rng stream."""
    rng = random.Random(seed)
    process.reset()
    now, times = 0.0, []
    for _ in range(n):
        delta = process.interarrival(now, rng)
        if delta == float("inf"):
            break
        now += delta
        times.append(now)
    return times


# -- individual processes ---------------------------------------------------------
def test_poisson_mean_rate_matches():
    times = sample_times(PoissonArrivals(2.0), n=4000)
    observed = len(times) / times[-1]
    assert observed == pytest.approx(2.0, rel=0.1)


def test_deterministic_spacing():
    times = sample_times(DeterministicArrivals(4.0), n=8)
    deltas = [b - a for a, b in zip(times, times[1:])]
    assert all(d == pytest.approx(0.25) for d in deltas)


def test_zero_rate_never_arrives():
    rng = random.Random(0)
    assert PoissonArrivals(0.0).interarrival(0.0, rng) == float("inf")
    assert DeterministicArrivals(0.0).interarrival(0.0, rng) == float("inf")
    # A fully silent MMPP must return inf instead of spinning forever.
    silent = OnOffArrivals(on_rate=0.0, off_rate=0.0, mean_on=1.0, mean_off=1.0)
    assert silent.interarrival(0.0, rng) == float("inf")


def test_sampling_is_deterministic_per_seed():
    for process in (
        PoissonArrivals(1.0),
        SinusoidalArrivals(1.0, amplitude=0.8, period=10.0),
        StepArrivals(1.0, surge_factor=3.0, surge_start=5.0, surge_end=10.0),
        OnOffArrivals(on_rate=4.0, off_rate=0.5, mean_on=2.0, mean_off=6.0),
    ):
        assert sample_times(process, n=100, seed=3) == sample_times(process, n=100, seed=3)


def test_step_rate_profile_and_surge_density():
    process = StepArrivals(1.0, surge_factor=5.0, surge_start=10.0, surge_end=20.0)
    assert process.rate(5.0) == 1.0
    assert process.rate(10.0) == 5.0
    assert process.rate(19.999) == 5.0
    assert process.rate(20.0) == 1.0
    times = sample_times(process, n=5000)
    times = [t for t in times if t < 30.0]
    inside = sum(1 for t in times if 10.0 <= t < 20.0)
    outside_per_s = (len(times) - inside) / 20.0
    inside_per_s = inside / 10.0
    assert inside_per_s == pytest.approx(5 * outside_per_s, rel=0.35)


def test_sine_rate_oscillates_and_clamps():
    process = SinusoidalArrivals(1.0, amplitude=0.5, period=4.0)
    assert process.rate(1.0) == pytest.approx(1.5)  # sin peak at period/4
    assert process.rate(3.0) == pytest.approx(0.5)
    assert SinusoidalArrivals(1.0, amplitude=2.0, period=4.0).rate(3.0) == 0.0  # clamped
    assert process.peak_rate == pytest.approx(1.5)


def mmpp_long_run_rate(process):
    """Arrivals per second of an on/off process, averaged over its cycle."""
    cycle = process.mean_on + process.mean_off
    return (process.on_rate * process.mean_on + process.off_rate * process.mean_off) / cycle


def test_mmpp_long_run_rate_matches_mean():
    process = make_arrival_process("mmpp", 2.0, {"burst_factor": 4.0, "on_fraction": 0.25})
    times = sample_times(process, n=20000)
    observed = len(times) / times[-1]
    assert observed == pytest.approx(2.0, rel=0.15)
    assert mmpp_long_run_rate(process) == pytest.approx(2.0)


def test_mmpp_reset_reproduces_stream():
    process = OnOffArrivals(on_rate=8.0, off_rate=0.5, mean_on=1.0, mean_off=3.0)
    first = sample_times(process, n=500, seed=11)
    second = sample_times(process, n=500, seed=11)  # sample_times resets
    assert first == second


# -- factory ----------------------------------------------------------------------
def test_factory_builds_each_kind():
    assert isinstance(make_arrival_process("poisson", 1.0), PoissonArrivals)
    assert isinstance(make_arrival_process("deterministic", 1.0), DeterministicArrivals)
    assert isinstance(make_arrival_process("mmpp", 1.0), OnOffArrivals)
    assert isinstance(make_arrival_process("sine", 1.0), SinusoidalArrivals)
    assert isinstance(make_arrival_process("step", 1.0), StepArrivals)


def test_factory_rejects_unknown_kind_and_params():
    with pytest.raises(ValueError, match="unknown arrival kind"):
        make_arrival_process("weibull", 1.0)
    with pytest.raises(ValueError, match="unknown parameter"):
        make_arrival_process("sine", 1.0, {"periodd": 10.0})
    with pytest.raises(ValueError, match="trace"):
        make_arrival_process("trace", 1.0)
    with pytest.raises(ValueError, match="on_fraction"):
        make_arrival_process("mmpp", 1.0, {"on_fraction": 1.5})
    with pytest.raises(ValueError, match="burst_factor"):
        make_arrival_process("mmpp", 1.0, {"burst_factor": 8.0, "on_fraction": 0.5})


def test_mmpp_factory_preserves_mean_rate():
    process = make_arrival_process("mmpp", 3.0, {"burst_factor": 2.0, "on_fraction": 0.4})
    assert mmpp_long_run_rate(process) == pytest.approx(3.0)


# -- generator integration --------------------------------------------------------
def live_arrival_times(spec, duration):
    """Arrival times submitted by a live WorkloadGenerator run."""
    env = Environment()
    submitted = []
    generator = WorkloadGenerator(env, spec, lambda txn: submitted.append((env.now, txn)))
    generator.start()
    env.run(until=duration)
    return [t for t, _ in submitted]


def test_workload_class_profile_drives_generator():
    spec = WorkloadSpec(seed=5)
    spec.add(
        WorkloadClass(
            name="join",
            factory=JoinQuery,
            arrival_rate=2.0,
            arrival=StepArrivals(2.0, surge_factor=4.0, surge_start=10.0, surge_end=20.0),
        )
    )
    times = live_arrival_times(spec, 30.0)
    inside = sum(1 for t in times if 10.0 <= t < 20.0)
    outside = len(times) - inside
    assert inside > outside  # surged decade denser than the other two decades


def test_with_arrival_profile_poisson_matches_default():
    config = SystemConfig(num_pe=4)
    base = WorkloadSpec.homogeneous_join(config)
    profiled = base.with_arrival_profile("poisson")
    assert live_arrival_times(base, 20.0) == live_arrival_times(profiled, 20.0)


def test_with_arrival_profile_sets_process_per_class():
    config = SystemConfig(num_pe=4)
    spec = WorkloadSpec.homogeneous_join(config).with_arrival_profile(
        "step", {"surge_factor": 2.0}
    )
    assert isinstance(spec.classes[0].arrival, StepArrivals)
    # The profile is built from the class's own mean rate.
    assert spec.classes[0].arrival.arrival_rate == pytest.approx(
        spec.classes[0].arrival_rate
    )


# -- trace/live alignment (the seeding fix) ---------------------------------------
def test_generated_trace_matches_live_sampling_bit_identically():
    config = SystemConfig(num_pe=8)
    spec = WorkloadSpec.homogeneous_join(config)
    trace = generate_trace(spec, duration=40.0)
    live = live_arrival_times(spec, 40.0)
    assert [r.arrival_time for r in trace] == live


def test_generated_trace_matches_live_sampling_multi_class():
    from repro.config import OltpConfig

    config = SystemConfig(
        num_pe=8, oltp=OltpConfig(placement="A", arrival_rate_per_node=5.0)
    )
    spec = WorkloadSpec.mixed_join_oltp(config)
    trace = generate_trace(spec, duration=10.0)

    env = Environment()
    submitted = []
    generator = WorkloadGenerator(env, spec, lambda txn: submitted.append((env.now, txn)))
    generator.start()
    env.run(until=10.0)
    live = [(t, type(txn).__name__) for t, txn in submitted]
    kinds = {"join": "JoinQuery", "oltp": "OltpTransaction"}
    assert [(r.arrival_time, kinds[r.class_name]) for r in trace] == live


def test_generated_trace_matches_live_sampling_nonstationary():
    config = SystemConfig(num_pe=8)
    spec = WorkloadSpec.homogeneous_join(config).with_arrival_profile(
        "mmpp", {"burst_factor": 4.0, "on_fraction": 0.25, "cycle": 5.0}
    )
    trace = generate_trace(spec, duration=30.0)
    live = live_arrival_times(spec, 30.0)
    assert [r.arrival_time for r in trace] == live


# -- per-class stream independence (Submitter determinism) ------------------------
def test_class_streams_are_independent_of_other_classes():
    def join_class(rate=2.0):
        return WorkloadClass(name="join", factory=JoinQuery, arrival_rate=rate)

    def extra_class():
        return WorkloadClass(name="extra", factory=JoinQuery, arrival_rate=3.0)

    solo = WorkloadSpec(seed=9).add(join_class())
    duo = WorkloadSpec(seed=9).add(join_class()).add(extra_class())

    solo_trace = [r.arrival_time for r in generate_trace(solo, 20.0)]
    duo_trace = [
        r.arrival_time for r in generate_trace(duo, 20.0) if r.class_name == "join"
    ]
    assert solo_trace == duo_trace
