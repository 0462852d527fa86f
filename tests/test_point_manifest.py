"""Pinned point manifests: expansion keeps its seeds, cache keys and order.

A manifest is the sha256 over ``(point_key, seed, series, x, rate,
selectivity)`` of every point a spec expands to, in expansion order.  The
digests below are pinned, so any change to the spec model that moves a
derived seed, changes a cache key (orphaning cached results and renaming
distributed tasks), relabels a series or reorders a table fails here.

The run limits resolved at expansion join every point's cache key, so the
``REPRO_BENCH_*`` environment is cleared and the built-in defaults apply.
"""

import dataclasses
import hashlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import _build_adhoc_spec, build_parser
from repro.runner import (
    PointSpec,
    ScenarioSpec,
    Sweep,
    available_scenarios,
    build_scenario,
    point_from_payload,
    point_key,
)
from repro.runner.spec import POINT_KINDS, SCENARIO_BUILDERS
from repro.workload.arrivals import ARRIVAL_KINDS

#: A partial fault encoding: canonicalisation fills the remaining fields.
CRASH = ((("kind", "pe_crash"), ("time", 5.0), ("pe", 1), ("duration", 5.0)),)

HAND_SWEEPS = {
    "hand:perturb": Sweep(
        kind="multi",
        strategies=("OPT-IO-CPU", "psu_opt+LUC"),
        system_sizes=(10, 20),
        rates=(0.2, 0.3),
        selectivities=(0.01, 0.02),
        perturb=(("selectivity", 0.2), ("arrival_rate", 0.1)),
        series="{strategy} sel={selectivity_pct:g} @{rate:g}",
        replicates=3,
    ),
    # Every optional axis lists its default three ways: None, an encoding
    # that canonicalises to None, and a non-default entry.
    "hand:explicit-defaults": Sweep(
        kind="timeline",
        strategies=("OPT-IO-CPU",),
        system_sizes=(8,),
        node_classes=(
            None,
            ((("name", "std"), ("fraction", 1.0)),),
            ((("name", "fast"), ("fraction", 0.5), ("mips_factor", 2.0)),),
        ),
        topologies=(None, (("racks", 1),), (("racks", 2), ("cross_rack_latency_factor", 4.0))),
        failures=(None, (), CRASH),
        replication=(None, "none", "chained"),
        series="{strategy} [{nodes}] {topology} [{failures}] {replication}",
        replicates=2,
    ),
    "hand:fixed-degree": Sweep(
        kind="fixed-degree",
        degrees=(1, 2, 4, 16),
        system_sizes=(8, 16),
        x_axis="degree",
        series="{degree} of {num_pe}",
        replicates=2,
    ),
    "hand:analytic": Sweep(
        kind="analytic",
        degrees=(1, 3, 30),
        system_sizes=(10, 40),
        series="analytic {degree}",
        replicates=3,
    ),
    "hand:arrivals": Sweep(
        kind="multi",
        scenario="mixed",
        strategies=("OPT-IO-CPU",),
        system_sizes=(10,),
        oltp_placements=("A", "B"),
        arrivals=(None, "mmpp"),
        arrival_params=(("burst_factor", 2.0),),
        config_overrides=(("buffer.buffer_pages", 25),),
        series="{strategy} {placement} [{arrival}]",
        replicates=2,
    ),
}

CLI_SWEEPS = {
    "cli:hardware-faults": [
        "--sizes", "8", "16", "--rates", "0.2", "0.3",
        "--node-class", "fast=0.5:mips=2.0", "--node-class", "slow=0.25:disk=0.5",
        "--topology", "racks=2:inter_latency=4",
        "--fault", "crash@5:pe=1:duration=5", "--fault", "degrade@8:pe=2:factor=0.5",
        "--replication", "chained",
        "--arrival", "mmpp", "--arrival-param", "burst_factor=2",
        "--perturb", "arrival_rate=0.1",
    ],
    "cli:explicit-defaults": [
        "--sizes", "8", "--node-class", "std=1.0", "--topology", "racks=1",
        "--replication", "none", "--timeline-window", "2",
    ],
    "cli:selectivity-oltp": [
        "--sizes", "10", "--selectivities", "0.01", "0.02", "--oltp", "B",
        "--set", "buffer.buffer_pages=25", "--strategies", "OPT-IO-CPU", "psu_opt+LUC",
        "--perturb", "selectivity=0.1", "--joins", "7", "--time-limit", "30",
    ],
    "cli:rate-axis": [
        "--sizes", "10", "--rates", "0.1", "0.2",
        "--arrival", "sine", "--arrival-param", "amplitude=0.5",
    ],
}

#: name -> (point count, manifest digest).  A digest may only move with an
#: announced seed-derivation or cache-format change.
PINNED = {
    "cli:explicit-defaults": (3, "93b3fa17c3c7d87a1e178145b9c7d393d76557e336dde8a3eba3dad5def26434"),
    "cli:hardware-faults": (12, "ade1dcc6c510559302c1bc407d654948e68cc4e5776bbbd73e8a64bcbb48866f"),
    "cli:rate-axis": (6, "4bfebd955bfb65f047507e7f0540d371cb3ff4a297fe14bb3e067845c965b468"),
    "cli:selectivity-oltp": (12, "a53aa340657543d0866e4821e76c6daf3f7117f340806f4299b42d2b595e7530"),
    "dynamic": (3, "8fe7fd9a000862511d93054b7caf23e734e7bfe4932210b5357ed303f67fb1b6"),
    "dynamic-mmpp": (3, "4d7b2ca8753d4f26790ccd9c9442b99f89e74df404fafa9db15883f4ee742344"),
    "dynamic-mmpp@reseed": (3, "fcbffdfbf234e8a8591d6fbf4a0b8d0385f1b6adacf9e450275e8b1064653f24"),
    "dynamic-mmpp@x3": (9, "918309e2c86e2d50bfedc22470f96d48f0e61ec2cd15ec81f1b94332fe70cf62"),
    "dynamic@reseed": (3, "ef8ab90e6674035a31f17cfc110f8772732b8aef50cb7221d35afbb544447eb2"),
    "dynamic@x3": (9, "54e3dcfa83901cfadbf168c165bf2b1579e7553cc7ea5e7ef559448f49ca3fcb"),
    "faults": (6, "623fcdfe1fe6352108eaee4f7df08023a37464ae4ab023955c86717b0a5a23c4"),
    "faults@reseed": (6, "2299beceda1592f566257f2148588dfd9891a7e8a4ec880f7c613bfe5c32593a"),
    "faults@x3": (18, "4260f093b82b1a7f6e914408e8161a0e37e306e7a927f50b3261c5a44d7997eb"),
    "figure1": (20, "5d137f5738f0f1fe7029c8b634fa3c1afa7a3580dddff782fb155a428e53a4c4"),
    "figure1@reseed": (20, "a99e05453c8df62b82c611eb8a62240acc6653ebc77e17032143fc1a077223b7"),
    "figure1@x3": (40, "532bc6ac814f054f374c8091f7cdd9a8bc3c698262e523e5e69b0ecbdb6b36d4"),
    "figure5": (35, "1162f799300d09b1b3ba02150b7e09512babbfcd1772b001b26a2cfdd41882df"),
    "figure5@reseed": (35, "199cc5e521267b9f66e1c424718c560164cb34fdf5476f69d9e86943b4432d81"),
    "figure5@x3": (105, "726ea566ed25727471cdf653ea6bc7bbd90b3765a7619fc34651f563db8ef2f3"),
    "figure6": (30, "06b4c69feff4631830cbd2470bb9ecddef8b2d800e443ac8d833d61101413c28"),
    "figure6@reseed": (30, "e82f8e1643c95b0177c62822c6b7eeb543ec45501e9c7a5a0c3e9ba6918be14f"),
    "figure6@x3": (90, "de1b9744512567f1c54a2748814b1326243e297fe99e365f5b09264df32221d1"),
    "figure7": (30, "d755f2d7904001d0e59261799ac5a18b5b60990c056a9d51353a8105d2fd935d"),
    "figure7@reseed": (30, "5a94325297753a7fe36a4849f36b40c1f86bcd69d09fcc163d8a30ea5146afe2"),
    "figure7@x3": (90, "a3ac5ca6ded307f1c391127a043a51b1abe5b11d5f4318c8a40af77829b70ea9"),
    "figure8": (24, "ee0b59d3abb4f2c1c2faa1baf6f797ead4f939a825b9fc71c6ae7f02f3d42fc1"),
    "figure8@reseed": (24, "ada7fdd0e7930935c8cbae974ed1c28564ef335fe853452c114e7e4840cd7926"),
    "figure8@x3": (72, "e274a9da9a9e14affaa9c7e16c328450b32d0157ba8dd1885283968365a29de1"),
    "figure9a": (25, "173794bdbd9fec71baf4fb4d9cf6a62e9e5f3d12957a276dba52c6c31da14622"),
    "figure9a@reseed": (25, "1502f1941195dd1f4c71d21984adb15f412b133f1982afbac979fa4ee492bfb2"),
    "figure9a@x3": (75, "b09357c9effc394ebe8f70945b9ede7fa0b43a6837c72ac3151d215df258c647"),
    "figure9b": (25, "c43a20f6e97c2fb44c6fffb5fed6b7453dc4063e07f5bb348a22e2d04b3a9885"),
    "figure9b@reseed": (25, "1e57df82802cf7830cb145c6db5549dfe9812fa54c1a76bc54d6b5cd6a2f186c"),
    "figure9b@x3": (75, "67bf13e3a433c0302d6c8828f1779ca6c3fd899bbff8e87996e548aa982c4c9f"),
    "hand:analytic": (5, "ceb2d15272db1c74f2ea7e51f240a82e22938a78d0dd68368d18187264a07425"),
    "hand:analytic@reseed": (5, "b53211f95ff8f42fea47b1ad1d71d1655497273bb46f48f227851182dd267e35"),
    "hand:arrivals": (8, "e2076b4ee0592221bea88bf0f919ef53d448872d394b9c0322f2afad44a5c21e"),
    "hand:arrivals@reseed": (8, "dff11aaeb7fc93be554d58076040159675b720104da7ae8c488aa81b53b51c29"),
    "hand:explicit-defaults": (162, "97d8ec1e93725b2cda38d207cfa5b75adb5eb4c00c663574321e4a85ec9bb01e"),
    "hand:explicit-defaults@reseed": (162, "75348624d875b8bf71c3409a5b30df253aecfa6562fb262bc52347f75fbc73c5"),
    "hand:fixed-degree": (14, "f6183bb0429035293cbedd0fd36762cdbfe35fc12ef4b5df12b7b6eca35cd500"),
    "hand:fixed-degree@reseed": (14, "01715dc211e45e978ef7d102a45c939b04da048093f144d2536b48e9bd9187a5"),
    "hand:perturb": (48, "af1f25e84f4956172b41419bcfb122f9f1efa664fd55cec762d9e69e358715de"),
    "hand:perturb@reseed": (48, "bda82b4c11f2d7b7d893c2e9159ad4be4aaacd5bfd27b1795620c690291a9291"),
    "heterogeneous": (15, "2e3a0796bd759d1ee240dacffcd7a7b9cd4a5d3a147ec069b293c26679c8b4ed"),
    "heterogeneous@reseed": (15, "4cd83de3cc9070b2362033771bea40c5a3b07745e19a3e37e02a127ba9809122"),
    "heterogeneous@x3": (45, "226d5005045d8f6757a907ac15a2f92ad9cb90c70b4d000ec69c6e64d0aa5662"),
    "replication": (48, "0f1799dec8a6c60f707d7471c654c5336f9f6617934f517b6351f45abe44210f"),
    "replication@reseed": (48, "b6d4dc82a11facd2083702158998a408b416a26f8e8513f9fda0ff11db89ee50"),
    "replication@x3": (144, "e79cae166b00db7509cc2c50ca11deb8556eb1f18eaa69556efa2b7d874fb957"),
}


@pytest.fixture(autouse=True)
def _default_run_limits(monkeypatch):
    for name in list(os.environ):
        if name.startswith("REPRO_BENCH_"):
            monkeypatch.delenv(name)


def _reseeded(spec: ScenarioSpec) -> ScenarioSpec:
    return dataclasses.replace(
        spec,
        sweeps=tuple(dataclasses.replace(s, reseed_per_point=True) for s in spec.sweeps),
    )


def manifest_specs():
    """Every spec whose manifest is pinned, by manifest name."""
    specs = {}
    for name in available_scenarios():
        spec = build_scenario(name)
        if spec.sweeps:
            specs[name] = spec
            specs[f"{name}@x3"] = spec.with_replicates(3)
            specs[f"{name}@reseed"] = _reseeded(spec)
    for name, sweep in HAND_SWEEPS.items():
        spec = ScenarioSpec(name=name, title=name, x_label="x", sweeps=(sweep,))
        specs[name] = spec
        specs[f"{name}@reseed"] = _reseeded(spec)
    for name, argv in CLI_SWEEPS.items():
        spec = _build_adhoc_spec(build_parser().parse_args(["sweep", *argv]))
        specs[name] = spec.with_replicates(3)
    return specs


def manifest(spec: ScenarioSpec):
    points = spec.points()
    lines = "\n".join(
        repr((point_key(p), p.seed, p.series, p.x, p.rate, p.selectivity)) for p in points
    )
    return len(points), hashlib.sha256(lines.encode("utf-8")).hexdigest()


def test_pinned_manifests_cover_every_registered_scenario():
    assert set(manifest_specs()) == set(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_point_manifest_is_unchanged(name):
    assert manifest(manifest_specs()[name]) == PINNED[name]


# -- the payload round trip and the cache key, as properties ------------------------
_names = st.text(alphabet="abcdefghij_.", min_size=1, max_size=8)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_scalars = st.one_of(st.integers(-1000, 1000), _floats, _names, st.booleans(), st.none())
_pairs = st.lists(st.tuples(_names, _scalars), max_size=3).map(tuple)


def _optional(strategy):
    return st.one_of(st.none(), strategy)


points = st.builds(
    PointSpec,
    figure=_names,
    series=st.text(max_size=12),
    x=_floats,
    kind=st.sampled_from(POINT_KINDS),
    scenario=st.sampled_from(SCENARIO_BUILDERS),
    num_pe=st.integers(1, 4096),
    seed=st.integers(0, 2**31 - 1),
    strategy=_optional(_names),
    degree=_optional(st.integers(1, 4096)),
    rate=_optional(_floats),
    selectivity=_optional(_floats),
    oltp_placement=_optional(st.sampled_from(("A", "B"))),
    num_queries=_optional(st.integers(1, 50)),
    measured_joins=_optional(st.integers(1, 500)),
    warmup_joins=_optional(st.integers(0, 100)),
    max_simulated_time=_optional(_floats),
    config_overrides=_pairs,
    replicate=st.integers(0, 20),
    arrival_kind=_optional(st.sampled_from(ARRIVAL_KINDS)),
    arrival_params=st.lists(st.tuples(_names, _floats), max_size=3).map(tuple),
    timeline_window=_optional(_floats),
    node_classes=_optional(st.lists(_pairs, min_size=1, max_size=2).map(tuple)),
    topology=_optional(_pairs),
    failures=_optional(st.lists(_pairs, min_size=1, max_size=2).map(tuple)),
    replication=_optional(st.sampled_from(("mirror", "chained"))),
)

PRESENTATION_FIELDS = ("figure", "series", "x")


@settings(max_examples=150, deadline=None)
@given(points)
def test_json_round_trip_rebuilds_an_equal_point(point):
    payload = json.loads(json.dumps(dataclasses.asdict(point)))
    rebuilt = point_from_payload(payload)
    assert rebuilt == point
    assert point_key(rebuilt) == point_key(point)


@settings(max_examples=150, deadline=None)
@given(points, points)
def test_every_outcome_field_joins_the_cache_key(point, other):
    key = point_key(point)
    for spec_field in dataclasses.fields(PointSpec):
        name = spec_field.name
        theirs = getattr(other, name)
        if theirs == getattr(point, name):
            continue
        changed = point_key(dataclasses.replace(point, **{name: theirs}))
        if name in PRESENTATION_FIELDS:
            assert changed == key, name
        else:
            assert changed != key, name
