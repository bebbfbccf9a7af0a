"""Generated streams through the exact bucket kernel, against the
reference per-event loop (``tests/reference_loop.py``).

Every production path that runs Algorithm 2 in exact mode —
``process_batch(exact=True)`` at any bucket size, with or without a live
tracer, the in-process fleet with one or two shards, and the process
runtime — must emit the alarms (scores included) and leave the forests
that the plain per-event loop does.  Streams repeat disk ids (a disk id
can come back after its failure), fail disks with and without a final
SMART snapshot, use α/β small enough to split and replace trees, and
place the warm-up boundary anywhere, including inside a bucket.
"""

import copy

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.forest import OnlineRandomForest
from repro.core.predictor import OnlineDiskFailurePredictor
from repro.obs import Tracer
from repro.persistence import load_model
from repro.runtime import FleetSupervisor
from repro.service import (
    AlarmManager,
    DiskEvent,
    FleetConfig,
    FleetMonitor,
    MetricsRegistry,
    shard_of,
)

from tests.reference_loop import reference_process
from tests.runtime.conftest import zero_clock
from tests.service.conftest import same_forest

N_FEATURES = 3

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def scenarios(draw):
    """(stream, forest kwargs, predictor kwargs) of one generated case."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_disks = draw(st.integers(1, 8))
    n_events = draw(st.integers(1, 160))
    p_fail = draw(st.sampled_from([0.0, 0.03, 0.1]))
    rng = np.random.default_rng(seed)
    sick = rng.uniform(size=n_disks) < 0.4
    events = []
    for day in range(n_events):
        disk = int(rng.integers(n_disks))
        shift = 0.4 if sick[disk] else 0.0
        x = np.clip(rng.uniform(size=N_FEATURES) * 0.7 + shift, 0.0, 1.0)
        failed = bool(rng.uniform() < p_fail * (3.0 if sick[disk] else 1.0))
        if failed and rng.uniform() < 0.5:
            x = None  # death day without SMART data
        events.append((disk, x, failed, day))
    forest = dict(
        n_trees=draw(st.sampled_from([3, 8, 9])),
        n_tests=6,
        min_parent_size=draw(st.sampled_from([2.0, 4.0, 8.0])),
        min_gain=draw(st.sampled_from([0.0, 0.02, 0.1])),
        lambda_pos=1.0,
        lambda_neg=draw(st.sampled_from([0.3, 1.0])),
        oobe_threshold=draw(st.sampled_from([None, 0.02, 0.2])),
        age_threshold=draw(st.sampled_from([1.0, 6.0])),
        oobe_decay=0.3,
        oobe_min_observations=2,
        vote=draw(st.sampled_from(["soft", "hard"])),
        max_depth=4,
    )
    predictor = dict(
        queue_length=draw(st.integers(1, 4)),
        alarm_threshold=draw(st.sampled_from([0.0, 0.3, 0.5])),
        warmup_samples=draw(st.integers(0, 40)),
    )
    return events, forest, predictor


def build(forest, predictor, seed=5):
    return OnlineDiskFailurePredictor(
        OnlineRandomForest(N_FEATURES, seed=seed, **forest), **predictor
    )


def alarm_key(alarm):
    return (alarm.disk_id, alarm.tag, alarm.score)


def oracle(events, forest, predictor):
    """Alarms and final predictor of the per-event reference loop."""
    pred = build(forest, predictor)
    alarms = []
    for ev in events:
        alarm = reference_process(pred, *ev)
        if alarm is not None:
            alarms.append(alarm_key(alarm))
    return alarms, pred


def same_state(a, b):
    return (
        same_forest(a.forest, b.forest)
        and vars(a.stats) == vars(b.stats)
        and a.labeler.n_pending == b.labeler.n_pending
    )


@given(scenarios())
@settings(max_examples=25, **COMMON)
def test_process_batch_exact_equals_reference_loop(case):
    events, forest, predictor = case
    want, reference = oracle(events, forest, predictor)
    for bucket in (1, 7, 64):
        for tracer in (None, Tracer()):
            pred = build(forest, predictor)
            if tracer is not None:
                pred.tracer = pred.forest.tracer = tracer
            got = []
            for i in range(0, len(events), bucket):
                got += [
                    alarm_key(a)
                    for a in pred.process_batch(events[i:i + bucket], exact=True)
                    if a is not None
                ]
            assert got == want, (bucket, tracer)
            assert same_state(pred, reference), (bucket, tracer)


@given(scenarios())
@settings(max_examples=15, **COMMON)
def test_per_event_api_equals_reference_loop(case):
    """``process``, ``process_sample`` and ``process_failure`` are the
    one-event case of the kernel."""
    events, forest, predictor = case
    want, reference = oracle(events, forest, predictor)
    pred = build(forest, predictor)
    got = []
    for disk, x, failed, tag in events:
        if not failed:
            alarm = pred.process_sample(disk, x, tag)
        elif x is None:
            assert pred.process_failure(disk) >= 0
            alarm = None
        else:
            alarm = pred.process(disk, x, failed, tag)
        if alarm is not None:
            got.append(alarm_key(alarm))
    assert got == want
    assert same_state(pred, reference)


def fleet_config(forest, predictor, n_shards):
    return FleetConfig(
        n_features=N_FEATURES,
        n_shards=n_shards,
        seed=5,
        forest=forest,
        mode="exact",
        **predictor,
    )


def fleet_oracle(shards, events, n_shards):
    """Reference loop over copies of a fleet's fresh shards."""
    shards = copy.deepcopy(shards)
    alarms = []
    for ev in events:
        shard = shard_of(ev[0], n_shards)
        alarm = reference_process(shards[shard], *ev)
        if alarm is not None:
            alarms.append((shard,) + alarm_key(alarm))
    return alarms, shards


def replay_keys(fleet, events, batch):
    emitted = fleet.replay(
        [DiskEvent(d, x, failed=f, tag=t) for d, x, f, t in events],
        batch_size=batch,
    )
    return [(e.shard,) + alarm_key(e.alarm) for e in emitted]


def passthrough(registry):
    return AlarmManager(
        cooldown=0, escalate_after=None, resolve_after=None, registry=registry
    )


@given(scenarios(), st.sampled_from([1, 2]), st.sampled_from([1, 7, 64]))
@settings(max_examples=20, **COMMON)
def test_fleet_exact_equals_reference_loop(case, n_shards, batch):
    events, forest, predictor = case
    registry = MetricsRegistry()
    fleet = FleetMonitor.build(
        fleet_config(forest, predictor, n_shards),
        registry=registry,
        alarm_manager=passthrough(registry),
        clock=zero_clock,
    )
    want, shards = fleet_oracle(fleet.shards, events, n_shards)
    assert replay_keys(fleet, events, batch) == want
    for got, ref in zip(fleet.shards, shards):
        assert same_state(got, ref)


@given(case=scenarios())
@settings(max_examples=5, **COMMON)
def test_process_runtime_exact_equals_reference_loop(case, tmp_path_factory):
    events, forest, predictor = case
    config = fleet_config(forest, predictor, 2)
    registry = MetricsRegistry()
    inproc = FleetMonitor.build(config, registry=registry, clock=zero_clock)
    want, shards = fleet_oracle(inproc.shards, events, 2)
    registry = MetricsRegistry()
    with FleetSupervisor.build(
        config,
        registry=registry,
        alarm_manager=passthrough(registry),
        clock=zero_clock,
    ) as supervisor:
        assert replay_keys(supervisor, events, 7) == want
        directory = tmp_path_factory.mktemp("snapshots")
        supervisor.write_shard_snapshots(directory)
    for i, ref in enumerate(shards):
        assert same_forest(load_model(directory / f"shard{i}.npz").forest, ref.forest)
