"""Serving-path tracing integration: coverage, determinism, consistency.

The tracing layer's two contracts against the live fleet:

* **zero interference** — with the default :data:`NULL_TRACER` (and even
  with a live tracer attached) the ingest results and final forest state
  are bit-identical to an untraced fleet under a fixed seed;
* **full coverage** — with a tracer attached, every serving stage shows
  up in the span stream *and* in ``repro_stage_latency_seconds``, and
  the counts agree with the alarm-lifecycle counters the stages wrap.
"""

import numpy as np
import pytest

from repro.obs import NULL_TRACER, STAGE_ITEMS_METRIC, Tracer, stage_summary
from repro.service import (
    AlarmManager,
    CheckpointRotator,
    FleetConfig,
    FleetMonitor,
    MetricsRegistry,
    shard_of,
)

from tests.service.conftest import FOREST_KW, make_events, same_forest

#: every stage the exact-mode serving path must traverse on a stream
#: containing working samples, released labels, and failures
EXACT_MODE_STAGES = {
    "fleet.ingest",
    "fleet.admit",
    "fleet.route",
    "fleet.shards",
    "fleet.lifecycle",
    # one labeler pass and one fused fold-and-score call per shard bucket
    "predictor.labeler",
    "forest.fit_score",
}


def build_fleet(tracer=None, registry=None, mode="exact", **kwargs):
    config = FleetConfig(
        n_features=4,
        n_shards=2,
        seed=11,
        forest=FOREST_KW,
        queue_length=3,
        alarm_threshold=0.4,
        mode=mode,
    )
    return FleetMonitor.build(
        config,
        alarm_manager=AlarmManager(
            cooldown=0, escalate_after=None, resolve_after=None,
            registry=registry,
        ),
        tracer=tracer,
        registry=registry,
        **kwargs,
    )


def replay(fleet, events, batch=32):
    emitted = []
    for start in range(0, len(events), batch):
        emitted.extend(fleet.ingest(events[start:start + batch]))
    return [(e.alarm.disk_id, e.alarm.tag, e.alarm.score) for e in emitted]


class TestZeroInterference:
    def test_default_tracer_is_shared_null(self):
        fleet = build_fleet()
        assert fleet.tracer is NULL_TRACER
        for shard in fleet.shards:
            assert shard.tracer is NULL_TRACER
            assert shard.forest.tracer is NULL_TRACER

    @pytest.mark.parametrize("live", [False, True])
    def test_ingest_bit_identical_with_and_without_tracer(self, live):
        """Tracing (off or on) must not perturb results: same alarms,
        same final forest bits."""
        events = make_events()
        baseline = build_fleet()
        base_alarms = replay(baseline, events)

        tracer = Tracer() if live else None
        traced = build_fleet(tracer=tracer)
        traced_alarms = replay(traced, events)

        assert traced_alarms == base_alarms
        for s_base, s_traced in zip(baseline.shards, traced.shards):
            assert same_forest(s_base.forest, s_traced.forest)
        if live:
            assert tracer.n_finished > 0

    def test_batch_mode_bit_identical_too(self):
        events = make_events()
        base = build_fleet(mode="batch")
        traced = build_fleet(mode="batch", tracer=Tracer())
        assert replay(base, events) == replay(traced, events)
        for s1, s2 in zip(base.shards, traced.shards):
            assert same_forest(s1.forest, s2.forest)


class TestStageCoverage:
    def test_every_exact_mode_stage_traced_and_metered(self, tmp_path):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        rotator = CheckpointRotator(tmp_path, every_samples=100)
        fleet = build_fleet(tracer=tracer, registry=registry, rotator=rotator)
        replay(fleet, make_events())

        stages = set(tracer.stage_names())
        expected = EXACT_MODE_STAGES | {"checkpoint.rotate"}
        assert expected <= stages, f"missing: {expected - stages}"

        # every traced stage also reached the latency histogram
        text = registry.render()
        for stage in expected:
            needle = f'repro_stage_latency_seconds_count{{stage="{stage}"}}'
            assert needle in text, stage

    @pytest.mark.parametrize("mode", ["exact", "batch"])
    def test_shard_stages_run_once_per_bucket(self, mode):
        """Both modes run a shard bucket as one labeler pass and one
        ``forest.fit_score`` call: no per-event or per-label spans."""
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        fleet = build_fleet(tracer=tracer, registry=registry, mode=mode)
        events = make_events()
        replay(fleet, events, batch=32)
        buckets = sum(
            len({shard_of(ev.disk_id, fleet.n_shards) for ev in batch})
            for batch in (events[i:i + 32] for i in range(0, len(events), 32))
        )
        summary = stage_summary(tracer.snapshot())
        counts = {
            stage: summary[stage]["count"]
            for stage in ("predictor.labeler", "forest.fit_score")
        }
        assert counts == {"predictor.labeler": buckets, "forest.fit_score": buckets}
        stages = set(tracer.stage_names())
        assert not stages & {"forest.fit", "forest.predict"}, stages

    def test_rotator_inherits_fleet_tracer(self, tmp_path):
        tracer = Tracer()
        rotator = CheckpointRotator(tmp_path, every_samples=10_000)
        build_fleet(tracer=tracer, rotator=rotator)
        assert rotator.tracer is tracer

    def test_batch_mode_uses_vectorized_predict_stage(self):
        tracer = Tracer()
        fleet = build_fleet(tracer=tracer, mode="batch")
        replay(fleet, make_events())
        stages = set(tracer.stage_names())
        # batch mode scores every sample at the end of the bucket's
        # fused call, through one vectorized predict per tree
        assert "forest.fit_score" in stages
        assert "predictor.labeler" in stages


class TestCounterConsistency:
    def test_stage_items_match_stream_and_alarm_counters(self):
        """The numbers must line up three ways: the event stream, the
        ``repro_stage_items_total`` stage counters, and the alarm
        lifecycle counters for the decisions the lifecycle stage made."""
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        fleet = build_fleet(tracer=tracer, registry=registry)
        events = make_events()
        alarms = replay(fleet, events)

        # ingest saw every event exactly once
        assert registry.value(
            STAGE_ITEMS_METRIC, {"stage": "fleet.ingest"}
        ) == len(events)

        # with cooldown=0 passthrough, every emitted alarm is a RAISED
        # lifecycle decision — the counter the lifecycle span wraps
        assert registry.value("repro_alarms_raised_total") == len(alarms)
        assert fleet.alarms.counts["raised"] == len(alarms)

        # the lifecycle stage processed every accepted event's result
        # (failure events flow through it too, as non-alarm results)
        summary = stage_summary(tracer.snapshot())
        assert summary["fleet.lifecycle"]["items"] == len(events)

    def test_span_ring_overflow_keeps_metrics_whole(self):
        """Metrics aggregate past the ring: a tiny max_spans must not
        lose histogram counts."""
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, max_spans=8)
        fleet = build_fleet(tracer=tracer, registry=registry)
        events = make_events()
        replay(fleet, events)
        assert len(tracer.snapshot()) == 8
        assert registry.value(
            STAGE_ITEMS_METRIC, {"stage": "fleet.ingest"}
        ) == len(events)
