"""Tests for the Algorithm-2 streaming monitor."""

import numpy as np
import pytest

from repro.core.forest import OnlineRandomForest
from repro.core.predictor import OnlineDiskFailurePredictor

from tests.reference_loop import reference_process


def make_predictor(**kwargs):
    forest = OnlineRandomForest(
        4,
        n_trees=8,
        n_tests=25,
        min_parent_size=40,
        min_gain=0.03,
        lambda_pos=1.0,
        lambda_neg=0.2,
        seed=0,
    )
    defaults = dict(queue_length=3, alarm_threshold=0.6)
    defaults.update(kwargs)
    return OnlineDiskFailurePredictor(forest, **defaults)


def healthy_x(rng):
    return rng.uniform(0.0, 0.4, size=4)


def sick_x(rng):
    return rng.uniform(0.7, 1.0, size=4)


class TestUpdatePhase:
    def test_negatives_flow_into_forest(self):
        pred = make_predictor()
        rng = np.random.default_rng(0)
        for _ in range(10):
            pred.process_sample("d1", healthy_x(rng))
        # queue_length 3 → first 3 pending, 7 released as negatives
        assert pred.stats.n_updates_neg == 7
        assert pred.forest.n_samples_seen == 7

    def test_failure_flushes_positives(self):
        pred = make_predictor()
        rng = np.random.default_rng(0)
        for _ in range(3):
            pred.process_sample("d1", sick_x(rng))
        n = pred.process_failure("d1")
        assert n == 3
        assert pred.stats.n_updates_pos == 3
        assert pred.stats.n_failures == 1

    def test_process_combined_routes(self):
        pred = make_predictor()
        rng = np.random.default_rng(0)
        pred.process("d1", healthy_x(rng), failed=False)
        pred.process("d1", sick_x(rng), failed=True)  # final snapshot + failure
        assert pred.stats.n_failures == 1
        assert pred.stats.n_updates_pos == 2  # both queued samples flushed

    def test_process_requires_x_for_working_disk(self):
        pred = make_predictor()
        with pytest.raises(ValueError):
            pred.process("d1", None, failed=False)

    def test_failure_without_final_snapshot(self):
        pred = make_predictor()
        rng = np.random.default_rng(0)
        pred.process_sample("d1", sick_x(rng))
        pred.process("d1", None, failed=True)
        assert pred.stats.n_updates_pos == 1

    def test_failure_of_unknown_disk_absorbs_nothing(self):
        pred = make_predictor()
        assert pred.process_failure("never-seen") == 0
        assert pred.stats.n_failures == 1
        assert pred.stats.n_updates_pos == 0
        assert pred.forest.n_samples_seen == 0

    def test_death_day_eviction_is_a_confirmed_negative(self):
        # a full queue at death: the final snapshot evicts the oldest
        # sample, whose window elapsed before the failure
        pred = make_predictor(queue_length=2)
        rng = np.random.default_rng(0)
        pred.process_sample("d1", healthy_x(rng))
        pred.process_sample("d1", healthy_x(rng))
        pred.process("d1", sick_x(rng), failed=True)
        assert pred.stats.n_updates_neg == 1
        assert pred.stats.n_updates_pos == 2


class TestAlarms:
    def _train(self, pred, n_disks=40, rng=None):
        """Simulate a fleet where high-feature disks die."""
        rng = rng or np.random.default_rng(1)
        for d in range(n_disks):
            disk = f"h{d}"
            for _ in range(8):
                pred.process_sample(disk, healthy_x(rng))
        for d in range(25):
            disk = f"s{d}"
            for _ in range(3):
                pred.process_sample(disk, sick_x(rng))
            pred.process_failure(disk)

    def test_risky_disk_raises_alarm(self):
        pred = make_predictor(alarm_threshold=0.6)
        rng = np.random.default_rng(1)
        self._train(pred, rng=rng)
        alarm = pred.process_sample("new-sick", sick_x(rng))
        assert alarm is not None
        assert alarm.score >= 0.6
        assert alarm.disk_id == "new-sick"

    def test_healthy_disk_quiet(self):
        pred = make_predictor(alarm_threshold=0.6)
        rng = np.random.default_rng(1)
        self._train(pred, rng=rng)
        before = pred.stats.n_alarms
        for _ in range(5):
            pred.process_sample("new-healthy", healthy_x(rng))
        # allow at most incidental noise alarms
        assert pred.stats.n_alarms - before <= 1

    def test_warmup_suppresses_early_alarms(self):
        pred = make_predictor(alarm_threshold=0.0, warmup_samples=10**9)
        rng = np.random.default_rng(1)
        self._train(pred, rng=rng)
        assert pred.stats.n_alarms == 0

    def test_alarm_recording_toggle(self):
        pred = make_predictor(alarm_threshold=0.0, record_alarms=False)
        rng = np.random.default_rng(1)
        self._train(pred, rng=rng)
        assert pred.stats.n_alarms > 0
        assert pred.stats.alarms == []

    def test_alarm_tags_carried(self):
        pred = make_predictor(alarm_threshold=0.0)
        rng = np.random.default_rng(1)
        self._train(pred, rng=rng)
        alarm = pred.process_sample("x", sick_x(rng), tag="day-42")
        assert alarm is not None and alarm.tag == "day-42"


class TestWarmupBoundary:
    def test_alarm_fires_exactly_at_warmup_samples(self):
        """The gate is ``n_absorbed >= warmup_samples``: the first sample
        scored after the count reaches the threshold may alarm."""
        pred = make_predictor(
            queue_length=1, alarm_threshold=0.0, warmup_samples=3
        )
        rng = np.random.default_rng(0)
        # queue_length=1: sample k+1 releases sample k, so absorbed
        # count when scoring sample n is exactly n-1
        for n in range(1, 4):  # absorbed = 0, 1, 2 -> still warming up
            assert pred.process_sample("d1", healthy_x(rng)) is None
        # 4th sample: absorbed = 3 == warmup_samples -> alarms (thr 0.0)
        assert pred.process_sample("d1", healthy_x(rng)) is not None
        assert pred.stats.n_alarms == 1

    def test_warmup_zero_alarms_immediately(self):
        pred = make_predictor(alarm_threshold=0.0, warmup_samples=0)
        rng = np.random.default_rng(0)
        assert pred.process_sample("d1", healthy_x(rng)) is not None


class TestAlarmRingBuffer:
    def _flood(self, pred, n=20):
        rng = np.random.default_rng(0)
        for i in range(n):
            pred.process_sample("d1", healthy_x(rng), tag=i)

    def test_ring_keeps_only_most_recent(self):
        pred = make_predictor(alarm_threshold=0.0, max_recorded_alarms=5)
        self._flood(pred, n=20)
        assert pred.stats.n_alarms == 20  # counter sees everything
        assert len(pred.stats.alarms) == 5
        assert [a.tag for a in pred.stats.alarms] == [15, 16, 17, 18, 19]

    def test_unbounded_by_default(self):
        pred = make_predictor(alarm_threshold=0.0)
        self._flood(pred, n=20)
        assert len(pred.stats.alarms) == 20
        assert isinstance(pred.stats.alarms, list)

    def test_zero_cap_rejected(self):
        with pytest.raises(ValueError):
            make_predictor(max_recorded_alarms=0)

    def test_cap_ignored_when_recording_off(self):
        pred = make_predictor(
            alarm_threshold=0.0, record_alarms=False, max_recorded_alarms=5
        )
        self._flood(pred, n=10)
        assert pred.stats.alarms == []


class TestProcessBatch:
    def _events(self, n_disks=6, n_days=30, seed=3, fail=None):
        rng = np.random.default_rng(seed)
        fail = {0: 20, 1: 25} if fail is None else fail
        events = []
        for day in range(n_days):
            for disk in range(n_disks):
                fd = fail.get(disk)
                if fd is not None and day > fd:
                    continue
                x = rng.uniform(0.6, 1.0, 4) if disk in fail else rng.uniform(0.0, 0.4, 4)
                events.append((disk, x, fd == day, day))
        return events

    def test_forest_bit_identical_to_per_sample_loop(self):
        from tests.service.conftest import same_forest

        events = self._events()
        exact = make_predictor()
        batched = make_predictor()
        for disk, x, failed, tag in events:
            reference_process(exact, disk, x, failed, tag)
        for i in range(0, len(events), 13):
            batched.process_batch(events[i : i + 13])

        assert same_forest(exact.forest, batched.forest)
        # labeler and counters advanced identically too
        assert exact.stats.n_updates_neg == batched.stats.n_updates_neg
        assert exact.stats.n_updates_pos == batched.stats.n_updates_pos
        assert exact.stats.n_samples == batched.stats.n_samples
        assert exact.stats.n_failures == batched.stats.n_failures
        assert exact.labeler.n_pending == batched.labeler.n_pending

    def test_three_paths_identical_through_replacements(self):
        """Per-sample loop, micro-batches and one exact ``partial_fit`` of
        the released labels leave the same forest, even when trees are
        replaced in the middle of a batch."""
        from tests.service.conftest import same_forest

        def decaying():
            forest = OnlineRandomForest(
                4, n_trees=4, n_tests=10, min_parent_size=20, min_gain=0.01,
                lambda_pos=1.0, lambda_neg=0.3, oobe_threshold=0.01,
                age_threshold=5, oobe_decay=0.1, oobe_min_observations=3,
                seed=7,
            )
            return OnlineDiskFailurePredictor(forest, queue_length=3)

        events = self._events(
            n_disks=12, n_days=60, seed=5, fail={0: 20, 1: 25, 2: 40, 3: 55}
        )
        exact = decaying()
        released = []
        for disk, x, failed, tag in events:
            reference_process(
                exact, disk, x, failed, tag,
                on_update=lambda x, y: released.append((np.array(x), y)),
            )
        batched = decaying()
        for i in range(0, len(events), 17):
            batched.process_batch(events[i : i + 17])
        fitted = decaying().forest.partial_fit(
            np.stack([x for x, _ in released]),
            np.array([y for _, y in released]),
        )

        assert exact.forest.n_replacements > 0, "fixture must replace trees"
        assert same_forest(exact.forest, batched.forest)
        assert same_forest(exact.forest, fitted)

    def test_results_aligned_with_events(self):
        pred = make_predictor(alarm_threshold=0.0)
        rng = np.random.default_rng(0)
        events = [
            ("a", healthy_x(rng), False, 0),
            ("b", healthy_x(rng), False, 0),
            ("a", None, True, 1),
            ("b", healthy_x(rng), False, 1),
        ]
        results = pred.process_batch(events)
        assert len(results) == 4
        assert results[2] is None  # failures never alarm
        assert results[3] is not None and results[3].disk_id == "b"

    def test_requires_x_for_working_disk(self):
        pred = make_predictor()
        with pytest.raises(ValueError):
            pred.process_batch([("a", None, False, 0)])


class TestValidation:
    def test_threshold_range(self):
        forest = OnlineRandomForest(4, n_trees=2, seed=0)
        with pytest.raises(ValueError):
            OnlineDiskFailurePredictor(forest, alarm_threshold=1.5)

    def test_warmup_nonnegative(self):
        forest = OnlineRandomForest(4, n_trees=2, seed=0)
        with pytest.raises(ValueError):
            OnlineDiskFailurePredictor(forest, warmup_samples=-1)

    def test_monitored_disk_count(self):
        pred = make_predictor()
        rng = np.random.default_rng(0)
        pred.process_sample("a", healthy_x(rng))
        pred.process_sample("b", healthy_x(rng))
        assert pred.n_monitored_disks == 2
