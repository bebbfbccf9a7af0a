"""The streaming disk-failure monitor — Algorithm 2 of the paper.

:class:`OnlineDiskFailurePredictor` wires together the automatic online
labeler (Figure 1) and the Online Random Forest (Algorithm 1): every
incoming SMART sample first releases any newly labeled samples into the
forest (model-update phase), then is scored itself (prediction phase); a
score above the alarm threshold raises an :class:`Alarm` recommending
data migration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.forest import OnlineRandomForest
from repro.core.labeler import OnlineLabeler
from repro.obs.tracing import NULL_TRACER, NullTracer
from repro.utils.validation import check_probability


@dataclass(frozen=True)
class Alarm:
    """A positive prediction for a live disk."""

    disk_id: Hashable
    score: float
    tag: object = None


@dataclass
class PredictorStats:
    """Lifetime counters of the monitor."""

    n_samples: int = 0
    n_failures: int = 0
    n_alarms: int = 0
    n_updates_pos: int = 0
    n_updates_neg: int = 0
    alarms: List[Alarm] = field(default_factory=list)


class OnlineDiskFailurePredictor:
    """End-to-end online monitor (Algorithm 2).

    Parameters
    ----------
    forest:
        The ORF model to evolve (constructed by the caller so all
        hyper-parameters stay in one place).
    queue_length:
        The labeler's per-disk window (7 daily samples in the paper).
    alarm_threshold:
        Score at/above which a live disk is declared risky.  Tune with
        :func:`repro.eval.threshold.threshold_for_far` to pin FAR.
    warmup_samples:
        Suppress alarms until the forest has absorbed this many labeled
        samples (a brand-new model's scores are noise).
    record_alarms:
        Keep every alarm on :attr:`stats` (handy in notebooks; switch off
        for unbounded streams).
    max_recorded_alarms:
        When set (and ``record_alarms`` is on), :attr:`stats.alarms`
        becomes a ring buffer holding only the most recent alarms, so a
        months-long replay cannot grow memory without bound.
    """

    def __init__(
        self,
        forest: OnlineRandomForest,
        *,
        queue_length: int = 7,
        alarm_threshold: float = 0.5,
        warmup_samples: int = 0,
        record_alarms: bool = True,
        max_recorded_alarms: Optional[int] = None,
    ) -> None:
        check_probability(alarm_threshold, "alarm_threshold")
        if warmup_samples < 0:
            raise ValueError("warmup_samples must be >= 0")
        if max_recorded_alarms is not None and max_recorded_alarms <= 0:
            raise ValueError("max_recorded_alarms must be > 0 or None")
        self.forest = forest
        self.labeler = OnlineLabeler(queue_length)
        self.alarm_threshold = float(alarm_threshold)
        self.warmup_samples = int(warmup_samples)
        self.record_alarms = record_alarms
        self.max_recorded_alarms = max_recorded_alarms
        self.stats = PredictorStats()
        if record_alarms and max_recorded_alarms is not None:
            self.stats.alarms = deque(maxlen=max_recorded_alarms)
        #: stage tracer for the Algorithm-2 hot path (labeler release,
        #: forest update, scoring); the no-op default costs nothing and
        #: keeps the stream bit-identical
        self.tracer: NullTracer = NULL_TRACER

    # ----------------------------------------------------------------- events
    def _checked_vector(self, disk_id: Hashable, x: Union[np.ndarray, Sequence[float]]) -> np.ndarray:
        """Validate one SMART vector *before* any state mutates.

        A wrong-dimension or NaN/Inf vector used to surface as a cryptic
        numpy error deep inside the forest — after the labeler had
        already queued it, leaving the monitor half-mutated.  Rejecting
        it here keeps every predictor entry point all-or-nothing.
        """
        try:
            arr = np.asarray(x, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"disk {disk_id!r}: sample is not a numeric vector: {exc}"
            ) from None
        expected = (int(self.forest.n_features),)
        if arr.shape != expected:
            raise ValueError(
                f"disk {disk_id!r}: expected a SMART vector of shape "
                f"{expected}, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(
                f"disk {disk_id!r}: SMART vector contains NaN/Inf values"
            )
        return arr

    def process_sample(
        self, disk_id: Hashable, x: np.ndarray, tag: object = None
    ) -> Optional[Alarm]:
        """A working disk reported a SMART sample (Algorithm 2, lines 10-22).

        Model-update phase: the labeler may release one confirmed
        negative, which updates the forest.  Prediction phase: the fresh
        sample is scored; returns an :class:`Alarm` if risky, else None.
        """
        x = self._checked_vector(disk_id, x)
        self.stats.n_samples += 1
        with self.tracer.span("predictor.labeler") as sp:
            released = self.labeler.observe(disk_id, x, tag)
            sp.items = len(released)
        if released:
            with self.tracer.span(
                "predictor.forest_update", items=len(released)
            ):
                for labeled in released:
                    self.forest.update(labeled.x, labeled.y)
                    self.stats.n_updates_neg += 1

        with self.tracer.span("predictor.predict", items=1):
            score = self.forest.predict_one(x)
        n_absorbed = self.stats.n_updates_pos + self.stats.n_updates_neg
        if score >= self.alarm_threshold and n_absorbed >= self.warmup_samples:
            alarm = Alarm(disk_id, float(score), tag)
            self.stats.n_alarms += 1
            if self.record_alarms:
                self.stats.alarms.append(alarm)
            return alarm
        return None

    def process_failure(self, disk_id: Hashable) -> int:
        """Disk *disk_id* failed (Algorithm 2, lines 2-8).

        Flushes its queue as positive updates; returns how many positive
        samples were absorbed.
        """
        self.stats.n_failures += 1
        with self.tracer.span("predictor.labeler") as sp:
            released = self.labeler.fail(disk_id)
            sp.items = len(released)
        if released:
            with self.tracer.span(
                "predictor.forest_update", items=len(released)
            ):
                for labeled in released:
                    self.forest.update(labeled.x, labeled.y)
                    self.stats.n_updates_pos += 1
        return len(released)

    def process(
        self,
        disk_id: Hashable,
        x: Optional[np.ndarray],
        failed: bool,
        tag: object = None,
    ) -> Optional[Alarm]:
        """Unified entry point matching Algorithm 2's signature.

        ``failed=True`` routes to :meth:`process_failure` (x may be
        None — a failed disk often reports nothing on its death day);
        otherwise to :meth:`process_sample`.
        """
        if failed:
            if x is not None:
                # final snapshot exists: it is part of the last week too,
                # and the eviction it may cause is a real confirmed
                # negative (that sample's window elapsed before death)
                x = self._checked_vector(disk_id, x)
                with self.tracer.span("predictor.labeler") as sp:
                    released = self.labeler.observe(disk_id, x, tag)
                    sp.items = len(released)
                if released:
                    with self.tracer.span(
                        "predictor.forest_update", items=len(released)
                    ):
                        for labeled in released:
                            self.forest.update(labeled.x, labeled.y)
                            self.stats.n_updates_neg += 1
            self.process_failure(disk_id)
            return None
        if x is None:
            raise ValueError("x is required for a working disk")
        return self.process_sample(disk_id, x, tag)

    def process_batch(
        self,
        events: Sequence[Tuple[Hashable, Optional[np.ndarray], bool, object]],
    ) -> List[Optional[Alarm]]:
        """Micro-batched Algorithm 2 over ``(disk_id, x, failed, tag)`` rows.

        The labeler runs event by event (so queue semantics are exact),
        the released labels are folded with *one* ``partial_fit`` call in
        release order, and all working samples are scored with *one*
        ``predict_score`` call — routing every tree through the
        vectorized batch path and the forest's executor.  The resulting
        **forest state is bit-identical** to processing the events one
        at a time: ``update`` and exact ``partial_fit`` run one kernel,
        which consumes each slot's RNG stream in per-sample order, the
        seeds of trees replaced mid-batch included.

        What relaxes is scoring: every sample in the batch is scored
        against the forest *after* all of the batch's updates (the
        per-sample loop scores each sample mid-batch), and the warmup
        gate sees the post-batch absorbed count — so alarms near a
        model-state boundary can differ within one batch.  Returns one
        entry per event, aligned with the input (None for failures and
        quiet samples).
        """
        updates: List[Tuple[np.ndarray, int]] = []
        to_score: List[Tuple[int, Hashable, np.ndarray, object]] = []
        n_pos = n_neg = 0
        with self.tracer.span("predictor.labeler", items=len(events)):
            for i, (disk_id, x, failed, tag) in enumerate(events):
                if failed:
                    if x is not None:
                        x = self._checked_vector(disk_id, x)
                        for labeled in self.labeler.observe(disk_id, x, tag):
                            updates.append((labeled.x, 0))
                            n_neg += 1
                    self.stats.n_failures += 1
                    for labeled in self.labeler.fail(disk_id):
                        updates.append((labeled.x, 1))
                        n_pos += 1
                    continue
                if x is None:
                    raise ValueError("x is required for a working disk")
                x = self._checked_vector(disk_id, x)
                self.stats.n_samples += 1
                for labeled in self.labeler.observe(disk_id, x, tag):
                    updates.append((labeled.x, 0))
                    n_neg += 1
                to_score.append((i, disk_id, x, tag))

        if updates:
            with self.tracer.span(
                "predictor.forest_update", items=len(updates)
            ):
                self.forest.partial_fit(
                    np.stack([u[0] for u in updates]),
                    np.array([u[1] for u in updates], dtype=np.int64),
                )
            self.stats.n_updates_pos += n_pos
            self.stats.n_updates_neg += n_neg

        results: List[Optional[Alarm]] = [None] * len(events)
        if to_score:
            with self.tracer.span("predictor.predict", items=len(to_score)):
                scores = self.forest.predict_score(
                    np.stack([row[2] for row in to_score])
                )
            n_absorbed = self.stats.n_updates_pos + self.stats.n_updates_neg
            warm = n_absorbed >= self.warmup_samples
            for (i, disk_id, _x, tag), score in zip(to_score, scores):
                if warm and score >= self.alarm_threshold:
                    alarm = Alarm(disk_id, float(score), tag)
                    self.stats.n_alarms += 1
                    if self.record_alarms:
                        self.stats.alarms.append(alarm)
                    results[i] = alarm
        return results

    # --------------------------------------------------------------- serving
    def compile(self) -> "OnlineDiskFailurePredictor":
        """Warm the forest's compiled inference snapshots; returns self.

        Scoring compiles lazily on first use — this just front-loads the
        work (e.g. right after a checkpoint restore) so the first scored
        sample pays no materialization cost.  Representation-only.
        """
        self.forest.compile()
        return self

    # ------------------------------------------------------------- inspection
    @property
    def n_monitored_disks(self) -> int:
        """Disks currently holding a labeling queue."""
        return self.labeler.n_disks
