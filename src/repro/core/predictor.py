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
        if not np.isfinite(arr).all():
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
        return self.process_batch([(disk_id, x, False, tag)], exact=True)[0]

    def process_failure(self, disk_id: Hashable) -> int:
        """Disk *disk_id* failed (Algorithm 2, lines 2-8).

        Flushes its queue as positive updates; returns how many positive
        samples were absorbed.
        """
        before = self.stats.n_updates_pos
        self.process_batch([(disk_id, None, True, None)], exact=True)
        return self.stats.n_updates_pos - before

    def process(
        self,
        disk_id: Hashable,
        x: Optional[np.ndarray],
        failed: bool,
        tag: object = None,
    ) -> Optional[Alarm]:
        """Unified entry point matching Algorithm 2's signature.

        ``failed=True`` is a disk failure (x may be None — a failed disk
        often reports nothing on its death day); otherwise a working
        sample.  The one-event case of ``process_batch(exact=True)``.
        """
        return self.process_batch([(disk_id, x, failed, tag)], exact=True)[0]

    def process_batch(
        self,
        events: Sequence[Tuple[Hashable, Optional[np.ndarray], bool, object]],
        *,
        exact: bool = False,
    ) -> List[Optional[Alarm]]:
        """Algorithm 2 over a bucket of ``(disk_id, x, failed, tag)`` rows.

        The labeler does not depend on the forest, so it runs over the
        whole bucket first, event by event: a working sample's released
        negative, then the sample itself as a score point; a failure's
        final snapshot (if any), then its queue flushed as positives.
        That yields the fit rows in release order and, per score point,
        its *cut* — how many fit rows the per-event loop folds before
        scoring it.  One :meth:`OnlineRandomForest.fit_score` call then
        folds and scores the whole bucket.

        ``exact=True`` keeps every cut, so alarms, scores and the forest
        are bit-identical to processing the events one at a time,
        whatever the bucket boundaries; the warmup gate sees the
        absorbed count at each cut.  ``exact=False`` (batch mode) moves
        every cut to the end: samples are scored against the post-bucket
        forest and the warmup gate sees the post-bucket count, so alarms
        near a model-state boundary can differ within one bucket.  The
        forest is the same in both modes.

        Every event is validated before any state changes, so a bad
        event rejects the whole bucket.  Returns one entry per event,
        aligned with the input (None for failures and quiet samples).
        """
        checked: List[Tuple[Hashable, Optional[np.ndarray], bool, object]] = []
        for disk_id, x, failed, tag in events:
            if x is not None:
                x = self._checked_vector(disk_id, x)
            elif not failed:
                raise ValueError("x is required for a working disk")
            checked.append((disk_id, x, failed, tag))

        fit_x: List[np.ndarray] = []
        fit_y: List[int] = []
        score_x: List[np.ndarray] = []
        score_at: List[Tuple[int, Hashable, object]] = []  # event, disk, tag
        cuts: List[int] = []  # fit rows released before each score point
        with self.tracer.span("predictor.labeler") as sp:
            for i, (disk_id, x, failed, tag) in enumerate(checked):
                # a failed disk's final snapshot is part of its last week
                # too, and the eviction it may cause is a real confirmed
                # negative (that sample's window elapsed before death)
                if x is not None:
                    for labeled in self.labeler.observe(disk_id, x, tag):
                        fit_x.append(labeled.x)
                        fit_y.append(0)
                if failed:
                    self.stats.n_failures += 1
                    for labeled in self.labeler.fail(disk_id):
                        fit_x.append(labeled.x)
                        fit_y.append(1)
                    continue
                self.stats.n_samples += 1
                score_x.append(x)
                score_at.append((i, disk_id, tag))
                cuts.append(len(fit_x))
            sp.items = len(fit_x)

        n_fit, d = len(fit_x), self.forest.n_features
        results: List[Optional[Alarm]] = [None] * len(events)
        if not n_fit and not score_x:
            return results
        if not exact:
            cuts = [n_fit] * len(cuts)
        scores = self.forest.fit_score(
            np.array(fit_x).reshape(n_fit, d),
            np.array(fit_y, dtype=np.int64),
            np.array(score_x).reshape(len(score_x), d),
            cuts,
        )
        absorbed = self.stats.n_updates_pos + self.stats.n_updates_neg
        n_pos = sum(fit_y)
        self.stats.n_updates_pos += n_pos
        self.stats.n_updates_neg += n_fit - n_pos
        for (i, disk_id, tag), cut, score in zip(score_at, cuts, scores):
            if score >= self.alarm_threshold and (
                absorbed + cut >= self.warmup_samples
            ):
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
