"""The benchmark's input stream, its warm checkpoint, and alarm quality.

Every invocation generates its stream from ``--seed`` and warms a fleet
on the stream's head with the code under test, so the checkpoint format
can change between commits without a stale file breaking the restore.
The warm-up runs in a forked child (:func:`prepare`) so that generating
the dataset does not count towards the serving processes' peak RSS.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

#: forest shape of every workload: small enough to warm in seconds,
#: large enough to grow real trees on the head of the stream
FOREST = {
    "n_trees": 8,
    "n_tests": 20,
    "min_parent_size": 60,
    "min_gain": 0.05,
    "lambda_pos": 1.0,
    "lambda_neg": 0.1,
}

#: batch size of the head replay that warms the checkpoint
WARM_BATCH = 256


@dataclass(frozen=True)
class Size:
    """Stream size and the guards that keep its metrics meaningful."""

    fleet_scale: float
    months: int
    sample_every_days: int
    head_share: float
    #: leading share of the tail that every repetition streams and times
    timed_share: float
    min_failed_disks: int
    min_healthy_disks: int


SIZES = {
    # STB at half scale over 20 months: ~36.5k events, ~390 disks and
    # ~130 failures, of which the tail holds dozens; a third of the
    # tail (~4.9k events) is timed, so each batch is timed ~30 times
    "full": Size(0.5, 20, 4, 0.6, 1 / 3, 20, 100),
    # plumbing check for the self-test: seconds to run, too few disks
    # for the alarm fractions to mean much
    "tiny": Size(0.04, 4, 4, 0.5, 0.5, 1, 5),
}


def alarm_manager(registry: Any) -> Any:
    """Raw pass-through lifecycle: every predictor alarm is emitted.

    ``cooldown=0`` makes the emitted stream the predictor's own alarms,
    so per-disk FDR/FAR are the §4.3 metrics rather than a count of
    deduplicated pages.
    """
    from repro.service import AlarmManager

    return AlarmManager(cooldown=0, registry=registry)


def _generate(size: Size, seed: int) -> Tuple[Any, Dict[int, int]]:
    from repro.eval.protocol import prepare_arrays
    from repro.features.selection import FeatureSelection
    from repro.smart.drive_model import STB, scaled_spec
    from repro.smart.generator import generate_dataset

    spec = scaled_spec(
        STB, fleet_scale=size.fleet_scale, duration_months=size.months
    )
    dataset = generate_dataset(
        spec, seed=seed, sample_every_days=size.sample_every_days
    )
    arrays, _ = prepare_arrays(dataset, FeatureSelection.paper_table2())
    fail_day = {d.serial: d.fail_day for d in dataset.drives if d.failed}
    return arrays, fail_day


def _warm(size: Size, seed: int, n_shards: int, work: Path) -> None:
    """Child body: generate, warm on the head, checkpoint, save the tail."""
    from repro.service import (
        CheckpointRotator,
        FleetConfig,
        FleetMonitor,
        MetricsRegistry,
        fleet_events,
    )

    arrays, fail_day = _generate(size, seed)
    events = list(fleet_events(arrays, fail_day))
    cut_day = int(events[int(len(events) * size.head_share)].tag)
    head = [ev for ev in events if ev.tag < cut_day]
    tail = [ev for ev in events if ev.tag >= cut_day]

    registry = MetricsRegistry()
    fleet = FleetMonitor.build(
        FleetConfig(
            n_features=arrays.n_features,
            n_shards=n_shards,
            seed=seed,
            forest=dict(FOREST),
            mode="batch",
        ),
        registry=registry,
        alarm_manager=alarm_manager(registry),
        strict=False,
    )
    for start in range(0, len(head), WARM_BATCH):
        fleet.ingest(head[start:start + WARM_BATCH])
    published = CheckpointRotator(work / "warm", every_samples=1).rotate(fleet)

    rows = np.flatnonzero(arrays.days >= cut_day)
    np.savez(
        work / "tail.npz",
        checkpoint=np.array(str(published)),
        disk_id=np.array([ev.disk_id for ev in tail], dtype=np.int64),
        failed=np.array([ev.failed for ev in tail], dtype=bool),
        tag=np.array([ev.tag for ev in tail], dtype=np.int64),
        has_x=np.array([ev.x is not None for ev in tail], dtype=bool),
        x=np.array(
            [
                ev.x if ev.x is not None else np.zeros(arrays.n_features)
                for ev in tail
            ]
        ),
        eval_serials=arrays.serials[rows],
        eval_days=arrays.days[rows],
        eval_detect=arrays.detection_mask()[rows],
        eval_false_alarm=arrays.false_alarm_mask()[rows],
    )


@dataclass
class Stream:
    """The held-out tail and everything needed to score its alarms."""

    checkpoint: Path
    events: List[Any]
    eval_serials: np.ndarray
    eval_days: np.ndarray
    eval_detect: np.ndarray
    eval_false_alarm: np.ndarray


def prepare(size: Size, seed: int, n_shards: int, work: Path) -> Stream:
    """Warm a checkpoint in a forked child; load the tail it left."""
    from repro.service import DiskEvent

    child = multiprocessing.get_context("fork").Process(
        target=_warm, args=(size, seed, n_shards, work), name="perfbench-warm"
    )
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"warm-up child exited with {child.exitcode}")
    with np.load(work / "tail.npz") as z:
        events = [
            DiskEvent(
                disk_id=int(d),
                x=x if has_x else None,
                failed=bool(f),
                tag=int(t),
            )
            for d, x, has_x, f, t in zip(
                z["disk_id"], z["x"], z["has_x"], z["failed"], z["tag"]
            )
        ]
        return Stream(
            checkpoint=Path(str(z["checkpoint"])),
            events=events,
            eval_serials=z["eval_serials"],
            eval_days=z["eval_days"],
            eval_detect=z["eval_detect"],
            eval_false_alarm=z["eval_false_alarm"],
        )


class DegenerateStream(RuntimeError):
    """The tail holds too few disks of a class for a rate to mean anything."""


def alarm_quality(
    stream: Stream, alarmed: Sequence[Tuple[int, int]], size: Size
) -> Any:
    """Per-disk FDR/FAR (§4.3) of the emitted ``(disk_id, day)`` alarms.

    Raises :exc:`DegenerateStream` when the tail holds fewer failed or
    healthy disks than *size* requires.
    """
    from repro.eval.metrics import disk_level_rates

    hit = set(alarmed)
    scores = np.array(
        [
            1.0 if (int(s), int(d)) in hit else 0.0
            for s, d in zip(stream.eval_serials, stream.eval_days)
        ]
    )
    counts = disk_level_rates(
        scores,
        stream.eval_serials,
        stream.eval_detect,
        stream.eval_false_alarm,
        0.5,
    )
    if (
        counts.n_failed < size.min_failed_disks
        or counts.n_good < size.min_healthy_disks
    ):
        raise DegenerateStream(
            f"tail holds {counts.n_failed} failed and {counts.n_good} "
            f"healthy disks; alarm rates need at least "
            f"{size.min_failed_disks} and {size.min_healthy_disks}"
        )
    return counts
