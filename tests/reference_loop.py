"""Reference per-event loop of Algorithms 1 and 2, for equivalence tests.

The library runs Algorithm 2 as a bucket kernel: the labeler pass over
a whole bucket, then one ``OnlineRandomForest.fit_score`` call that
folds every released label and scores every sample in between.  This
module is the plain per-event loop that kernel must reproduce bit for
bit, written against the tree, tracker and labeler primitives only:

* :func:`reference_update` is Algorithm 1 for one label: per slot, one
  scalar Poisson draw, ``k`` in-bag folds or one out-of-bag routing
  through the *interpreted* tree, an OOBE update, and the decay rule
  with a replacement seeded from the slot's stream;
* :func:`reference_score` scores one sample tree by tree through the
  interpreted tree and sums the ``(T, 1)`` column;
* :func:`reference_process` is one event of Algorithm 2 on a predictor's
  labeler, forest and counters: release, update, then score.

None of it goes through the forest's kernel, its compiled snapshots or
its executor, so agreement is evidence, not a tautology.
"""

from typing import Callable, Hashable, Optional

import numpy as np

from repro.core.online_tree import OnlineDecisionTree
from repro.core.predictor import Alarm, OnlineDiskFailurePredictor


def reference_update(forest, x, y: int) -> None:
    """Fold one labeled sample into *forest*, tree by tree."""
    x = np.asarray(x, dtype=np.float64)
    lam = forest.lambda_pos if y == 1 else forest.lambda_neg
    forest.n_samples_seen += 1
    for slot in forest.slots:
        k = slot.rng.poisson(lam)
        if k > 0:
            for _ in range(k):
                slot.tree.update(x, y)
            continue
        pred = 1 if slot.tree._predict_one_interpreted(x) > 0.5 else 0
        slot.tracker.observe(y, pred)
        if forest.oobe_threshold is not None and slot.tracker.is_decayed(
            slot.tree.age,
            oobe_threshold=forest.oobe_threshold,
            age_threshold=forest.age_threshold,
        ):
            seed = int(slot.rng.integers(0, 2**63))
            slot.tree = OnlineDecisionTree(seed=seed, **forest._tree_params())
            slot.tracker.reset()
            forest.n_replacements += 1


def reference_score(forest, x) -> float:
    """The forest's score of one sample: per-tree posteriors (or votes)
    summed as a ``(T, 1)`` column, divided by T."""
    x = np.asarray(x, dtype=np.float64)
    p = np.empty((forest.n_trees, 1), dtype=np.float64)
    for i, slot in enumerate(forest.slots):
        s = slot.tree._predict_one_interpreted(x)
        p[i, 0] = (1.0 if s > 0.5 else 0.0) if forest.vote == "hard" else s
    return float(np.sum(p, axis=0)[0] / forest.n_trees)


def reference_process(
    pred: OnlineDiskFailurePredictor,
    disk_id: Hashable,
    x: Optional[np.ndarray],
    failed: bool,
    tag: object = None,
    on_update: Optional[Callable[[np.ndarray, int], None]] = None,
) -> Optional[Alarm]:
    """One event of Algorithm 2 on *pred*'s state; returns its alarm.

    *on_update* sees every released label, in release order.
    """
    forest, labeler, stats = pred.forest, pred.labeler, pred.stats

    def fold(released, y: int) -> None:
        for labeled in released:
            if on_update is not None:
                on_update(labeled.x, y)
            reference_update(forest, labeled.x, y)
            if y == 1:
                stats.n_updates_pos += 1
            else:
                stats.n_updates_neg += 1

    if failed:
        if x is not None:
            fold(labeler.observe(disk_id, np.asarray(x, dtype=np.float64), tag), 0)
        stats.n_failures += 1
        fold(labeler.fail(disk_id), 1)
        return None
    x = np.asarray(x, dtype=np.float64)
    stats.n_samples += 1
    fold(labeler.observe(disk_id, x, tag), 0)
    score = reference_score(forest, x)
    absorbed = stats.n_updates_pos + stats.n_updates_neg
    if score >= pred.alarm_threshold and absorbed >= pred.warmup_samples:
        alarm = Alarm(disk_id, float(score), tag)
        stats.n_alarms += 1
        if pred.record_alarms:
            stats.alarms.append(alarm)
        return alarm
    return None
