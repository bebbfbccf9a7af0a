"""Out-of-bag-error tracking and the tree-decay rule.

Whenever a sample's k draw is 0 for a tree, that sample is out-of-bag for
the tree: the tree predicts it, and the outcome feeds this tracker
(Algorithm 1, lines 21–27).  A tree is *decayed* — and gets replaced by a
fresh one — when its OOBE exceeds ``oobe_threshold`` (θ_OOBE) **and** its
age exceeds ``age_threshold`` (θ_AGE).

Because the raw stream is hundreds-to-thousands-to-one negative, a plain
error rate would be dominated by the negatives and hide a dead positive
class.  The tracker therefore keeps *per-class* exponentially-weighted
error rates and reports their mean (balanced OOBE): a stale tree that
starts false-alarming on drifted healthy data, or one that misses the
new failure signature, both push the balanced OOBE up.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_in_range, check_positive


class OOBETracker:
    """Per-class EWMA out-of-bag error for one tree.

    Parameters
    ----------
    decay:
        EWMA coefficient per observation: ``err ← (1-decay)·err +
        decay·mistake``.  Roughly a sliding window of ``1/decay``
        observations of that class.
    min_observations:
        Balanced OOBE reads 0 until each class has this many OOB
        observations — fresh trees must not be judged on noise.
    """

    __slots__ = ("decay", "min_observations", "err_pos", "err_neg", "n_pos", "n_neg")

    def __init__(self, *, decay: float = 0.01, min_observations: int = 50) -> None:
        check_in_range(decay, "decay", 0.0, 1.0, inclusive=False)
        check_positive(min_observations, "min_observations")
        self.decay = float(decay)
        self.min_observations = int(min_observations)
        self.err_pos = 0.0
        self.err_neg = 0.0
        self.n_pos = 0
        self.n_neg = 0

    def observe(self, y_true: int, y_pred: int) -> None:
        """Fold one out-of-bag prediction outcome into the tracker."""
        mistake = 1.0 if int(y_true) != int(y_pred) else 0.0
        if y_true == 1:
            self.err_pos += self.decay * (mistake - self.err_pos)
            self.n_pos += 1
        else:
            self.err_neg += self.decay * (mistake - self.err_neg)
            self.n_neg += 1

    def observe_batch(self, y_true: "np.ndarray", y_pred: "np.ndarray") -> None:
        """Fold a batch of OOB outcomes, exactly equivalent to sequential
        :meth:`observe` calls in array order.

        Uses the closed form of n EWMA steps —
        ``err ← (1-d)ⁿ·err + d·Σᵢ (1-d)^(n-1-i)·mᵢ`` — so the chunked
        fast path of :meth:`OnlineRandomForest.partial_fit` pays one
        vectorized pass instead of n Python calls.
        """
        y_true = np.asarray(y_true)
        y_pred = np.asarray(y_pred)
        if y_true.shape != y_pred.shape:
            raise ValueError("y_true and y_pred must align")
        mistakes = (y_true != y_pred).astype(np.float64)
        d = self.decay
        for cls in (0, 1):
            mask = y_true == cls
            n = int(mask.sum())
            if n == 0:
                continue
            m = mistakes[mask]
            weights = (1.0 - d) ** np.arange(n - 1, -1, -1)
            contribution = d * float(np.dot(weights, m))
            if cls == 1:
                self.err_pos = (1.0 - d) ** n * self.err_pos + contribution
                self.n_pos += n
            else:
                self.err_neg = (1.0 - d) ** n * self.err_neg + contribution
                self.n_neg += n

    @property
    def n_observations(self) -> int:
        """Total out-of-bag outcomes observed (both classes)."""
        return self.n_pos + self.n_neg

    def value(self) -> float:
        """Balanced OOBE ∈ [0, 1]; 0 while either class is under-observed."""
        if self.n_pos < self.min_observations or self.n_neg < self.min_observations:
            return 0.0
        return 0.5 * (self.err_pos + self.err_neg)

    def reset(self) -> None:
        """Forget everything (called when the tree is replaced)."""
        self.err_pos = self.err_neg = 0.0
        self.n_pos = self.n_neg = 0

    def is_decayed(
        self, tree_age: float, *, oobe_threshold: float, age_threshold: float
    ) -> bool:
        """The paper's discard test: OOBE > θ_OOBE and AGE > θ_AGE."""
        return tree_age > age_threshold and self.value() > oobe_threshold
