"""Per-leaf sufficient statistics for online tree growth.

A leaf tracks (a) its own weighted class histogram — which doubles as the
leaf's prediction posterior — and (b) for every candidate random test,
the class histogram on each side of the test.  Everything needed for the
paper's split rule (Eqs. 1–2) lives in one dense ``(N, 2, 2)`` array, so
both the per-sample update and the gain evaluation over all N tests are
single vectorized NumPy operations.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.random_tests import RandomTestSet

#: the smallest positive double: ``max(n, _TINY) == n`` for every n > 0
_TINY = float(np.finfo(np.float64).smallest_subnormal)


def gini(counts: np.ndarray) -> np.ndarray:
    """Gini impurity (Eq. 1) from class-count arrays ``(..., 2)``.

    Empty nodes have impurity 0.  The result lies in [0, 0.5].
    """
    total = counts.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p1 = np.where(total > 0, counts[..., 1] / np.where(total > 0, total, 1), 0.0)
    return 2.0 * p1 * (1.0 - p1)


class LeafStats:
    """Mutable statistics of one growing leaf.

    Parameters
    ----------
    tests:
        The leaf's candidate random tests; ``None`` for leaves that can
        no longer split (max depth reached) — they keep only the class
        histogram used for prediction.
    prior_counts:
        Class histogram inherited from the parent partition at split
        time, so a fresh leaf predicts sensibly before seeing any sample
        of its own.
    """

    __slots__ = (
        "tests", "class_counts", "test_stats", "n_seen", "n_updates", "_arange",
        "_gain_n", "_gain_best",
    )

    def __init__(
        self,
        tests: Optional[RandomTestSet],
        prior_counts: Optional[np.ndarray] = None,
    ) -> None:
        self.tests = tests
        self.class_counts = (
            prior_counts.astype(np.float64).copy()
            if prior_counts is not None
            else np.zeros(2, dtype=np.float64)
        )
        if tests is not None:
            self.test_stats = np.zeros((tests.n_tests, 2, 2), dtype=np.float64)
            self._arange = np.arange(tests.n_tests)
        else:
            self.test_stats = None
            self._arange = None
        #: weighted number of samples seen *by this leaf* (the |D| of the
        #: split condition — inherited prior counts do not count)
        self.n_seen = 0.0
        #: integer count of update events folded into this leaf.  The
        #: split-check amortization gates on this counter, never on the
        #: weighted ``n_seen``: under fractional weights ``int(n_seen)``
        #: repeats or skips residues, so a modulo gate on it double-checks
        #: or never fires on schedule.
        self.n_updates = 0
        #: ``n_seen`` and the best gain at the last :meth:`best_split`
        #: (derived state for :meth:`may_split`; +inf means "never
        #: evaluated", so the first check always evaluates)
        self._gain_n = 0.0
        self._gain_best = float("inf")

    # ---------------------------------------------------------------- update
    def update(self, x: np.ndarray, y: int, weight: float = 1.0) -> None:
        """Fold one sample into the leaf's statistics."""
        self.class_counts[y] += weight
        self.n_seen += weight
        self.n_updates += 1
        if self.tests is not None:
            sides = self.tests.evaluate(x)
            # first index is arange (all rows distinct) → fancy += is safe
            self.test_stats[self._arange, sides, y] += weight

    def update_batch(self, X: np.ndarray, y: np.ndarray, weights: np.ndarray) -> None:
        """Fold a batch of samples (used by the chunked fast path)."""
        np.add.at(self.class_counts, y, weights)
        self.n_seen += float(weights.sum())
        self.n_updates += int(X.shape[0])
        if self.tests is not None:
            sides = self.tests.evaluate_batch(X)  # (n, N)
            n, N = sides.shape
            test_idx = np.broadcast_to(self._arange, (n, N))
            cls_idx = np.broadcast_to(y[:, None], (n, N))
            w = np.broadcast_to(weights[:, None], (n, N))
            np.add.at(self.test_stats, (test_idx, sides, cls_idx), w)

    # ----------------------------------------------------------------- gains
    def gains(self) -> np.ndarray:
        """ΔG (Eq. 2) of every candidate test, in closed form.

        Uses the *test-local* class totals (left + right per test), which
        equal the samples this leaf has routed since creation.  Every
        sample lands on exactly one side of every test, so with
        non-negative weights either all N tests have seen mass or none
        has: an unseen leaf gains 0 everywhere, and otherwise only a
        test's empty side needs a guard.  Element by element this is
        :func:`gini` of the parent minus the side-weighted :func:`gini`
        of the children, so the result is bit-identical to composing
        them.
        """
        if self.tests is None:
            return np.zeros(0, dtype=np.float64)
        stats = self.test_stats  # (N, side, class)
        totals = stats.sum(axis=(1, 2))  # (N,)
        if not totals[0] > 0:
            return np.zeros(totals.shape[0], dtype=np.float64)
        parent = stats[:, 0] + stats[:, 1]  # (N, class)
        p = parent[:, 1] / (parent[:, 0] + parent[:, 1])
        g_parent = 2.0 * p * (1.0 - p)
        side_totals = stats.sum(axis=2)  # (N, side)
        # an empty side has c1 == 0, and 0 / smallest_subnormal == 0
        p_side = stats[:, :, 1] / np.maximum(side_totals, _TINY)
        g_children = 2.0 * p_side * (1.0 - p_side)
        weighted = side_totals / totals[:, None] * g_children
        return g_parent - (weighted[:, 0] + weighted[:, 1])

    def best_split(self) -> Tuple[int, float]:
        """(test index, its ΔG); (-1, 0) when the leaf has no tests.

        Remembers the best gain and ``n_seen`` for :meth:`may_split`.
        """
        g = self.gains()
        if g.size == 0:
            return -1, 0.0
        best = int(g.argmax())
        self._gain_n = self.n_seen
        self._gain_best = float(g[best])
        return best, self._gain_best

    def may_split(self, min_gain: float) -> bool:
        """False when no test can have reached *min_gain* since the last
        :meth:`best_split`, so evaluating the gains again is wasted.

        A test's ΔG is a function of its side × class masses normalised
        by the leaf total, with partial derivatives in [-2, 2].  Adding
        mass W to a leaf that held n₀ moves those fractions by at most
        2W/(n₀+W) in L1 norm, hence every test's gain by at most
        4W/(n₀+W) (``docs/algorithms.md`` has the derivation).  The
        1e-9 slack absorbs rounding in the gains and in ``n_seen``.
        Callers check ``n_seen >= α > 0`` first.
        """
        bound = 4.0 * (self.n_seen - self._gain_n) / self.n_seen
        return self._gain_best + bound >= min_gain - 1e-9

    # ------------------------------------------------------------ prediction
    def posterior_positive(self, *, laplace: float = 1.0) -> float:
        """Smoothed P(y = 1) at this leaf."""
        c0, c1 = self.class_counts
        return (c1 + laplace) / (c0 + c1 + 2.0 * laplace)

    def child_counts(self, test_index: int) -> Tuple[np.ndarray, np.ndarray]:
        """(left, right) class histograms of a chosen test's partition —
        inherited by the children at split time."""
        if self.tests is None:
            raise RuntimeError("leaf has no candidate tests")
        return (
            self.test_stats[test_index, 0].copy(),
            self.test_stats[test_index, 1].copy(),
        )
