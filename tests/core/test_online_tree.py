"""Tests for the online decision tree."""

import numpy as np
import pytest

from repro.core.node_stats import LeafStats
from repro.core.online_tree import OnlineDecisionTree


def stream_signal(tree, n, seed=0, noise=0.0):
    """Feed n samples where y = [x0 > 0.5], with optional label noise."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x = rng.uniform(size=tree.n_features)
        y = int(x[0] > 0.5)
        if noise and rng.uniform() < noise:
            y = 1 - y
        tree.update(x, y)
    return tree


class TestGrowth:
    def test_starts_as_single_leaf(self):
        tree = OnlineDecisionTree(4, seed=0)
        assert tree.n_nodes == 1
        assert tree.n_leaves == 1
        assert tree.depth == 0

    def test_splits_after_alpha_with_signal(self):
        tree = OnlineDecisionTree(
            3, n_tests=40, min_parent_size=50, min_gain=0.05, seed=1
        )
        stream_signal(tree, 400)
        assert tree.n_splits >= 1
        assert tree.depth >= 1

    def test_no_split_before_alpha(self):
        tree = OnlineDecisionTree(3, min_parent_size=10**6, seed=1)
        stream_signal(tree, 500)
        assert tree.n_splits == 0

    def test_no_split_without_gain(self):
        """Pure-noise labels never reach min_gain."""
        tree = OnlineDecisionTree(
            3, n_tests=20, min_parent_size=50, min_gain=0.2, seed=1
        )
        rng = np.random.default_rng(0)
        for _ in range(500):
            tree.update(rng.uniform(size=3), int(rng.integers(0, 2)))
        assert tree.n_splits == 0

    def test_max_depth_respected(self):
        tree = OnlineDecisionTree(
            3, n_tests=40, min_parent_size=30, min_gain=0.01, max_depth=2, seed=1
        )
        stream_signal(tree, 3000)
        assert tree.depth <= 2

    def test_age_counts_weighted_samples(self):
        tree = OnlineDecisionTree(2, seed=0)
        tree.update(np.zeros(2), 0, weight=1.0)
        tree.update(np.ones(2), 1, weight=2.5)
        assert tree.age == 3.5

    def test_split_check_interval_delays_but_allows_split(self):
        t_exact = OnlineDecisionTree(
            3, n_tests=40, min_parent_size=50, min_gain=0.05,
            split_check_interval=1, seed=2,
        )
        t_amortized = OnlineDecisionTree(
            3, n_tests=40, min_parent_size=50, min_gain=0.05,
            split_check_interval=25, seed=2,
        )
        stream_signal(t_exact, 600, seed=5)
        stream_signal(t_amortized, 600, seed=5)
        assert t_amortized.n_splits >= 1
        assert t_amortized.n_splits <= t_exact.n_splits

    def test_split_check_interval_fires_on_schedule_under_fractional_weights(
        self, monkeypatch
    ):
        """The amortization gate counts update *events*, not weighted mass.

        The old gate ``int(n_seen) % k`` breaks under fractional weights:
        ``int(n_seen)`` repeats the same integer across consecutive
        updates (burst of redundant checks) and skips residues entirely
        (scheduled checks that never fire).  Spy on ``may_split``, the
        first step of every scheduled check (the gain bound, before any
        ``best_split``), and assert the schedule is exactly every k-th
        update.
        """
        fired = []
        orig = LeafStats.may_split

        def spy(self, min_gain):
            fired.append(self.n_updates)
            return orig(self, min_gain)

        monkeypatch.setattr(LeafStats, "may_split", spy)
        # min_gain=1.0 exceeds the Gini-gain maximum (0.5): the split
        # condition is evaluated on schedule but never fires, so one
        # leaf absorbs the whole stream and the spy sees a clean series
        tree = OnlineDecisionTree(
            3, n_tests=10, min_parent_size=10.0, min_gain=1.0,
            split_check_interval=4, seed=0,
        )
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.uniform(size=3)
            tree.update(x, int(x[0] > 0.5), weight=0.3)

        assert fired, "the gate never fired past alpha"
        assert all(n % 4 == 0 for n in fired), fired
        assert [b - a for a, b in zip(fired, fired[1:])] == [4] * (
            len(fired) - 1
        ), f"schedule has gaps or bursts: {fired}"
        # alpha (weighted!) is reached at update 34; first check at 36
        assert fired[0] == 36 and fired[-1] == 100

    def test_update_batch_honors_split_check_interval(self, monkeypatch):
        """``update_batch`` must respect the amortization knob.

        It used to evaluate splits on every touched leaf at every batch
        boundary regardless of ``split_check_interval``.  With an
        interval larger than the whole stream, no split check may run.
        """
        fired = []
        orig = LeafStats.best_split

        def spy(self):
            fired.append(self.n_updates)
            return orig(self)

        monkeypatch.setattr(LeafStats, "best_split", spy)
        tree = OnlineDecisionTree(
            3, n_tests=10, min_parent_size=10.0, min_gain=0.01,
            split_check_interval=10_000, seed=0,
        )
        rng = np.random.default_rng(2)
        for _ in range(10):
            X = rng.uniform(size=(50, 3))
            y = (X[:, 0] > 0.5).astype(np.int64)
            tree.update_batch(X, y, np.ones(50))
        assert fired == [], (
            f"update_batch evaluated splits despite the interval: {fired}"
        )
        assert tree.n_splits == 0

    def test_update_batch_split_parity_with_serial_at_interval_gt_one(self):
        """Row-by-row ``update_batch`` equals ``update`` under amortization.

        For single-row batches the batch gate (counter crossed a
        multiple of k) reduces to the per-sample gate (counter is a
        multiple of k), so the two paths must grow *identical* trees —
        the regression pinning that ``update_batch`` both honors the
        interval and honors it with the same schedule.
        """
        kw = dict(
            n_tests=40, min_parent_size=50.0, min_gain=0.05,
            split_check_interval=7, seed=3,
        )
        serial = OnlineDecisionTree(3, **kw)
        batched = OnlineDecisionTree(3, **kw)
        rng = np.random.default_rng(4)
        for _ in range(600):
            x = rng.uniform(size=3)
            y = int(x[0] > 0.5)
            serial.update(x, y)
            batched.update_batch(
                x[None, :], np.array([y]), np.ones(1)
            )
        assert serial.n_splits >= 1  # the stream must actually split
        assert batched.n_splits == serial.n_splits
        assert batched._feature == serial._feature
        assert batched._threshold == serial._threshold
        assert batched._left == serial._left
        X = rng.uniform(size=(100, 3))
        assert np.array_equal(
            serial.predict_batch(X), batched.predict_batch(X)
        )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            OnlineDecisionTree(0)
        with pytest.raises(ValueError):
            OnlineDecisionTree(2, min_gain=-0.1)
        with pytest.raises(ValueError):
            OnlineDecisionTree(2, max_depth=0)


class TestPrediction:
    def test_learns_threshold_function(self):
        tree = OnlineDecisionTree(
            3, n_tests=60, min_parent_size=50, min_gain=0.05, seed=3
        )
        stream_signal(tree, 2000)
        rng = np.random.default_rng(42)
        X = rng.uniform(size=(500, 3))
        y = (X[:, 0] > 0.5).astype(int)
        pred = (tree.predict_batch(X) > 0.5).astype(int)
        assert (pred == y).mean() > 0.9

    def test_predict_batch_matches_predict_one(self):
        tree = OnlineDecisionTree(
            3, n_tests=40, min_parent_size=50, min_gain=0.05, seed=4
        )
        stream_signal(tree, 800)
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(50, 3))
        batch = tree.predict_batch(X)
        singles = np.array([tree.predict_one(X[i]) for i in range(50)])
        assert np.allclose(batch, singles)

    def test_fresh_tree_predicts_half(self):
        tree = OnlineDecisionTree(2, seed=0)
        assert tree.predict_one(np.zeros(2)) == 0.5

    def test_children_inherit_parent_statistics(self):
        """Right after a split, predictions reflect the inherited partition."""
        tree = OnlineDecisionTree(
            1, n_tests=80, min_parent_size=100, min_gain=0.2, seed=6
        )
        rng = np.random.default_rng(0)
        while tree.n_splits == 0:
            x = rng.uniform(size=1)
            tree.update(x, int(x[0] > 0.5))
        lo = tree.predict_one(np.array([0.05]))
        hi = tree.predict_one(np.array([0.95]))
        assert lo < 0.4 and hi > 0.6


class TestDecisionPath:
    def test_path_ends_at_leaf(self):
        tree = OnlineDecisionTree(
            3, n_tests=40, min_parent_size=50, min_gain=0.05, seed=7
        )
        stream_signal(tree, 800)
        path = tree.decision_path(np.array([0.9, 0.5, 0.5]))
        assert path[-1][1] == -1  # leaf marker
        assert len(path) == len(set(p[0] for p in path))  # no cycles

    def test_path_consistent_with_routing(self):
        tree = OnlineDecisionTree(
            3, n_tests=40, min_parent_size=50, min_gain=0.05, seed=8
        )
        stream_signal(tree, 800)
        x = np.array([0.2, 0.6, 0.1])
        path = tree.decision_path(x)
        assert path[-1][0] == tree.find_leaf(x)


class TestRobustness:
    def test_label_noise_tolerated(self):
        tree = OnlineDecisionTree(
            3, n_tests=60, min_parent_size=80, min_gain=0.03, seed=9
        )
        stream_signal(tree, 3000, noise=0.1)
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(400, 3))
        y = (X[:, 0] > 0.5).astype(int)
        pred = (tree.predict_batch(X) > 0.5).astype(int)
        assert (pred == y).mean() > 0.8

    def test_reproducible_given_seed(self):
        t1 = OnlineDecisionTree(3, n_tests=20, min_parent_size=40, seed=11)
        t2 = OnlineDecisionTree(3, n_tests=20, min_parent_size=40, seed=11)
        stream_signal(t1, 500, seed=2)
        stream_signal(t2, 500, seed=2)
        X = np.random.default_rng(3).uniform(size=(20, 3))
        assert np.allclose(t1.predict_batch(X), t2.predict_batch(X))
