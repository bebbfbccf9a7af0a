"""Tests for per-leaf statistics and the Gini-gain computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.node_stats import LeafStats, gini
from repro.core.online_tree import OnlineDecisionTree
from repro.core.random_tests import (
    RandomTestSet,
    default_feature_ranges,
    make_random_tests,
)


def reference_gains(stats):
    """The gain formula of Eq. 2 composed from :func:`gini`, kept as the
    oracle of :meth:`LeafStats.gains`'s closed form."""
    totals = stats.sum(axis=(1, 2))
    side_totals = stats.sum(axis=2)
    g_parent = gini(stats.sum(axis=1))
    g_children = gini(stats)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(
            totals[:, None] > 0,
            side_totals / np.where(totals[:, None] > 0, totals[:, None], 1),
            0.0,
        )
    return g_parent - (frac * g_children).sum(axis=1)


def make_leaf(n_tests=10, n_features=3, seed=0):
    ts = make_random_tests(seed, n_tests, n_features, default_feature_ranges(n_features))
    return LeafStats(ts), ts


class TestGini:
    def test_matches_paper_formula(self):
        """Eq. 1: G = p0(1-p0) + p1(1-p1) == 2 p0 p1."""
        counts = np.array([3.0, 1.0])
        p1 = 0.25
        expected = p1 * (1 - p1) + (1 - p1) * p1
        assert np.isclose(gini(counts), expected)

    def test_empty_zero(self):
        assert gini(np.zeros(2)) == 0.0

    def test_max_half(self):
        assert np.isclose(gini(np.array([5.0, 5.0])), 0.5)

    @given(st.floats(0, 1000), st.floats(0, 1000))
    def test_property_range(self, c0, c1):
        g = float(gini(np.array([c0, c1])))
        assert 0.0 <= g <= 0.5 + 1e-12


class TestUpdate:
    def test_class_counts_accumulate(self):
        leaf, _ = make_leaf()
        leaf.update(np.array([0.1, 0.2, 0.3]), 0)
        leaf.update(np.array([0.9, 0.8, 0.7]), 1)
        leaf.update(np.array([0.9, 0.8, 0.7]), 1, weight=2.0)
        assert leaf.class_counts.tolist() == [1.0, 3.0]
        assert leaf.n_seen == 4.0

    def test_test_stats_partition_consistency(self):
        """Per test, left+right class totals equal the leaf's own counts."""
        leaf, _ = make_leaf(n_tests=25)
        rng = np.random.default_rng(1)
        for _ in range(50):
            leaf.update(rng.uniform(size=3), int(rng.integers(0, 2)))
        per_test_totals = leaf.test_stats.sum(axis=1)  # (N, class)
        assert np.allclose(per_test_totals, leaf.class_counts[None, :])

    def test_update_batch_matches_sequential(self):
        leaf_a, ts = make_leaf(n_tests=15, seed=3)
        leaf_b = LeafStats(ts)
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(30, 3))
        y = (rng.uniform(size=30) < 0.3).astype(np.int64)
        w = np.ones(30)
        for i in range(30):
            leaf_a.update(X[i], int(y[i]), w[i])
        leaf_b.update_batch(X, y, w)
        assert np.allclose(leaf_a.test_stats, leaf_b.test_stats)
        assert np.allclose(leaf_a.class_counts, leaf_b.class_counts)

    def test_leaf_without_tests_tracks_counts_only(self):
        leaf = LeafStats(None)
        leaf.update(np.array([0.5]), 1)
        assert leaf.test_stats is None
        assert leaf.class_counts[1] == 1.0


class TestGains:
    def test_no_gain_on_unseen_leaf(self):
        leaf, _ = make_leaf()
        assert np.all(leaf.gains() == 0.0)

    def test_perfect_test_gets_max_gain(self):
        """A test that splits classes exactly reaches ΔG == parent Gini."""
        ts = RandomTestSet(
            features=np.array([0, 0], dtype=np.int32),
            thresholds=np.array([0.5, 0.99]),
        )
        leaf = LeafStats(ts)
        rng = np.random.default_rng(0)
        for _ in range(40):
            leaf.update(np.array([rng.uniform(0.0, 0.4)]), 0)
            leaf.update(np.array([rng.uniform(0.6, 0.9)]), 1)
        gains = leaf.gains()
        assert np.isclose(gains[0], 0.5)  # perfect separation of a 50/50 leaf
        assert gains[1] < 0.05  # threshold 0.99 sends everything left

    def test_best_split_picks_argmax(self):
        leaf, _ = make_leaf(n_tests=40, seed=5)
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.uniform(size=3)
            leaf.update(x, int(x[0] > 0.5))
        idx, gain = leaf.best_split()
        gains = leaf.gains()
        assert gain == gains[idx] == gains.max()

    def test_best_split_without_tests(self):
        leaf = LeafStats(None)
        assert leaf.best_split() == (-1, 0.0)

    def test_gains_never_negative_in_expectation(self):
        leaf, _ = make_leaf(n_tests=30, seed=9)
        rng = np.random.default_rng(4)
        for _ in range(300):
            leaf.update(rng.uniform(size=3), int(rng.integers(0, 2)))
        assert leaf.gains().min() > -1e-9


#: tests at the edges of [0, 1] leave one side empty for most streams
EDGE_TESTS = RandomTestSet(
    features=np.array([0, 1, 2, 0, 1, 2, 0, 1], dtype=np.int32),
    thresholds=np.array([-0.1, 1.1, 0.5, 0.25, 0.75, 0.0, 1.0, 0.33]),
)

WEIGHTS = st.one_of(
    st.integers(1, 5).map(float),
    st.floats(1e-3, 50.0, allow_nan=False, allow_infinity=False),
    st.just(0.0),
)
SAMPLES = st.lists(
    st.tuples(
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        st.integers(0, 1),
        WEIGHTS,
    ),
    max_size=60,
)


class TestGainKernelOracle:
    """The closed-form kernel must equal the composed formula bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(samples=SAMPLES, classes=st.sampled_from(["both", "neg", "pos"]))
    def test_bit_identical_to_reference(self, samples, classes):
        leaf = LeafStats(EDGE_TESTS)
        for x, y, w in samples:
            if classes != "both":
                y = int(classes == "pos")
            leaf.update(np.array(x), y, w)
        assert np.array_equal(leaf.gains(), reference_gains(leaf.test_stats))

    @settings(max_examples=100, deadline=None)
    @given(samples=SAMPLES, seed=st.integers(0, 2**16))
    def test_bit_identical_on_random_tests(self, samples, seed):
        leaf, _ = make_leaf(n_tests=20, seed=seed)
        for x, y, w in samples:
            leaf.update(np.array(x), y, w)
        assert np.array_equal(leaf.gains(), reference_gains(leaf.test_stats))

    def test_single_class_and_empty_leaves_gain_nothing(self):
        leaf = LeafStats(EDGE_TESTS)
        assert np.array_equal(leaf.gains(), np.zeros(8))
        for x in np.random.default_rng(3).uniform(size=(30, 3)):
            leaf.update(x, 1, 0.7)
        assert np.array_equal(leaf.gains(), np.zeros(8))
        assert np.array_equal(leaf.gains(), reference_gains(leaf.test_stats))


def _fill(leaf, samples, batch):
    if batch and samples:
        X = np.array([x for x, _, _ in samples], dtype=np.float64)
        y = np.array([y for _, y, _ in samples], dtype=np.int64)
        w = np.array([w for _, _, w in samples], dtype=np.float64)
        leaf.update_batch(X, y, w)
        return
    for x, y, w in samples:
        leaf.update(np.array(x), y, w)


class TestGainBound:
    """The bound behind :meth:`LeafStats.may_split`: adding mass W to a
    leaf that held n₀ moves every test's ΔG by at most 4W/(n₀+W)."""

    @settings(max_examples=300, deadline=None)
    @given(
        before=SAMPLES,
        added=SAMPLES,
        seed=st.integers(0, 2**16),
        edge=st.booleans(),
        batch=st.booleans(),
    )
    def test_gain_moves_at_most_the_bound(self, before, added, seed, edge, batch):
        leaf = LeafStats(EDGE_TESTS) if edge else make_leaf(n_tests=20, seed=seed)[0]
        _fill(leaf, before, batch=False)
        g0, n0 = leaf.gains(), leaf.n_seen
        _fill(leaf, added, batch)
        if leaf.n_seen == 0:
            return  # nothing seen at all: both gain vectors are zero
        bound = 4.0 * (leaf.n_seen - n0) / leaf.n_seen
        assert np.all(np.abs(leaf.gains() - g0) <= bound + 1e-12)

    def test_may_split_evaluates_first_then_skips_hopeless_checks(self):
        leaf, _ = make_leaf(n_tests=10, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(100):
            leaf.update(rng.uniform(size=3), 0)
        assert leaf.may_split(0.1)  # never evaluated: must evaluate
        _, gain = leaf.best_split()
        assert gain == 0.0  # one class: nothing to gain
        leaf.update(rng.uniform(size=3), 1)
        # 4·1/101 < 0.1: one more sample cannot lift any gain to β
        assert not leaf.may_split(0.1)
        assert leaf.may_split(0.02)
        for _ in range(3):
            leaf.update(rng.uniform(size=3), 1)
        assert leaf.may_split(0.1)  # 4·4/104 > 0.1

    @staticmethod
    def _grow(seed, rows, labels, weights, batch, **params):
        """Per update, the tree's split count; then the final tree."""
        tree = OnlineDecisionTree(3, n_tests=8, seed=seed, **params)
        trail = []
        if batch:
            for i in range(0, len(rows), batch):
                tree.update_batch(
                    rows[i:i + batch], labels[i:i + batch], weights[i:i + batch]
                )
                trail.append(tree.n_splits)
        else:
            for x, y, w in zip(rows, labels, weights):
                tree.update(x, int(y), float(w))
                trail.append(tree.n_splits)
        return trail, tree

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(20, 300),
        weights=st.sampled_from(["unit", "fractional", "poisson"]),
        alpha=st.sampled_from([2.0, 8.0, 30.0]),
        beta=st.sampled_from([0.0, 0.01, 0.05, 0.2]),
        interval=st.sampled_from([1, 3]),
        batch=st.sampled_from([0, 1, 16]),
    )
    def test_gate_fires_the_same_splits_on_the_same_rows(
        self, seed, n, weights, alpha, beta, interval, batch
    ):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(size=(n, 3))
        labels = ((rows[:, 0] + 0.3 * rng.uniform(size=n)) > 0.6).astype(np.int64)
        w = {
            "unit": np.ones(n),
            "fractional": rng.uniform(0.05, 3.0, size=n),
            "poisson": rng.poisson(1.0, size=n).astype(np.float64),
        }[weights]
        params = dict(
            min_parent_size=alpha, min_gain=beta, split_check_interval=interval
        )
        gated = self._grow(seed, rows, labels, w, batch, **params)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(LeafStats, "may_split", lambda self, min_gain: True)
            ungated = self._grow(seed, rows, labels, w, batch, **params)
        assert gated[0] == ungated[0]
        a, b = gated[1], ungated[1]
        assert (a._feature, a._threshold, a._left, a._right) == (
            b._feature, b._threshold, b._left, b._right
        )
        assert np.array_equal(a.importance_, b.importance_)
        assert a._leaf_stats.keys() == b._leaf_stats.keys()
        for nid, stats in a._leaf_stats.items():
            assert np.array_equal(stats.class_counts, b._leaf_stats[nid].class_counts)


class TestPosterior:
    def test_empty_leaf_half(self):
        leaf = LeafStats(None)
        assert leaf.posterior_positive() == 0.5

    def test_laplace_pull_toward_half(self):
        leaf = LeafStats(None)
        leaf.update(np.zeros(1), 1)
        assert 0.5 < leaf.posterior_positive() < 1.0

    def test_prior_counts_inherited(self):
        leaf = LeafStats(None, prior_counts=np.array([10.0, 0.0]))
        assert leaf.posterior_positive() < 0.2
        assert leaf.n_seen == 0.0  # inherited mass doesn't count toward |D|

    def test_child_counts_partition(self):
        leaf, _ = make_leaf(n_tests=5, seed=2)
        rng = np.random.default_rng(0)
        for _ in range(60):
            leaf.update(rng.uniform(size=3), int(rng.integers(0, 2)))
        left, right = leaf.child_counts(2)
        assert np.allclose(left + right, leaf.class_counts)

    def test_child_counts_requires_tests(self):
        with pytest.raises(RuntimeError):
            LeafStats(None).child_counts(0)
