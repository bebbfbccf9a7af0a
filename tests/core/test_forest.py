"""Tests for the Online Random Forest (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.forest import OnlineRandomForest
from repro.parallel.pool import ThreadExecutor


def make_forest(**kwargs):
    defaults = dict(
        n_trees=10,
        n_tests=30,
        min_parent_size=80,
        min_gain=0.05,
        lambda_pos=1.0,
        lambda_neg=0.05,
        seed=0,
    )
    defaults.update(kwargs)
    n_features = defaults.pop("n_features", 6)
    return OnlineRandomForest(n_features, **defaults)


def imbalanced_stream(n, seed=0, p_pos=0.02, n_features=6):
    rng = np.random.default_rng(seed)
    y = (rng.uniform(size=n) < p_pos).astype(int)
    X = rng.uniform(size=(n, n_features))
    pos = y == 1
    X[pos, 0] = rng.uniform(0.6, 1.0, size=pos.sum())
    X[pos, 1] = rng.uniform(0.55, 1.0, size=pos.sum())
    return X, y


class TestStreamLearning:
    def test_learns_imbalanced_signal(self):
        forest = make_forest()
        X, y = imbalanced_stream(20000, seed=1)
        forest.partial_fit(X, y)
        Xt, yt = imbalanced_stream(4000, seed=2)
        s = forest.predict_score(Xt)
        assert s[yt == 1].mean() > s[yt == 0].mean() + 0.2

    def test_sample_counter(self):
        forest = make_forest()
        X, y = imbalanced_stream(500)
        forest.partial_fit(X, y)
        assert forest.n_samples_seen == 500

    def test_reproducible(self):
        X, y = imbalanced_stream(3000, seed=3)
        f1 = make_forest(seed=9).partial_fit(X, y)
        f2 = make_forest(seed=9).partial_fit(X, y)
        Xt, _ = imbalanced_stream(100, seed=4)
        assert np.allclose(f1.predict_score(Xt), f2.predict_score(Xt))

    def test_update_validates_input(self):
        forest = make_forest()
        with pytest.raises(ValueError, match="shape"):
            forest.update(np.zeros(3), 0)
        with pytest.raises(ValueError, match="y must be"):
            forest.update(np.zeros(6), 2)

    def test_partial_fit_validates_width(self):
        forest = make_forest()
        with pytest.raises(ValueError):
            forest.partial_fit(np.zeros((5, 4)), np.zeros(5, dtype=int))


class TestImbalanceBagging:
    def test_lambda_neg_limits_negative_updates(self):
        """Negative-heavy streams must barely grow trees when λn is small."""
        rare = make_forest(lambda_neg=0.01, seed=0)
        common = make_forest(lambda_neg=1.0, seed=0)
        X, y = imbalanced_stream(4000, seed=5, p_pos=0.0)
        rare.partial_fit(X, y)
        common.partial_fit(X, y)
        assert rare.tree_ages().sum() < common.tree_ages().sum() * 0.1

    def test_properties_exposed(self):
        forest = make_forest(lambda_pos=1.0, lambda_neg=0.02)
        assert forest.lambda_pos == 1.0
        assert forest.lambda_neg == 0.02


class TestPrediction:
    def test_scores_unit_interval(self):
        forest = make_forest()
        X, y = imbalanced_stream(5000)
        forest.partial_fit(X, y)
        s = forest.predict_score(X[:200])
        assert np.all((0 <= s) & (s <= 1))

    def test_predict_one_matches_batch(self):
        forest = make_forest()
        X, y = imbalanced_stream(5000)
        forest.partial_fit(X, y)
        Xt = X[:20]
        batch = forest.predict_score(Xt)
        singles = np.array([forest.predict_one(Xt[i]) for i in range(20)])
        assert np.allclose(batch, singles)

    def test_hard_vote_mode(self):
        forest = make_forest(vote="hard", n_trees=5)
        X, y = imbalanced_stream(3000)
        forest.partial_fit(X, y)
        s = forest.predict_score(X[:100])
        assert set(np.round(s * 5)) <= set(range(6))

    def test_fresh_forest_scores_half(self):
        forest = make_forest()
        assert forest.predict_one(np.full(6, 0.5)) == 0.5

    def test_proba_and_threshold(self):
        forest = make_forest()
        X, y = imbalanced_stream(3000)
        forest.partial_fit(X, y)
        proba = forest.predict_proba(X[:10])
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert forest.predict(X[:10], threshold=0.99).sum() <= forest.predict(
            X[:10], threshold=0.01
        ).sum()


class TestTreeReplacement:
    def test_drift_triggers_replacement(self):
        """Flip the concept mid-stream; decayed trees must be replaced."""
        forest = make_forest(
            lambda_neg=0.5,
            oobe_threshold=0.2,
            age_threshold=200,
            oobe_decay=0.05,
            oobe_min_observations=20,
            seed=3,
        )
        rng = np.random.default_rng(0)
        # concept A: y = [x0 > 0.5]
        for _ in range(3000):
            x = rng.uniform(size=6)
            forest.update(x, int(x[0] > 0.5))
        # concept B: inverted
        for _ in range(3000):
            x = rng.uniform(size=6)
            forest.update(x, int(x[0] <= 0.5))
        assert forest.n_replacements > 0

    def test_replacement_disabled(self):
        forest = make_forest(oobe_threshold=None, age_threshold=100, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(2000):
            x = rng.uniform(size=6)
            forest.update(x, int(x[0] > 0.5))
        for _ in range(2000):
            x = rng.uniform(size=6)
            forest.update(x, int(x[0] <= 0.5))
        assert forest.n_replacements == 0

    def test_stable_stream_no_replacement(self):
        """Trees that actually learn a stationary concept stay healthy.

        λn is raised so trees see enough negatives to learn the signal;
        their OOBE then sits far below the threshold and no replacement
        fires (with the paper's tiny λn trees learn so little that the
        balanced OOBE hovers at the decay gate by construction).
        """
        forest = make_forest(
            lambda_neg=0.5, oobe_threshold=0.35, age_threshold=500, seed=3
        )
        X, y = imbalanced_stream(10000, seed=7)
        forest.partial_fit(X, y)
        assert forest.n_replacements == 0

    def test_adapts_after_drift(self):
        """Post-drift accuracy must recover thanks to replacement."""
        forest = make_forest(
            lambda_neg=0.5,
            n_trees=8,
            oobe_threshold=0.2,
            age_threshold=200,
            oobe_decay=0.05,
            oobe_min_observations=20,
            seed=3,
        )
        rng = np.random.default_rng(0)
        for _ in range(2500):
            x = rng.uniform(size=6)
            forest.update(x, int(x[0] > 0.5))
        for _ in range(6000):
            x = rng.uniform(size=6)
            forest.update(x, int(x[0] <= 0.5))
        Xt = rng.uniform(size=(500, 6))
        yt = (Xt[:, 0] <= 0.5).astype(int)
        pred = (forest.predict_score(Xt) > 0.5).astype(int)
        assert (pred == yt).mean() > 0.75


def decaying_forest(**kwargs):
    """Gates so aggressive that trees are replaced every few dozen rows."""
    params = dict(
        n_features=4, n_trees=4, n_tests=10, min_parent_size=20,
        min_gain=0.01, lambda_neg=0.3, oobe_threshold=0.01,
        age_threshold=5, oobe_decay=0.1, oobe_min_observations=3, seed=7,
    )
    params.update(kwargs)
    return make_forest(**params)


def drifting_stream(n, seed=1, scale=1.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 4)) * scale
    y = (X[:, 0] > 0.5 * scale).astype(int)
    y[n // 2:] = 1 - y[n // 2:]
    return X, y


class TestExactPathsAgree:
    """``update`` and exact ``partial_fit`` share one kernel and one
    stream order, whatever the batch boundaries and however many trees
    are replaced inside a batch."""

    @pytest.mark.parametrize("batch", [2, 7, 64, 600])
    def test_partial_fit_matches_update_loop(self, batch):
        from tests.service.conftest import same_forest

        X, y = drifting_stream(600)
        looped = decaying_forest()
        for i in range(X.shape[0]):
            looped.update(X[i], int(y[i]))
        batched = decaying_forest()
        for start in range(0, X.shape[0], batch):
            batched.partial_fit(X[start:start + batch], y[start:start + batch])
        assert looped.n_replacements > 0, "fixture must replace trees"
        assert same_forest(looped, batched)


class TestFeatureRangesPersist:
    def test_reload_resumes_bit_identical_through_replacements(self, tmp_path):
        """Replacement trees draw their tests from the forest's ranges, so
        a reloaded forest must keep them to continue the same stream."""
        from repro.persistence import load_model, save_model
        from tests.service.conftest import same_forest

        ranges = np.tile([0.0, 10.0], (4, 1))
        X, y = drifting_stream(800, scale=10.0)
        original = decaying_forest(feature_ranges=ranges)
        original.partial_fit(X[:400], y[:400])
        save_model(original, tmp_path / "forest.npz")
        restored = load_model(tmp_path / "forest.npz")
        assert np.array_equal(restored.feature_ranges, ranges)

        before = original.n_replacements
        original.partial_fit(X[400:], y[400:])
        restored.partial_fit(X[400:], y[400:])
        assert original.n_replacements > before, "must replace after reload"
        assert same_forest(original, restored)

    def test_default_ranges_stay_unset(self, tmp_path):
        from repro.persistence import load_model, save_model

        save_model(make_forest(), tmp_path / "forest.npz")
        assert load_model(tmp_path / "forest.npz").feature_ranges is None


class TestInspection:
    def test_stats_keys(self):
        forest = make_forest()
        X, y = imbalanced_stream(1000)
        forest.partial_fit(X, y)
        stats = forest.stats()
        for key in (
            "n_samples_seen",
            "n_replacements",
            "mean_tree_age",
            "mean_oobe",
            "total_nodes",
            "mean_depth",
        ):
            assert key in stats

    def test_tree_ages_shape(self):
        forest = make_forest(n_trees=7)
        assert forest.tree_ages().shape == (7,)
        assert forest.oobe_values().shape == (7,)


class TestParallelEquivalence:
    def test_thread_executor_matches_serial(self):
        X, y = imbalanced_stream(4000, seed=8)
        serial = make_forest(seed=12).partial_fit(X, y)
        with ThreadExecutor(3) as pool:
            parallel = make_forest(seed=12, executor=pool).partial_fit(X, y)
            assert np.allclose(
                serial.predict_score(X[:100]), parallel.predict_score(X[:100])
            )


class TestValidation:
    def test_invalid_vote(self):
        with pytest.raises(ValueError):
            make_forest(vote="loud")

    def test_invalid_oobe_threshold(self):
        with pytest.raises(ValueError):
            make_forest(oobe_threshold=1.5)

    def test_invalid_tree_count(self):
        with pytest.raises(ValueError):
            OnlineRandomForest(5, n_trees=0)


class TestFeatureImportances:
    def test_zero_before_any_split(self):
        forest = make_forest()
        assert np.all(forest.feature_importances_ == 0.0)

    def test_signal_features_dominate(self):
        forest = make_forest()
        X, y = imbalanced_stream(20000, seed=1)
        forest.partial_fit(X, y)
        imp = forest.feature_importances_
        assert imp.sum() == pytest.approx(1.0)
        assert imp[:2].sum() > imp[2:].sum()

    def test_importances_survive_chunked_path(self):
        forest = make_forest()
        X, y = imbalanced_stream(20000, seed=2)
        forest.partial_fit(X, y, chunk_size=2000)
        imp = forest.feature_importances_
        assert imp.sum() == pytest.approx(1.0)
        assert imp[:2].sum() > 0.3
