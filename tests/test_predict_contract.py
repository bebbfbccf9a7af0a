"""Repo-wide predict contract: ``predict == (predict_score >= threshold)``.

Every classifier in the library exposes ``predict_score`` (a continuous
risk score) and ``predict`` (hard labels at a threshold).  The decision
rule is *inclusive* everywhere — a sample scoring exactly at the
threshold alarms — so thresholds returned by the FAR-pinning tuner
behave identically no matter which model they are applied to.  This
suite checks the boundary explicitly with thresholds taken from each
model's own achieved scores, where ``>`` and ``>=`` disagree (the
vendor-threshold baseline shipped with ``>`` until this test existed).
"""

import numpy as np
import pytest

from repro.core.forest import OnlineRandomForest
from repro.features.selection import FeatureSelection
from repro.offline.forest import RandomForestClassifier
from repro.offline.gbdt import GradientBoostedTrees
from repro.offline.smart_threshold import SmartThresholdDetector
from repro.offline.svm import SVC
from repro.offline.tree import DecisionTreeClassifier
from repro.streaming.baselines import MajorityClassBaseline, PriorProbabilityBaseline
from repro.streaming.hoeffding import HoeffdingTreeClassifier
from repro.streaming.oza import OnlineBaggingEnsemble, OzaBoostClassifier

N_FEATURES = 5


def _data(seed=0, n=200):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, N_FEATURES))
    y = (X[:, 0] + X[:, 1] > 1.0).astype(np.int64)
    return X, y


def _fit_orf():
    X, y = _data()
    model = OnlineRandomForest(
        N_FEATURES, n_trees=5, min_parent_size=40, min_gain=0.01, seed=1
    )
    model.partial_fit(X, y)
    return model, X[:80]


def _fit_offline(factory):
    def build():
        X, y = _data(n=150)
        model = factory()
        model.fit(X, y)
        return model, X[:80]

    return build


def _fit_streaming(factory):
    def build():
        X, y = _data()
        model = factory()
        model.partial_fit(X, y)
        return model, X[:80]

    return build


def _fit_vendor_rule():
    selection = FeatureSelection.paper_table2()
    rng = np.random.default_rng(3)
    # raw Norm scale, straddling the vendor thresholds so some rows trip
    X = rng.uniform(0.0, 100.0, size=(120, len(selection.names)))
    model = SmartThresholdDetector(selection=selection)
    model.fit(X)
    return model, X


MODELS = [
    ("orf", _fit_orf),
    ("offline_rf", _fit_offline(
        lambda: RandomForestClassifier(n_trees=5, seed=2))),
    ("decision_tree", _fit_offline(
        lambda: DecisionTreeClassifier(max_num_splits=20, seed=2))),
    ("gbdt", _fit_offline(
        lambda: GradientBoostedTrees(
            n_rounds=10, max_depth=3, learning_rate=0.2, seed=2))),
    ("svm", _fit_offline(lambda: SVC(C=1.0, gamma=1.0, seed=2))),
    ("vendor_threshold", _fit_vendor_rule),
    ("majority_baseline", _fit_streaming(MajorityClassBaseline)),
    ("prior_baseline", _fit_streaming(PriorProbabilityBaseline)),
    ("hoeffding", _fit_streaming(
        lambda: HoeffdingTreeClassifier(N_FEATURES, grace_period=30))),
    ("oza_bagging", _fit_streaming(
        lambda: OnlineBaggingEnsemble(
            lambda rng: HoeffdingTreeClassifier(N_FEATURES, grace_period=30),
            n_estimators=3, seed=4))),
    ("oza_boost", _fit_streaming(
        lambda: OzaBoostClassifier(
            lambda rng: HoeffdingTreeClassifier(N_FEATURES, grace_period=30),
            n_estimators=3, seed=4))),
]


@pytest.mark.parametrize("name,build", MODELS, ids=[m[0] for m in MODELS])
def test_predict_is_inclusive_score_threshold(name, build):
    model, X = build()
    scores = model.predict_score(X)
    assert scores.shape == (X.shape[0],)

    # probe the achieved scores themselves — the exact values where an
    # exclusive comparison silently flips the boundary rows — plus
    # points strictly between/around them
    unique = np.unique(scores)
    probes = list(unique[:5]) + list(unique[-5:])
    probes += [unique[0] - 0.125, unique[-1] + 0.125]
    if unique.size > 1:
        probes.append(0.5 * (unique[0] + unique[1]))

    for threshold in probes:
        expected = (scores >= threshold).astype(np.int8)
        got = np.asarray(model.predict(X, threshold=float(threshold)))
        assert np.array_equal(got, expected), (
            f"{name}: predict disagrees with predict_score >= "
            f"{threshold!r} on {(got != expected).sum()} row(s)"
        )


@pytest.mark.parametrize("vote", ["soft", "hard"])
def test_orf_predict_one_bitwise_matches_predict_score(vote):
    """``predict_one(x)`` must equal ``predict_score(x[None, :])[0]`` to
    the bit, in both vote modes.

    Both paths score each tree off the same compiled snapshot and both
    use the strict ``> 0.5`` per-tree hard-vote boundary, so any drift
    between the scalar and the batch serving path is a bug — including
    on samples whose per-tree posteriors land exactly on 0.5.
    """
    X, y = _data()
    model = OnlineRandomForest(
        N_FEATURES, n_trees=5, min_parent_size=40, min_gain=0.01,
        seed=1, vote=vote,
    )
    model.partial_fit(X, y)
    for x in X[:80]:
        one = model.predict_one(x)
        batch = float(model.predict_score(x[None, :])[0])
        assert one == batch or (one != one and batch != batch), (
            f"vote={vote}: predict_one={one!r} != predict_score={batch!r}"
        )


@pytest.mark.parametrize("vote", ["soft", "hard"])
def test_orf_hard_vote_boundary_is_strict(vote):
    """Pin the per-tree vote boundary: a tree whose posterior is exactly
    0.5 does NOT count as a positive vote (strict ``>``), identically in
    ``predict_one`` and ``predict_score``."""
    model = OnlineRandomForest(N_FEATURES, n_trees=3, seed=7, vote=vote)
    # an untrained tree's single leaf has posterior (0+1)/(0+2) = 0.5 —
    # exactly the boundary — so the hard vote fraction must be 0.0 and
    # the soft mean exactly 0.5, on both serving paths
    x = np.full(N_FEATURES, 0.5)
    expected = 0.0 if vote == "hard" else 0.5
    assert model.predict_one(x) == expected
    assert model.predict_score(x[None, :])[0] == expected


def test_vendor_rule_boundary_row_alarms():
    """A disk scoring exactly at the threshold must alarm (>= not >)."""
    model, X = _fit_vendor_rule()
    scores = model.predict_score(X)
    tripped = scores[scores > 0]
    assert tripped.size, "scenario must trip at least one attribute"
    boundary = float(tripped.min())
    labels = model.predict(X, threshold=boundary)
    assert labels[scores == boundary].all()


@pytest.mark.parametrize("vote", ["soft", "hard"])
@pytest.mark.parametrize("n_trees", [3, 8, 9, 30])
def test_orf_predict_score_rows_bitwise_match_predict_one(n_trees, vote):
    """Every row of a multi-row ``predict_score`` equals ``predict_one``
    of that row, to the bit.

    Summing a ``(T, n)`` block over axis 0 adds the trees one after
    another, while a single sample's ``(T, 1)`` column is summed
    pairwise once T >= 8, so the two could differ by an ulp; both must
    reduce each sample's T scores in the same order.
    """
    X, y = _data(n=400)
    model = OnlineRandomForest(
        N_FEATURES, n_trees=n_trees, min_parent_size=20, min_gain=0.01,
        lambda_neg=1.0, seed=3, vote=vote,
    )
    model.partial_fit(X, y)
    probe = np.random.default_rng(5).uniform(size=(200, N_FEATURES))
    batch = model.predict_score(probe)
    singles = np.array([model.predict_one(x) for x in probe])
    assert np.array_equal(batch, singles), (
        f"{(batch != singles).sum()} of {len(probe)} rows differ"
    )
