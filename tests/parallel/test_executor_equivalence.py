"""Executor-equivalence suite: serial is the reference; thread and
process backends must produce bit-identical forests and predictions.

Every tree slot owns its RNG stream, so a slot's trajectory depends only
on its own state — these tests pin down that scheduling, grouping, and
process-boundary pickling never change the result.
"""

import numpy as np
import pytest

from repro.core.forest import OnlineRandomForest
from repro.obs.tracing import Tracer
from repro.parallel.pool import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
)


def stream(n, seed=0, p_pos=0.05, d=6):
    rng = np.random.default_rng(seed)
    y = (rng.uniform(size=n) < p_pos).astype(np.int64)
    X = rng.uniform(size=(n, d))
    pos = y == 1
    X[pos, 0] = rng.uniform(0.6, 1.0, size=pos.sum())
    return X, y


def drift_stream(n, seed=0, d=6):
    """Concept flips halfway — guarantees tree-replacement events under
    the aggressive decay gates used below."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, d))
    y = (X[:, 0] > 0.5).astype(np.int64)
    y[n // 2:] = 1 - y[n // 2:]
    return X, y


def make_forest(executor=None, **kw):
    params = dict(
        n_trees=7,
        n_tests=20,
        min_parent_size=50,
        min_gain=0.03,
        lambda_pos=1.0,
        lambda_neg=0.2,
        seed=1234,
    )
    params.update(kw)
    return OnlineRandomForest(6, executor=executor, **params)


def forest_fingerprint(forest):
    """Everything observable about the streaming state."""
    probe = np.random.default_rng(99).uniform(size=(150, 6))
    serial = SerialExecutor()
    saved, forest._executor = forest._executor, serial
    try:
        scores = forest.predict_score(probe)
    finally:
        forest._executor = saved
    return (
        scores,
        forest.tree_ages(),
        forest.oobe_values(),
        forest.n_replacements,
        forest.n_samples_seen,
        [slot.rng.bit_generator.state for slot in forest.slots],
    )


def assert_same_forest(a, b):
    fa, fb = forest_fingerprint(a), forest_fingerprint(b)
    assert np.array_equal(fa[0], fb[0]), "predictions diverged"
    assert np.array_equal(fa[1], fb[1]), "tree ages diverged"
    assert np.array_equal(fa[2], fb[2]), "OOBE values diverged"
    assert fa[3] == fb[3], "replacement counts diverged"
    assert fa[4] == fb[4], "sample counters diverged"
    assert fa[5] == fb[5], "slot RNG streams diverged"


@pytest.fixture(params=["thread", "process"])
def pool(request):
    executor = make_executor(request.param, 3)
    yield executor
    executor.shutdown()


class TestFitEquivalence:
    def test_exact_partial_fit_identical(self, pool):
        X, y = stream(4000, seed=1)
        serial = make_forest().partial_fit(X, y)
        parallel = make_forest(executor=pool).partial_fit(X, y)
        assert_same_forest(serial, parallel)

    def test_chunked_partial_fit_identical(self, pool):
        X, y = stream(4000, seed=2)
        serial = make_forest().partial_fit(X, y, chunk_size=512)
        parallel = make_forest(executor=pool).partial_fit(X, y, chunk_size=512)
        assert_same_forest(serial, parallel)

    def test_identical_through_replacement_event(self, pool):
        """Equivalence must survive tree regrowth: replacement seeds come
        from the slot's own stream, not from any shared factory."""
        X, y = drift_stream(5000, seed=3)
        gates = dict(
            lambda_neg=0.5,
            oobe_threshold=0.15,
            age_threshold=150,
            oobe_decay=0.05,
            oobe_min_observations=15,
        )
        serial = make_forest(**gates).partial_fit(X, y)
        parallel = make_forest(executor=pool, **gates).partial_fit(X, y)
        assert serial.n_replacements > 0, "fixture must trigger replacement"
        assert_same_forest(serial, parallel)

    def test_update_stream_identical(self, pool):
        X, y = stream(400, seed=4)
        serial = make_forest()
        parallel = make_forest(executor=pool)
        for i in range(X.shape[0]):
            serial.update(X[i], int(y[i]))
            parallel.update(X[i], int(y[i]))
        assert_same_forest(serial, parallel)

    @pytest.mark.parametrize("traced", [False, True])
    def test_update_loop_identical_through_replacements(self, pool, traced):
        """The serial ``update`` loop runs the kernel in place; pooled
        executors deal slot groups to workers.  Both must agree, with a
        live tracer or without, across tree replacements."""
        X, y = drift_stream(800, seed=12)
        gates = dict(
            lambda_neg=0.5,
            oobe_threshold=0.15,
            age_threshold=50,
            oobe_decay=0.05,
            oobe_min_observations=10,
        )
        serial = make_forest(**gates)
        parallel = make_forest(executor=pool, **gates)
        if traced:
            serial.tracer = Tracer()
            parallel.tracer = Tracer()
        for i in range(X.shape[0]):
            serial.update(X[i], int(y[i]))
            parallel.update(X[i], int(y[i]))
        assert serial.n_replacements > 0, "fixture must trigger replacement"
        assert_same_forest(serial, parallel)
        assert_same_forest(serial, make_forest(**gates).partial_fit(X, y))

    def test_mixed_update_then_chunked(self, pool):
        X, y = stream(3000, seed=5)
        serial = make_forest().partial_fit(X[:1000], y[:1000])
        parallel = make_forest(executor=pool).partial_fit(X[:1000], y[:1000])
        serial.partial_fit(X[1000:], y[1000:], chunk_size=300)
        parallel.partial_fit(X[1000:], y[1000:], chunk_size=300)
        assert_same_forest(serial, parallel)


class TestPredictEquivalence:
    def test_predict_score_identical(self, pool):
        X, y = stream(4000, seed=6)
        Xt, _ = stream(500, seed=7)
        serial = make_forest().partial_fit(X, y)
        scores = serial.predict_score(Xt)
        serial._executor = pool
        assert np.array_equal(scores, serial.predict_score(Xt))

    def test_hard_vote_identical(self, pool):
        X, y = stream(3000, seed=8)
        Xt, _ = stream(200, seed=9)
        serial = make_forest(vote="hard").partial_fit(X, y)
        scores = serial.predict_score(Xt)
        serial._executor = pool
        assert np.array_equal(scores, serial.predict_score(Xt))


class TestProcessBackendEndToEnd:
    """Regression: mapped closures used to make the process backend
    unpicklable; every public path must now work over ProcessExecutor."""

    def test_make_executor_process_full_cycle(self):
        X, y = stream(2500, seed=10)
        Xt, _ = stream(100, seed=11)
        with make_executor("process", 2) as pool:
            assert isinstance(pool, ProcessExecutor)
            forest = make_forest(executor=pool)
            forest.partial_fit(X[:1000], y[:1000])
            forest.partial_fit(X[1000:], y[1000:], chunk_size=400)
            forest.update(X[0], int(y[0]))
            scores = forest.predict_score(Xt)
        assert scores.shape == (100,)
        assert np.all((0 <= scores) & (scores <= 1))

    def test_worker_count_respected(self):
        with ThreadExecutor(5) as pool:
            assert pool.n_workers == 5
        assert SerialExecutor().n_workers == 1
