"""Online Random Forest — Algorithm 1 of the paper.

The forest maintains T independent online trees.  Per arriving labeled
sample ⟨x, y⟩ it draws, for every tree, an update multiplicity
k ~ Poisson(λp or λn) (Eq. 3).  Trees with k > 0 fold the sample in k
times (splitting when the α/β condition fires); trees with k = 0 treat
the sample as out-of-bag, update their OOBE, and are discarded and
regrown when decayed (OOBE > θ_OOBE and AGE > θ_AGE).

Trees are mutually independent, so ``update``, ``partial_fit``,
``fit_score`` (fold a batch and score samples in between, Algorithm 2's
interleaving) and ``predict_score`` all map over a
:class:`~repro.parallel.TreeExecutor`
when one is supplied.  Each tree travels as one picklable
:class:`TreeSlot` bundle — the tree, its OOBE tracker, and a private RNG
stream that feeds both its Poisson draws and the seeds of any
replacement trees — so a slot's trajectory depends only on its own
stream, never on scheduling order or on which worker processed it.  The
serial executor is the bit-exact reference; thread and process backends
produce observationally identical forests (the equivalence test suite
asserts this).  All mapped functions are module-level with explicit
payloads, so ``ExecutorKind.PROCESS`` works for both fit and predict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.online_tree import CompiledTree, OnlineDecisionTree
from repro.core.oobe import OOBETracker
from repro.core.poisson import ImbalanceBagger
from repro.core.random_tests import validate_feature_ranges
from repro.obs.tracing import NULL_TRACER, NullTracer
from repro.parallel.chunking import assemble_groups, split_work  # repro: noqa RPR501 — chunking is scheduling math with no model knowledge; inverting it into core would couple the scheduler to one consumer
from repro.parallel.pool import SerialExecutor, TreeExecutor  # repro: noqa RPR501 — models layer consumes the executor abstraction; pool has no model knowledge, so the inversion would be artificial
from repro.utils.rng import RngFactory, SeedLike
from repro.utils.validation import (
    check_array_2d,
    check_binary_labels,
    check_feature_count,
    check_in_range,
    check_positive,
)


@dataclass
class TreeSlot:
    """One tree's complete streaming state, picklable as a unit.

    ``rng`` is the slot's private stream: it supplies the per-sample
    Poisson multiplicities *and* the integer seeds of replacement trees,
    so regrowth inside a worker process stays deterministic without any
    callback to the parent.
    """

    tree: OnlineDecisionTree
    tracker: OOBETracker
    rng: np.random.Generator


@dataclass(frozen=True)
class _FitSpec:
    """Everything a fit worker needs beyond the slots and the data.

    Built once per forest: every field is a constructor parameter.
    """

    #: Poisson rate by class, ``(λn, λp)``: ``rates[y]`` is λ per row
    rates: np.ndarray
    oobe_threshold: Optional[float]
    age_threshold: float
    tree_params: dict
    #: hard vote: a tree scores 1.0 when its posterior is > 0.5, else 0.0
    hard: bool


#: score segments at least this long go through one vectorized
#: ``predict_batch`` per tree; shorter ones walk the snapshot row by row
#: (both read the same compiled posteriors, so the bits agree)
_VECTOR_SCORE_ROWS = 16


def _regrow_tree(spec: _FitSpec, rng: np.random.Generator) -> OnlineDecisionTree:
    """Fresh tree seeded from the slot's own stream (deterministic per slot)."""
    seed = int(rng.integers(0, 2**63))
    return OnlineDecisionTree(seed=seed, **spec.tree_params)


def _is_decayed(slot: TreeSlot, spec: _FitSpec) -> bool:
    """The decay rule: OOBE > θ_OOBE and AGE > θ_AGE (never when disabled)."""
    return spec.oobe_threshold is not None and slot.tracker.is_decayed(
        slot.tree.age,
        oobe_threshold=spec.oobe_threshold,
        age_threshold=spec.age_threshold,
    )


def _replace(slot: TreeSlot, spec: _FitSpec) -> None:
    """Discard the slot's tree and regrow it from the slot's stream."""
    slot.tree = _regrow_tree(spec, slot.rng)
    slot.tracker.reset()


def _draw_ks(rng: np.random.Generator, lam: np.ndarray) -> List[int]:
    """Poisson multiplicities for the rows of *lam*, in row order.

    A vector draw consumes the stream element by element, exactly like
    one scalar draw per row; a single row takes the scalar call, which
    skips the array argument checks that dominate a length-1 draw.
    """
    if lam.shape[0] == 1:
        return [rng.poisson(float(lam[0]))]
    ks: List[int] = rng.poisson(lam).tolist()
    return ks


def _mean_over_trees(block: np.ndarray) -> np.ndarray:
    """Forest score per column of a ``(T, m)`` per-tree score block.

    Each column's T scores are summed as one contiguous run (pairwise
    once T >= 8), which is the order a single sample's ``(T, 1)``
    column sums in.  Summing the block over axis 0 instead adds the
    trees one after another and can differ by an ulp, so a sample would
    score differently alone than in a batch.
    """
    return np.ascontiguousarray(block.T).sum(axis=1) / block.shape[0]


def _score_rows(
    c: CompiledTree,
    X: np.ndarray,
    lo: int,
    hi: int,
    out: np.ndarray,
    hard: bool,
) -> None:
    """Write a tree's score of rows ``lo:hi`` of *X* into ``out[lo:hi]``,
    from its compiled snapshot *c*."""
    if hi - lo >= _VECTOR_SCORE_ROWS:
        p = c.predict_batch(X[lo:hi])
        out[lo:hi] = p > 0.5 if hard else p
        return
    posterior, route = c.posterior_l, c.route_one
    for j in range(lo, hi):
        s = posterior[route(X[j])]
        out[j] = (1.0 if s > 0.5 else 0.0) if hard else s


def _fit_score_slot(
    slot: TreeSlot,
    rows: List[np.ndarray],
    labels: List[int],
    lam: np.ndarray,
    spec: _FitSpec,
    X_score: np.ndarray,
    cuts: List[int],
    out: np.ndarray,
) -> int:
    """Per-sample Algorithm 1 for one slot over the whole batch, in row
    order, scoring ``X_score[j]`` into ``out[j]`` once ``cuts[j]`` rows
    are folded.

    The one exact kernel: ``update``, exact ``partial_fit``, and both
    modes of ``OnlineDiskFailurePredictor.process_batch`` run it, and it
    consumes the slot's stream in the order the per-sample loop does.
    The batch's multiplicities come from one vector draw.  A replacement
    draws its tree's seed from the same stream, after the k of its own
    row and before the k of the next, so when one fires before the last
    row the stream is rewound to before the vector draw, the rows up to
    and including this one are redrawn (the same values), the seed is
    drawn, and the rest of the batch is drawn afresh.  Out-of-bag rows
    walk the compiled snapshot, re-fetched only after an in-bag update
    or a replacement; the decay rule is consulted only once the tree is
    older than θ_AGE, since it cannot fire before.
    """
    rng = slot.rng
    tree, tracker = slot.tree, slot.tracker
    n, m = len(rows), len(cuts)
    oobe_threshold = spec.oobe_threshold
    age_threshold = spec.age_threshold
    hard = spec.hard
    base = 0  # first row of the current vector draw
    rewind = rng.bit_generator.state if n > 1 else {}  # stream before it
    ks = _draw_ks(rng, lam) if n else []
    c: Optional[CompiledTree] = None  # the tree's snapshot, while current
    j = 0  # next score row
    n_replaced = 0
    for i in range(n):
        if j < m and cuts[j] == i:  # samples scored before row i
            lo = j
            while j < m and cuts[j] == i:
                j += 1
            if c is None:
                c = tree.compile()
            _score_rows(c, X_score, lo, j, out, hard)
        k = ks[i]
        if k > 0:
            tree.update_repeated(rows[i], labels[i], k)
            c = None
            continue
        # out-of-bag: score the sample, update OOBE, maybe replace
        if c is None:
            c = tree.compile()
        pred = 1 if c.posterior_l[c.route_one(rows[i])] > 0.5 else 0
        tracker.observe(labels[i], pred)
        if (
            oobe_threshold is None
            or not tree.age > age_threshold
            or not tracker.value() > oobe_threshold
        ):
            continue
        n_replaced += 1
        c = None
        if i + 1 == n:  # nothing was drawn past this row
            _replace(slot, spec)
            tree = slot.tree
            break
        # the rest of the batch was drawn before the seed: replay the
        # draw up to this row, draw the seed, then draw the rest again
        rng.bit_generator.state = rewind
        rng.poisson(lam[base : i + 1])
        _replace(slot, spec)
        tree = slot.tree
        base = i + 1
        rewind = rng.bit_generator.state
        ks[base:] = _draw_ks(rng, lam[base:])
    if j < m:
        _score_rows(tree.compile(), X_score, j, m, out, hard)
    return n_replaced


def _fit_slot_chunked(
    slot: TreeSlot,
    X: np.ndarray,
    y: np.ndarray,
    lam: np.ndarray,
    spec: _FitSpec,
    chunk_size: int,
) -> int:
    """Mini-batch fast path for one slot: vectorized draws, bulk folds,
    closed-form batch OOBE, decay checked once per chunk."""
    n_replaced = 0
    for start in range(0, X.shape[0], chunk_size):
        sl = slice(start, min(start + chunk_size, X.shape[0]))
        Xc, yc = X[sl], y[sl]
        ks = slot.rng.poisson(lam[sl])
        in_bag = ks > 0
        if in_bag.any():
            slot.tree.update_batch(
                Xc[in_bag], yc[in_bag], ks[in_bag].astype(np.float64)
            )
        oob = ~in_bag
        if oob.any():
            preds = (slot.tree.predict_batch(Xc[oob]) > 0.5).astype(np.int8)
            slot.tracker.observe_batch(yc[oob], preds)
            if _is_decayed(slot, spec):
                _replace(slot, spec)
                n_replaced += 1
    return n_replaced


_FitPayload = Tuple[
    List[TreeSlot], np.ndarray, np.ndarray, _FitSpec, int, np.ndarray, List[int]
]


def _fit_slots(payload: _FitPayload) -> Tuple[List[TreeSlot], int, np.ndarray]:
    """Worker: stream one batch through a group of slots.

    Module-level so process pools can pickle it; returns the (possibly
    copied, in process workers) slots so the caller can reinstall them,
    the replacement count, and the group's ``(slots, m)`` score block.
    ``chunk_size <= 0`` selects the exact kernel, the only one that
    scores.
    """
    slots, X, y, spec, chunk_size, X_score, cuts = payload
    lam = spec.rates[y]
    n_replaced = 0
    block = np.empty((len(slots), len(cuts)), dtype=np.float64)
    if chunk_size > 0:
        for slot in slots:
            n_replaced += _fit_slot_chunked(slot, X, y, lam, spec, chunk_size)
        return slots, n_replaced, block
    rows, labels = list(X), y.tolist()
    for slot, out in zip(slots, block):
        n_replaced += _fit_score_slot(
            slot, rows, labels, lam, spec, X_score, cuts, out
        )
    return slots, n_replaced, block


def _score_trees(
    payload: Tuple[List[OnlineDecisionTree], np.ndarray, bool],
) -> np.ndarray:
    """Worker: per-tree score rows for a group of trees (picklable payload).

    Returning one row per tree (not a group-local sum) lets the caller
    reduce the full ``(T, n)`` block with :func:`_mean_over_trees`, so
    the result is bit-identical whatever the executor's grouping.
    """
    trees, X, hard = payload
    out = np.empty((len(trees), X.shape[0]), dtype=np.float64)
    for tree, row in zip(trees, out):
        _score_rows(tree.compile(), X, 0, X.shape[0], row, hard)
    return out


class OnlineRandomForest:
    """ORF classifier for streaming, heavily imbalanced binary data.

    Parameters (paper symbols in parentheses)
    ----------
    n_features:
        Input dimensionality.
    n_trees:
        Ensemble size (T; the paper uses 30).
    n_tests:
        Candidate random tests per leaf (N).
    min_parent_size / min_gain:
        Split gates (α = 200, β = 0.1 in the paper).
    lambda_pos / lambda_neg:
        Class-specific online-bagging rates (λp = 1, λn = 0.02).
    oobe_threshold / age_threshold:
        Tree-decay gates (θ_OOBE, θ_AGE).  Age is counted in weighted
        samples folded into the tree.  Set ``oobe_threshold=None`` to
        disable tree replacement entirely (ablation A1).
    vote:
        ``"soft"`` — average leaf posteriors (granular scores for FAR
        thresholding); ``"hard"`` — fraction of trees voting positive
        (the literal "mode of the classes" of §3.1).
    max_depth, split_check_interval, feature_ranges:
        Forwarded to every tree (see :class:`OnlineDecisionTree`).
    executor:
        Optional :class:`TreeExecutor`; per-tree work — both stream
        updates and batch prediction — is dealt into contiguous slot
        groups and mapped over it.  Because every slot owns its RNG
        stream, thread and process backends are observationally
        identical to the serial reference under the same seed.
    """

    def __init__(
        self,
        n_features: int,
        *,
        n_trees: int = 25,
        n_tests: int = 40,
        min_parent_size: float = 200.0,
        min_gain: float = 0.1,
        lambda_pos: float = 1.0,
        lambda_neg: float = 0.02,
        oobe_threshold: Optional[float] = 0.25,
        age_threshold: float = 2000.0,
        oobe_decay: float = 0.01,
        oobe_min_observations: int = 50,
        vote: str = "soft",
        max_depth: int = 20,
        split_check_interval: int = 1,
        feature_ranges: Optional[np.ndarray] = None,
        seed: SeedLike = None,
        executor: Optional[TreeExecutor] = None,
    ) -> None:
        check_positive(n_features, "n_features")
        check_positive(n_trees, "n_trees")
        if oobe_threshold is not None:
            check_in_range(oobe_threshold, "oobe_threshold", 0.0, 1.0)
        check_positive(age_threshold, "age_threshold", strict=False)
        if vote not in ("soft", "hard"):
            raise ValueError(f"vote must be 'soft' or 'hard', got {vote!r}")

        self.n_features = int(n_features)
        self.n_trees = int(n_trees)
        self.n_tests = int(n_tests)
        self.min_parent_size = float(min_parent_size)
        self.min_gain = float(min_gain)
        self.oobe_threshold = oobe_threshold
        self.age_threshold = float(age_threshold)
        self.oobe_decay = float(oobe_decay)
        self.oobe_min_observations = int(oobe_min_observations)
        self.vote = vote
        self.max_depth = int(max_depth)
        self.split_check_interval = int(split_check_interval)
        self.feature_ranges = (
            None
            if feature_ranges is None
            else validate_feature_ranges(feature_ranges, self.n_features)
        )

        self._rng_factory = RngFactory(seed)
        self.bagger = ImbalanceBagger(
            lambda_pos, lambda_neg, seed=self._rng_factory.make()
        )
        self.slots: List[TreeSlot] = [
            TreeSlot(
                tree=self._new_tree(),
                tracker=self._new_tracker(),
                rng=self._rng_factory.make(),
            )
            for _ in range(self.n_trees)
        ]
        self._executor = executor or SerialExecutor()
        self._spec = _FitSpec(
            rates=np.array([self.bagger.lambda_neg, self.bagger.lambda_pos]),
            oobe_threshold=self.oobe_threshold,
            age_threshold=self.age_threshold,
            tree_params=self._tree_params(),
            hard=self.vote == "hard",
        )
        #: stage tracer for the batch fit/predict paths; the no-op
        #: default keeps results bit-identical and the hot path free
        self.tracer: NullTracer = NULL_TRACER
        #: lifetime counters (inspection / ablation instrumentation)
        self.n_samples_seen = 0
        self.n_replacements = 0

    # --------------------------------------------------------------- plumbing
    def _tree_params(self) -> dict:
        """Constructor kwargs shared by every tree (picklable, seed-free)."""
        return dict(
            n_features=self.n_features,
            n_tests=self.n_tests,
            min_parent_size=self.min_parent_size,
            min_gain=self.min_gain,
            max_depth=self.max_depth,
            feature_ranges=self.feature_ranges,
            split_check_interval=self.split_check_interval,
        )

    def _new_tree(self, seed: SeedLike = None) -> OnlineDecisionTree:
        if seed is None:
            seed = self._rng_factory.make()
        return OnlineDecisionTree(seed=seed, **self._tree_params())

    def _new_tracker(self) -> OOBETracker:
        return OOBETracker(
            decay=self.oobe_decay, min_observations=self.oobe_min_observations
        )

    @property
    def trees(self) -> List[OnlineDecisionTree]:
        """Current trees, in slot order (read-only view)."""
        return [slot.tree for slot in self.slots]

    @property
    def trackers(self) -> List[OOBETracker]:
        """Current OOBE trackers, in slot order (read-only view)."""
        return [slot.tracker for slot in self.slots]

    @property
    def lambda_pos(self) -> float:
        """Poisson rate applied to positive samples (Eq. 3)."""
        return self.bagger.lambda_pos

    @property
    def lambda_neg(self) -> float:
        """Poisson rate applied to negative samples (Eq. 3)."""
        return self.bagger.lambda_neg

    # ----------------------------------------------------------------- update
    def _map_fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        chunk_size: int = 0,
        X_score: Optional[np.ndarray] = None,
        cuts: Sequence[int] = (),
    ) -> np.ndarray:
        """Stream the batch through every slot, in slot groups; return the
        ``(T, m)`` per-tree scores of the *cuts* score points.

        A one-worker executor runs the kernel on ``self.slots`` in
        place; otherwise slots are dealt into worker groups and
        whatever comes back is reinstalled (process workers mutate
        copies).  Each slot owns its stream, so both give one result.
        """
        if X_score is None:
            X_score = X[:0]
        cuts = list(cuts)
        self.n_samples_seen += X.shape[0]
        n_workers = getattr(self._executor, "n_workers", 1)
        if n_workers == 1:
            _, n_replaced, block = _fit_slots(
                (self.slots, X, y, self._spec, chunk_size, X_score, cuts)
            )
            self.n_replacements += n_replaced
            return block
        groups = split_work(self.slots, n_workers)
        payloads = [
            (group, X, y, self._spec, chunk_size, X_score, cuts)
            for group in groups
        ]
        results = self._executor.map(_fit_slots, payloads)
        self.slots = assemble_groups([slots for slots, _, _ in results])
        self.n_replacements += sum(n for _, n, _ in results)
        return np.vstack([block for _, _, block in results])

    def update(self, x: np.ndarray, y: int) -> None:
        """Fold one labeled sample into the forest (Algorithm 1)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_features,):
            raise ValueError(
                f"x must have shape ({self.n_features},), got {x.shape}"
            )
        if y not in (0, 1):
            raise ValueError(f"y must be 0 or 1, got {y!r}")
        with self.tracer.span("forest.fit", items=1):
            self._map_fit(x[None, :], np.array([y], dtype=np.int64))

    def partial_fit(self, X: np.ndarray, y: np.ndarray, *, chunk_size: int = 0) -> "OnlineRandomForest":
        """Stream a batch of labeled samples, in row order; returns self.

        ``chunk_size = 0`` (default) replays Algorithm 1 exactly, sample
        by sample.  A positive ``chunk_size`` switches to the mini-batch
        fast path: per chunk and per tree, Poisson multiplicities are
        drawn vectorized, in-bag rows are bulk-routed and bulk-folded
        into leaf statistics (splits evaluated at chunk boundaries), and
        out-of-bag rows update the OOBE via one batch prediction and a
        closed-form EWMA.  Decay checks run once per tree per chunk.
        Semantics relax slightly (splits/replacements can lag by up to
        one chunk) in exchange for a large constant-factor speedup on
        negative-heavy streams — see the A8 throughput bench.

        Both paths map per-tree work over the forest's executor; because
        each slot owns its RNG stream, the resulting forest is identical
        for serial, thread, and process backends under the same seed.
        """
        X = check_array_2d(X, "X")
        check_feature_count(X, self.n_features, "X")
        y = check_binary_labels(y, n_rows=X.shape[0])
        if X.shape[0] == 0:
            return self
        with self.tracer.span("forest.fit", items=X.shape[0]):
            self._map_fit(X, np.asarray(y, dtype=np.int64), int(chunk_size))
        return self

    def fit_score(
        self,
        X_fit: np.ndarray,
        y_fit: np.ndarray,
        X_score: np.ndarray,
        cuts: Sequence[int],
    ) -> np.ndarray:
        """Fold labeled rows and score samples in between, in one pass.

        Row ``X_score[j]`` is scored by the forest that has folded
        exactly the first ``cuts[j]`` rows of ``X_fit`` (*cuts* is
        non-decreasing, each in ``[0, len(X_fit)]``).  The result is
        bit-identical to the loop that calls :meth:`update` on each fit
        row and :meth:`predict_one` at each score point, in that
        interleaving: the same kernel as exact :meth:`partial_fit`, with
        the score points written into a ``(T, m)`` block on the way and
        reduced in :meth:`predict_one`'s order.  With every cut at
        ``len(X_fit)`` this is ``partial_fit`` then ``predict_score``.
        """
        X_fit = check_array_2d(X_fit, "X_fit")
        check_feature_count(X_fit, self.n_features, "X_fit")
        y_fit = check_binary_labels(y_fit, n_rows=X_fit.shape[0])
        X_score = check_array_2d(X_score, "X_score")
        check_feature_count(X_score, self.n_features, "X_score")
        cuts = [int(c) for c in cuts]
        n = X_fit.shape[0]
        if len(cuts) != X_score.shape[0]:
            raise ValueError(
                f"cuts has {len(cuts)} entries for {X_score.shape[0]} score rows"
            )
        if any(b < a for a, b in zip(cuts, cuts[1:])) or (
            cuts and not 0 <= cuts[0] <= cuts[-1] <= n
        ):
            raise ValueError(
                f"cuts must be non-decreasing and within [0, {n}]"
            )
        if n == 0 and not cuts:
            return np.empty(0, dtype=np.float64)
        with self.tracer.span("forest.fit_score", items=n + len(cuts)):
            block = self._map_fit(
                X_fit, np.asarray(y_fit, dtype=np.int64), 0, X_score, cuts
            )
            return _mean_over_trees(block)

    # ------------------------------------------------------------- prediction
    def predict_score(self, X: np.ndarray) -> np.ndarray:
        """Positive score per row (mean posterior, or vote fraction).

        Row ``j`` is bit-identical to ``predict_one(X[j])``.
        """
        X = check_array_2d(X, "X")
        check_feature_count(X, self.n_features, "X")
        with self.tracer.span("forest.predict", items=X.shape[0]):
            groups = split_work(
                self.trees, getattr(self._executor, "n_workers", 1)
            )
            payloads = [(group, X, self._spec.hard) for group in groups]
            partials = self._executor.map(_score_trees, payloads)
            return _mean_over_trees(np.vstack(partials))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """``(n, 2)`` class probabilities."""
        p1 = self.predict_score(X)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray, *, threshold: float = 0.5) -> np.ndarray:
        """Hard labels at a score threshold."""
        return (self.predict_score(X) >= threshold).astype(np.int8)

    def predict_one(self, x: np.ndarray) -> float:
        """Score a single sample (the Algorithm-2 per-snapshot path).

        Bit-identical to ``predict_score(X)[j]`` for any batch ``X``
        holding ``x`` as row ``j``, in both vote modes: per-tree scores
        come from the same compiled snapshots, the hard-vote boundary is
        the same strict ``> 0.5``, and both reduce through
        :func:`_mean_over_trees` (asserted in
        ``tests/test_predict_contract.py``).
        """
        x = np.asarray(x, dtype=np.float64)
        with self.tracer.span("forest.predict", items=1):
            hard = self.vote == "hard"
            p = np.empty((self.n_trees, 1), dtype=np.float64)
            for i, slot in enumerate(self.slots):
                s = slot.tree.predict_one(x)
                p[i, 0] = (1.0 if s > 0.5 else 0.0) if hard else s
            return float(_mean_over_trees(p)[0])

    def compile(self, *, laplace: float = 1.0) -> "OnlineRandomForest":
        """Warm every tree's compiled inference snapshot; returns self.

        Prediction compiles lazily anyway — calling this up front moves
        the one-off array materialization out of the first scored
        request (e.g. after a checkpoint restore or before latency-
        sensitive serving).  Representation-only: scores are unchanged.
        """
        for slot in self.slots:
            slot.tree.compile(laplace=laplace)
        return self

    # ------------------------------------------------------------- inspection
    def tree_ages(self) -> np.ndarray:
        """Weighted samples folded into each tree (AGE_t)."""
        return np.array([slot.tree.age for slot in self.slots])

    def oobe_values(self) -> np.ndarray:
        """Current balanced OOBE of each tree."""
        return np.array([slot.tracker.value() for slot in self.slots])

    @property
    def feature_importances_(self) -> np.ndarray:
        """Normalized online Gini importance, accumulated at every split.

        Each split credits its feature with ``|D| · ΔG`` (the weighted
        impurity decrease at split time); the forest view is the mean
        over trees, normalized to sum to 1 (all-zero before any split).
        """
        total = np.sum([slot.tree.importance_ for slot in self.slots], axis=0)
        s = total.sum()
        return total / s if s > 0 else total

    def stats(self) -> dict:
        """One-line health summary for logs and notebooks."""
        return {
            "n_samples_seen": self.n_samples_seen,
            "n_replacements": self.n_replacements,
            "mean_tree_age": float(self.tree_ages().mean()),
            "mean_oobe": float(self.oobe_values().mean()),
            "total_nodes": int(sum(s.tree.n_nodes for s in self.slots)),
            "mean_depth": float(np.mean([s.tree.depth for s in self.slots])),
        }
