"""One online decision tree (the f_t of Algorithm 1).

The tree is stored struct-of-arrays (parallel Python lists of scalars for
O(1) append on split).  Leaves own a :class:`~repro.core.node_stats.
LeafStats`; a leaf splits when it has seen at least ``min_parent_size``
(α) samples and its best candidate test achieves Gini gain at least
``min_gain`` (β) — exactly the condition of §3.1.  A check whose gain
provably cannot reach β yet (:meth:`~repro.core.node_stats.LeafStats.
may_split`) skips the gain evaluation; the splits are the same.

Inference additionally runs through a **compiled** snapshot
(:class:`CompiledTree`): :meth:`OnlineDecisionTree.compile` freezes the
structure into contiguous NumPy arrays plus a precomputed per-node leaf
posterior, so batch routing is level-synchronous vectorized indexing
instead of a Python loop over nodes, and per-sample scoring is a flat
list walk plus one posterior lookup.  The snapshot is cached on the
tree, patched incrementally when leaf statistics change, and rebuilt
only when the structure changes (a split) — see :meth:`compile`.
Compilation is representation-only: compiled and interpreted inference
are bit-identical (asserted in ``tests/core/test_compiled.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.node_stats import LeafStats
from repro.core.random_tests import (
    RandomTestSet,
    make_random_tests,
    validate_feature_ranges,
)
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive


@dataclass
class CompiledTree:
    """Flat-array inference snapshot of one :class:`OnlineDecisionTree`.

    The structure arrays are frozen at compile time (a split invalidates
    the whole snapshot); the posterior entries track live leaf updates
    through the ``dirty`` set, flushed by :meth:`patch` on the next
    :meth:`OnlineDecisionTree.compile` access.

    The Python-list mirrors (``*_l``) exist because scalar routing in
    CPython is measurably faster over plain lists than over ndarray
    scalar indexing; both views are built from the same data, so the
    vectorized and scalar routers are bit-identical by construction.
    """

    feature: np.ndarray  # (n_nodes,) int32; -1 marks a leaf
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray  # (n_nodes,) int32
    right: np.ndarray  # (n_nodes,) int32
    leaf_posterior: np.ndarray  # (n_nodes,) float64; NaN on branch nodes
    laplace: float
    feature_l: List[int]
    threshold_l: List[float]
    left_l: List[int]
    right_l: List[int]
    posterior_l: List[float]
    #: leaf ids whose statistics changed since the posterior was computed
    dirty: Set[int] = field(default_factory=set)

    @property
    def n_nodes(self) -> int:
        """Total node count of the snapshot."""
        return int(self.feature.shape[0])

    def route_one(self, x: np.ndarray) -> int:
        """Leaf id one sample routes to (scalar walk over the mirrors)."""
        feature, threshold = self.feature_l, self.threshold_l
        left, right = self.left_l, self.right_l
        nid = 0
        f = feature[0]
        while f >= 0:
            nid = right[nid] if x[f] > threshold[nid] else left[nid]
            f = feature[nid]
        return nid

    def route_batch(self, X: np.ndarray) -> np.ndarray:
        """Leaf id per row by level-synchronous vectorized routing.

        Each iteration advances every still-internal row one level, so
        the Python-loop count is the tree *depth*, not the node count —
        the move that makes compiled batch inference fast on grown
        trees.
        """
        feature, threshold = self.feature, self.threshold
        left, right = self.left, self.right
        nid = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.nonzero(feature[nid] >= 0)[0]
        while rows.size:
            cur = nid[rows]
            f = feature[cur]
            go_right = X[rows, f] > threshold[cur]
            nxt = np.where(go_right, right[cur], left[cur])
            nid[rows] = nxt
            rows = rows[feature[nxt] >= 0]
        return nid

    def predict_one(self, x: np.ndarray) -> float:
        """P(y = 1) for one sample via the compiled posterior."""
        return self.posterior_l[self.route_one(x)]

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """P(y = 1) per row: vectorized routing + one posterior gather."""
        return self.leaf_posterior[self.route_batch(X)]

    def patch(self, leaf_stats: Dict[int, LeafStats]) -> None:
        """Recompute the posterior of every dirty leaf from live stats."""
        for nid in self.dirty:
            p = leaf_stats[nid].posterior_positive(laplace=self.laplace)
            self.leaf_posterior[nid] = p
            self.posterior_l[nid] = p
        self.dirty.clear()


class OnlineDecisionTree:
    """A single randomized tree grown from a sample stream.

    Parameters
    ----------
    n_features:
        Dimensionality of the input vectors.
    n_tests:
        Number of candidate random tests per leaf (the paper's N).
    min_parent_size:
        α — minimum weighted samples a leaf must see before splitting.
    min_gain:
        β — minimum Gini gain a split must achieve.
    max_depth:
        Depth cap; leaves at the cap stop drawing candidate tests and
        only accumulate class counts.
    feature_ranges:
        ``(n_features, 2)`` threshold sampling ranges; defaults to [0, 1]
        per feature (inputs are min-max scaled upstream).
    split_check_interval:
        Evaluate the split condition every k-th update once the leaf is
        past α (1 = after every update, the paper's literal rule; larger
        values amortize the gain computation on hot leaves).  The gate
        counts *update events* (``LeafStats.n_updates``), not weighted
        mass, so fractional weights cannot skip or repeat the schedule.
    """

    def __init__(
        self,
        n_features: int,
        *,
        n_tests: int = 40,
        min_parent_size: float = 200.0,
        min_gain: float = 0.1,
        max_depth: int = 20,
        feature_ranges: Optional[np.ndarray] = None,
        split_check_interval: int = 1,
        seed: SeedLike = None,
    ) -> None:
        check_positive(n_features, "n_features")
        check_positive(n_tests, "n_tests")
        check_positive(min_parent_size, "min_parent_size")
        check_positive(min_gain, "min_gain", strict=False)
        check_positive(max_depth, "max_depth")
        check_positive(split_check_interval, "split_check_interval")
        self.n_features = int(n_features)
        self.n_tests = int(n_tests)
        self.min_parent_size = float(min_parent_size)
        self.min_gain = float(min_gain)
        self.max_depth = int(max_depth)
        self.split_check_interval = int(split_check_interval)
        if feature_ranges is None:
            ranges = np.empty((n_features, 2), dtype=np.float64)
            ranges[:, 0], ranges[:, 1] = 0.0, 1.0
            self.feature_ranges = ranges
        else:
            self.feature_ranges = validate_feature_ranges(feature_ranges, n_features)
        self._rng = as_generator(seed)

        # struct-of-arrays node storage; -1 feature marks a leaf
        self._feature: List[int] = []
        self._threshold: List[float] = []
        self._left: List[int] = []
        self._right: List[int] = []
        self._depth: List[int] = []
        self._leaf_stats: Dict[int, LeafStats] = {}
        #: cached flat-array inference snapshot (None until compiled;
        #: invalidated by structure changes, patched on leaf updates)
        self._compiled: Optional[CompiledTree] = None

        #: weighted samples folded into this tree (its AGE in Algorithm 1)
        self.age = 0.0
        self.n_splits = 0
        #: accumulated |D|·ΔG per feature (online Gini importance)
        self.importance_ = np.zeros(self.n_features, dtype=np.float64)
        self._add_leaf(depth=0, prior_counts=None)

    # ------------------------------------------------------------- structure
    def _add_leaf(self, depth: int, prior_counts: Optional[np.ndarray]) -> int:
        nid = len(self._feature)
        self._feature.append(-1)
        self._threshold.append(np.nan)
        self._left.append(-1)
        self._right.append(-1)
        self._depth.append(depth)
        tests = (
            make_random_tests(
                self._rng, self.n_tests, self.n_features, self.feature_ranges
            )
            if depth < self.max_depth
            else None
        )
        self._leaf_stats[nid] = LeafStats(tests, prior_counts)
        return nid

    @property
    def n_nodes(self) -> int:
        """Total node count (branches + leaves)."""
        return len(self._feature)

    @property
    def n_leaves(self) -> int:
        """Current leaf count."""
        return len(self._leaf_stats)

    @property
    def depth(self) -> int:
        """Depth of the deepest node (root = 0)."""
        return max(self._depth) if self._depth else 0

    # the compiled snapshot is a cache: drop it from pickles so executor
    # payloads stay slim; workers rebuild lazily on first prediction
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_compiled"] = None
        return state

    # ------------------------------------------------------------- compiled
    def compile(self, *, laplace: float = 1.0) -> CompiledTree:
        """Materialize (or fetch) the flat-array inference snapshot.

        The snapshot is cached on the tree and reused across calls:
        leaf-statistic updates only mark their leaf dirty (the posterior
        entry is re-patched here on the next access), while a structure
        change (:meth:`_split`) discards the cache entirely, so the next
        access rebuilds from the current node arrays.  Requesting a
        different ``laplace`` than the cached snapshot's also rebuilds.
        """
        c = self._compiled
        if c is None or c.laplace != laplace:
            feature = np.asarray(self._feature, dtype=np.int32)
            threshold = np.asarray(self._threshold, dtype=np.float64)
            left = np.asarray(self._left, dtype=np.int32)
            right = np.asarray(self._right, dtype=np.int32)
            posterior = np.full(feature.shape[0], np.nan, dtype=np.float64)
            for nid, stats in self._leaf_stats.items():
                posterior[nid] = stats.posterior_positive(laplace=laplace)
            c = CompiledTree(
                feature=feature,
                threshold=threshold,
                left=left,
                right=right,
                leaf_posterior=posterior,
                laplace=float(laplace),
                feature_l=list(self._feature),
                threshold_l=list(self._threshold),
                left_l=list(self._left),
                right_l=list(self._right),
                posterior_l=posterior.tolist(),
            )
            self._compiled = c
        elif c.dirty:
            c.patch(self._leaf_stats)
        return c

    # ----------------------------------------------------------------- route
    def find_leaf(self, x: np.ndarray) -> int:
        """Leaf id the sample routes to (the FindLeaf of Algorithm 1)."""
        c = self._compiled
        if c is not None:
            return c.route_one(x)
        feature, threshold = self._feature, self._threshold
        left, right = self._left, self._right
        nid = 0
        f = feature[0]
        while f >= 0:
            nid = right[nid] if x[f] > threshold[nid] else left[nid]
            f = feature[nid]
        return nid

    # ---------------------------------------------------------------- update
    def update(self, x: np.ndarray, y: int, weight: float = 1.0) -> None:
        """Fold one labeled sample into the tree (UpdateNode + split check)."""
        self.age += weight
        nid = self.find_leaf(x)
        stats = self._leaf_stats[nid]
        stats.update(x, y, weight)
        c = self._compiled
        if c is not None:
            c.dirty.add(nid)
        self._maybe_split(nid, stats)

    def update_repeated(self, x: np.ndarray, y: int, k: int, weight: float = 1.0) -> None:
        """Fold one sample in *k* times (the k ~ Poisson multiplicity).

        Each repetition re-routes from the root: a split fired by an
        earlier repetition changes where the later ones land, exactly as
        in the sample-by-sample Algorithm 1.
        """
        for _ in range(k):
            self.update(x, y, weight)

    def _maybe_split(self, nid: int, stats: LeafStats) -> None:
        if stats.tests is None or stats.n_seen < self.min_parent_size:
            return
        if self.split_check_interval > 1 and (
            stats.n_updates % self.split_check_interval != 0
        ):
            return
        if not stats.may_split(self.min_gain):
            return
        test_idx, gain = stats.best_split()
        if test_idx < 0 or gain < self.min_gain:
            return
        self._split(nid, stats, test_idx, gain)

    def _split(
        self, nid: int, stats: LeafStats, test_idx: int, gain: float
    ) -> None:
        """Turn leaf *nid* into a branch on its test *test_idx*, whose
        ΔG (from :meth:`LeafStats.best_split`) credits the importance."""
        tests = stats.tests
        assert tests is not None  # callers gate on stats.tests
        self.importance_[tests.features[test_idx]] += gain * stats.n_seen
        left_counts, right_counts = stats.child_counts(test_idx)
        depth = self._depth[nid]
        left_id = self._add_leaf(depth + 1, left_counts)
        right_id = self._add_leaf(depth + 1, right_counts)
        self._feature[nid] = int(tests.features[test_idx])
        self._threshold[nid] = float(tests.thresholds[test_idx])
        self._left[nid] = left_id
        self._right[nid] = right_id
        del self._leaf_stats[nid]
        self.n_splits += 1
        # structure changed: the compiled snapshot is stale as a whole
        self._compiled = None

    def route_batch(self, X: np.ndarray) -> np.ndarray:
        """Leaf id per row.

        Routes through the compiled snapshot when one is cached (the
        serving path keeps it warm); otherwise falls back to the
        interpreted group traversal — callers that never predict (pure
        training) pay no compilation churn.
        """
        c = self._compiled
        if c is not None:
            return c.route_batch(X)
        return self._route_batch_interpreted(X)

    def _route_batch_interpreted(self, X: np.ndarray) -> np.ndarray:
        """Reference batch router: per-node group traversal over the
        Python lists (one NumPy op per visited node)."""
        n = X.shape[0]
        out = np.empty(n, dtype=np.int64)
        stack: List[Tuple[int, np.ndarray]] = [(0, np.arange(n))]
        feature, threshold = self._feature, self._threshold
        while stack:
            nid, rows = stack.pop()
            if rows.size == 0:
                continue
            f = feature[nid]
            if f < 0:
                out[rows] = nid
                continue
            go_right = X[rows, f] > threshold[nid]
            stack.append((self._left[nid], rows[~go_right]))
            stack.append((self._right[nid], rows[go_right]))
        return out

    def update_batch(self, X: np.ndarray, y: np.ndarray, weights: np.ndarray) -> None:
        """Mini-batch variant of :meth:`update`.

        Routes the whole batch against the *current* structure, bulk-updates
        each touched leaf, then evaluates splits once per touched leaf —
        i.e. splits are deferred to batch boundaries, a deliberate semantic
        relaxation of the per-sample algorithm (document at the forest
        level; per-sample exactness is available via ``update``).

        ``split_check_interval`` is honored at the same granularity: a
        touched leaf is only evaluated when this batch moved its update
        counter across a multiple of the interval, matching the
        per-sample schedule evaluated at batch boundaries (for
        single-row batches the two gates are identical).
        """
        if X.shape[0] == 0:
            return
        self.age += float(weights.sum())
        leaf_ids = self.route_batch(X)
        interval = self.split_check_interval
        c = self._compiled
        for nid in np.unique(leaf_ids):
            mask = leaf_ids == nid
            stats = self._leaf_stats[int(nid)]
            checks_before = stats.n_updates // interval
            stats.update_batch(X[mask], y[mask].astype(np.int64), weights[mask])
            if c is not None:
                c.dirty.add(int(nid))
            if stats.tests is None or stats.n_seen < self.min_parent_size:
                continue
            if stats.n_updates // interval == checks_before:
                continue  # no check point of the schedule crossed yet
            if not stats.may_split(self.min_gain):
                continue
            test_idx, gain = stats.best_split()
            if test_idx >= 0 and gain >= self.min_gain:
                self._split(int(nid), stats, test_idx, gain)

    # ------------------------------------------------------------ prediction
    def predict_one(self, x: np.ndarray, *, laplace: float = 1.0) -> float:
        """P(y = 1) for one sample (compiled: flat walk + posterior lookup)."""
        return self.compile(laplace=laplace).predict_one(x)

    def predict_batch(self, X: np.ndarray, *, laplace: float = 1.0) -> np.ndarray:
        """P(y = 1) per row (compiled: vectorized routing + one gather)."""
        return self.compile(laplace=laplace).predict_batch(X)

    def _predict_one_interpreted(self, x: np.ndarray, *, laplace: float = 1.0) -> float:
        """Reference scalar scorer: list walk + live posterior."""
        feature, threshold = self._feature, self._threshold
        left, right = self._left, self._right
        nid = 0
        f = feature[0]
        while f >= 0:
            nid = right[nid] if x[f] > threshold[nid] else left[nid]
            f = feature[nid]
        return self._leaf_stats[nid].posterior_positive(laplace=laplace)

    def _predict_batch_interpreted(
        self, X: np.ndarray, *, laplace: float = 1.0
    ) -> np.ndarray:
        """Reference batch scorer: group traversal, then each reached
        leaf's posterior computed once and broadcast."""
        leaf_ids = self._route_batch_interpreted(X)
        out = np.empty(X.shape[0], dtype=np.float64)
        for nid in np.unique(leaf_ids):
            out[leaf_ids == nid] = self._leaf_stats[int(nid)].posterior_positive(
                laplace=laplace
            )
        return out

    # ----------------------------------------------------------- introspection
    def decision_path(self, x: np.ndarray) -> List[Tuple[int, int, float]]:
        """The (node, feature, threshold) chain a sample follows — the
        interpretability hook the paper cites as an ORF advantage."""
        path: List[Tuple[int, int, float]] = []
        nid = 0
        while self._feature[nid] >= 0:
            f, thr = self._feature[nid], self._threshold[nid]
            path.append((nid, f, thr))
            nid = self._right[nid] if x[f] > thr else self._left[nid]
        path.append((nid, -1, np.nan))
        return path
