"""Model persistence: checkpoint and restore every model in the library.

A deployed Algorithm-2 monitor runs for months; being able to snapshot
it (and the offline baselines, the scaler, the feature selection) to a
single file is what makes restarts, migrations between hosts, and
A/B-ing model versions possible.

Format: one ``.npz`` archive per object.  All numeric state lives in
named arrays; structural metadata (class name, hyper-parameters, RNG
bit-generator state) lives in a JSON blob under the ``__meta__`` key.
Restores are *exact*: a restored online forest continues the stream
bit-for-bit identically to the original (RNG state included), which the
tests assert.

Public API::

    save_model(model, path)
    model = load_model(path)

    save_bundle(path, model=model, scaler=scaler, selection=selection)
    bundle = load_bundle(path)        # {"model": ..., "scaler": ..., ...}

A *bundle* packs several models into one archive — the trained model
plus the exact preprocessing (scaler, feature selection) that fed it,
which is what ``repro train`` writes so ``evaluate``/``monitor``/
``serve`` never re-fit a scaler on the data they are judging.
``load_model`` on a bundle transparently returns its ``"model"``
component, so old call sites keep working.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, Tuple, Union

import numpy as np

from repro.core.forest import OnlineRandomForest, TreeSlot
from repro.core.labeler import OnlineLabeler
from repro.core.node_stats import LeafStats
from repro.core.online_tree import OnlineDecisionTree
from repro.core.oobe import OOBETracker
from repro.core.predictor import OnlineDiskFailurePredictor
from repro.core.random_tests import RandomTestSet
from repro.features.scaling import MinMaxScaler
from repro.features.selection import FeatureSelection
from repro.offline.forest import RandomForestClassifier
from repro.offline.tree import DecisionTreeClassifier, FrozenTree

PathLike = Union[str, Path]

#: checkpoint payload halves: JSON-serializable metadata + named arrays
Meta = Dict[str, Any]
Arrays = Dict[str, Any]
SaveFn = Callable[[Any], Tuple[Meta, Arrays]]
LoadFn = Callable[[Meta, Arrays], Any]
IOFactory = Callable[[], Tuple[SaveFn, LoadFn]]

_SAVERS: Dict[type, SaveFn] = {}
_LOADERS: Dict[str, LoadFn] = {}


def _register(cls: type) -> Callable[[IOFactory], IOFactory]:
    def wrap(saver_loader: IOFactory) -> IOFactory:
        saver, loader = saver_loader()
        _SAVERS[cls] = saver
        _LOADERS[cls.__name__] = loader
        return saver_loader

    return wrap


def _rng_state(gen: np.random.Generator) -> dict:
    return gen.bit_generator.state


def _restore_rng(state: dict) -> np.random.Generator:
    gen = np.random.default_rng(0)
    gen.bit_generator.state = state
    return gen


# --------------------------------------------------------------------------
# public API
# --------------------------------------------------------------------------
def save_model(model: Any, path: PathLike) -> None:
    """Serialize *model* to a single ``.npz`` file.

    Supported: :class:`OnlineRandomForest`, :class:`RandomForestClassifier`,
    :class:`DecisionTreeClassifier`, :class:`MinMaxScaler`,
    :class:`FeatureSelection`.
    """
    saver = _SAVERS.get(type(model))
    if saver is None:
        raise TypeError(
            f"cannot serialize {type(model).__name__}; supported: "
            f"{sorted(c.__name__ for c in _SAVERS)}"
        )
    meta, arrays = saver(model)
    meta["__class__"] = type(model).__name__
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(Path(path), **arrays)


def load_model(path: PathLike) -> Any:
    """Restore a model saved by :func:`save_model`.

    Given a bundle (see :func:`save_bundle`), returns its ``"model"``
    component so legacy call sites read new checkpoints unchanged.
    """
    meta, arrays = _read_archive(path)
    if meta.get("__class__") == _BUNDLE_CLASS:
        bundle = _load_bundle_parts(meta, arrays)
        if "model" not in bundle:
            raise ValueError(
                f"{path} is a bundle without a 'model' component; "
                f"use load_bundle (components: {sorted(bundle)})"
            )
        return bundle["model"]
    return _load_one(meta, arrays, path)


def _read_archive(path: PathLike) -> Tuple[Meta, Arrays]:
    with np.load(Path(path), allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    raw = arrays.pop("__meta__", None)
    if raw is None:
        raise ValueError(f"{path} is not a repro model checkpoint")
    meta = json.loads(bytes(raw.tobytes()).decode("utf-8"))
    return meta, arrays


def _load_one(meta: dict, arrays: dict, path: PathLike) -> Any:
    loader = _LOADERS.get(meta.get("__class__"))
    if loader is None:
        raise ValueError(f"unknown checkpoint class {meta.get('__class__')!r}")
    return loader(meta, arrays)


# --------------------------------------------------------------------------
# bundles: several models in one archive
# --------------------------------------------------------------------------
_BUNDLE_CLASS = "__bundle__"


def save_bundle(path: PathLike, **components: Any) -> None:
    """Serialize named *components* into one ``.npz`` archive.

    Every component must be a :func:`save_model`-supported type; use the
    conventional names ``model``, ``scaler``, ``selection`` so
    :func:`load_model` and the CLI find them.
    """
    if not components:
        raise ValueError("a bundle needs at least one component")
    metas: Dict[str, dict] = {}
    arrays: Dict[str, np.ndarray] = {}
    for name, component in components.items():
        if not name.isidentifier():
            raise ValueError(f"invalid bundle component name {name!r}")
        saver = _SAVERS.get(type(component))
        if saver is None:
            raise TypeError(
                f"cannot serialize component {name!r} of type "
                f"{type(component).__name__}; supported: "
                f"{sorted(c.__name__ for c in _SAVERS)}"
            )
        comp_meta, comp_arrays = saver(component)
        comp_meta["__class__"] = type(component).__name__
        metas[name] = comp_meta
        for key, value in comp_arrays.items():
            arrays[f"{name}/{key}"] = value
    meta = {"__class__": _BUNDLE_CLASS, "components": metas}
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(Path(path), **arrays)


def load_bundle(path: PathLike) -> Dict[str, Any]:
    """Restore a bundle as ``{name: model}``.

    A plain (non-bundle) checkpoint loads as ``{"model": object}``, so
    callers can treat every archive uniformly.
    """
    meta, arrays = _read_archive(path)
    if meta.get("__class__") != _BUNDLE_CLASS:
        return {"model": _load_one(meta, arrays, path)}
    return _load_bundle_parts(meta, arrays)


def _load_bundle_parts(meta: dict, arrays: dict) -> Dict[str, Any]:
    bundle: Dict[str, Any] = {}
    for name, comp_meta in meta["components"].items():
        prefix = f"{name}/"
        comp_arrays = {
            key[len(prefix):]: value
            for key, value in arrays.items()
            if key.startswith(prefix)
        }
        loader = _LOADERS.get(comp_meta.get("__class__"))
        if loader is None:
            raise ValueError(
                f"unknown bundle component class "
                f"{comp_meta.get('__class__')!r} for {name!r}"
            )
        bundle[name] = loader(comp_meta, comp_arrays)
    return bundle


# --------------------------------------------------------------------------
# FrozenTree (shared by the offline models)
# --------------------------------------------------------------------------
def _pack_frozen_tree(tree: FrozenTree, prefix: str, arrays: dict) -> None:
    arrays[f"{prefix}feature"] = tree.feature
    arrays[f"{prefix}threshold"] = tree.threshold
    arrays[f"{prefix}left"] = tree.left
    arrays[f"{prefix}right"] = tree.right
    arrays[f"{prefix}value"] = tree.value
    arrays[f"{prefix}n_samples"] = tree.n_samples
    arrays[f"{prefix}impurity"] = tree.impurity


def _unpack_frozen_tree(prefix: str, arrays: dict) -> FrozenTree:
    return FrozenTree(
        feature=arrays[f"{prefix}feature"],
        threshold=arrays[f"{prefix}threshold"],
        left=arrays[f"{prefix}left"],
        right=arrays[f"{prefix}right"],
        value=arrays[f"{prefix}value"],
        n_samples=arrays[f"{prefix}n_samples"],
        impurity=arrays[f"{prefix}impurity"],
    )


# --------------------------------------------------------------------------
# DecisionTreeClassifier
# --------------------------------------------------------------------------
@_register(DecisionTreeClassifier)
def _decision_tree_io() -> Tuple[SaveFn, LoadFn]:
    PARAMS = (
        "max_depth", "min_samples_split", "min_samples_leaf", "max_num_splits",
        "max_features", "min_impurity_decrease", "class_weight", "laplace",
    )

    def save(model: DecisionTreeClassifier) -> Tuple[Meta, Arrays]:
        if model.tree_ is None:
            raise ValueError("refusing to checkpoint an unfitted model")
        meta = {"params": {p: getattr(model, p) for p in PARAMS},
                "n_features": model.n_features_}
        arrays: dict = {"feature_importances": model.feature_importances_}
        _pack_frozen_tree(model.tree_, "tree/", arrays)
        return meta, arrays

    def load(meta: Meta, arrays: Arrays) -> Any:
        model = DecisionTreeClassifier(**meta["params"])
        model.tree_ = _unpack_frozen_tree("tree/", arrays)
        model.n_features_ = meta["n_features"]
        model.feature_importances_ = arrays["feature_importances"]
        return model

    return save, load


# --------------------------------------------------------------------------
# RandomForestClassifier
# --------------------------------------------------------------------------
@_register(RandomForestClassifier)
def _random_forest_io() -> Tuple[SaveFn, LoadFn]:
    PARAMS = (
        "n_trees", "max_depth", "min_samples_split", "min_samples_leaf",
        "max_features", "min_impurity_decrease", "class_weight", "vote",
        "bootstrap",
    )

    def save(model: RandomForestClassifier) -> Tuple[Meta, Arrays]:
        if not model.trees_:
            raise ValueError("refusing to checkpoint an unfitted model")
        meta = {
            "params": {p: getattr(model, p) for p in PARAMS},
            "n_features": model.n_features_,
            "tree_laplace": [t.laplace for t in model.trees_],
        }
        arrays: dict = {}
        for i, tree in enumerate(model.trees_):
            _pack_frozen_tree(tree.tree_, f"tree{i}/", arrays)
            arrays[f"tree{i}/feature_importances"] = tree.feature_importances_
        return meta, arrays

    def load(meta: Meta, arrays: Arrays) -> Any:
        model = RandomForestClassifier(**meta["params"])
        model.n_features_ = meta["n_features"]
        model.trees_ = []
        for i, laplace in enumerate(meta["tree_laplace"]):
            tree = DecisionTreeClassifier(laplace=laplace)
            tree.tree_ = _unpack_frozen_tree(f"tree{i}/", arrays)
            tree.n_features_ = meta["n_features"]
            tree.feature_importances_ = arrays[f"tree{i}/feature_importances"]
            model.trees_.append(tree)
        return model

    return save, load


# --------------------------------------------------------------------------
# MinMaxScaler / FeatureSelection
# --------------------------------------------------------------------------
@_register(MinMaxScaler)
def _scaler_io() -> Tuple[SaveFn, LoadFn]:
    def save(model: MinMaxScaler) -> Tuple[Meta, Arrays]:
        if model.min_ is None:
            raise ValueError("refusing to checkpoint an unfitted scaler")
        return {"clip": model.clip}, {"min": model.min_, "range": model.range_}

    def load(meta: Meta, arrays: Arrays) -> Any:
        scaler = MinMaxScaler(clip=meta["clip"])
        scaler.min_ = arrays["min"]
        scaler.range_ = arrays["range"]
        return scaler

    return save, load


@_register(FeatureSelection)
def _selection_io() -> Tuple[SaveFn, LoadFn]:
    def save(model: FeatureSelection) -> Tuple[Meta, Arrays]:
        meta = {"names": list(model.names)}
        arrays: dict = {"indices": np.asarray(model.indices)}
        if model.survived_ranksum is not None:
            arrays["survived_ranksum"] = np.asarray(model.survived_ranksum)
        if model.importances is not None:
            arrays["importances"] = np.asarray(model.importances)
        return meta, arrays

    def load(meta: Meta, arrays: Arrays) -> Any:
        return FeatureSelection(
            indices=arrays["indices"],
            names=meta["names"],
            survived_ranksum=arrays.get("survived_ranksum"),
            importances=arrays.get("importances"),
        )

    return save, load


# --------------------------------------------------------------------------
# OnlineRandomForest (full streaming state, RNG included)
# --------------------------------------------------------------------------
def _pack_online_tree(tree: OnlineDecisionTree, prefix: str, arrays: dict) -> dict:
    arrays[f"{prefix}feature"] = np.asarray(tree._feature, dtype=np.int64)
    arrays[f"{prefix}threshold"] = np.asarray(tree._threshold, dtype=np.float64)
    arrays[f"{prefix}left"] = np.asarray(tree._left, dtype=np.int64)
    arrays[f"{prefix}right"] = np.asarray(tree._right, dtype=np.int64)
    arrays[f"{prefix}depth"] = np.asarray(tree._depth, dtype=np.int64)
    arrays[f"{prefix}ranges"] = tree.feature_ranges
    arrays[f"{prefix}importance"] = tree.importance_
    leaf_meta = []
    for nid, stats in tree._leaf_stats.items():
        key = f"{prefix}leaf{nid}/"
        arrays[key + "class_counts"] = stats.class_counts
        has_tests = stats.tests is not None
        if has_tests:
            arrays[key + "test_features"] = stats.tests.features
            arrays[key + "test_thresholds"] = stats.tests.thresholds
            arrays[key + "test_stats"] = stats.test_stats
        leaf_meta.append(
            {
                "nid": nid,
                "n_seen": stats.n_seen,
                "n_updates": stats.n_updates,
                "has_tests": has_tests,
            }
        )
    return {
        "age": tree.age,
        "n_splits": tree.n_splits,
        "rng": _rng_state(tree._rng),
        "leaves": leaf_meta,
    }


def _unpack_online_tree(
    prefix: str, arrays: dict, tree_meta: dict, params: dict
) -> OnlineDecisionTree:
    tree = OnlineDecisionTree(
        params["n_features"],
        n_tests=params["n_tests"],
        min_parent_size=params["min_parent_size"],
        min_gain=params["min_gain"],
        max_depth=params["max_depth"],
        feature_ranges=arrays[f"{prefix}ranges"],
        split_check_interval=params["split_check_interval"],
        seed=0,
    )
    tree._feature = arrays[f"{prefix}feature"].astype(int).tolist()
    tree._threshold = arrays[f"{prefix}threshold"].tolist()
    tree._left = arrays[f"{prefix}left"].astype(int).tolist()
    tree._right = arrays[f"{prefix}right"].astype(int).tolist()
    tree._depth = arrays[f"{prefix}depth"].astype(int).tolist()
    tree.age = tree_meta["age"]
    tree.n_splits = tree_meta["n_splits"]
    if f"{prefix}importance" in arrays:
        tree.importance_ = arrays[f"{prefix}importance"].copy()
    tree._rng = _restore_rng(tree_meta["rng"])
    tree._leaf_stats = {}
    for leaf in tree_meta["leaves"]:
        nid = leaf["nid"]
        key = f"{prefix}leaf{nid}/"
        if leaf["has_tests"]:
            tests = RandomTestSet(
                features=arrays[key + "test_features"],
                thresholds=arrays[key + "test_thresholds"],
            )
            stats = LeafStats(tests)
            stats.test_stats = arrays[key + "test_stats"].copy()
        else:
            stats = LeafStats(None)
        stats.class_counts = arrays[key + "class_counts"].copy()
        stats.n_seen = leaf["n_seen"]
        # older checkpoints predate the update counter; approximating it
        # with the weighted count only shifts the split-check *phase*
        stats.n_updates = int(leaf.get("n_updates", leaf["n_seen"]))
        tree._leaf_stats[int(nid)] = stats
    # rebuild the compiled inference snapshot eagerly: a restored model
    # is about to serve, and compiling here keeps the first scored
    # request off the materialization cost (representation-only)
    tree.compile()
    return tree


@_register(OnlineRandomForest)
def _online_forest_io() -> Tuple[SaveFn, LoadFn]:
    PARAMS = (
        "n_features", "n_trees", "n_tests", "min_parent_size", "min_gain",
        "oobe_threshold", "age_threshold", "oobe_decay",
        "oobe_min_observations", "vote", "max_depth", "split_check_interval",
    )

    def save(model: OnlineRandomForest) -> Tuple[Meta, Arrays]:
        meta: dict = {
            "params": {p: getattr(model, p) for p in PARAMS},
            "lambda_pos": model.bagger.lambda_pos,
            "lambda_neg": model.bagger.lambda_neg,
            "bagger_rng": _rng_state(model.bagger.rng),
            "factory_rng": _rng_state(model._rng_factory._root),
            # per-slot Poisson/regrow streams: restoring them is what makes
            # stream continuation bit-identical after a reload
            "slot_rngs": [_rng_state(slot.rng) for slot in model.slots],
            "n_samples_seen": model.n_samples_seen,
            "n_replacements": model.n_replacements,
            "trackers": [
                {
                    "err_pos": tr.err_pos, "err_neg": tr.err_neg,
                    "n_pos": tr.n_pos, "n_neg": tr.n_neg,
                }
                for tr in model.trackers
            ],
        }
        arrays: dict = {}
        if model.feature_ranges is not None:
            # replacement trees draw their tests from these ranges
            arrays["feature_ranges"] = model.feature_ranges
        tree_metas = []
        for i, tree in enumerate(model.trees):
            tree_metas.append(_pack_online_tree(tree, f"t{i}/", arrays))
        meta["trees"] = tree_metas
        return meta, arrays

    def load(meta: Meta, arrays: Arrays) -> Any:
        params = meta["params"]
        model = OnlineRandomForest(
            params["n_features"],
            n_trees=params["n_trees"],
            n_tests=params["n_tests"],
            min_parent_size=params["min_parent_size"],
            min_gain=params["min_gain"],
            lambda_pos=meta["lambda_pos"],
            lambda_neg=meta["lambda_neg"],
            oobe_threshold=params["oobe_threshold"],
            age_threshold=params["age_threshold"],
            oobe_decay=params["oobe_decay"],
            oobe_min_observations=params["oobe_min_observations"],
            vote=params["vote"],
            max_depth=params["max_depth"],
            split_check_interval=params["split_check_interval"],
            # archives predating the forest-level ranges load as None
            feature_ranges=arrays.get("feature_ranges"),
            seed=0,
        )
        model.bagger.rng = _restore_rng(meta["bagger_rng"])
        model._rng_factory._root = _restore_rng(meta["factory_rng"])
        model.n_samples_seen = meta["n_samples_seen"]
        model.n_replacements = meta["n_replacements"]
        tree_params = dict(params)
        trees = [
            _unpack_online_tree(f"t{i}/", arrays, tm, tree_params)
            for i, tm in enumerate(meta["trees"])
        ]
        trackers = []
        for tr_meta in meta["trackers"]:
            tracker = OOBETracker(
                decay=params["oobe_decay"],
                min_observations=params["oobe_min_observations"],
            )
            tracker.err_pos = tr_meta["err_pos"]
            tracker.err_neg = tr_meta["err_neg"]
            tracker.n_pos = tr_meta["n_pos"]
            tracker.n_neg = tr_meta["n_neg"]
            trackers.append(tracker)
        # checkpoints predating per-slot streams keep the fresh slot rngs
        slot_rngs = [_restore_rng(st) for st in meta.get("slot_rngs", [])]
        model.slots = [
            TreeSlot(
                tree=tree,
                tracker=tracker,
                rng=slot_rngs[i] if i < len(slot_rngs) else model.slots[i].rng,
            )
            for i, (tree, tracker) in enumerate(zip(trees, trackers))
        ]
        return model

    return save, load


# --------------------------------------------------------------------------
# OnlineDiskFailurePredictor (forest + labeling queues + counters)
# --------------------------------------------------------------------------
@_register(OnlineDiskFailurePredictor)
def _predictor_io() -> Tuple[SaveFn, LoadFn]:
    """Checkpoint the whole Algorithm-2 monitor, not just its forest.

    The labeling queues *are* model state: losing them on restart means
    a week of samples never gets labeled.  Disk ids and tags must be
    JSON-serializable (int/str) — the fleet replay uses serials and day
    indices, which are.  The recorded alarm history is deliberately not
    persisted (it is an unbounded notebook convenience, and the service
    layer keeps alarm state in the :class:`AlarmManager`); all counters
    are, so warmup gating continues exactly after a restore.
    """

    STATS = ("n_samples", "n_failures", "n_alarms",
             "n_updates_pos", "n_updates_neg")

    def save(model: OnlineDiskFailurePredictor) -> Tuple[Meta, Arrays]:
        forest_meta, arrays = _SAVERS[OnlineRandomForest](model.forest)
        arrays = {f"forest/{k}": v for k, v in arrays.items()}
        disks = []
        pending = []
        for disk_id, queue in model.labeler._queues.items():
            tags = [tag for _x, tag in queue]
            disks.append([disk_id, len(queue), tags])
            pending.extend(x for x, _tag in queue)
        try:
            roundtrip = json.loads(json.dumps(disks))
        except TypeError as exc:
            raise TypeError(
                "predictor checkpoints need JSON-serializable disk ids "
                f"and tags: {exc}"
            ) from None
        if roundtrip != disks:
            # e.g. tuple ids serialize fine but come back as lists,
            # silently changing disk identity on restore
            raise TypeError(
                "predictor checkpoints need JSON-round-trippable disk ids "
                "and tags; use int or str"
            )
        arrays["labeler/pending"] = (
            np.stack(pending)
            if pending
            else np.empty((0, model.forest.n_features))
        )
        meta = {
            "forest": forest_meta,
            "params": {
                "queue_length": model.labeler.queue_length,
                "alarm_threshold": model.alarm_threshold,
                "warmup_samples": model.warmup_samples,
                "record_alarms": model.record_alarms,
                "max_recorded_alarms": model.max_recorded_alarms,
            },
            "stats": {name: getattr(model.stats, name) for name in STATS},
            "disks": disks,
        }
        return meta, arrays

    def load(meta: Meta, arrays: Arrays) -> Any:
        prefix = "forest/"
        forest_arrays = {
            k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)
        }
        forest = _LOADERS["OnlineRandomForest"](meta["forest"], forest_arrays)
        model = OnlineDiskFailurePredictor(forest, **meta["params"])
        for name, value in meta["stats"].items():
            setattr(model.stats, name, value)
        pending = arrays["labeler/pending"]
        offset = 0
        for disk_id, n, tags in meta["disks"]:
            for j in range(n):
                model.labeler.observe(disk_id, pending[offset + j], tags[j])
            offset += n
        return model

    return save, load
