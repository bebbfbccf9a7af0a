"""Fleet-scale serving: hash-sharded Algorithm-2 monitors.

The paper's deployment (§5, Fig. 1) watches *every* disk in a data
center continuously.  One :class:`~repro.core.predictor.
OnlineDiskFailurePredictor` is a single stream; the
:class:`FleetMonitor` scales it out by hash-sharding disks across N
independent predictor shards — each with its own labeler and forest —
and driving micro-batched ingestion over them:

* **stable sharding** — ``crc32(repr(disk_id)) % N``; never Python's
  salted ``hash()``, so replays are deterministic across processes;
* **micro-batching** — events are bucketed per shard and each shard
  runs its bucket, in arrival order, through one
  :meth:`~repro.core.predictor.OnlineDiskFailurePredictor.
  process_batch` call: sample-exact (``mode="exact"``, bit-identical to
  the plain predictor loop) or with every sample scored after the
  bucket's updates (``mode="batch"``);
* **parallel shards** — buckets map over a
  :class:`~repro.parallel.pool.TreeExecutor` (serial or thread; shards
  are mutated in place, so the process backend belongs *inside* each
  shard's forest, not at the fleet level);
* **deterministic replay** — with one shard and the serial executor the
  fleet is bit-identical (alarms and final forest) to the plain
  Algorithm-2 loop under the same seed; with N shards every disk's
  trajectory depends only on its own shard's stream, so per-disk alarm
  sets are a stable partition.

Alarm decisions flow through an :class:`~repro.service.alarms.
AlarmManager`, operational counters through a
:class:`~repro.service.metrics.MetricsRegistry`, and snapshots through
an attached :class:`~repro.service.checkpoint.CheckpointRotator`.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.predictor import Alarm, OnlineDiskFailurePredictor
from repro.obs.tracing import NULL_TRACER, NullTracer
from repro.parallel.pool import ProcessExecutor, SerialExecutor, TreeExecutor
from repro.persistence import save_model
from repro.service.alarms import AlarmAction, AlarmManager
from repro.service.checkpoint import CheckpointRotator, load_checkpoint
from repro.service.config import (
    FleetConfig,
    build_shard_predictors,
    check_checkpoint_config,
    shard_seeds,
)
from repro.service.faults import (
    REASON_DEGRADED_SHARD,
    REASON_SHARD_FAULT,
    REASON_UNSHARDABLE_ID,
    DeadLetterQueue,
    FaultyPredictor,
    ShardFault,
    ShardHealth,
    validate_event,
)
from repro.service.metrics import Counter, Histogram, MetricsRegistry

if TYPE_CHECKING:  # annotation-only: eval is a consumer layer, not a dependency
    from repro.eval.protocol import LabeledArrays

__all__ = [
    "DiskEvent",
    "EmittedAlarm",
    "FleetBackend",
    "FleetInstruments",
    "FleetMonitor",
    "admit_events",
    "apply_lifecycle",
    "fleet_events",
    "quarantine_event",
    "shard_of",
    "shard_seeds",
]


def shard_of(disk_id: Hashable, n_shards: int) -> int:
    """Stable shard assignment for a disk id.

    Uses ``crc32`` of the id's ``repr`` — Python's builtin ``hash`` is
    salted per process and would break deterministic replay.  Ids whose
    type inherits the default ``object.__repr__`` are rejected: that
    repr embeds a per-process memory address, so the "stable" shard
    assignment would silently change on every run.
    """
    if type(disk_id).__repr__ is object.__repr__:
        raise TypeError(
            f"disk id of type {type(disk_id).__name__!r} has no stable "
            "repr (object.__repr__ embeds a memory address, so shard "
            "assignment would differ across processes); use int or str "
            "ids, or define __repr__ on the id type"
        )
    return zlib.crc32(repr(disk_id).encode("utf-8")) % n_shards


@dataclass(frozen=True)
class DiskEvent:
    """One fleet event: a SMART sample, or a disk's death.

    ``x`` may be None only for a failure with no final snapshot.
    """

    disk_id: Hashable
    x: Optional[np.ndarray]
    failed: bool = False
    tag: object = None


@dataclass(frozen=True)
class EmittedAlarm:
    """An alarm that survived the lifecycle manager and reached the operator."""

    alarm: Alarm
    action: AlarmAction
    shard: int
    seq: int


def _drain_shard(
    payload: Tuple[OnlineDiskFailurePredictor, List[Tuple[int, "DiskEvent"]], str],
) -> Tuple[List[Tuple[int, "DiskEvent", Optional[Alarm]]], Optional[Exception]]:
    """Worker: run one shard's event bucket, in arrival order.

    Module-level with an explicit payload, matching the executor
    contract of :mod:`repro.core.forest`.  Returns ``(results, error)``
    — a raising bucket is *captured*, never propagated through the
    executor, so one faulting shard can never abort its siblings'
    already-running buckets.
    """
    predictor, bucket, mode = payload
    try:
        alarms = predictor.process_batch(
            [(ev.disk_id, ev.x, ev.failed, ev.tag) for _, ev in bucket],
            exact=(mode == "exact"),
        )
        return (
            [(seq, ev, alarm) for (seq, ev), alarm in zip(bucket, alarms)],
            None,
        )
    except Exception as exc:  # the shard is now in an indeterminate state
        return [], exc


class FleetInstruments:
    """The ``repro_fleet_*`` instruments shared by both serving runtimes.

    Registered here — and *only* here — so every shared metric name has
    a single literal registration site (RPR601): the in-process
    :class:`FleetMonitor` and the process-runtime
    :class:`~repro.runtime.supervisor.FleetSupervisor` feed the same
    time series instead of forking the namespace per backend.
    Runtime-specific gauges (live shard introspection in-process, worker
    health in the supervisor) stay with their owners.
    """

    def __init__(self, registry: MetricsRegistry, n_shards: int) -> None:
        self.registry = registry
        self.samples: List[Counter] = []
        self.failures: List[Counter] = []
        for i in range(int(n_shards)):
            labels = {"shard": str(i)}
            self.samples.append(registry.counter(
                "repro_fleet_samples_total",
                help="SMART samples ingested", labels=labels,
            ))
            self.failures.append(registry.counter(
                "repro_fleet_failures_total",
                help="disk failures observed", labels=labels,
            ))
        self.checkpoint_failures = registry.counter(
            "repro_fleet_checkpoint_failures_total",
            help="checkpoint rotations abandoned after I/O retries",
        )
        self.ingest_seconds = registry.histogram(
            "repro_fleet_ingest_seconds",
            help="wall time per ingest() micro-batch",
        )
        self._quarantine: Dict[str, Counter] = {}

    def seed_shard_counts(
        self, shard: int, n_samples: int, n_failures: int
    ) -> None:
        """Fast-forward a shard's counters to its lifetime stats.

        Used on checkpoint resume so counters and ``digest()`` agree
        with :class:`~repro.core.predictor.PredictorStats`; fresh shards
        contribute zero and are left untouched.
        """
        samples_c = self.samples[shard]
        failures_c = self.failures[shard]
        if n_samples > samples_c.value:
            samples_c.inc(int(n_samples) - int(samples_c.value))
        if n_failures > failures_c.value:
            failures_c.inc(int(n_failures) - int(failures_c.value))

    def quarantine_counter(self, reason: str) -> Counter:
        """The per-reason quarantine counter, registered lazily."""
        counter = self._quarantine.get(reason)
        if counter is None:
            counter = self.registry.counter(
                "repro_fleet_quarantined_total",
                help="events diverted to the dead-letter queue",
                labels={"reason": reason},
            )
            self._quarantine[reason] = counter
        return counter


def quarantine_event(
    dead_letters: DeadLetterQueue,
    instruments: FleetInstruments,
    ev: DiskEvent,
    reason: str,
    *,
    shard: Optional[int] = None,
    seq: Optional[int] = None,
    detail: str = "",
) -> None:
    """Divert one event to the dead-letter queue and count it."""
    dead_letters.put(ev, reason, shard=shard, seq=seq, detail=detail)
    instruments.quarantine_counter(reason).inc()


def admit_events(
    events: Sequence[DiskEvent],
    *,
    n_features: int,
    n_shards: int,
    strict: bool,
    health: ShardHealth,
) -> Tuple[List[Tuple[int, DiskEvent]], List[Tuple[DiskEvent, str, Optional[int]]]]:
    """Admission-check a whole micro-batch before any shard mutates.

    Returns ``(accepted, rejected)`` where accepted entries carry their
    shard index and rejected entries a reason code.  In strict mode the
    first rejection raises instead — crucially *before* any sequence
    number has been assigned or any bucket dispatched, so a bad batch
    leaves the fleet exactly as it found it.  Shared by both serving
    runtimes, which is what makes their quarantine decisions identical
    by construction.
    """
    accepted: List[Tuple[int, DiskEvent]] = []
    rejected: List[Tuple[DiskEvent, str, Optional[int]]] = []
    for pos, ev in enumerate(events):
        reason = validate_event(ev, n_features)
        if reason is not None:
            if strict:
                raise ValueError(
                    f"invalid event at batch position {pos} "
                    f"(disk {ev.disk_id!r}): {reason}; no shard was "
                    "mutated — pass strict=False to quarantine instead"
                )
            rejected.append((ev, reason, None))
            continue
        try:
            shard_i = shard_of(ev.disk_id, n_shards)
        except TypeError as exc:
            if strict:
                raise
            rejected.append((ev, REASON_UNSHARDABLE_ID, None))
            del exc
            continue
        if health.is_degraded(shard_i):
            # a degraded shard's state is untrusted; fence its
            # traffic off rather than deepening the corruption
            if strict:
                raise ShardFault(
                    shard_i,
                    RuntimeError(health.errors.get(shard_i, "degraded")),
                )
            rejected.append((ev, REASON_DEGRADED_SHARD, shard_i))
            continue
        accepted.append((shard_i, ev))
    return accepted, rejected


def apply_lifecycle(
    merged: Sequence[Tuple[int, int, DiskEvent, Optional[Alarm]]],
    *,
    alarms: AlarmManager,
    instruments: FleetInstruments,
) -> List[EmittedAlarm]:
    """Run shard results through the alarm lifecycle in arrival order.

    *merged* is ``(seq, shard, event, alarm)`` tuples sorted by ``seq``.
    Shared by both serving runtimes so the emitted alarm stream — dedup,
    cooldown, escalation, retirement — is identical by construction.
    """
    emitted: List[EmittedAlarm] = []
    for seq, shard_i, ev, alarm in merged:
        if ev.failed:
            instruments.failures[shard_i].inc()
            alarms.retire(ev.disk_id)
            continue
        instruments.samples[shard_i].inc()
        decision = alarms.observe(ev.disk_id, alarm)
        if decision.emitted:
            emitted.append(EmittedAlarm(
                alarm=decision.alarm,
                action=decision.action,
                shard=shard_i,
                seq=seq,
            ))
    return emitted


class FleetBackend(Protocol):
    """Structural surface shared by the serving runtimes.

    Both :class:`FleetMonitor` (in-process) and
    :class:`~repro.runtime.supervisor.FleetSupervisor` (one worker
    process per shard) satisfy this protocol, which is what the gateway
    and the ``serve`` replay loop are written against — a runtime is an
    implementation detail behind ``--runtime {inproc,process}``.
    """

    registry: MetricsRegistry
    dead_letters: DeadLetterQueue
    alarms: AlarmManager

    @property
    def n_shards(self) -> int: ...

    @property
    def n_samples(self) -> int: ...

    @property
    def n_features(self) -> int: ...

    def ingest(self, events: Sequence[DiskEvent]) -> List[EmittedAlarm]: ...

    def digest(self) -> dict: ...

    def checkpoint(self) -> Optional[object]: ...

    def alarm_state(self) -> Optional[dict]: ...

    def effective_config(self) -> FleetConfig: ...

    def write_shard_snapshots(self, directory: Union[str, Path]) -> int: ...


class FleetMonitor:
    """Sharded, observable, checkpointable Algorithm-2 serving layer.

    Parameters
    ----------
    shards:
        One :class:`OnlineDiskFailurePredictor` per shard; disk ids are
        routed by :func:`shard_of`.  Build with :meth:`build` for
        seed-derived shard forests.
    alarm_manager:
        Lifecycle policy; a default :class:`AlarmManager` (registered on
        *registry*) is created when omitted.
    registry:
        Metrics sink; a private one is created when omitted.
    executor:
        Maps per-shard buckets during :meth:`ingest`.  Serial (default)
        or thread — shards are mutated in place, so the process backend
        is rejected here (use it *inside* shard forests instead).
    mode:
        ``"exact"`` replays Algorithm 2 sample by sample (bit-identical
        to the unsharded loop); ``"batch"`` uses the micro-batched
        predictor path (same forest evolution, scores computed once per
        bucket after its updates).
    rotator:
        Optional :class:`CheckpointRotator`; its cadence is checked
        after every ingest.
    strict:
        ``True`` (default): an invalid event makes :meth:`ingest` raise
        *before any shard mutates* (the batch is admission-checked up
        front, so ``_seq`` never advances with sibling shards
        half-updated), and a faulting shard re-raises as
        :exc:`ShardFault` after the healthy shards' results are applied.
        ``False`` (tolerant serving): invalid events and the traffic of
        degraded shards divert to the dead-letter queue with a reason
        code instead of raising, and checkpoint I/O errors are counted
        rather than fatal.
    dead_letters:
        Quarantine sink for rejected events; a fresh bounded
        :class:`~repro.service.faults.DeadLetterQueue` of
        *max_dead_letters* entries is created when omitted.
    clock:
        Zero-argument monotonic-seconds callable used for the ingest
        latency histogram — the *only* thing the fleet reads time for.
        Defaults to ``time.perf_counter``; tests inject a fake to make
        latency metrics deterministic, and the determinism lint rule
        (``RPR102``) stays satisfied because the library itself never
        *calls* the wall clock, it only defaults to it.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`.  When given, it is
        propagated to every shard predictor, every shard's forest, and
        the rotator, so one trace covers the whole hot path — admission,
        shard routing, labeler release, forest update, scoring, alarm
        lifecycle, checkpoint rotation.  ``None`` (default) leaves the
        no-op tracer in place: results are bit-identical and the
        overhead is a handful of attribute lookups per batch (measured
        < 5% end to end by ``benchmarks/bench_serve_latency.py``).
    """

    def __init__(
        self,
        shards: Sequence[OnlineDiskFailurePredictor],
        *,
        config: Optional[FleetConfig] = None,
        alarm_manager: Optional[AlarmManager] = None,
        registry: Optional[MetricsRegistry] = None,
        executor: Optional[TreeExecutor] = None,
        mode: str = "exact",
        rotator: Optional[CheckpointRotator] = None,
        strict: bool = True,
        dead_letters: Optional[DeadLetterQueue] = None,
        max_dead_letters: int = 1024,
        clock: Callable[[], float] = time.perf_counter,
        tracer: Optional[NullTracer] = None,
    ) -> None:
        if not shards:
            raise ValueError("a fleet needs at least one shard")
        if mode not in ("exact", "batch"):
            raise ValueError(f"mode must be 'exact' or 'batch', got {mode!r}")
        if isinstance(executor, ProcessExecutor):
            raise ValueError(
                "process executors cannot map fleet shards (workers mutate "
                "copies); attach one to each shard's forest instead"
            )
        if config is not None and int(config.n_shards) != len(shards):
            raise ValueError(
                f"config declares {config.n_shards} shard(s) but "
                f"{len(shards)} were supplied"
            )
        self.config = config
        self.shards = list(shards)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.alarms = (
            alarm_manager
            if alarm_manager is not None
            else AlarmManager(registry=self.registry)
        )
        self.mode = mode
        self.rotator = rotator
        self.strict = bool(strict)
        self.dead_letters = (
            dead_letters
            if dead_letters is not None
            else DeadLetterQueue(max_dead_letters)
        )
        self.health = ShardHealth(len(self.shards))
        self._executor = executor or SerialExecutor()
        self._clock = clock
        self.tracer: NullTracer = tracer if tracer is not None else NULL_TRACER
        # one tracer covers the whole pipeline: shard predictors and
        # their forests record the inner stages of the same trace
        for shard in self.shards:
            shard.tracer = self.tracer
            shard.forest.tracer = self.tracer
        if rotator is not None:
            rotator.tracer = self.tracer
        self._seq = 0
        self._instrument()
        # warm every tree's compiled inference snapshot up front so the
        # first scored event pays no materialization cost (restored
        # checkpoints arrive pre-compiled; fresh forests are tiny)
        self.compile()

    def compile(self) -> "FleetMonitor":
        """Warm the compiled inference snapshots of every shard's forest.

        Representation-only (scores and alarms are unchanged); called at
        construction and safe to call again at any time — e.g. after a
        long pure-ingest stretch grew the trees, to move recompilation
        off the next scored request.  Returns self.
        """
        for shard in self.shards:
            shard.compile()
        return self

    def _instrument(self) -> None:
        reg = self.registry
        n = len(self.shards)
        self.instruments = FleetInstruments(reg, n)
        self._samples_c = self.instruments.samples
        self._failures_c = self.instruments.failures
        for i, shard in enumerate(self.shards):
            labels = {"shard": str(i)}
            # seed from the shard's lifetime stats so counters and
            # digest() agree with PredictorStats after a checkpoint
            # resume (fresh shards contribute zero)
            self.instruments.seed_shard_counts(
                i, int(shard.stats.n_samples), int(shard.stats.n_failures)
            )
            reg.gauge(
                "repro_fleet_shard_healthy",
                help="1 while the shard serves, 0 once degraded",
                labels=labels,
                fn=lambda i=i: 0.0 if self.health.is_degraded(i) else 1.0,
            )
            reg.gauge(
                "repro_fleet_queue_depth",
                help="samples awaiting a label", labels=labels,
                fn=lambda s=shard: s.labeler.n_pending,
            )
            reg.gauge(
                "repro_fleet_monitored_disks",
                help="disks holding a labeling queue", labels=labels,
                fn=lambda s=shard: s.n_monitored_disks,
            )
            reg.gauge(
                "repro_fleet_tree_replacements_total",
                help="decayed trees regrown", labels=labels,
                fn=lambda s=shard: s.forest.n_replacements,
            )
        reg.gauge(
            "repro_fleet_shards", help="shard count", fn=lambda: n,
        )
        reg.gauge(
            "repro_fleet_degraded_shards",
            help="shards fenced off after a mid-batch fault",
            fn=lambda: self.health.n_degraded,
        )
        reg.gauge(
            "repro_fleet_dead_letter_depth",
            help="quarantined events retained for inspection",
            fn=lambda: len(self.dead_letters),
        )
        self._ckpt_failures_c = self.instruments.checkpoint_failures
        reg.gauge(
            "repro_fleet_checkpoint_age_samples",
            help="fleet samples since the last checkpoint rotation",
            fn=lambda: (
                self.rotator.samples_since_rotate(self.n_samples)
                if self.rotator is not None else 0
            ),
        )
        self._ingest_hist = self.instruments.ingest_seconds

    # -------------------------------------------------------------- builders
    @classmethod
    def build(
        cls,
        config: Union[FleetConfig, int],
        *,
        alarm_manager: Optional[AlarmManager] = None,
        registry: Optional[MetricsRegistry] = None,
        executor: Optional[TreeExecutor] = None,
        rotator: Optional[CheckpointRotator] = None,
        strict: bool = True,
        dead_letters: Optional[DeadLetterQueue] = None,
        max_dead_letters: int = 1024,
        clock: Callable[[], float] = time.perf_counter,
        tracer: Optional[NullTracer] = None,
        mode: Optional[str] = None,
        **legacy: Any,
    ) -> "FleetMonitor":
        """Construct a fleet of fresh seed-derived shards.

        The first argument is a :class:`~repro.service.config.
        FleetConfig`; everything that is *data* about the fleet's shape
        (shards, seed, forest kwargs, queue length, thresholds, mode)
        lives on the config, while live collaborators (registry, alarm
        manager, executor, rotator, tracer, clock) stay keyword
        arguments here.  With ``n_shards=1`` the single forest is seeded
        with the config's seed itself, so the fleet reproduces a plain
        ``OnlineDiskFailurePredictor(OnlineRandomForest(..., seed=seed))``
        loop bit for bit.

        Passing an integer feature count with loose keyword arguments
        (``n_shards=``, ``seed=``, ``forest_kwargs=`` …) is the
        deprecated legacy spelling: it emits a
        :exc:`DeprecationWarning`, builds the equivalent config, and
        constructs a bit-identical fleet through the same shard factory.
        """
        if isinstance(config, FleetConfig):
            if legacy:
                raise TypeError(
                    "unexpected keyword arguments alongside a FleetConfig: "
                    f"{sorted(legacy)} — fleet shape belongs on the config"
                )
            if mode is not None and mode != config.mode:
                raise ValueError(
                    f"mode={mode!r} conflicts with config.mode="
                    f"{config.mode!r}; set it on the config"
                )
            return cls(
                config.build_shards(),
                config=config,
                mode=config.mode,
                alarm_manager=alarm_manager,
                registry=registry,
                executor=executor,
                rotator=rotator,
                strict=strict,
                dead_letters=dead_letters,
                max_dead_letters=max_dead_letters,
                clock=clock,
                tracer=tracer,
            )
        # ----------------------------------------- legacy kwarg shim
        warnings.warn(
            "FleetMonitor.build(n_features, n_shards=..., seed=..., "
            "forest_kwargs=...) is deprecated; construct a FleetConfig "
            "and call FleetMonitor.build(config, ...) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        n_features = int(config)
        defaults: Dict[str, Any] = {
            "n_shards": 1,
            "seed": None,
            "forest_kwargs": None,
            "queue_length": 7,
            "alarm_threshold": 0.5,
            "warmup_samples": 0,
            "record_alarms": False,
            "max_recorded_alarms": None,
        }
        params = {k: legacy.pop(k, v) for k, v in defaults.items()}
        if legacy:
            raise TypeError(
                f"unexpected keyword arguments: {sorted(legacy)}"
            )
        shards = build_shard_predictors(
            n_features,
            n_shards=int(params["n_shards"]),
            seed=params["seed"],
            forest=params["forest_kwargs"],
            queue_length=int(params["queue_length"]),
            alarm_threshold=float(params["alarm_threshold"]),
            warmup_samples=int(params["warmup_samples"]),
            record_alarms=bool(params["record_alarms"]),
            max_recorded_alarms=params["max_recorded_alarms"],
        )
        built_config: Optional[FleetConfig]
        try:
            # stamp the equivalent config when it is expressible as one
            # (an exotic seed object or non-JSON forest kwargs are not)
            built_config = FleetConfig(
                n_features=n_features,
                n_shards=int(params["n_shards"]),
                seed=params["seed"],
                forest=dict(params["forest_kwargs"] or {}),
                queue_length=int(params["queue_length"]),
                alarm_threshold=float(params["alarm_threshold"]),
                warmup_samples=int(params["warmup_samples"]),
                record_alarms=bool(params["record_alarms"]),
                max_recorded_alarms=params["max_recorded_alarms"],
                mode=mode if mode is not None else "exact",
            )
        except ValueError:
            built_config = None
        return cls(
            shards,
            config=built_config,
            mode=mode if mode is not None else "exact",
            alarm_manager=alarm_manager,
            registry=registry,
            executor=executor,
            rotator=rotator,
            strict=strict,
            dead_letters=dead_letters,
            max_dead_letters=max_dead_letters,
            clock=clock,
            tracer=tracer,
        )

    @classmethod
    def from_checkpoint(
        cls,
        path: Union[str, Path],
        *,
        config: Optional[FleetConfig] = None,
        **fleet_kwargs: Any,
    ) -> "FleetMonitor":
        """Resume a fleet from a checkpoint directory.

        Shard predictors (forests, labeling queues, counters) restore
        bit-exactly; the alarm manager's dynamic state is reloaded from
        the manifest into the manager passed via ``alarm_manager`` (or
        the default one).  When *config* is given, the checkpoint's
        embedded config must agree on the compatibility keys
        (``n_features``, ``n_shards``, ``queue_length``) or the restore
        raises :exc:`~repro.service.config.CheckpointConfigMismatch`
        instead of silently misrouting disks; when omitted, the stamped
        config (if any) is adopted.
        """
        manifest, shards = load_checkpoint(path, expect_config=config)
        if config is None:
            stamped = manifest.get("config")
            if stamped is not None:
                try:
                    config = FleetConfig.from_dict(stamped)
                except ValueError:
                    config = None  # unreadable stamp: restore without one
        if config is not None:
            fleet_kwargs.setdefault("mode", config.mode)
        fleet = cls(shards, config=config, **fleet_kwargs)
        fleet._seq = int(manifest.get("n_samples", 0))
        alarm_state = manifest.get("alarms")
        if alarm_state is not None:
            fleet.alarms.load_state_dict(alarm_state)
        return fleet

    # ---------------------------------------------------------------- stream
    def shard_index(self, disk_id: Hashable) -> int:
        """Which shard owns *disk_id*."""
        return shard_of(disk_id, len(self.shards))

    @property
    def n_features(self) -> int:
        """Feature dimension every ingested vector must match."""
        return int(self.shards[0].forest.n_features)

    def _quarantine(
        self,
        ev: DiskEvent,
        reason: str,
        *,
        shard: Optional[int] = None,
        seq: Optional[int] = None,
        detail: str = "",
    ) -> None:
        quarantine_event(
            self.dead_letters, self.instruments, ev, reason,
            shard=shard, seq=seq, detail=detail,
        )

    def _admit(
        self, events: Sequence[DiskEvent]
    ) -> Tuple[List[Tuple[int, DiskEvent]], List[Tuple[DiskEvent, str, Optional[int]]]]:
        """Admission-check a batch via the shared :func:`admit_events`."""
        return admit_events(
            events,
            n_features=self.n_features,
            n_shards=len(self.shards),
            strict=self.strict,
            health=self.health,
        )

    def ingest(self, events: Sequence[DiskEvent]) -> List[EmittedAlarm]:
        """Process one micro-batch of events; returns emitted alarms.

        The whole batch is admission-checked first (see
        :func:`~repro.service.faults.validate_event`); only then are
        events bucketed per shard (preserving per-disk arrival order),
        shard buckets run on the fleet executor, and lifecycle decisions
        applied in global arrival order — so the emitted stream is
        deterministic for any executor or shard count.  A shard whose
        bucket raises is marked degraded and its bucket quarantined;
        sibling shards complete the batch unaffected.
        """
        t0 = self._clock()
        with self.tracer.span("fleet.ingest", items=len(events)):
            with self.tracer.span("fleet.admit", items=len(events)):
                accepted, rejected = self._admit(events)
                for ev, reason, shard_i in rejected:
                    self._quarantine(ev, reason, shard=shard_i)

            with self.tracer.span("fleet.route", items=len(accepted)):
                buckets: List[List[Tuple[int, DiskEvent]]] = [
                    [] for _ in self.shards
                ]
                for shard_i, ev in accepted:
                    buckets[shard_i].append((self._seq, ev))
                    self._seq += 1
                busy = [(i, b) for i, b in enumerate(buckets) if b]
                payloads = [(self.shards[i], b, self.mode) for i, b in busy]

            with self.tracer.span("fleet.shards", items=len(accepted)):
                if len(busy) <= 1 or isinstance(self._executor, SerialExecutor):
                    results = [_drain_shard(p) for p in payloads]
                else:
                    results = self._executor.map(_drain_shard, payloads)

            merged: List[Tuple[int, int, DiskEvent, Optional[Alarm]]] = []
            faults: List[Tuple[int, BaseException]] = []
            for (shard_i, bucket), (shard_results, error) in zip(busy, results):
                if error is not None:
                    # the shard is half-mutated and untrusted: fence it off
                    # and account for every event of its bucket
                    self.health.mark_degraded(shard_i, error)
                    for seq, ev in bucket:
                        self._quarantine(
                            ev, REASON_SHARD_FAULT,
                            shard=shard_i, seq=seq, detail=str(error),
                        )
                    faults.append((shard_i, error))
                    continue
                for seq, ev, alarm in shard_results:
                    merged.append((seq, shard_i, ev, alarm))
            merged.sort(key=lambda item: item[0])

            with self.tracer.span("fleet.lifecycle", items=len(merged)):
                emitted = apply_lifecycle(
                    merged, alarms=self.alarms, instruments=self.instruments,
                )
        self._ingest_hist.observe(self._clock() - t0)
        if self.rotator is not None:
            try:
                self.rotator.maybe_rotate(self)
            except OSError:
                self._ckpt_failures_c.inc()
                if self.strict:
                    raise
        if faults and self.strict:
            shard_i, error = faults[0]
            raise ShardFault(shard_i, error)
        return emitted

    def replay(
        self, events: Iterable[DiskEvent], *, batch_size: int = 256
    ) -> List[EmittedAlarm]:
        """Drive an event stream through :meth:`ingest` in micro-batches."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be > 0, got {batch_size}")
        emitted: List[EmittedAlarm] = []
        batch: List[DiskEvent] = []
        for ev in events:
            batch.append(ev)
            if len(batch) >= batch_size:
                emitted.extend(self.ingest(batch))
                batch = []
        if batch:
            emitted.extend(self.ingest(batch))
        return emitted

    # ------------------------------------------------------------ inspection
    @property
    def n_shards(self) -> int:
        """Number of predictor shards."""
        return len(self.shards)

    @property
    def n_samples(self) -> int:
        """Total events ingested (samples + failures) — the rotation clock."""
        return self._seq

    def alarm_state(self) -> Optional[dict]:
        """Alarm-manager dynamic state for checkpoint manifests."""
        return self.alarms.state_dict()

    def effective_config(self) -> FleetConfig:
        """The config this fleet runs under, derived when none was given.

        Fleets built from a :class:`FleetConfig` return it (with the
        live ``mode``); fleets assembled from bare shard predictors get
        a topology-only config (``seed=None``, ``forest={}``) read off
        the first shard — enough for checkpoint-compatibility stamping,
        not enough to rebuild identical forests.
        """
        if self.config is not None:
            if self.config.mode == self.mode:
                return self.config
            return dataclasses.replace(self.config, mode=self.mode)
        shard = self.shards[0]
        return FleetConfig(
            n_features=self.n_features,
            n_shards=len(self.shards),
            seed=None,
            forest={},
            queue_length=int(shard.labeler.queue_length),
            alarm_threshold=float(shard.alarm_threshold),
            warmup_samples=int(shard.warmup_samples),
            record_alarms=bool(shard.record_alarms),
            max_recorded_alarms=shard.max_recorded_alarms,
            mode=self.mode,
            runtime="inproc",
        )

    def write_shard_snapshots(self, directory: Union[str, Path]) -> int:
        """Write ``shard{i}.npz`` for every shard into *directory*.

        The snapshot hook the :class:`~repro.service.checkpoint.
        CheckpointRotator` calls while staging — shards wrapped by the
        fault-injection proxy snapshot their real predictor, so a chaos
        drill's checkpoints restore clean.  Returns the shard count.
        """
        directory = Path(directory)
        for i, shard in enumerate(self.shards):
            target = shard.inner if isinstance(shard, FaultyPredictor) else shard
            save_model(target, directory / f"shard{i}.npz")
        return len(self.shards)

    def checkpoint(self) -> Optional[object]:
        """Force a rotation now (None when no rotator is attached)."""
        if self.rotator is None:
            return None
        return self.rotator.rotate(self)

    def digest(self) -> dict:
        """One-line health summary for logs and the ``serve`` CLI."""
        samples = sum(int(c.value) for c in self._samples_c)
        seconds = self._ingest_hist.sum
        return {
            "events": self._seq,
            "samples": samples,
            "failures": sum(int(c.value) for c in self._failures_c),
            "queue_depth": sum(s.labeler.n_pending for s in self.shards),
            "monitored_disks": sum(s.n_monitored_disks for s in self.shards),
            "tree_replacements": sum(
                s.forest.n_replacements for s in self.shards
            ),
            "alarms": {
                k: v for k, v in self.alarms.counts.items() if v
            },
            "quarantined": self.dead_letters.total,
            "quarantine_reasons": self.dead_letters.reason_counts,
            "degraded_shards": self.health.degraded,
            "samples_per_sec": (samples / seconds) if seconds > 0 else 0.0,
            "checkpoint_age": (
                self.rotator.samples_since_rotate(self.n_samples)
                if self.rotator is not None else None
            ),
        }


def fleet_events(
    arrays: "LabeledArrays", fail_day: Dict[int, int]
) -> Iterable[DiskEvent]:
    """Yield :class:`DiskEvent`\\ s from prepared arrays in stream order.

    *arrays* is a :class:`~repro.eval.protocol.LabeledArrays`;
    *fail_day* maps serial → failure day (the day's sample becomes the
    final snapshot of a ``failed=True`` event, matching the CLI monitor
    loop).

    A dead disk often reports *nothing* on its death day, so a failed
    serial may have no SMART row at ``fail_day`` — without an explicit
    death event its labeling queue would leak forever and its queued
    positives would never reach the forest.  Such disks get a trailing
    ``DiskEvent(x=None, failed=True)`` after the stream.
    """
    from repro.eval.protocol import stream_order

    order = stream_order(arrays.days, arrays.serials)
    seen: set = set()
    death_emitted: set = set()
    for i in order:
        serial = int(arrays.serials[i])
        day = int(arrays.days[i])
        failed = fail_day.get(serial) == day
        seen.add(serial)
        if failed:
            death_emitted.add(serial)
        yield DiskEvent(
            disk_id=serial,
            x=arrays.X[i],
            failed=failed,
            tag=day,
        )
    for serial in sorted(seen - death_emitted):
        fd = fail_day.get(serial)
        if fd is not None:
            yield DiskEvent(disk_id=serial, x=None, failed=True, tag=int(fd))
