"""Fault isolation, event quarantine, and fault injection for serving.

Field telemetry is dirty: DC-Prophet (Lee et al.) reports that real
traces are riddled with missing and malformed readings, and a fleet
monitor that dies on the first junk SMART vector is not a monitor.  This
module supplies the robustness primitives the
:class:`~repro.service.fleet.FleetMonitor` composes:

* :func:`validate_event` — the up-front admission check run on every
  event *before* any shard mutates, returning a stable reason code for
  anything a predictor would choke on (missing vector, wrong dimension,
  NaN/Inf values);
* :class:`DeadLetterQueue` — a bounded quarantine for rejected events,
  keyed by reason code, so tolerant serving never raises *and* never
  silently discards (every rejection is counted and inspectable);
* :class:`ShardHealth` — per-shard degraded/healthy state.  A shard
  whose bucket raised mid-batch is in an indeterminate, half-mutated
  state; it is fenced off and its traffic reroutes to the dead-letter
  queue while the sibling shards keep serving;
* :exc:`ShardFault` — the error strict mode raises once the healthy
  remainder of a batch has been applied;
* a **fault-injection harness** (:class:`FaultyPredictor`,
  :func:`salt_events`) used by the test suite and the ``repro serve
  --fault-rate`` chaos drill to prove all of the above actually holds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

from repro.core.predictor import Alarm

if TYPE_CHECKING:  # circular at runtime: fleet.py imports this module
    from repro.service.fleet import DiskEvent

# stable reason codes recorded on quarantined events and metric labels
REASON_MISSING_VECTOR = "missing_vector"
REASON_BAD_VECTOR = "bad_vector"
REASON_WRONG_DIMENSION = "wrong_dimension"
REASON_NON_FINITE = "non_finite"
REASON_UNSHARDABLE_ID = "unshardable_id"
REASON_SHARD_FAULT = "shard_fault"
REASON_DEGRADED_SHARD = "degraded_shard"


def validate_event(event: "DiskEvent", n_features: int) -> Optional[str]:
    """Admission check for one :class:`~repro.service.fleet.DiskEvent`.

    Returns a reason code when the event would corrupt or crash a
    predictor shard, or None when it is safe to dispatch.  A failure
    event with ``x=None`` is legitimate (dead disks often report nothing
    on their death day); a *working* sample without a vector is not.
    """
    x = event.x
    if x is None:
        return None if event.failed else REASON_MISSING_VECTOR
    try:
        arr = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError):
        return REASON_BAD_VECTOR
    if arr.shape != (int(n_features),):
        return REASON_WRONG_DIMENSION
    if not np.all(np.isfinite(arr)):
        return REASON_NON_FINITE
    return None


@dataclass(frozen=True)
class QuarantinedEvent:
    """One event diverted to the dead-letter queue."""

    event: object
    reason: str
    shard: Optional[int] = None
    seq: Optional[int] = None
    detail: str = ""


class DeadLetterQueue:
    """Bounded quarantine for events the fleet refused to serve.

    Keeps the most recent *maxlen* :class:`QuarantinedEvent` records for
    inspection; lifetime totals (:attr:`total`, :attr:`reason_counts`,
    :attr:`dropped`) keep counting past the bound, so accounting never
    lies even when old entries have been evicted.
    """

    def __init__(self, maxlen: int = 1024) -> None:
        if maxlen <= 0:
            raise ValueError(f"maxlen must be > 0, got {maxlen}")
        self.maxlen = int(maxlen)
        self._entries: Deque[QuarantinedEvent] = deque(maxlen=self.maxlen)
        self._reason_counts: Dict[str, int] = {}
        self._total = 0

    def put(
        self,
        event: "DiskEvent",
        reason: str,
        *,
        shard: Optional[int] = None,
        seq: Optional[int] = None,
        detail: str = "",
    ) -> QuarantinedEvent:
        """Quarantine one event; returns the stored record."""
        record = QuarantinedEvent(event, reason, shard, seq, detail)
        self._entries.append(record)
        self._reason_counts[reason] = self._reason_counts.get(reason, 0) + 1
        self._total += 1
        return record

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[QuarantinedEvent]:
        return iter(self._entries)

    @property
    def total(self) -> int:
        """Lifetime quarantined count (survives ring-buffer eviction)."""
        return self._total

    @property
    def dropped(self) -> int:
        """Quarantined events evicted from the ring buffer by the bound."""
        return self._total - len(self._entries)

    @property
    def reason_counts(self) -> Dict[str, int]:
        """Copy of the lifetime per-reason tallies."""
        return dict(self._reason_counts)

    def items(self) -> List[QuarantinedEvent]:
        """The retained records, oldest first."""
        return list(self._entries)

    def drain(self) -> List[QuarantinedEvent]:
        """Pop and return every retained record (totals are kept)."""
        out = list(self._entries)
        self._entries.clear()
        return out


class ShardHealth:
    """Healthy/degraded state per predictor shard.

    A shard goes degraded when its bucket raised mid-batch: its labeler
    and forest may be half-mutated, so no further traffic is trusted to
    it until an operator restores it (typically after
    :meth:`~repro.service.fleet.FleetMonitor.ingest` resumes from a
    checkpoint or the shard is rebuilt).
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be > 0, got {n_shards}")
        self.n_shards = int(n_shards)
        self._errors: Dict[int, str] = {}

    def _check(self, shard: int) -> int:
        shard = int(shard)
        if not 0 <= shard < self.n_shards:
            raise IndexError(f"shard {shard} out of range [0, {self.n_shards})")
        return shard

    def mark_degraded(self, shard: int, error: object = "") -> bool:
        """Fence a shard off; returns True if it was newly degraded."""
        shard = self._check(shard)
        newly = shard not in self._errors
        self._errors[shard] = str(error)
        return newly

    def restore(self, shard: int) -> bool:
        """Clear a shard's degraded mark; returns True if it was set."""
        return self._errors.pop(self._check(shard), None) is not None

    def is_degraded(self, shard: int) -> bool:
        """Whether the shard is currently fenced off."""
        return self._check(shard) in self._errors

    @property
    def degraded(self) -> List[int]:
        """Degraded shard indices, ascending."""
        return sorted(self._errors)

    @property
    def n_degraded(self) -> int:
        """How many shards are currently degraded."""
        return len(self._errors)

    @property
    def errors(self) -> Dict[int, str]:
        """Copy of ``{shard: error string}`` for degraded shards."""
        return dict(self._errors)


class ShardFault(RuntimeError):
    """A shard's bucket raised mid-batch (strict mode re-raises this)."""

    def __init__(self, shard: int, cause: BaseException) -> None:
        super().__init__(
            f"shard {shard} raised {type(cause).__name__}: {cause}"
        )
        self.shard = int(shard)
        self.cause = cause


# --------------------------------------------------------------- injection
class FaultyPredictor:
    """Wrap a predictor shard so it raises after *fail_after* events.

    A transparent proxy: every attribute not overridden here resolves on
    the wrapped predictor, so metrics gauges, checkpointing helpers, and
    ``forest``/``labeler``/``stats`` access all keep working.  Once the
    trigger fires, ``process``/``process_batch`` raise *exc_type* —
    mid-bucket, after genuinely mutating the shard with the events that
    preceded the fault, which is exactly the half-updated state the
    fleet's isolation has to contain.
    """

    def __init__(
        self,
        inner: Any,
        *,
        fail_after: int,
        exc_type: Type[BaseException] = RuntimeError,
        message: str = "injected shard fault",
    ) -> None:
        if fail_after < 0:
            raise ValueError(f"fail_after must be >= 0, got {fail_after}")
        self._inner = inner
        self._fail_after = int(fail_after)
        self._exc_type = exc_type
        self._message = message
        self._n_processed = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    @property
    def inner(self) -> Any:
        """The wrapped predictor."""
        return self._inner

    @property
    def n_processed(self) -> int:
        """Events processed before (or at) the fault trigger."""
        return self._n_processed

    def _tick(self) -> None:
        if self._n_processed >= self._fail_after:
            raise self._exc_type(self._message)
        self._n_processed += 1

    def process(
        self,
        disk_id: Hashable,
        x: Optional[np.ndarray],
        failed: bool,
        tag: Any = None,
    ) -> Optional[Alarm]:
        self._tick()
        return self._inner.process(disk_id, x, failed, tag)

    def process_batch(
        self,
        events: Sequence[Tuple[Hashable, Optional[np.ndarray], bool, Any]],
        *,
        exact: bool = False,
    ) -> List[Optional[Alarm]]:
        remaining = self._fail_after - self._n_processed
        if remaining >= len(events):
            self._n_processed += len(events)
            return self._inner.process_batch(events, exact=exact)
        # partially apply the bucket before faulting, so the shard is
        # left genuinely half-mutated like a real mid-batch crash
        self._n_processed += remaining
        self._inner.process_batch(events[:remaining], exact=exact)
        raise self._exc_type(self._message)


def salt_events(
    events: Iterable,
    *,
    rate: float,
    n_features: int,
    seed: int = 0,
) -> Iterator:
    """Corrupt a fraction of working-disk events in a stream.

    Each corrupted event keeps its disk id and tag but carries a payload
    the admission check must reject — a NaN vector, an Inf vector, a
    wrong-dimension vector, or no vector at all — cycling through the
    four kinds deterministically under *seed*.  Failure events pass
    through untouched (their semantics are load-bearing).  This is the
    chaos-drill generator behind ``repro serve --fault-rate``.
    """
    from repro.service.fleet import DiskEvent

    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    rng = np.random.default_rng(seed)
    n_features = int(n_features)
    for ev in events:
        if ev.failed or rng.random() >= rate:
            yield ev
            continue
        kind = int(rng.integers(4))
        if kind == 0:
            bad = np.full(n_features, np.nan)
        elif kind == 1:
            bad = np.full(n_features, np.inf)
        elif kind == 2:
            bad = np.zeros(n_features + 1)
        else:
            bad = None
        yield DiskEvent(disk_id=ev.disk_id, x=bad, failed=False, tag=ev.tag)
