"""The shard-host worker: one process, one shard, one command loop.

A :class:`ShardHost` owns exactly one predictor shard.  It boots by
restoring the shard from a snapshot file (so a restarted host is
bit-identical to the one that died, modulo the journal tail the
supervisor replays), sends a hello frame, then serves the wire ops —
``ingest_batch``, ``digest``, ``checkpoint``, ``drain``, ``heartbeat``
— until drained or orphaned.

Two deliberate properties:

* **crash-clean state** — the shard is mutated *only* inside
  ``ingest_batch``; a kill at any instant loses at most the in-flight
  bucket, which the supervisor re-derives from snapshot + journal.  The
  worker never writes its own snapshots except when told to
  (``checkpoint``), so there is exactly one checkpoint cadence.
* **fault drills** — the supervisor can ask for a
  :class:`~repro.service.faults.FaultyPredictor` wrap at boot; with
  ``kill_on_fault`` the injected fault escalates to ``SIGKILL`` of the
  host's own process, which is the chaos drill the restart path is
  tested against (a *reply* of the fault would be a degrade, not a
  death).
"""

from __future__ import annotations

import os
import signal
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.predictor import Alarm
from repro.persistence import load_model, save_model
from repro.service.faults import FaultyPredictor
from repro.service.fleet import DiskEvent
from repro.runtime.wire import (
    OP_CHECKPOINT,
    OP_DIGEST,
    OP_DRAIN,
    OP_HEARTBEAT,
    OP_INGEST,
    REPLY_ERROR,
    REPLY_OK,
    WireError,
    WorkerGone,
    recv_frame,
    send_frame,
)

__all__ = ["ShardHost", "shard_host_main"]


def _describe(exc: BaseException) -> Dict[str, str]:
    return {"type": type(exc).__name__, "message": str(exc)}


class ShardHost:
    """The command loop serving one shard over a pipe connection.

    Parameters
    ----------
    conn:
        The worker end of the supervisor's duplex pipe.
    shard_index:
        Which shard this host owns (echoed in the hello frame).
    snapshot_path:
        ``.npz`` snapshot the shard predictor is restored from.
    options:
        ``mode`` (``"exact"``/``"batch"`` bucket semantics) and the
        optional ``fault`` mapping (:class:`FaultyPredictor` kwargs plus
        ``kill_on_fault``) applied on this boot only.
    """

    def __init__(
        self,
        conn: Connection,
        shard_index: int,
        snapshot_path: str,
        options: Optional[Dict[str, Any]] = None,
    ) -> None:
        opts = dict(options or {})
        self.conn = conn
        self.shard_index = int(shard_index)
        self.snapshot_path = snapshot_path
        self.mode = str(opts.get("mode", "exact"))
        self._kill_on_fault = False
        self.predictor: Any = None
        self._fault = opts.get("fault")

    # -------------------------------------------------------------- lifecycle
    def boot(self) -> None:
        """Restore the shard and send the hello frame.

        A boot failure (unreadable snapshot, bad fault options) is
        reported as an error frame so the supervisor sees *why*, then
        the host exits — booting is all-or-nothing.
        """
        try:
            predictor = load_model(Path(self.snapshot_path))
            if self._fault is not None:
                fault = dict(self._fault)
                self._kill_on_fault = bool(fault.pop("kill_on_fault", False))
                predictor = FaultyPredictor(predictor, **fault)
            # warm the compiled inference snapshots, mirroring
            # FleetMonitor construction (representation-only)
            predictor.compile()
            self.predictor = predictor
        except Exception as exc:  # repro: noqa RPR302 — every boot failure must reach the supervisor as a frame
            send_frame(self.conn, REPLY_ERROR, _describe(exc))
            raise SystemExit(1)
        send_frame(
            self.conn,
            REPLY_OK,
            {"shard": self.shard_index, "stats": self._stats()},
        )

    def serve(self) -> None:
        """Serve commands until drained, or until the supervisor is gone."""
        while True:
            try:
                op, payload = recv_frame(self.conn)
            except WorkerGone:
                return  # supervisor died; daemon children just exit
            except WireError as exc:
                send_frame(self.conn, REPLY_ERROR, _describe(exc))
                continue
            if op == OP_INGEST:
                self._handle_ingest(payload)
            elif op == OP_DIGEST:
                send_frame(self.conn, REPLY_OK, self._stats())
            elif op == OP_HEARTBEAT:
                send_frame(self.conn, REPLY_OK, payload)
            elif op == OP_CHECKPOINT:
                self._handle_checkpoint(payload)
            elif op == OP_DRAIN:
                send_frame(self.conn, REPLY_OK, self._stats())
                return
            else:
                send_frame(
                    self.conn,
                    REPLY_ERROR,
                    {"type": "WireError", "message": f"unknown op {op!r}"},
                )

    # --------------------------------------------------------------- handlers
    def _handle_ingest(
        self, bucket: List[Tuple[int, DiskEvent]]
    ) -> None:
        try:
            results = self._run_bucket(bucket)
        except Exception as exc:  # repro: noqa RPR302 — mirror of _drain_shard: a faulting bucket is captured, not propagated
            if self._kill_on_fault:
                # the chaos drill: die exactly as a segfault/OOM would —
                # no reply, no cleanup, half-mutated state simply gone
                os.kill(os.getpid(), signal.SIGKILL)
            send_frame(self.conn, REPLY_ERROR, _describe(exc))
            return
        send_frame(
            self.conn,
            REPLY_OK,
            {"results": results, "stats": self._stats()},
        )

    def _run_bucket(
        self, bucket: List[Tuple[int, DiskEvent]]
    ) -> List[Tuple[int, Optional[Alarm]]]:
        """Run one bucket in arrival order — the worker-side mirror of
        :func:`repro.service.fleet._drain_shard`."""
        alarms = self.predictor.process_batch(
            [(ev.disk_id, ev.x, ev.failed, ev.tag) for _, ev in bucket],
            exact=(self.mode == "exact"),
        )
        return [(seq, alarm) for (seq, _), alarm in zip(bucket, alarms)]

    def _handle_checkpoint(self, path: str) -> None:
        target = self.predictor
        if isinstance(target, FaultyPredictor):
            target = target.inner  # drills snapshot the real predictor
        try:
            save_model(target, Path(path))
        except OSError as exc:
            send_frame(self.conn, REPLY_ERROR, _describe(exc))
            return
        send_frame(self.conn, REPLY_OK, path)

    # ------------------------------------------------------------------ stats
    def _stats(self) -> Dict[str, int]:
        p = self.predictor
        return {
            "n_samples": int(p.stats.n_samples),
            "n_failures": int(p.stats.n_failures),
            "queue_depth": int(p.labeler.n_pending),
            "monitored_disks": int(p.n_monitored_disks),
            "tree_replacements": int(p.forest.n_replacements),
        }


def shard_host_main(
    conn: Connection,
    shard_index: int,
    snapshot_path: str,
    options: Optional[Dict[str, Any]] = None,
) -> None:
    """Process entry point for one shard host (module-level so it is
    importable under any multiprocessing start method).

    Ignores ``SIGINT``: an operator's Ctrl-C must reach the supervisor,
    which drains workers deliberately — workers dying first would turn
    every interactive shutdown into a restart storm.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    host = ShardHost(conn, shard_index, snapshot_path, options)
    try:
        host.boot()
        host.serve()
    except WorkerGone:
        pass  # supervisor vanished mid-reply; nothing left to tell
    finally:
        conn.close()
