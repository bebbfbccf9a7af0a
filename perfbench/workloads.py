"""The two serving workloads, their output checks and their ledgers.

Every workload restores the warm checkpoint (the path a restarting
serving node takes), then streams the timed prefix of the held-out tail
through the public serving surface in closed loop from one caller: the
next batch is sent only after the previous reply arrived.

* ``exact-inproc`` — :class:`~repro.service.FleetMonitor`, exact mode,
  2 shards, serial executor, 64-event micro-batches.  The paper's
  Algorithm 2; per-sample ``forest.update`` dominates and neither the
  process runtime nor the gateway is involved.
* ``gateway-process`` — :class:`~repro.gateway.GatewayServer` in its own
  process over a :class:`~repro.runtime.FleetSupervisor` with one shard
  worker in batch mode, driven by one blocking
  :class:`~repro.gateway.GatewayClient` with 64-event requests, and a
  checkpoint rotation every :data:`ROTATE_EVERY` events.  Protocol,
  JSON, asyncio, the wire, the journal, persistence writes and the
  vectorized core path; no per-sample ``update``.  The system under
  test is two busy processes (server and worker), the CPU count it was
  sized for.  With one connection every flush is one request, so alarms
  are deterministic.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from fleetdata import Stream, alarm_manager
from ledger import Recorder, cpu_clock, metric_total, peak_rss_mb, percentile_ms

#: rotation cadence of gateway-process, in events.  The rotator is due
#: on the first request after a restore and then on every 32nd, so 3 of
#: the ~76 timed requests carry a rotation and ingest_p95_ms (4 requests
#: beyond it) stays off them, not on the edge between the two kinds;
#: rotations cost ~40 ms of checkpoint writes each, and the file-system
#: work moved whole runs with the host's load when it was a larger share.
#: Below the supervisor's 4096-event journal bound, so rotations (not
#: forced spool snapshots) keep the journal short.
ROTATE_EVERY = 2048

_ADMIN_TOKEN = "perfbench"

AlarmKey = Tuple[int, int, int, int, float, str]
Batches = Sequence[Sequence[Any]]


def alarm_key(wire: Dict[str, Any]) -> AlarmKey:
    return (
        wire["seq"], wire["shard"], wire["disk_id"], wire["tag"],
        wire["score"], wire["action"],
    )


def emitted_keys(emitted: Sequence[Any]) -> List[AlarmKey]:
    from repro.gateway import alarm_to_wire

    return [alarm_key(alarm_to_wire(e)) for e in emitted]


@dataclass
class Rep:
    """One restore plus one timed pass over the timed prefix of the tail."""

    setup_s: float
    offered: int
    failed: int
    latencies: List[float]  # wall seconds per batch, send to reply
    cpu: List[float]  # CPU seconds of the system under test per batch
    cpu_roles: Dict[str, float]  # CPU seconds per process over the pass
    rss_mb: float
    alarms: List[AlarmKey]
    traced: bool
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def events_per_s(self) -> float:
        return self.offered / sum(self.latencies)


def fastest(reps: Sequence[Rep]) -> Tuple[List[float], List[float]]:
    """Each batch's least wall and least CPU time across *reps*."""
    return (
        [min(col) for col in zip(*(r.latencies for r in reps))],
        [min(col) for col in zip(*(r.cpu for r in reps))],
    )


def timed_tail(
    batches: Batches,
    send: Callable[[Sequence[Any]], None],
    system: Sequence[int],
    roles: Dict[str, int],
) -> Tuple[List[float], List[float], Dict[str, float]]:
    """Closed loop over *batches*: per-batch wall and CPU time.

    *system* are the pids whose CPU counts as the system under test;
    *roles* names every process whose CPU is reported on its own.
    """
    clocks = [cpu_clock(pid) for pid in system]
    gettime, now = time.clock_gettime, time.perf_counter
    role_clocks = {role: cpu_clock(pid) for role, pid in roles.items()}
    role0 = {role: gettime(c) for role, c in role_clocks.items()}
    latencies: List[float] = []
    cpu: List[float] = []
    for batch in batches:
        c0 = sum(map(gettime, clocks))
        t0 = now()
        send(batch)
        t1 = now()
        cpu.append(sum(map(gettime, clocks)) - c0)
        latencies.append(t1 - t0)
    return latencies, cpu, {
        role: gettime(c) - role0[role] for role, c in role_clocks.items()
    }


def restore_inproc(
    stream: Stream, mode: str, *, rotator: Any = None
) -> Any:
    from repro.service import FleetMonitor, MetricsRegistry

    registry = MetricsRegistry()
    return FleetMonitor.from_checkpoint(
        stream.checkpoint,
        registry=registry,
        alarm_manager=alarm_manager(registry),
        strict=False,
        mode=mode,
        rotator=rotator,
    )


def wrap_core(rec: Recorder, shards: Sequence[Any]) -> None:
    """Span the public predictor, labeler and forest calls of *shards*."""

    def rows(X: Any, *_: Any) -> int:
        return len(X)

    for shard in shards:
        rec.wrap(shard, "process", "core.process")
        rec.wrap(shard, "process_batch", "core.process_batch", items=len)
        rec.wrap(shard.labeler, "observe", "core.labeler_observe")
        rec.wrap(shard.forest, "update", "core.forest_update")
        rec.wrap(shard.forest, "partial_fit", "core.partial_fit", items=rows)
        rec.wrap(shard.forest, "predict_one", "core.predict_one")
        rec.wrap(shard.forest, "predict_score", "core.predict_score", items=rows)


def forest_totals(shards: Sequence[Any]) -> Tuple[int, int]:
    """(total nodes, tree replacements) summed over shard forests."""
    stats = [shard.forest.stats() for shard in shards]
    return (
        sum(int(s["total_nodes"]) for s in stats),
        sum(int(s["n_replacements"]) for s in stats),
    )


def quarantined(registry: Any) -> float:
    return metric_total(registry.render(), "repro_fleet_quarantined_total")


def _failed(offered: int, admitted: int, lost_to: float) -> int:
    """Events quarantined, shed or errored, plus any never accounted for."""
    return int(lost_to) + max(0, offered - admitted - int(lost_to))


def _inproc_replay(
    fleet: Any, batches: Batches, rec: Optional[Recorder]
) -> Tuple[List[Any], Dict[str, float]]:
    """Replay *batches* through an in-process fleet, outside any timing."""
    if rec is not None:
        wrap_core(rec, fleet.shards)
        rec.wrap(fleet, "ingest", "service.ingest", items=len)
    nodes0, repl0 = forest_totals(fleet.shards)
    emitted: List[Any] = []
    for batch in batches:
        emitted.extend(fleet.ingest(batch))
    nodes1, repl1 = forest_totals(fleet.shards)
    return emitted, {
        "core.nodes_grown": float(nodes1 - nodes0),
        "core.tree_replacements": float(repl1 - repl0),
    }


def _reference(
    stream: Stream, events: Sequence[Any], mode: str, step: int,
    rec: Optional[Recorder] = None, rotator: Any = None,
) -> Tuple[Any, List[AlarmKey], Dict[str, float]]:
    """Restore in-process and replay *events* in *step*-event batches."""
    t0 = time.perf_counter()
    fleet = restore_inproc(stream, mode, rotator=rotator)
    restore_ms = (time.perf_counter() - t0) * 1e3
    emitted, counts = _inproc_replay(
        fleet, [events[i:i + step] for i in range(0, len(events), step)], rec
    )
    counts["service.restore_ms"] = restore_ms
    counts["events"] = len(events)
    # FleetMonitor.ingest's own histogram leaves cadence rotations out,
    # as the supervisor's does; the transport share compares the two
    counts["ingest_histogram_s"] = metric_total(
        fleet.registry.render(), "repro_fleet_ingest_seconds_sum"
    )
    return fleet, emitted_keys(emitted), counts


def tail_alarms(workload: Any, stream: Stream) -> List[Tuple[int, int]]:
    """``(disk_id, day)`` of every alarm over the whole tail, untimed.

    An in-process replay in the workload's mode and batch size: the
    output checks pin the timed path to that replay on the timed prefix.
    """
    _, alarms, _ = _reference(
        stream, stream.events, workload.mode, workload.batch_size
    )
    return [(key[2], key[3]) for key in alarms]


class ExactInproc:
    name = "exact-inproc"
    mode = "exact"
    n_shards = 2
    batch_size = 64
    #: batch size of the check replay; exact mode must not depend on it
    check_batch_size = 256

    def rep(
        self, batches: Batches, stream: Stream, work: Path,
        rec: Optional[Recorder],
    ) -> Rep:
        t0 = time.perf_counter()
        fleet = restore_inproc(stream, self.mode)
        setup_s = time.perf_counter() - t0
        if rec is not None:
            wrap_core(rec, fleet.shards)
            rec.wrap(fleet, "ingest", "service.ingest", items=len)
        seq0, q0 = fleet.n_samples, quarantined(fleet.registry)
        me = os.getpid()
        emitted: List[Any] = []
        latencies, cpu, roles = timed_tail(
            batches, lambda b: emitted.extend(fleet.ingest(b)),
            [me], {"inproc": me},
        )
        offered = sum(len(b) for b in batches)
        lost = quarantined(fleet.registry) - q0
        return Rep(
            setup_s=setup_s,
            offered=offered,
            failed=_failed(offered, fleet.n_samples - seq0, lost),
            latencies=latencies,
            cpu=cpu,
            cpu_roles=roles,
            rss_mb=peak_rss_mb(me),
            alarms=emitted_keys(emitted),
            traced=rec is not None,
            extra={"service.quarantined": lost},
        )

    def check(
        self, stream: Stream, timed: Sequence[Any], reps: Sequence[Rep],
        work: Path, rec: Optional[Recorder],
    ) -> Tuple[List[str], Dict[str, float]]:
        _, alarms, counts = _reference(
            stream, timed, self.mode, self.check_batch_size
        )
        problems = []
        if alarms != reps[0].alarms:
            problems.append(
                f"exact-mode alarms changed with the micro-batch size "
                f"({self.batch_size} vs {self.check_batch_size})"
            )
        return problems, counts


def _timeless(digest: Dict[str, Any]) -> Dict[str, Any]:
    """A digest in wire form, without its one wall-clock-derived field."""
    return {
        k: v for k, v in json.loads(json.dumps(digest)).items()
        if k != "samples_per_sec"
    }


def _rotator(directory: Path) -> Any:
    from repro.service import CheckpointRotator

    return CheckpointRotator(directory, every_samples=ROTATE_EVERY, retention=2)


def _gateway_main(conn: Any, checkpoint: str, work: str) -> None:
    """Server process body: restore the process fleet, bind, serve.

    Reports ``(port, worker pid)`` once the listener is bound, and stops
    the shard worker after the drain.
    """
    from repro.gateway import GatewayServer
    from repro.runtime import FleetSupervisor
    from repro.service import MetricsRegistry

    registry = MetricsRegistry()
    fleet = FleetSupervisor.from_checkpoint(
        checkpoint,
        registry=registry,
        alarm_manager=alarm_manager(registry),
        strict=False,
        mode="batch",
        rotator=_rotator(Path(work) / "rotations"),
        spool_dir=Path(work) / "spool",
    )
    try:
        (worker,) = [p.pid for p in multiprocessing.active_children()]
        server = GatewayServer(fleet, port=0, admin_token=_ADMIN_TOKEN)

        async def serve() -> None:
            await server.start()
            conn.send((server.port, worker))
            conn.close()
            try:
                await server.serve_until_drained()
            finally:
                if server.status != "drained":
                    await server.stop()

        asyncio.run(serve())
    finally:
        fleet.close()


#: server counters read before and after the tail; shed and errored
#: requests are counted in events at the client, which with a single
#: connection sees every one of them
_SERVER_COUNTERS = (
    "repro_fleet_ingest_seconds_sum",
    "repro_fleet_quarantined_total",
    "repro_gateway_flushes_total",
    "repro_runtime_restarts_total",
    "repro_runtime_spool_checkpoints_total",
)


class GatewayProcess:
    name = "gateway-process"
    mode = "batch"
    n_shards = 1
    batch_size = 64

    def rep(
        self, batches: Batches, stream: Stream, work: Path,
        rec: Optional[Recorder],
    ) -> Rep:
        from repro.gateway import GatewayClient

        # forked, like the shard worker it spawns in turn, so set-up time
        # is restore, worker boot and bind rather than interpreter
        # start-up and imports; this process has started no threads
        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)
        t0 = time.perf_counter()
        server = ctx.Process(
            target=_gateway_main,
            args=(sender, str(stream.checkpoint), str(work)),
            name="perfbench-gateway",
        )
        server.start()
        sender.close()
        try:
            if not receiver.poll(120):
                raise RuntimeError("gateway server never reported its port")
            port, worker = receiver.recv()
            client = GatewayClient("127.0.0.1", port)
            try:
                client.healthz()
                setup_s = time.perf_counter() - t0
                rep = self._stream(
                    batches, client, server.pid, worker, setup_s, rec
                )
            finally:
                client.drain(_ADMIN_TOKEN)
                client.close()
        finally:
            receiver.close()
            server.join(timeout=60)
            if server.is_alive():
                server.kill()
                server.join()
        published = sorted((work / "rotations").glob("ckpt-*"))
        rep.extra["service.checkpoint_kb"] = (
            sum(f.stat().st_size for f in published[0].iterdir()) / 1024
        )
        return rep

    def _stream(
        self, batches: Batches, client: Any, server: int, worker: int,
        setup_s: float, rec: Optional[Recorder],
    ) -> Rep:
        from repro.gateway import GatewayError

        if rec is not None:
            rec.wrap(client, "ingest", "gateway.request", items=len)
        before = client.metrics()
        wire: List[Dict[str, Any]] = []
        shed = errored = 0

        def send(batch: Sequence[Any]) -> None:
            nonlocal shed, errored
            try:
                result = client.ingest(batch)
            except GatewayError:
                errored += len(batch)
                return
            if result.shed:
                shed += len(batch)
            wire.extend(result.alarms)

        latencies, cpu, roles = timed_tail(
            batches, send, [server, worker],
            {"server": server, "worker": worker, "client": os.getpid()},
        )
        rss = peak_rss_mb(server) + peak_rss_mb(worker)
        after = client.metrics()
        delta = {
            name: metric_total(after, name) - metric_total(before, name)
            for name in _SERVER_COUNTERS
        }
        offered = sum(len(b) for b in batches)
        lost_to = delta["repro_fleet_quarantined_total"] + shed + errored
        return Rep(
            setup_s=setup_s,
            offered=offered,
            failed=_failed(offered, offered - shed - errored, lost_to),
            latencies=latencies,
            cpu=cpu,
            cpu_roles=roles,
            rss_mb=rss,
            alarms=[alarm_key(a) for a in wire],
            traced=rec is not None,
            extra={
                "digest": client.digest(),
                "server_ingest_s": delta["repro_fleet_ingest_seconds_sum"],
                "flushes": delta["repro_gateway_flushes_total"],
                "service.quarantined": delta["repro_fleet_quarantined_total"],
                "runtime.restarts": delta["repro_runtime_restarts_total"],
                "runtime.spool_checkpoints": delta[
                    "repro_runtime_spool_checkpoints_total"
                ],
            },
        )

    def check(
        self, stream: Stream, timed: Sequence[Any], reps: Sequence[Rep],
        work: Path, rec: Optional[Recorder],
    ) -> Tuple[List[str], Dict[str, float]]:
        rotator = _rotator(work / "reference")
        if rec is not None:
            rec.wrap(rotator, "rotate", "service.checkpoint")
        fleet, alarms, counts = _reference(
            stream, timed, self.mode, self.batch_size, rec, rotator
        )
        problems = []
        if alarms != reps[0].alarms:
            problems.append(
                "gateway alarms differ from an in-process replay with the "
                "same request boundaries"
            )
        digest, served = _timeless(fleet.digest()), _timeless(
            reps[0].extra["digest"]
        )
        if digest != served:
            problems.append(
                "process-runtime digest differs from the in-process replay: "
                f"{served} != {digest}"
            )
        counts["gateway.request_bytes_per_event"] = _request_bytes(
            timed, self.batch_size
        ) / len(timed)
        return problems, counts


def _request_bytes(events: Sequence[Any], step: int) -> int:
    """Bytes of the framed ingest requests that carry *events*."""
    from repro.gateway import PROTOCOL_VERSION, encode_message, event_to_wire

    return sum(
        len(encode_message({
            "v": PROTOCOL_VERSION, "op": "ingest", "id": i,
            "events": [event_to_wire(ev) for ev in events[start:start + step]],
        }))
        for i, start in enumerate(range(0, len(events), step), 1)
    )


WORKLOADS = {w.name: w for w in (ExactInproc(), GatewayProcess())}


def _mean_us(summary: Dict[str, Dict[str, float]], name: str, per: str) -> float:
    row = summary.get(name)
    if row is None or not row[per]:
        return 0.0
    return row["total_s"] / row[per] * 1e6


def core_service_ledger(rec: Recorder) -> Dict[str, float]:
    """Core and fleet per-layer numbers from spans over in-process fleets."""
    s = rec.summary()
    ingest = s.get("service.ingest")
    events = ingest["items"] if ingest else 0
    updates = s.get("core.forest_update", {}).get("calls", 0)
    return {
        "core.process_us": _mean_us(s, "core.process", "calls"),
        "core.forest_update_us": _mean_us(s, "core.forest_update", "calls"),
        "core.forest_updates_per_event": updates / events if events else 0.0,
        "core.predict_one_us": _mean_us(s, "core.predict_one", "calls"),
        "core.labeler_observe_us": _mean_us(s, "core.labeler_observe", "calls"),
        "core.process_batch_us_per_event": _mean_us(
            s, "core.process_batch", "items"
        ),
        "core.partial_fit_us_per_row": _mean_us(s, "core.partial_fit", "items"),
        "core.predict_score_us_per_row": _mean_us(
            s, "core.predict_score", "items"
        ),
        "service.ingest_us_per_event": _mean_us(s, "service.ingest", "items"),
        "service.fleet_self_us_per_event": (
            ingest["self_s"] / events * 1e6 if events else 0.0
        ),
    }


def _median(values: Sequence[float]) -> float:
    import statistics

    return float(statistics.median(values))


def layer_ledger(
    workload: Any,
    reps: Sequence[Rep],
    rec: Recorder,
    reference: Recorder,
    checked: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric of one traced run; unused layers read 0."""
    traced = [r for r in reps if r.traced]
    plain = [r for r in reps if not r.traced]
    events = sum(r.offered for r in traced)

    def role_us(role: str) -> float:
        return sum(r.cpu_roles[role] for r in traced) / events * 1e6

    out: Dict[str, float] = {
        # forest growth is deterministic, so the check replay counts it
        "core.nodes_grown": checked["core.nodes_grown"],
        "core.tree_replacements": checked["core.tree_replacements"],
        "service.restore_ms": checked["service.restore_ms"],
        "service.checkpoint_ms": 0.0,
        "service.checkpoint_kb": 0.0,
        "service.quarantined": sum(r.extra["service.quarantined"] for r in reps),
        "runtime.ingest_us_per_event": 0.0,
        "runtime.transport_us_per_event": 0.0,
        "runtime.boot_ms": 0.0,
        "runtime.worker_cpu_us_per_event": 0.0,
        "runtime.restarts": 0.0,
        "runtime.spool_checkpoints": 0.0,
        "gateway.request_ms_p50": 0.0,
        "gateway.request_ms_p95": 0.0,
        "gateway.overhead_us_per_event": 0.0,
        "gateway.request_bytes_per_event": 0.0,
        "gateway.flushes_per_request": 0.0,
        "gateway.server_cpu_us_per_event": 0.0,
        "gateway.client_cpu_us_per_event": 0.0,
        "obs.trace_overhead_pct": 100.0 * (
            1.0 - sum(fastest(plain)[0]) / sum(fastest(traced)[0])
        ),
    }
    if workload.name == "exact-inproc":
        # the fleet is in this process: the traced passes are the ledger
        out.update(core_service_ledger(rec))
        return out
    # the shard worker and the fleet run in other processes, so the core
    # and fleet numbers come from the traced in-process check replay,
    # which does the same work from the same checkpoint and batches
    out.update(core_service_ledger(reference))
    s = reference.summary()
    latencies = [t for r in traced for t in r.latencies]
    server_ingest_s = sum(r.extra["server_ingest_s"] for r in traced)
    out["service.checkpoint_ms"] = _mean_us(s, "service.checkpoint", "calls") / 1e3
    out["service.checkpoint_kb"] = traced[0].extra["service.checkpoint_kb"]
    out["runtime.ingest_us_per_event"] = server_ingest_s / events * 1e6
    reference_us = checked["ingest_histogram_s"] / checked["events"] * 1e6
    out["runtime.transport_us_per_event"] = (
        out["runtime.ingest_us_per_event"] - reference_us
    )
    out["runtime.boot_ms"] = (
        _median([r.setup_s for r in reps]) * 1e3 - out["service.restore_ms"]
    )
    out["runtime.worker_cpu_us_per_event"] = role_us("worker")
    out["runtime.restarts"] = sum(r.extra["runtime.restarts"] for r in reps)
    out["runtime.spool_checkpoints"] = sum(
        r.extra["runtime.spool_checkpoints"] for r in reps
    )
    out["gateway.request_ms_p50"] = percentile_ms(latencies, 50)
    out["gateway.request_ms_p95"] = percentile_ms(latencies, 95)
    out["gateway.overhead_us_per_event"] = (
        (sum(latencies) - server_ingest_s) / events * 1e6
    )
    out["gateway.request_bytes_per_event"] = checked[
        "gateway.request_bytes_per_event"
    ]
    out["gateway.flushes_per_request"] = (
        sum(r.extra["flushes"] for r in traced) / len(latencies)
    )
    out["gateway.server_cpu_us_per_event"] = role_us("server")
    out["gateway.client_cpu_us_per_event"] = role_us("client")
    return out
