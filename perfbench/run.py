"""The repo benchmark: warm-restored serving workloads with a layer ledger.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload exact-inproc --seed 1 --seconds 10 --trace 0

Each run generates a fleet stream from ``--seed``, warms a checkpoint on
its head with the code under ``src/``, then for ``--seconds`` repeats
(restore the checkpoint, stream the first third of the held-out tail in
closed loop) and reports each batch's fastest time over the
repetitions.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced repetitions and prints the per-layer
ledger instead.  Outputs are checked against in-process replays before
anything is reported; the last line of standard output is one JSON
object.  See README.md in this directory for the workloads, the metrics
and what moves what.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[1]

#: end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "events_per_s": ("events/s", "higher"),
    "ingest_p50_ms": ("ms", "lower"),
    "ingest_p95_ms": ("ms", "lower"),
    "cpu_us_per_event": ("us", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: per-layer metrics of the traced run: name -> (unit, better)
PER_LAYER = {
    "core.process_us": ("us", "lower"),
    "core.forest_update_us": ("us", "lower"),
    "core.forest_updates_per_event": ("count", "lower"),
    "core.predict_one_us": ("us", "lower"),
    "core.labeler_observe_us": ("us", "lower"),
    "core.process_batch_us_per_event": ("us", "lower"),
    "core.partial_fit_us_per_row": ("us", "lower"),
    "core.predict_score_us_per_row": ("us", "lower"),
    "core.nodes_grown": ("count", "lower"),
    "core.tree_replacements": ("count", "lower"),
    "service.ingest_us_per_event": ("us", "lower"),
    "service.fleet_self_us_per_event": ("us", "lower"),
    "service.restore_ms": ("ms", "lower"),
    "service.checkpoint_ms": ("ms", "lower"),
    "service.checkpoint_kb": ("KB", "lower"),
    "service.quarantined": ("count", "lower"),
    "runtime.ingest_us_per_event": ("us", "lower"),
    "runtime.transport_us_per_event": ("us", "lower"),
    "runtime.boot_ms": ("ms", "lower"),
    "runtime.worker_cpu_us_per_event": ("us", "lower"),
    "runtime.restarts": ("count", "lower"),
    "runtime.spool_checkpoints": ("count", "lower"),
    "gateway.request_ms_p50": ("ms", "lower"),
    "gateway.request_ms_p95": ("ms", "lower"),
    "gateway.overhead_us_per_event": ("us", "lower"),
    "gateway.request_bytes_per_event": ("bytes", "lower"),
    "gateway.flushes_per_request": ("count", "lower"),
    "gateway.server_cpu_us_per_event": ("us", "lower"),
    "gateway.client_cpu_us_per_event": ("us", "lower"),
    "eval.alarm_fdr": ("fraction", "higher"),
    "eval.alarm_far": ("fraction", "lower"),
    "eval.failed_disks": ("count", "higher"),
    "eval.healthy_disks": ("count", "higher"),
    "obs.trace_overhead_pct": ("%", "lower"),
}

#: repetitions per run however short ``--seconds`` is
MIN_REPS = 3


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("exact-inproc", "gateway-process"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="stream size; 'tiny' is the self-test's plumbing check",
    )
    return parser.parse_args(argv)


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def end_to_end(reps: Sequence[Any]) -> Dict[str, float]:
    """End-to-end metrics from the untraced repetitions.

    Every repetition replays the same batches from the same state, so
    each batch's fastest wall and CPU time across repetitions is the
    estimate of its cost: it filters the bursts in which the host runs
    this process slower, which medians of whole passes do not.
    """
    from ledger import percentile_ms
    from workloads import fastest

    plain = [r for r in reps if not r.traced]
    latencies, cpu = fastest(plain)
    p95 = percentile_ms(latencies, 95)
    print(
        f"# per-batch fastest of {len(plain)} passes over {len(latencies)} "
        f"batches; {sum(1 for t in latencies if t * 1e3 > p95)} batches "
        "beyond p95"
    )
    events = plain[0].offered
    return {
        "setup_s": _median([r.setup_s for r in reps]),
        "events_per_s": events / sum(latencies),
        "ingest_p50_ms": percentile_ms(latencies, 50),
        "ingest_p95_ms": p95,
        "cpu_us_per_event": sum(cpu) / events * 1e6,
        "peak_rss_mb": max(r.rss_mb for r in reps),
    }


def run(args: argparse.Namespace, work: Path) -> Dict[str, Any]:
    from fleetdata import SIZES, DegenerateStream, alarm_quality, prepare
    from ledger import Recorder
    from workloads import WORKLOADS, layer_ledger, tail_alarms

    size = SIZES[args.size]
    workload = WORKLOADS[args.workload]
    stream = prepare(size, args.seed, workload.n_shards, work)
    step = workload.batch_size
    # whole batches, so the last timed batch is as full as the others
    n_batches = max(1, round(len(stream.events) * size.timed_share / step))
    events = stream.events[:n_batches * step]
    batches = [events[i:i + step] for i in range(0, len(events), step)]
    print(f"# {workload.name}: timing {len(events)} of the tail's "
          f"{len(stream.events)} events in {len(batches)} batches of "
          f"<= {step}")

    rec, reference = Recorder(), Recorder()
    reps: List[Any] = []
    deadline = time.perf_counter() + args.seconds
    last = 0.0  # duration of the latest repetition
    # no repetition starts that would end past the deadline
    while len(reps) < MIN_REPS or time.perf_counter() + last < deadline:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep_dir = work / f"rep{len(reps)}"
        began = time.perf_counter()
        rep = workload.rep(batches, stream, rep_dir, rec if traced else None)
        shutil.rmtree(rep_dir, ignore_errors=True)
        last = time.perf_counter() - began
        print(
            f"# repetition {len(reps)}{' (traced)' if traced else ''}: "
            f"setup {rep.setup_s * 1e3:.1f} ms, {rep.events_per_s:.0f} "
            f"events/s, {sum(rep.cpu) / rep.offered * 1e6:.1f} us CPU/event"
        )
        reps.append(rep)

    problems, checked = workload.check(
        stream, events, reps, work, reference if args.trace else None
    )
    problems += [
        f"repetition {i} emitted different alarms than repetition 0"
        for i, r in enumerate(reps) if r.alarms != reps[0].alarms
    ]
    for problem in problems:
        print(f"# CHECK FAILED: {problem}", file=sys.stderr)

    try:
        quality = alarm_quality(stream, tail_alarms(workload, stream), size)
    except DegenerateStream as exc:
        raise SystemExit(f"refusing to report alarm rates: {exc}")
    print(
        f"# alarm_fdr {quality.fdr:.4f} = {quality.n_detected} detected / "
        f"{quality.n_failed} failed disks; alarm_far {quality.far:.4f} = "
        f"{quality.n_false_alarms} alarmed / {quality.n_good} healthy disks"
    )

    if args.trace:
        values = layer_ledger(workload, reps, rec, reference, checked)
        values["eval.alarm_fdr"] = quality.fdr
        values["eval.alarm_far"] = quality.far
        values["eval.failed_disks"] = float(quality.n_failed)
        values["eval.healthy_disks"] = float(quality.n_good)
        table = PER_LAYER
        trace_dir = ROOT / ".perfbench"
        trace_dir.mkdir(exist_ok=True)
        stem = f"trace-{workload.name}"  # the latest traced run of each
        rec.write(trace_dir / f"{stem}.json")
        if reference.spans:
            reference.write(trace_dir / f"{stem}-reference.json")
    else:
        values = end_to_end(reps)
        table = END_TO_END
    for name, (unit, better) in table.items():
        print(f"# {name:36s} {values[name]:14.4f} {unit:9s} ({better} is better)")
    offered = sum(r.offered for r in reps)
    failed = sum(r.failed for r in reps)
    print(f"# events offered {offered}, succeeded {offered - failed}, "
          f"failed {failed}")
    return {
        "correct": not problems,
        "attempted": offered,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": table[name][0]}
            for name in table
        },
    }


def pin_one_cpu() -> int:
    """Pin this process, and every process it forks, to one CPU.

    Closed-loop load keeps one process of the chain busy at a time, so
    one CPU costs the workloads no parallelism.  Without the pin, each
    hop between client, gateway server and shard worker wakes a CPU
    that may have gone idle, and where the scheduler places the three
    processes changed the throughput of whole runs by up to 1.8x.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    cpu = pin_one_cpu()
    import numpy

    print(
        f"# host nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} seed={args.seed} workload={args.workload} "
        f"pinned to cpu {cpu}"
    )
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
