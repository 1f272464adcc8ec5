"""Run one benchmark workload against the package in ``src/`` and print its
metrics.

    python3 perfbench/run.py --workload build --seed 0 --seconds 10 --trace 0

Run it from anywhere; it uses the ``src/`` directory next to ``perfbench/``.
Workloads: build, track, certify, pipeline (see ``workloads.py``).  With
``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it holds the
per-layer metrics from a traced run.  Every output is checked by an
independent oracle and, where the digest table has its inputs, against the
sha256 recorded for it; each operation that raises, returns a wrong output,
mismatches its digest or exits nonzero counts once in ``failed``.

Load is one caller in a closed loop: each operation starts when the
previous one has returned and been checked.  Checking is not timed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
DIGESTS = PERFBENCH / "digests.json"
DEFAULT_SEED = 0
# Untraced runs repeat the batch until --seconds have passed, at least this
# many times, so batch_ref is a median of several batches.
MIN_BATCHES = 3
# Traced runs alternate untraced and traced batches, at least this many pairs.
MIN_TRACE_PAIRS = 2
# Untraced batches run a fixed reference piece at their start, at their end
# and between operations whenever this long has passed since the last one.
REF_EVERY_S = 0.01
REF_ITERATIONS = 2000
# setup_s is given at the host speed where one reference piece takes this
# long, about what it takes on a 2-vCPU Xeon virtual machine.
REF_PIECE_S = 0.001


def load_package():
    """Import mcgc from SRC, refusing any other installed copy."""
    if not (SRC / "mcgc" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}/mcgc")
    sys.path.insert(0, str(SRC))
    import mcgc

    if not Path(mcgc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: mcgc imported from {mcgc.__file__}, not {SRC}")
    return mcgc


class Gate:
    """Counts attempted and failed operations; collects output digests."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.checked: set[str] = set()

    def record(self, op, out, error, results) -> None:
        self.attempted += 1
        problem = None
        if error is not None:
            problem = "raised " + "".join(traceback.format_exception_only(error)).strip()
        else:
            try:
                problem = op.check(out, results) if op.check else None
                if problem is None and op.digest:
                    problem = self._digest(op, out)
            except Exception as exc:  # a malformed output can break its check
                problem = f"check raised {exc!r}"
        if problem:
            self.failed += 1
            print(f"FAIL {op.key}: {problem}", file=sys.stderr)

    def _digest(self, op, out):
        for name, text in op.digest(out).items():
            key = f"{op.key} [{name}]" if name else op.key
            if text is None:
                return f"output {name} missing"
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if self.digests.setdefault(key, digest) != digest:
                return f"{key} changed between batches"
            want = self.reference.get(key)
            if want is not None:
                self.checked.add(key)
                if want != digest:
                    return f"digest of {key} differs from the recorded one"
        return None


def reference_piece() -> float:
    """Run a fixed piece of interpreter work that touches no package code;
    returns its duration.  It gauges how fast the host runs Python at that
    moment, which drifts by a third or more for tens of seconds at a time.
    Tuple keys, set and dict lookups and integer arithmetic are what the
    package's own loops mostly do."""
    t0 = time.perf_counter()
    seen: set = set()
    first: dict = {}
    acc = 0
    for i in range(REF_ITERATIONS):
        key = (i % 97, i % 13, i & 7)
        if key in seen:
            acc += first[key]
        else:
            seen.add(key)
            first[key] = i
        acc = (acc * 31 + len(key)) % 1000003
    return time.perf_counter() - t0


class Gauge:
    """Batch time in reference pieces: operation time between two pieces,
    divided by the mean of those two pieces' durations, summed.

    The host's speed drifts over seconds and minutes; the pieces run where
    the operations run, so the drift divides out (README, "Noise").
    """

    def __init__(self):
        self.last: float | None = None
        self.pending = 0.0
        self.total = 0.0
        self.at = 0.0

    def tick(self) -> None:
        piece = reference_piece()
        if self.last is not None:
            self.total += self.pending / ((self.last + piece) / 2)
        self.last = piece
        self.pending = 0.0
        self.at = time.perf_counter()

    def add(self, seconds: float) -> None:
        self.pending += seconds
        if time.perf_counter() - self.at >= REF_EVERY_S:
            self.tick()


def timed_setup(workload) -> tuple[float, float]:
    """One set-up between two reference pieces; returns its wall time and
    its time at the speed where a piece takes ``REF_PIECE_S``."""
    before = reference_piece()
    seconds = workload.setup()
    after = reference_piece()
    return seconds, seconds / ((before + after) / 2) * REF_PIECE_S


def run_batch(workload, ops, gate, tracer=None, gauge=None) -> list[float]:
    """Run every operation once, in order; returns each one's duration.
    A ``gauge`` runs its reference pieces between operations."""
    workload.begin_batch()
    results: dict = {}
    durations: list[float] = []
    if gauge is not None:
        gauge.tick()
    for index, op in enumerate(ops):
        out = error = None
        if tracer is not None:
            tracer.op = index
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out = op.fn(results)
        except Exception as exc:
            error = exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.enabled = False
        durations.append(t1 - t0)
        gate.record(op, out, error, results)
        if op.keep and error is None:
            results[op.key] = out
        if gauge is not None:
            gauge.add(t1 - t0)
    if gauge is not None:
        gauge.tick()
    return durations


def peak_rss_mb(workload) -> float:
    """Peak resident memory of the process doing the workload's work."""
    who = resource.RUSAGE_CHILDREN if workload.name == "pipeline" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def stamp(seed: int, overhead) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
        "trace_overhead_ratio": overhead,
    }


def untraced(workload, gate, seconds):
    """End-to-end metrics.  The run sets up ``setup_repeats`` times before
    the first batch and once more after each batch, so the median set-up
    time spans the whole run, not one moment of the host's drift."""
    setups = [timed_setup(workload) for _ in range(workload.setup_repeats)]
    ops = workload.ops()
    batches, in_refs = [], []
    start = time.perf_counter()
    while len(batches) < MIN_BATCHES or time.perf_counter() - start < seconds:
        gauge = Gauge()
        batches.append((ops, run_batch(workload, ops, gate, gauge=gauge)))
        in_refs.append(gauge.total)
        setups.append(timed_setup(workload))
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
        "batch_ref": (statistics.median(in_refs), "ref"),
    }
    named = workload.named_metrics(batches)
    named["batches"] = (len(batches), "count")
    named["batch_s"] = (statistics.median(sum(d) for _, d in batches), "s")
    named["setup_wall_s"] = (statistics.median(wall for wall, _ in setups), "s")
    return metrics, named, ops


def traced_pass(workload, work, memory=False):
    """Run work(tracer) with a fresh tracer installed; returns its result
    and the spans recorded here and in child processes."""
    batch_tracer = tracing.Tracer(memory)
    workload.tracer = batch_tracer
    try:
        with tracing.installed(batch_tracer):
            result = work(batch_tracer)
    finally:
        workload.tracer = None
    return result, tracing.merge([batch_tracer.spans, *workload.child_spans_taken()])


def traced(workload, gate, seconds):
    """Per-layer metrics: one traced set-up plus traced batches, alternated
    with untraced ones for the overhead ratio.  Memory peaks come from a
    separate set-up and batch under tracemalloc, which are not timed."""
    def setup(batch_tracer):
        batch_tracer.enabled = True
        workload.setup()
        batch_tracer.enabled = False

    def batch(batch_tracer):
        return run_batch(workload, ops, gate, batch_tracer)

    setups = [workload.setup() for _ in range(workload.setup_repeats)]
    _, setup_peaks = traced_pass(workload, setup, memory=True)
    _, setup_spans = traced_pass(workload, setup)
    ops = workload.ops()
    _, batch_peaks = traced_pass(workload, batch, memory=True)
    peaks = tracing.layer_metrics(tracing.merge([setup_peaks, batch_peaks]))

    plain, timed, layers, first_spans = [], [], [], None
    start = time.perf_counter()
    while len(timed) < MIN_TRACE_PAIRS or time.perf_counter() - start < seconds:
        plain.append((ops, run_batch(workload, ops, gate)))
        if len(plain) == 1:
            cli_counts = workload.batch_counts()
        durations, spans = traced_pass(workload, batch)
        spans = tracing.merge([setup_spans, spans])
        timed.append(sum(durations))
        layers.append(tracing.layer_metrics(spans))
        if first_spans is None:
            first_spans = spans

    metrics = {}
    for name, value in layers[0].items():
        if isinstance(value, int):
            if any(other[name] != value for other in layers):
                print(f"warning: count {name} differs between traced batches", file=sys.stderr)
            metrics[name] = value
        else:
            metrics[name] = statistics.median(other[name] for other in layers)
    for name in tracing.PEAKS:
        metrics[name] = peaks[name]
    if workload.name == "pipeline":
        metrics.update(workload.cli_metrics(plain))
        metrics["cli.cold_start_s"] = statistics.median(setups)
        metrics.update(cli_counts)
    overhead = statistics.median(timed) / statistics.median(sum(d) for _, d in plain)
    metrics["trace.overhead_ratio"] = overhead
    return metrics, first_spans, ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_package()
    import workloads

    # One core for this process and its children: the gauge's pieces then
    # run on the core that runs the operations (README, "Noise").
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    reference = json.loads(DIGESTS.read_text()).get(args.workload, {}) if DIGESTS.exists() else {}

    STATE.mkdir(exist_ok=True)
    work_dir = STATE / f"work-{os.getpid()}"
    work_dir.mkdir()
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    gate = Gate(reference)
    overhead_file = STATE / "overhead.json"
    overheads = json.loads(overhead_file.read_text()) if overhead_file.exists() else {}
    try:
        if args.trace:
            layer, spans, ops = traced(workload, gate, args.seconds)
            wanted = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics = {name: (layer.get(name, 0), units[name]) for name in wanted}
            named = {}
            overheads[args.workload] = layer["trace.overhead_ratio"]
            overhead_file.write_text(json.dumps(overheads, sort_keys=True) + "\n")
            tracing.dump(
                spans,
                STATE / f"trace-{args.workload}-seed{args.seed}.jsonl",
                {"workload": args.workload, "seed": args.seed},
            )
        else:
            metrics, named, ops = untraced(workload, gate, args.seconds)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    info = stamp(args.seed, overheads.get(args.workload))
    work = workloads.work_counts(ops)
    print("stamp " + json.dumps(info, sort_keys=True))
    print("work per batch " + json.dumps(work, sort_keys=True))
    print(f"digests checked {len(gate.checked)} of {len(gate.digests)} outputs")
    for name, (value, unit) in {**named, **metrics}.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {gate.failed / max(gate.attempted, 1):.6g} ratio "
          f"({gate.failed} of {gate.attempted})")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results_dir = STATE / "results"
    results_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "stamp": info,
              "work": work, "named": named, **result}
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=list) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
