"""Span tracing around the package's public functions, from outside it.

A traced run replaces each wrapped function at every module attribute of
the ``mcgc`` package that holds it, which is where callers look it up, so
a self-check nests under the build that called it and a codebook under the
deployment that built it.  The originals are put back when the run ends.
Spans are kept in memory and written out once the run is over.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import tracemalloc


def _report(result):
    return (result.window_count, 0 if result.ok else 1)


def _search(result):
    return result.ceiling - result.max_length if result.proven else 0


# (module, attribute, counter on the result).  Every function here is a
# public entry point of its layer; span names are "<module>.<attribute>".
TARGETS = [
    ("sequences", "check_distinguishable", _report),
    ("sequences", "format_sequence", None),
    ("sequences", "parse_sequences", None),
    ("sequences", "t_cut", None),
    ("eulerian", "eulerian_circuit", len),
    ("construct", "build_m1", len),
    ("construct", "build_m2", len),
    ("construct", "build_m3", len),
    ("crossing", "compose_for_m", None),
    ("crossing", "plan_cross", None),
    ("crossing", "cross", None),
    ("search", "brute_force_max_cyclic", _search),
    ("bounds", "upper_bound", None),
    ("bounds", "lower_bound", None),
    ("bounds", "min_colors_1d", None),
    ("bounds", "min_colors_2d", None),
    ("bounds", "gain_record", None),
    ("bounds", "bounds_table", None),
    ("bounds", "kmin_table", None),
    ("bounds", "gain_table", None),
    ("grid2d", "product_grid", None),
    ("grid2d", "build_codebook", lambda cb: cb.size),
    ("grid2d", "check_grid_distinguishable", _report),
    ("grid2d", "decode", None),
    ("grid2d", "format_codebook", None),
    ("grid2d", "parse_codebook", None),
    ("sim", "deploy", None),
    ("sim", "axis_sequence", None),
    ("sim", "run", lambda out: len(out[1])),
]
# Spans whose tracemalloc peak is recorded, and the metrics they feed.
MEMORY = {"sim.deploy", "grid2d.build_codebook"}
PEAKS = ("sim.peak_kb", "grid2d.codebook_peak_kb")

# Per-layer self times: metric name -> the spans whose self time it sums.
SELF_TIMES = {
    "sequences.check_s": ["sequences.check_distinguishable"],
    "sequences.text_s": [
        "sequences.format_sequence",
        "sequences.parse_sequences",
        "sequences.t_cut",
    ],
    "eulerian.circuit_s": ["eulerian.eulerian_circuit"],
    "construct.self_s": ["construct.build_m1", "construct.build_m2", "construct.build_m3"],
    "crossing.compose_s": ["crossing.compose_for_m", "crossing.plan_cross"],
    "crossing.cross_s": ["crossing.cross"],
    "search.s": ["search.brute_force_max_cyclic"],
    "bounds.s": [f"bounds.{attr}" for mod, attr, _ in TARGETS if mod == "bounds"],
    "grid2d.product_s": ["grid2d.product_grid"],
    "grid2d.codebook_s": ["grid2d.build_codebook"],
    "grid2d.check_grid_s": ["grid2d.check_grid_distinguishable"],
    "grid2d.decode_s": ["grid2d.decode"],
    "grid2d.codebook_io_s": ["grid2d.format_codebook", "grid2d.parse_codebook"],
    "sim.deploy_s": ["sim.deploy"],
    "sim.axis_s": ["sim.axis_sequence"],
    "sim.run_self_s": ["sim.run"],
    "sim.records_json_s": ["sim.SlotRecord.to_json"],
}

FIELDS = ("name", "start", "end", "parent", "op", "ok", "count", "mem_kb")
NAME, START, END, PARENT, OP, OK, COUNT, MEM_KB = range(len(FIELDS))


class Tracer:
    """Collects spans [name, start, end, parent, op, ok, count, mem_kb].

    ``op`` is the id of the benchmark operation that was running; the
    benchmark sets it before each operation.  Spans are recorded only while
    ``enabled`` is true, so the benchmark's own checks stay out of them.
    With ``memory`` set, the spans in MEMORY also record their tracemalloc
    peak; tracemalloc slows allocation, so such a run is not timed.
    """

    def __init__(self, memory: bool = False):
        self.spans: list[list] = []
        self.memory = memory
        self.enabled = False
        self.op = 0
        self._stack: list[int] = []
        self._mem: list[list[int]] = []

    def wrap(self, name, fn, counter=None, memory=False):
        tracer = self
        memory = memory and self.memory

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op, True, 0, 0]
            tracer.spans.append(span)
            tracer._stack.append(index)
            if memory:
                tracer._mem_enter()
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[OK] = False
                raise
            finally:
                span[END] = time.perf_counter()
                if memory:
                    span[MEM_KB] = tracer._mem_exit()
                tracer._stack.pop()
            if counter is not None:
                span[COUNT] = counter(result)
            return result

        return wrapper

    def _mem_enter(self):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, current])

    def _mem_exit(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        base, seen = self._mem.pop()
        top = max(seen, peak)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], top)
        else:
            tracemalloc.stop()
        return (top - base) // 1024



def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "mcgc" or name.startswith("mcgc.")
    ]


def wrap_points():
    """(namespace, attribute, original, span name) for every place a traced
    function is looked up: each module attribute bound to it, plus the
    ``to_json`` method of ``SlotRecord``."""
    import mcgc.sim

    modules = _package_modules()
    points = []
    for mod_name, attr, _ in TARGETS:
        fn = getattr(sys.modules[f"mcgc.{mod_name}"], attr)
        for module in modules:
            for key, value in vars(module).items():
                if value is fn:
                    points.append((module, key, fn, f"{mod_name}.{attr}"))
    record = mcgc.sim.SlotRecord
    points.append((record, "to_json", record.to_json, "sim.SlotRecord.to_json"))
    return points


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function while the block runs; restore on exit."""
    counters = {f"{mod}.{attr}": counter for mod, attr, counter in TARGETS}
    points = wrap_points()
    wrappers: dict = {}
    try:
        for namespace, key, original, name in points:
            if original not in wrappers:
                wrappers[original] = tracer.wrap(
                    name, original, counters.get(name), name in MEMORY
                )
            setattr(namespace, key, wrappers[original])
        yield points
    finally:
        for namespace, key, original, _ in points:
            setattr(namespace, key, original)


def dump(spans, path, header: dict) -> None:
    """Write spans as JSON lines after a header line naming their fields."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({**header, "fields": FIELDS}, sort_keys=True) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def merge(span_lists):
    """Concatenate span lists, shifting each list's parent indices."""
    out: list[list] = []
    for spans in span_lists:
        offset = len(out)
        for span in spans:
            span = list(span)
            if span[PARENT] >= 0:
                span[PARENT] += offset
            out.append(span)
    return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def layer_metrics(spans) -> dict:
    """Per-layer self times, counts and peaks from one set of spans."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)

    def picked(name):
        return [spans[i] for i in by_name.get(name, [])]

    metrics = {
        metric: sum(own[i] for name in names for i in by_name.get(name, []))
        for metric, names in SELF_TIMES.items()
    }
    checks = picked("sequences.check_distinguishable")
    plans = picked("crossing.plan_cross")
    metrics.update(
        {
            "sequences.check_calls": len(checks),
            "sequences.windows": sum(s[COUNT][0] for s in checks if s[OK]),
            "sequences.collisions": sum(s[COUNT][1] for s in checks if s[OK]),
            "eulerian.edges": sum(s[COUNT] for s in picked("eulerian.eulerian_circuit")),
            "construct.symbols": sum(
                s[COUNT]
                for name in SELF_TIMES["construct.self_s"]
                for s in picked(name)
            ),
            "crossing.plan_calls": len(plans),
            "crossing.plan_accept_ratio": (
                sum(1 for s in plans if s[OK]) / len(plans) if plans else 0.0
            ),
            "search.instances": len(picked("search.brute_force_max_cyclic")),
            "search.lengths_exhausted": sum(
                s[COUNT] for s in picked("search.brute_force_max_cyclic")
            ),
            "bounds.lower_bound_calls": len(picked("bounds.lower_bound")),
            "grid2d.codebook_entries": sum(
                s[COUNT] for s in picked("grid2d.build_codebook")
            ),
            "grid2d.codebook_peak_kb": max(
                (s[MEM_KB] for s in picked("grid2d.build_codebook")), default=0
            ),
            "grid2d.blocks": sum(
                s[COUNT][0]
                for s in picked("grid2d.check_grid_distinguishable")
                if s[OK]
            ),
            "grid2d.decode_calls": len(picked("grid2d.decode")),
            "sim.peak_kb": max((s[MEM_KB] for s in picked("sim.deploy")), default=0),
            "sim.slots": sum(s[COUNT] for s in picked("sim.run")),
        }
    )
    check_s = metrics["sequences.check_s"]
    metrics["sequences.windows_per_s"] = (
        metrics["sequences.windows"] / check_s if check_s > 0 else 0.0
    )
    return metrics
