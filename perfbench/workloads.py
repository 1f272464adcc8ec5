"""The four benchmark workloads.

Each workload turns a seed into a fixed list of operations on the package's
public functions.  The benchmark runs the list in a closed loop, one caller
and one operation at a time, and checks every output as it comes back.
Two seeds give different inputs with the same amount of work: the sizes are
fixed here and only contents, cut positions and query points come from the
seed.

An operation reads the outputs of earlier operations in the same batch from
``results``, keyed by their ``key``; ``key`` also names the output in the
digest table, so it spells out every input that determines the output.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import mcgc
import mcgc.bounds
import mcgc.sequences

import oracle

PERFBENCH = Path(__file__).resolve().parent


@dataclass
class Op:
    """One timed operation.

    ``fn(results)`` does the work; ``check(output, results)`` returns a
    problem description or None; ``digest(output)`` returns the output's
    bytes, named, for the digest table; ``units`` counts the work done.
    """

    key: str
    kind: str
    fn: Callable
    check: Callable | None = None
    digest: Callable | None = None
    units: dict = field(default_factory=dict)
    keep: bool = True


def _seq_text(seq) -> dict:
    return {"": mcgc.sequences.format_sequence(seq)}


def _sequence_check(m: int, cyclic: bool, length: int | None = None):
    def check(seq, results):
        if length is not None and len(seq) != length:
            return f"length {len(seq)}, expected {length}"
        if (seq.mode == "cyclic") != cyclic:
            return f"mode {seq.mode}"
        pair, _ = oracle.sequence_verdict(seq.colors, m, cyclic)
        if pair is not None:
            return f"oracle finds windows {pair} equal"
        return None

    return check


def _report_check(colors_of, m: int, cyclic: bool):
    def check(report, results):
        verdict = oracle.sequence_verdict(colors_of(results), m, cyclic)
        if not oracle.report_matches(report, verdict):
            return f"report {report} disagrees with oracle {verdict}"
        return None

    return check


class Workload:
    """Base: set-up, the operation list, and how metrics are summarised."""

    name = ""
    setup_repeats = 9

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.work_dir = work_dir
        self.tracer = None
        self.env = dict(os.environ, PYTHONPATH=str(Path(mcgc.__file__).parent.parent))

    def setup(self) -> float:
        """One set-up; returns its duration.  By default: import mcgc in a
        fresh interpreter, timed inside it."""
        return _import_seconds(self.env)

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def named_metrics(self, batches) -> dict:
        """Workload-specific metrics, printed but not gated, from untraced
        batches: list of (ops, durations)."""
        raise NotImplementedError

    def begin_batch(self) -> None:
        pass

    def child_spans_taken(self) -> list:
        """Span lists recorded by child processes since the last call."""
        return []

    def batch_counts(self) -> dict:
        """Exact per-batch counts the workload keeps itself."""
        return {}

    def close(self) -> None:
        pass


def _import_seconds(env) -> float:
    """Time to import mcgc in a fresh interpreter, measured inside it."""
    code = (
        "import time; t = time.perf_counter(); import mcgc; "
        "d = time.perf_counter() - t; print(d, mcgc.__file__)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    seconds, path = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(Path(env["PYTHONPATH"]).resolve()):
        raise RuntimeError(f"fresh interpreter imported mcgc from {path}")
    return float(seconds)


def _sum_units(ops, durations, unit, kinds=None):
    total_units = 0
    total_time = 0.0
    for op, d in zip(ops, durations):
        if kinds is None or op.kind in kinds:
            total_units += op.units.get(unit, 0)
            total_time += d
    return total_units, total_time


def work_counts(ops) -> dict:
    """Total units per batch: symbols, windows, slots, queries, commands."""
    out: dict[str, int] = {}
    for op in ops:
        for unit, n in op.units.items():
            out[unit] = out.get(unit, 0) + n
    return out


# --------------------------------------------------------------------------
# build: the code designer's batch


class Build(Workload):
    """Constructions, cuts, composition, and standalone verification.

    The window kernel in ``sequences`` and the ``construct``, ``eulerian``
    and ``crossing`` layers do most of the work; ``search``, the codebook
    and the slot loop do none.  The random words mostly collide, so the
    kernel's failure path is timed too.
    """

    name = "build"

    BUILDS = [(2, 201), (2, 250), (2, 301), (3, 45), (3, 60)]  # (window, palette)
    # window -> (lo, length): every min_length in lo..length makes
    # compose_for_m pick the same composition, of exactly that length
    COMPOSE = {4: (553, 2640), 5: (1891, 6600), 6: (721, 2700), 7: (883, 2646),
               8: (1009, 3024), 9: (1081, 4050)}
    # (window, palette, length) of random words; each is checked linearly
    # and cyclically.  At these lengths nearly every word has a collision.
    RANDOM_WORDS = [(2, 60, 92), (3, 20, 84), (4, 12, 79), (2, 200, 304)]
    RANDOM_REPEATS = 40
    # Product grids: (window, palette) of each axis and the block shape.
    GRIDS = [((2, 12), (2, 15), (2, 2)), ((3, 6), (3, 6), (3, 3)), ((2, 9), (3, 6), (2, 3))]

    def _build(self, ops, m, k):
        """Add build_m{m}(k) unless the batch has it; returns its key and length."""
        key = f"build_m{m}({k})"
        length = _cyclic_length(m, k)
        if all(op.key != key for op in ops):
            ops.append(
                Op(key, "build", lambda r: getattr(mcgc, f"build_m{m}")(k),
                   _sequence_check(m, True, length), _seq_text, {"symbols": length})
            )
        return key, length

    def _cut(self, ops, src_key, length, m):
        """Cut the cyclic output of src_key open at a seeded position."""
        t = self.rng.randrange(length)
        cut_key = f"t_cut({src_key},t={t},m={m})"
        ops.append(
            Op(cut_key, "cut", lambda r: mcgc.t_cut(r[src_key], t, m),
               _sequence_check(m, False, length + m - 1), _seq_text,
               {"symbols": length + m - 1})
        )
        return cut_key, length + m - 1

    def _verify(self, ops, key, m, colors_of, cyclic, windows):
        ops.append(
            Op(f"check({key},m={m})", "verify",
               lambda r: mcgc.check_distinguishable(colors_of(r, key), m),
               _report_check(lambda r: colors_of(r, key).colors, m, cyclic),
               units={"windows": windows}, keep=False)
        )

    def ops(self) -> list[Op]:
        ops: list[Op] = []
        earlier = lambda r, key: r[key]  # noqa: E731
        for m, k in self.BUILDS:
            key, length = self._build(ops, m, k)
            cut_key, _ = self._cut(ops, key, length, m)
            self._verify(ops, cut_key, m, earlier, False, length)
        for m, (lo, length) in self.COMPOSE.items():
            min_length = self.rng.randint(lo, length)
            # the key names the range, so the digest holds for any seed
            key = f"compose_for_m({m},min_length={lo}..{length})"
            ops.append(
                Op(key, "build",
                   lambda r, m=m, n=min_length: mcgc.compose_for_m(m, min_length=n).sequence,
                   _sequence_check(m, True, length), _seq_text, {"symbols": length})
            )
            cut_key, _ = self._cut(ops, key, length, m)
            self._verify(ops, cut_key, m, earlier, False, length)
        for _ in range(self.RANDOM_REPEATS):
            for m, k, n in self.RANDOM_WORDS:
                for mode in ("linear", "cyclic"):
                    colors = tuple(self.rng.randint(1, k) for _ in range(n))
                    word = mcgc.ColorSequence(colors, k, mode)
                    self._verify(
                        ops, f"random#{len(ops)},k={k},n={n},{mode}", m,
                        lambda r, key, w=word: w, mode == "cyclic",
                        n if mode == "cyclic" else n - m + 1,
                    )
        for (m1, k1), (m2, k2), (bm, bn) in self.GRIDS:
            (a, la), (b, lb) = (
                self._cut(ops, *self._build(ops, m, k), m) for m, k in ((m1, k1), (m2, k2))
            )
            grid_key = f"product_grid({a},{b})"
            ops.append(
                Op(grid_key, "grid", lambda r, a=a, b=b: mcgc.product_grid(r[a], r[b]),
                   _grid_check(a, b), units={"cells": la * lb})
            )
            ops.append(
                Op(f"check_grid({grid_key},{bm}x{bn})", "verify",
                   lambda r, g=grid_key, bm=bm, bn=bn: mcgc.check_grid_distinguishable(
                       r[g], bm, bn),
                   _grid_report_check(grid_key, bm, bn),
                   units={"windows": (la - bm + 1) * (lb - bn + 1)}, keep=False)
            )
        return ops

    def named_metrics(self, batches) -> dict:
        symbols = sum(_sum_units(ops, d, "symbols")[0] for ops, d in batches)
        total = sum(sum(d) for _, d in batches)
        windows, verify_time = map(
            sum, zip(*(_sum_units(ops, d, "windows", {"verify"}) for ops, d in batches))
        )
        return {
            "symbols_per_s": (symbols / total, "1/s"),
            "verify_windows_per_s": (windows / verify_time, "1/s"),
        }


def _cyclic_length(m, k):
    """Length of build_m2(k) or build_m3(k), from the paper's formulas."""
    if m == 2:
        return math.comb(k + 1, 2) - (k // 2 if k % 2 == 0 else 0)
    return math.comb(k + 2, 3) - k // 3


def _grid_check(a_key, b_key):
    def check(grid, results):
        a, b = results[a_key], results[b_key]
        k2 = b.palette_size
        want = tuple(tuple((x - 1) * k2 + y for y in b.colors) for x in a.colors)
        if grid.cells != want or grid.palette_size != a.palette_size * k2:
            return "product grid cells differ from the axis pairs"
        return None

    return check


def _grid_report_check(grid_key, bm, bn):
    def check(report, results):
        grid = results[grid_key]
        verdict = oracle.grid_verdict(grid.cells, bm, bn, grid.mode == "cyclic")
        if not oracle.report_matches(report, verdict):
            return f"grid report {report} disagrees with oracle {verdict}"
        return None

    return check


# --------------------------------------------------------------------------
# track: the operator's day


class Track(Workload):
    """One large deployment, then simulated runs and decode queries.

    ``grid2d``'s codebook build and ``decode`` and ``sim``'s slot loop do
    most of the work; the ``sequences`` checker and ``search`` do little.
    Block side 1 has a palette of C^2 colors and side 3 a small one, which
    changes the width of every count-vector key.
    """

    name = "track"
    setup_repeats = 5

    DEPLOY = (200, 2)
    # (cells per side, block side, slots, trajectory)
    RUNS = [
        (20, 1, 4000, "uniform"),
        (20, 1, 4000, "walk"),
        (60, 2, 16000, "uniform"),
        (60, 2, 16000, "walk"),
        (40, 3, 16000, "uniform"),
        (40, 3, 16000, "walk"),
    ]
    QUERIES = 20000

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.placement = None

    def setup(self) -> float:
        self.placement = None  # free the previous field before building anew
        C, m = self.DEPLOY
        config = mcgc.SimConfig(C, m, 1, 8, seed=0)
        t0 = time.perf_counter()
        self.placement = mcgc.deploy(config)
        return time.perf_counter() - t0

    def ops(self) -> list[Op]:
        ops: list[Op] = []
        for C, m, slots, trajectory in self.RUNS:
            p_move = round(self.rng.uniform(0.2, 0.8), 3) if trajectory == "walk" else 0.5
            config = mcgc.SimConfig(
                C, m, slots, 8, seed=self.rng.randrange(2**31),
                trajectory=trajectory, p_move=p_move,
            )
            ops.append(
                Op(
                    "run(" + ",".join(f"{k}={v}" for k, v in config.as_dict().items()) + ")",
                    "run",
                    lambda r, c=config: _run_with_records(c),
                    _run_check,
                    lambda out: {"report": out[0], "records": out[1]},
                    {"slots": slots},
                    keep=False,
                )
            )
        C, m = self.DEPLOY
        cells = self.placement.grid.cells
        for _ in range(self.QUERIES):
            x, y = self.rng.randrange(C), self.rng.randrange(C)
            colors = [cells[x + i][y + j] for i in range(m) for j in range(m)]
            self.rng.shuffle(colors)
            ops.append(
                Op(
                    "decode",
                    "query",
                    # The field of the latest set-up: a set-up between
                    # batches then frees the one before it.
                    lambda r, c=colors: mcgc.decode(
                        self.placement.codebook, mcgc.Multiset.of(c, self.placement.colors)
                    ),
                    lambda pos, r, cell=(x, y): (
                        None if pos == cell else f"decoded {pos}, true cell {cell}"
                    ),
                    units={"queries": 1},
                    keep=False,
                )
            )
        return ops

    def named_metrics(self, batches) -> dict:
        slots, run_time = map(
            sum, zip(*(_sum_units(ops, d, "slots", {"run"}) for ops, d in batches))
        )
        queries = sorted(
            dd for ops, d in batches for op, dd in zip(ops, d) if op.kind == "query"
        )
        cuts = statistics.quantiles(queries, n=100)
        return {
            "slots_per_s": (slots / run_time, "1/s"),
            "decode_p50_us": (statistics.median(queries) * 1e6, "us"),
            "decode_p99_us": (cuts[98] * 1e6, "us"),
            "decode_samples": (len(queries), "count"),
        }

    def close(self) -> None:
        self.placement = None


def _run_with_records(config):
    report, records = mcgc.run(config)
    ndjson = "".join(record.to_json() + "\n" for record in records)
    return report.to_json(), ndjson, records


def _run_check(out, results):
    report_json, ndjson, records = out
    report = json.loads(report_json)
    slots = report["config"]["slots"]
    if report["accuracy"] != 1.0 or report["decode_matches"] != slots:
        return f"accuracy {report['accuracy']}"
    if len(records) != slots or ndjson.count("\n") != slots:
        return "record count differs from the slot count"
    for record in records:
        if record.decoded != record.cell:
            return f"slot {record.slot} decoded {record.decoded} at {record.cell}"
    return None


# --------------------------------------------------------------------------
# certify: the research oracle


class Certify(Workload):
    """Exhaustive maximum-length searches and the bound tables.

    ``search`` does nearly all the work and shares no code path with the
    codebook or the simulator; ``bounds`` comes along as a cheap layer.  The
    search instances are fixed because their cost is the point.
    """

    name = "certify"

    # (m, k, cap, known maximum, proven)
    SEARCHES = [
        (2, 6, 60, 18, True),
        (3, 4, 60, 20, True),
        (3, 5, 60, 35, True),
        (4, 3, 60, 12, True),
        (5, 3, 60, 15, True),
        (4, 4, 26, 26, False),
    ]
    PUBLISHED_SIZES = (50, 200, 1000, 10000)
    PUBLISHED_KMIN = {2: (10, 20, 45, 141), 3: (6, 10, 18, 39), 4: (5, 7, 11, 21)}
    BLOCKS = [(2, 2), (3, 3), (4, 4), (4, 3)]
    BOUND_WINDOWS = {2: 3, 3: 4, 4: 5, 6: 11}  # window -> smallest palette

    def ops(self) -> list[Op]:
        ops: list[Op] = []
        for m, k, cap, best, proven in self.SEARCHES:
            ops.append(
                Op(
                    f"brute_force_max_cyclic({m},{k},{cap})",
                    "search",
                    lambda r, a=(m, k, cap): mcgc.brute_force_max_cyclic(*a),
                    _search_check(m, best, proven),
                    lambda res: _seq_text(res.witness),
                    {"instances": 1},
                    keep=False,
                )
            )
        seeded = sorted(self.rng.sample(range(20, 20001), 4))
        for label, sizes in (("published", self.PUBLISHED_SIZES), ("seeded", seeded)):
            ms = (2, 3, 4)
            ops.append(
                Op(
                    f"kmin_table({ms},{sizes})",
                    "table",
                    lambda r, ms=ms, s=sizes: mcgc.bounds.render_kmin_csv(
                        mcgc.bounds.kmin_table(ms, s)
                    ),
                    _kmin_check(ms, sizes, label == "published" and self.PUBLISHED_KMIN),
                    lambda text: {"": text},
                    {"rows": len(ms) * len(sizes)},
                    keep=False,
                )
            )
            ops.append(
                Op(
                    f"gain_table({sizes},{self.BLOCKS})",
                    "table",
                    lambda r, s=sizes: mcgc.bounds.gain_table(s, self.BLOCKS),
                    _gain_check(len(sizes) ** 2 * len(self.BLOCKS)),
                    lambda recs: {"": mcgc.bounds.render_gain_csv(recs)},
                    {"rows": len(sizes) ** 2 * len(self.BLOCKS)},
                    keep=False,
                )
            )
        for m, k_low in self.BOUND_WINDOWS.items():
            start = self.rng.randint(k_low, k_low + 40)
            ks = list(range(start, start + 12))
            ops.append(
                Op(
                    f"bounds_table({m},{start}..{start + 11})",
                    "table",
                    lambda r, m=m, ks=ks: mcgc.bounds.bounds_table(m, ks),
                    _bounds_check(m, ks),
                    lambda recs: {"": mcgc.bounds.render_bounds_csv(recs)},
                    {"rows": len(ks)},
                    keep=False,
                )
            )
        return ops

    def named_metrics(self, batches) -> dict:
        return {"certify_s": (statistics.median(sum(d) for _, d in batches), "s")}


def _search_check(m, best, proven):
    def check(res, results):
        if res.max_length != best or res.proven != proven:
            return f"max {res.max_length} proven={res.proven}, expected {best} proven={proven}"
        if len(res.witness) != best:
            return "witness length differs from the maximum"
        pair, _ = oracle.sequence_verdict(res.witness.colors, m, True)
        if pair is not None:
            return f"witness windows {pair} collide"
        return None

    return check


def _kmin_check(ms, sizes, published):
    def check(text, results):
        rows = [tuple(map(int, line.split(","))) for line in text.splitlines()[1:]]
        if [(m, M) for m, M, _ in rows] != [(m, M) for m in ms for M in sizes]:
            return "kmin rows out of order"
        if published:
            got = {m: tuple(k for mm, _, k in rows if mm == m) for m in ms}
            if got != published:
                return f"kmin {got} differs from the published table"
        return None

    return check


def _gain_check(count):
    def check(records, results):
        if len(records) != count:
            return f"{len(records)} gain rows, expected {count}"
        for r in records:
            want = (math.log2(r.k_M) + math.log2(r.k_N)) / (math.log2(r.M) + math.log2(r.N))
            if abs(r.gain - want) > 1e-12 or not 0 < r.gain < 1:
                return f"gain {r.gain} for {r}"
        return None

    return check


def _bounds_check(m, ks):
    def check(records, results):
        if [r.k for r in records] != ks:
            return "bound rows do not follow the palette range"
        for r in records:
            ceiling = math.comb(r.k + m - 1, m) + m - 1
            if r.upper != ceiling or not 0 < r.lower <= r.upper:
                return f"bracket {r.lower}..{r.upper}, ceiling {ceiling}"
            if r.tight != (r.lower == r.upper):
                return "tight flag disagrees with the bracket"
        return None

    return check


# --------------------------------------------------------------------------
# pipeline: the command-line chain


class Pipeline(Workload):
    """The CLI chain from the README, one subprocess at a time via files.

    The only workload where interpreter start, import, argument parsing and
    the four text formats sit on the critical path, so the ``cli`` layer is
    measured here and nowhere else.
    """

    name = "pipeline"

    AXIS_K = (11, 10)
    DECODES = 5
    SIM = (20, 2, 4000)  # cells, block side, slots

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.child_spans: list[list] = []
        self.counts = {"cli.stdout_bytes": 0, "cli.nonzero_exits": 0}

    def _argv(self, args, spans_path):
        if self.tracer is None:
            return [sys.executable, "-m", "mcgc.cli", *args]
        memory = "1" if self.tracer.memory else "0"
        return [sys.executable, str(PERFBENCH / "tracedcli.py"), str(spans_path), memory, *args]

    def _cli(self, args, files=()):
        """Run one command; returns (exit code, stdout, {file: text})."""
        spans_path = self.work_dir / "spans.json"
        proc = subprocess.run(
            self._argv(args, spans_path),
            cwd=self.work_dir,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if self.tracer is not None and spans_path.exists():
            self.child_spans.append(json.loads(spans_path.read_text()))
            spans_path.unlink()
        self.counts["cli.stdout_bytes"] += len(proc.stdout.encode("utf-8"))
        self.counts["cli.nonzero_exits"] += proc.returncode != 0
        outputs = {}
        for name in files:
            path = self.work_dir / name
            outputs[name] = path.read_text() if path.exists() else None
        return proc.returncode, proc.stdout, outputs

    def begin_batch(self) -> None:
        for path in self.work_dir.iterdir():
            path.unlink()
        self.counts = {"cli.stdout_bytes": 0, "cli.nonzero_exits": 0}

    def child_spans_taken(self) -> list:
        taken, self.child_spans = self.child_spans, []
        return taken

    def batch_counts(self) -> dict:
        return dict(self.counts)

    def setup(self) -> float:
        t0 = time.perf_counter()
        code, out, _ = self._cli(["--version"])
        elapsed = time.perf_counter() - t0
        if code != 0 or not out.startswith("mcgc "):
            raise RuntimeError(f"mcgc --version failed: {code} {out!r}")
        return elapsed

    def _op(self, args, files=(), check=None, units=None, after=""):
        """A command; ``after`` names the seeded inputs its files came from."""
        return Op(
            "mcgc " + " ".join(args) + after,
            "cli",
            lambda r: self._cli(args, files),
            _cli_check(check),
            lambda out: {"stdout": out[1], **{f: t for f, t in out[2].items()}},
            {"commands": 1, **(units or {})},
        )

    def ops(self) -> list[Op]:
        k1, k2 = self.AXIS_K
        len1, len2 = _cyclic_length(2, k1), _cyclic_length(2, k2)
        t1, t2 = self.rng.randrange(len1), self.rng.randrange(len2)
        after = f" @cuts={t1},{t2}"
        ops = [
            self._op(["construct", "--m", "2", "--k", str(k1), "--cyclic", "-o", "a.txt"],
                     ["a.txt"], _file_sequence_check("a.txt", 2, True, len1)),
            self._op(["cut", "--t", str(t1), "--m", "2", "a.txt", "-o", "a_lin.txt"],
                     ["a_lin.txt"], _file_sequence_check("a_lin.txt", 2, False, len1 + 1)),
            self._op(["verify", "--m", "2", "a_lin.txt"],
                     check=_stdout_check(f"ok, {len1} windows distinct\n"), after=after),
            self._op(["construct", "--m", "2", "--k", str(k2), "--linear", "--cut", str(t2),
                      "-o", "b.txt"],
                     ["b.txt"], _file_sequence_check("b.txt", 2, False, len2 + 1)),
            self._op(["verify", "--m", "2", "--format", "json", "b.txt"],
                     check=_stdout_check(json.dumps({"ok": True, "windows": len2}) + "\n"),
                     after=after),
            self._op(["grid", "--s", "a_lin.txt", "--t", "b.txt", "-o", "grid.csv"],
                     ["grid.csv"], _grid_file_check(k2), after=after),
            self._op(["codebook", "--grid", "grid.csv", "--m", "2", "--n", "2", "-o", "book.csv"],
                     ["book.csv"], _codebook_file_check(len1 * len2), after=after),
        ]
        for _ in range(self.DECODES):
            x, y = self.rng.randrange(len1), self.rng.randrange(len2)
            order = [(0, 0), (0, 1), (1, 0), (1, 1)]
            self.rng.shuffle(order)
            ops.append(self._decode_op(x, y, order, after))
        C, m, slots = self.SIM
        sim_seed = self.rng.randrange(2**31)
        ops.append(
            self._op(["simulate", "--cells", str(C), "--m", str(m), "--slots", str(slots),
                      "--bits", "8", "--seed", str(sim_seed), "--traj", "walk",
                      "--records", "slots.ndjson"],
                     ["slots.ndjson"], _simulate_check(slots), {"slots": slots})
        )
        return ops

    def _decode_op(self, x, y, order, after):
        # The reported colors are read from the grid file written earlier in
        # the same batch, so the query is fixed only once that file exists.
        def run(results):
            rows = _grid_rows(_file(results, "grid.csv"))
            colors = ",".join(str(rows[x + i][y + j]) for i, j in order)
            return self._cli(["decode", "--codebook", "book.csv", "--colors", colors])

        return Op(
            f"mcgc decode --codebook book.csv block=({x},{y}) order={order}{after}",
            "cli",
            run,
            _cli_check(_stdout_check(f"{x} {y}\n")),
            lambda out: {"stdout": out[1]},
            {"commands": 1, "queries": 1},
        )

    def named_metrics(self, batches) -> dict:
        return {"pipeline_s": (statistics.median(sum(d) for _, d in batches), "s")}

    def cli_metrics(self, batches) -> dict:
        """Per-command wall time per chain, exact output counts."""
        per_command: dict[str, list[float]] = {}
        for ops, durations in batches:
            chain: dict[str, float] = {}
            for op, d in zip(ops, durations):
                command = op.key.split()[1]
                chain[command] = chain.get(command, 0.0) + d
            for command, d in chain.items():
                per_command.setdefault(f"cli.{command}_s", []).append(d)
        return {name: statistics.median(v) for name, v in per_command.items()}


def _cli_check(inner):
    def check(out, results):
        code, stdout, files = out
        if code != 0:
            return f"exit code {code}"
        return inner(out, results) if inner else None

    return check


def _stdout_check(want):
    return lambda out, results: None if out[1] == want else f"stdout {out[1]!r}"


def _parse_sequence_file(text):
    header, colors = text.splitlines()[0], text.splitlines()[-1]
    fields = dict(tok.split("=") for tok in header[1:].split())
    return int(fields["k"]), fields["mode"], tuple(int(c) for c in colors.split())


def _file_sequence_check(name, m, cyclic, length):
    def check(out, results):
        k, mode, colors = _parse_sequence_file(out[2][name])
        if mode != ("cyclic" if cyclic else "linear") or len(colors) != length:
            return f"{name}: mode {mode}, length {len(colors)}"
        pair, _ = oracle.sequence_verdict(colors, m, cyclic)
        return None if pair is None else f"{name}: windows {pair} collide"

    return check


def _grid_rows(text):
    return [tuple(int(c) for c in line.split(",")) for line in text.splitlines()[1:]]


def _grid_file_check(k2):
    def check(out, results):
        a = _parse_sequence_file(_file(results, "a_lin.txt"))[2]
        b = _parse_sequence_file(_file(results, "b.txt"))[2]
        want = [tuple((x - 1) * k2 + y for y in b) for x in a]
        return None if _grid_rows(out[2]["grid.csv"]) == want else "grid cells differ"

    return check


def _file(results, name):
    for out in results.values():
        files = out[2]
        if name in files:
            return files[name]
    raise KeyError(name)


def _codebook_file_check(cells):
    def check(out, results):
        rows = _grid_rows(_file(results, "grid.csv"))
        lines = out[2]["book.csv"].splitlines()[2:]
        seen = set()
        for line in lines:
            key, x, y = line.rsplit(",", 2)
            x, y = int(x), int(y)
            counts = [0] * len(key.split("-"))
            for i in (0, 1):
                for j in (0, 1):
                    counts[rows[x + i][y + j] - 1] += 1
            if "-".join(map(str, counts)) != key or (x, y) in seen:
                return f"codebook row {line[:40]}... wrong"
            seen.add((x, y))
        return None if len(seen) == cells else f"{len(seen)} codebook rows"

    return check


def _simulate_check(slots):
    def check(out, results):
        report = json.loads(out[1])
        if report["accuracy"] != 1.0 or report["decode_matches"] != slots:
            return f"accuracy {report['accuracy']}"
        lines = out[2]["slots.ndjson"].splitlines()
        if len(lines) != slots:
            return f"{len(lines)} records"
        for line in lines:
            rec = json.loads(line)
            if rec["decoded"] != rec["cell"]:
                return f"record {rec['slot']} decoded wrongly"
        return None

    return check


WORKLOADS = {cls.name: cls for cls in (Build, Track, Certify, Pipeline)}
