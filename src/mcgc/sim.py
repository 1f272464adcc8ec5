"""Batch tracking simulator over a grid proximity-sensor field.

The monitored square splits into C x C basic cells.  With detection block m,
a sensor field of side C+m-1 makes each cell trigger exactly the m x m
sensor block tagged at that cell, so the block's color multiset identifies
the cell.  The baseline protocol instead assigns each cell's sensor a unique
label.  Detection is idealized: no noise, no overlap ambiguity; all
triggered sensors report within the slot over parallel channels, and the
observer sees their colors as an unordered batch.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from functools import lru_cache

from .bounds import gain_record
from .crossing import compose_for_m
from .errors import InputError, TrackingError
from .grid2d import (
    Codebook,
    ColorGrid2D,
    decode_colors,
    product_codebook,
    product_grid,
)
from .sequences import ColorSequence, data_lines, t_cut

__all__ = [
    "SimConfig",
    "Deployment",
    "SlotRecord",
    "SimReport",
    "axis_sequence",
    "deploy",
    "summarize",
    "iter_slots",
    "run",
    "parse_config",
    "parse_trajectory",
]


def _require_trajectory(name: str) -> str:
    if name not in ("uniform", "walk"):
        raise InputError(f"unknown trajectory {name!r}")
    return name


@dataclass(frozen=True)
class SimConfig:
    """Tracking run parameters.

    cells_per_side is the localization resolution C; block is the square
    detection block side m; bits_per_slot is the per-channel budget each
    sensor can transmit in one slot.
    """

    cells_per_side: int
    block: int
    slots: int
    bits_per_slot: int
    seed: int
    trajectory: str = "uniform"  # "uniform" or "walk"
    p_move: float = 0.5

    def __post_init__(self):
        if self.block < 1 or self.cells_per_side < self.block:
            raise InputError("need cells_per_side >= block >= 1")
        if self.slots < 1:
            raise InputError("need at least one slot")
        if self.bits_per_slot < 1:
            raise InputError("need at least one bit per slot")
        _require_trajectory(self.trajectory)
        if not 0.0 <= self.p_move <= 1.0:
            raise InputError("p_move must lie in [0, 1]")

    def as_dict(self) -> dict:
        return asdict(self)


def parse_trajectory(text: str) -> tuple[str, float]:
    """'uniform', 'walk', or 'walk:P' with move probability P."""
    if text.startswith("walk:"):
        try:
            return "walk", float(text[5:])
        except ValueError as exc:
            raise InputError(f"bad walk probability in {text!r}") from exc
    return _require_trajectory(text), 0.5


# The five values a run needs, by config key; each is also a simulate flag.
_CONFIG_KEYS = ("cells", "m", "slots", "bits", "seed")


def _make_config(values: dict, traj: str) -> SimConfig:
    """SimConfig from the values of _CONFIG_KEYS (ints or their decimal text)
    and a trajectory string; the caller has checked that none is missing."""
    trajectory, p_move = parse_trajectory(traj)
    try:
        cells, m, slots, bits, seed = (int(values[key]) for key in _CONFIG_KEYS)
    except ValueError as exc:
        raise InputError(f"bad config value: {exc}") from exc
    return SimConfig(cells, m, slots, bits, seed, trajectory, p_move)


def parse_config(text: str) -> SimConfig:
    """Flat key=value config: cells, m, slots, bits, seed, traj; any other
    key, or a key given twice, is refused."""
    values: dict[str, str] = {}
    for line in data_lines(text, {}):
        key, sep, value = line.partition("=")
        if not sep:
            raise InputError(f"bad config line {line!r}")
        key = key.strip()
        if key not in _CONFIG_KEYS and key != "traj":
            raise InputError(f"unknown config key {key!r}")
        if key in values:
            raise InputError(f"config key {key!r} given twice")
        values[key] = value.strip()
    missing = sorted(set(_CONFIG_KEYS) - values.keys())
    if missing:
        raise InputError(f"config missing keys: {', '.join(missing)}")
    return _make_config(values, values.get("traj", "uniform"))


# The palette budget of an axis; a longer axis raises ComposeError naming it.
_AXIS_COLORS = 64


def axis_sequence(side: int, m: int) -> ColorSequence:
    """Linear m-distinguishable word of length side on the fewest colors
    compose_for_m reaches (its cyclic word, cut open, then prefixed; prefixes
    of distinguishable words stay distinguishable).  Beyond _AXIS_COLORS it
    raises ComposeError."""
    if m < 1:
        raise InputError("window must be at least 1")
    if side < m:
        raise InputError("axis shorter than the window")
    if m == 1:
        return ColorSequence(tuple(range(1, side + 1)), side, "linear")
    # the cut adds m-1 symbols
    base = compose_for_m(m, max_colors=_AXIS_COLORS, min_length=side - m + 1).sequence
    cut = t_cut(base, len(base) - 1, m)
    return ColorSequence(cut.colors[:side], base.palette_size, "linear")


@dataclass(frozen=True)
class Deployment:
    """A colored sensor field and its decode table."""

    grid: ColorGrid2D
    codebook: Codebook
    axis: ColorSequence
    side: int

    @property
    def colors(self) -> int:
        return self.grid.palette_size


def deploy(config: SimConfig) -> Deployment:
    """Color the sensor field, of side C+m-1, and build its codebook."""
    side = config.cells_per_side + config.block - 1
    axis = axis_sequence(side, config.block)
    grid = product_grid(axis, axis)
    codebook = product_codebook(axis, axis, config.block, config.block)
    return Deployment(grid, codebook, axis, side)


@dataclass(frozen=True, slots=True)
class SlotRecord:
    """One time slot: where the object was, what was heard, what decoded."""

    slot: int
    cell: tuple[int, int]
    sensors: tuple[tuple[int, int], ...]
    report: tuple[int, ...]  # colors in (shuffled) arrival order
    decoded: tuple[int, int]
    bits_per_channel: int

    def to_json(self) -> str:
        """The fields as compact JSON with sorted keys, written out directly:
        what json.dumps(..., sort_keys=True, separators=(",", ":")) gives
        for the field dict, at about half the cost."""
        x, y = self.cell
        u, v = self.decoded
        report = ",".join(map(str, self.report))
        sensors = ",".join([f"[{a},{b}]" for a, b in self.sensors])
        return (
            f'{{"bits_per_channel":{self.bits_per_channel},"cell":[{x},{y}],'
            f'"decoded":[{u},{v}],"report":[{report}],"sensors":[{sensors}],'
            f'"slot":{self.slot}}}'
        )


@dataclass(frozen=True)
class SimReport:
    """Run summary: feasibility flags, bit costs, gains, accuracy.

    baseline_feasible: the unique-label protocol fits the per-slot budget
    (the whole bits naming a cell within bits_per_slot).  color_feasible: a
    minimal color code fits the budget, judged by the best known bound on
    colors needed; color_feasible_deployed judges the palette this run
    actually deployed.  gain_bound uses the bound-derived minimal colors per
    axis; gain_wire is the ratio of whole bits actually sent per channel.
    accuracy is always 1.0 and decode_matches always the slot count: a slot
    that decodes to a wrong cell raises TrackingError instead.
    """

    config: SimConfig
    side: int
    axis_colors: int
    colors: int
    codebook_size: int
    baseline_bits: int
    color_bits: int
    min_colors_bound: int
    baseline_feasible: bool
    color_feasible: bool
    color_feasible_deployed: bool
    gain_bound: float
    gain_wire: float
    accuracy: float
    decode_matches: int

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


def _next_cell(
    rng: random.Random, config: SimConfig, prev: tuple[int, int] | None
) -> tuple[int, int]:
    C = config.cells_per_side
    if config.trajectory == "uniform" or prev is None:
        return (rng.randrange(C), rng.randrange(C))
    if rng.random() >= config.p_move:
        return prev
    x, y = prev
    moves = [
        (x + dx, y + dy)
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
        if 0 <= x + dx < C and 0 <= y + dy < C
    ]
    return moves[rng.randrange(len(moves))] if moves else prev


def _bits(count: int) -> int:
    """Whole bits that name one of count values."""
    return math.ceil(math.log2(count)) if count > 1 else 0


def summarize(config: SimConfig, placement: Deployment) -> SimReport:
    """The report of a run of config over placement; it needs no slot."""
    C = config.cells_per_side
    m = config.block
    baseline_bits = _bits(C * C)
    color_bits = _bits(placement.colors)
    bound = gain_record(placement.side, placement.side, m, m)
    k_bound = bound.k_M * bound.k_N
    return SimReport(
        config=config,
        side=placement.side,
        axis_colors=placement.axis.palette_size,
        colors=placement.colors,
        codebook_size=placement.codebook.size,
        baseline_bits=baseline_bits,
        color_bits=color_bits,
        min_colors_bound=k_bound,
        baseline_feasible=baseline_bits <= config.bits_per_slot,
        color_feasible=_bits(k_bound) <= config.bits_per_slot,
        color_feasible_deployed=color_bits <= config.bits_per_slot,
        gain_bound=bound.gain,
        gain_wire=(color_bits / baseline_bits) if baseline_bits else 1.0,
        accuracy=1.0,
        decode_matches=config.slots,
    )


# The most recently visited cells whose entry iter_slots keeps, so that a
# stream over a large field stays flat in memory.
_VISITED_CELLS = 2**14


def iter_slots(config: SimConfig, placement: Deployment) -> Iterator[SlotRecord]:
    """Yield each slot's record as it is made; the decoded cell must match
    the true cell on every slot (idealized detection plus an injective
    codebook leave no slack), else TrackingError.

    A cell's block always reports the same colors, so a cell is decoded once
    per run, on its first visit, from that slot's shuffled arrival order:
    a wrong or unknown block raises at the same slot, with the same text, as
    a decode on every slot would.  The records of one cell share one cell
    tuple and one sensors tuple.  Tuples and decode are kept for the
    _VISITED_CELLS most recently visited cells; a cell dropped from them is
    decoded again on its next visit."""
    rng = random.Random(config.seed)
    m = config.block
    color_bits = _bits(placement.colors)
    cells, codebook = placement.grid.cells, placement.codebook
    offsets = [(i, j) for i in range(m) for j in range(m)]

    @lru_cache(maxsize=_VISITED_CELLS)
    def visit(cell: tuple[int, int]) -> list:
        """[cell, sensors, colors, decoded]; each slot shuffles a copy of the
        colors list, and decoded is None until a slot decodes."""
        x0, y0 = cell
        sensors = tuple([(x0 + i, y0 + j) for i, j in offsets])
        return [cell, sensors, [cells[x][y] for x, y in sensors], None]

    cell: tuple[int, int] | None = None
    for slot in range(config.slots):
        entry = visit(_next_cell(rng, config, cell))
        cell, sensors, block_colors, decoded = entry
        colors = block_colors.copy()
        rng.shuffle(colors)  # the observer cannot order the arrivals
        if decoded is None:
            decoded = decode_colors(codebook, colors)
            if decoded != cell:
                raise TrackingError(
                    f"slot {slot}: decoded {decoded} but object is at {cell}"
                )
            entry[3] = decoded
        # decoded equals cell, so the record holds the shared tuple for both
        yield SlotRecord(slot, cell, sensors, tuple(colors), cell, color_bits)


def run(config: SimConfig) -> tuple[SimReport, list[SlotRecord]]:
    """Deploy config's field and simulate every slot: its report and records."""
    placement = deploy(config)
    return summarize(config, placement), list(iter_slots(config, placement))
