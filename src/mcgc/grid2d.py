"""2D color maps, block multisets, and the multiset-to-position codebook.

A grid coloring is (m, n)-distinguishable when the multiset of colors in
each m x n block identifies the block's tag point.  The product of two 1D
colorings (cells carry the pair of axis colors, flattened to one id)
inherits distinguishability from its axes, which is how large 2D codes are
built from 1D ones; its codebook is read through the axes (``_ProductEntries``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, count, groupby, product, repeat
from math import inf
from typing import Iterable, Iterator, Literal, Sequence

from .construct import _require_length
from .errors import (
    CardinalityError,
    CollisionError,
    InputError,
    UnknownBlockError,
)
from .sequences import (
    ColorSequence,
    DistinguishabilityReport,
    Multiset,
    _require_palette,
    _sliding,
    _sorted_colors,
    _starts,
    _summed_report,
    _weigher,
    _wrapped,
    data_lines,
    window_keys,
)

GridMode = Literal["plain", "cyclic"]
_GRID_MODES = ("plain", "cyclic")

__all__ = [
    "MAX_CELLS",
    "ColorGrid2D",
    "flat_pair",
    "product_grid",
    "block_starts",
    "block_multiset",
    "check_grid_distinguishable",
    "Codebook",
    "build_codebook",
    "product_codebook",
    "decode",
    "decode_colors",
    "format_grid",
    "parse_grid",
    "format_codebook",
    "parse_codebook",
]


@dataclass(frozen=True)
class ColorGrid2D:
    """M x N grid of colors; cells[x][y] in [palette_size]."""

    cells: tuple[tuple[int, ...], ...]
    palette_size: int
    mode: GridMode = "plain"

    def __post_init__(self):
        if not self.cells or not self.cells[0]:
            raise InputError("grid needs at least one row and one column")
        _require_palette_mode(self.palette_size, self.mode)
        width = len(self.cells[0])
        for row in self.cells:
            if len(row) != width:
                raise InputError("grid rows must all have the same length")
            _require_palette(self.palette_size, row)

    @property
    def M(self) -> int:
        return len(self.cells)

    @property
    def N(self) -> int:
        return len(self.cells[0])

    def color(self, x: int, y: int) -> int:
        return self.cells[x][y]


def _require_palette_mode(k: int, mode: str) -> None:
    _require_palette(k)
    if mode not in _GRID_MODES:
        raise InputError(f"unknown grid mode {mode!r}")


def flat_pair(a: int, b: int, k2: int) -> int:
    """Single-integer encoding of the color pair (a, b): (a-1)*k2 + b."""
    return (a - 1) * k2 + b


MAX_CELLS = 2**30  # a product grid or grid file with more cells is refused before it is built


def product_grid(s1: ColorSequence, s2: ColorSequence) -> ColorGrid2D:
    """Grid whose (x, y) cell pairs the axis colors, flattened to one id.

    Palette size is the product of the axis palettes; the grid is cyclic
    only when both axes are cyclic.  More than MAX_CELLS cells raise InputError.
    """
    _require_cells(len(s1), len(s2))
    k2 = s2.palette_size
    rows = {a: tuple(flat_pair(a, b, k2) for b in s2.colors) for a in set(s1.colors)}
    cells = tuple(rows[a] for a in s1.colors)  # equal rows share one tuple
    return ColorGrid2D(cells, s1.palette_size * k2, _product_mode(s1, s2))


def _require_cells(M: int, N: int) -> None:
    if M * N > MAX_CELLS:
        raise InputError(
            f"grid of {M} x {N} has {M * N} cells, more than the limit of {MAX_CELLS}"
        )


def _product_mode(s1: ColorSequence, s2: ColorSequence) -> GridMode:
    return "cyclic" if s1.mode == "cyclic" and s2.mode == "cyclic" else "plain"


def _require_block(m: int, n: int, M: float = inf, N: float = inf) -> None:
    if m < 1 or n < 1:
        raise InputError("block dimensions must be at least 1")
    if m > M or n > N:
        raise InputError(f"block {m}x{n} larger than grid {M}x{N}")


def block_starts(g: ColorGrid2D, m: int, n: int) -> list[tuple[int, int]]:
    """Tag points of the (m, n)-coding area; the whole grid when cyclic.

    Plain grids include x0 = M-m and y0 = N-n, the last positions where a
    block still fits.
    """
    _require_block(m, n, g.M, g.N)
    cyclic = g.mode == "cyclic"
    return list(product(_starts(g.M, m, cyclic), _starts(g.N, n, cyclic)))


def block_multiset(g: ColorGrid2D, x0: int, y0: int, m: int, n: int) -> Multiset:
    """Multiset of the m*n colors in the block tagged at (x0, y0)."""
    _require_block(m, n, g.M, g.N)
    cyclic = g.mode == "cyclic"
    inside = x0 in _starts(g.M, m, cyclic) and y0 in _starts(g.N, n, cyclic)
    if not (inside and isinstance(x0, int) and isinstance(y0, int)):
        area = "the grid" if cyclic else f"the {m}x{n} coding area"
        raise InputError(f"tag point ({x0}, {y0}) outside {area}")
    return Multiset.of(_block_colors(g, x0, y0, m, n), g.palette_size)


def _block_colors(g: ColorGrid2D, x0: int, y0: int, m: int, n: int) -> list[int]:
    """The m*n colors of the block tagged at (x0, y0), row by row, read
    modulo the grid's sides so that a cyclic grid's blocks wrap."""
    return [g.cells[(x0 + i) % g.M][(y0 + j) % g.N] for i in range(m) for j in range(n)]


def _block_keys(g: ColorGrid2D, m: int, n: int) -> Iterator[tuple[int, ...]]:
    """Sorted colors of every block, in ``block_starts`` order.

    Each band of m rows, read column by column, is one word in which the
    block at (x0, y0) is the length-m*n window starting at y0*m.
    """
    cyclic = g.mode == "cyclic"
    rows = _wrapped(g.cells, m) if cyclic else g.cells
    for x0 in _starts(g.M, m, cyclic):
        band = tuple(c for column in zip(*rows[x0 : x0 + m]) for c in column)
        yield from window_keys(band, m * n, cyclic, step=m)


def check_grid_distinguishable(
    g: ColorGrid2D, m: int, n: int
) -> DistinguishabilityReport:
    """Are all block multisets over the coding area pairwise distinct?

    Blocks are keyed as windows are, by the window kernel applied down the
    columns and then along each band (``mcgc.sequences``).
    """
    _require_block(m, n, g.M, g.N)
    cyclic = g.mode == "cyclic"
    per_band = len(_starts(g.N, n, cyclic))  # blocks in each band of m rows
    weight = _weigher(chain.from_iterable(g.cells))

    def slide(values: Sequence[int], r: int) -> list[int]:
        return _sliding(_wrapped(values, r) if cyclic else values, r)

    columns = list(zip(*g.cells))
    # a product grid has as many distinct columns as its column axis has colors
    slid = {column: slide(tuple(map(weight, column)), m) for column in set(columns)}
    bands = zip(*map(slid.__getitem__, columns))
    sums = list(chain.from_iterable(slide(band, n) for band in bands))

    def tag(i: int) -> tuple[int, int]:  # (x0, y0) of block i, as block_starts lists it
        return divmod(i, per_band)

    return _summed_report(sums, tag, lambda i: tuple(sorted(_block_colors(g, *tag(i), m, n))))


class _CountVectors(Mapping):
    """Count vector -> tag point over a table keyed by sorted colors."""

    def __init__(self, table: Mapping, k: int, size: int):
        self.table, self._k, self._size = table, k, size

    def __getitem__(self, counts):
        colors = _sorted_colors(counts, self._k, self._size)
        if colors is None:
            raise KeyError(counts)
        return self.table[colors]

    def __iter__(self):
        return (Multiset.of(colors, self._k).counts for colors in self.table)

    def __len__(self) -> int:
        return len(self.table)


@dataclass(frozen=True)
class Codebook:
    """Injective map from block multisets to their tag points.

    ``entries`` maps count vectors (``Multiset``) to tag points as a view of
    ``entries.table``, keyed by each block's m*n colors, sorted, as the
    sensors report them; a count-vector mapping passed in is converted once.
    However made or read, a codebook has block sides and a palette of at
    least 1 and a grid mode, or raises InputError.
    """

    block_m: int
    block_n: int
    palette_size: int
    mode: GridMode
    entries: Mapping

    def __post_init__(self):
        _require_block(self.block_m, self.block_n)
        _require_palette_mode(self.palette_size, self.mode)
        if isinstance(self.entries, _CountVectors):
            return
        k, card = self.palette_size, self.block_m * self.block_n
        table = {}
        for counts, tag in self.entries.items():
            colors = _sorted_colors(counts, k, card)
            if colors is None:
                raise InputError(
                    f"codebook key {counts} is no multiset of {card} colors over {k}"
                )
            table[colors] = tag
        object.__setattr__(self, "entries", _CountVectors(table, k, card))

    @property
    def size(self) -> int:
        return len(self.entries)


def _keyed_codebook(m: int, n: int, k: int, mode: GridMode, table: Mapping) -> Codebook:
    """Codebook over a table that is already keyed by sorted colors."""
    return Codebook(m, n, k, mode, _CountVectors(table, k, m * n))


def build_codebook(g: ColorGrid2D, m: int, n: int) -> Codebook:
    """Map every coding-area block's sorted colors to its tag point.

    Fails with the first block, in ``block_starts`` order, whose multiset an
    earlier block already has.
    """
    table = _first_repeat(_block_keys(g, m, n), block_starts(g, m, n))
    return _keyed_codebook(m, n, g.palette_size, g.mode, table)


def _first_repeat(keys: Iterable, tags: Iterable[tuple[int, int]]) -> dict:
    """Key -> tag point over keys listed in tag order; the first key that an
    earlier tag already has raises CollisionError naming both tag points."""
    table: dict = {}
    for tag, key in zip(tags, keys):
        first = table.setdefault(key, tag)
        if first != tag:
            raise CollisionError(first, tag)
    return table


class _ProductEntries(Mapping):
    """Sorted colors -> tag point of a product grid's blocks, read through
    the tables of its row and column windows: M-m+1 and N-n+1 keys (M and N
    when cyclic) instead of one per block.

    A block's colors are the pairs (a, b) of its row window A and column
    window B, so its multiset projects onto A repeated n times and B
    repeated m times.  The projections find the one candidate block; the
    candidate's own colors must then equal the key, since the projections
    alone fix neither the pairs nor the key's length.
    """

    def __init__(self, rows: dict, cols: dict, k2: int, m: int, n: int):
        self._rows, self._cols = rows, cols
        self._k2, self._m, self._n = k2, m, n

    def _block(self, row: tuple, col: tuple) -> tuple[int, ...]:
        """Sorted colors of the block with row window row and column window col."""
        return tuple(sorted([(a - 1) * self._k2 + b for a in row for b in col]))

    def get(self, key, default=None):
        m, n, k2 = self._m, self._n, self._k2
        # flat color c pairs row color (c-1) // k2 + 1 with column color (c-1) % k2 + 1
        row = tuple([(c - 1) // k2 + 1 for c in key[::n]])
        col = tuple(sorted([(c - 1) % k2 + 1 for c in key])[::m])
        row_tag = self._rows.get(row)  # (x0, 0)
        col_tag = self._cols.get(col)  # (0, y0)
        if row_tag is None or col_tag is None or self._block(row, col) != key:
            return default
        return row_tag[0], col_tag[1]

    def __getitem__(self, key):
        pos = self.get(key)
        if pos is None:
            raise KeyError(key)
        return pos

    def __iter__(self):
        return (self._block(row, col) for row in self._rows for col in self._cols)

    def __len__(self) -> int:
        return len(self._rows) * len(self._cols)


def product_codebook(s1: ColorSequence, s2: ColorSequence, m: int, n: int) -> Codebook:
    """``build_codebook(product_grid(s1, s2), m, n)`` kept as the windows of
    its two axes (``_ProductEntries``), entry for entry.  It fails the same
    way: a collision names the first repeated block in ``block_starts``
    order, which lies in the first band when s2 repeats a window.
    """
    _require_block(m, n, len(s1), len(s2))
    mode = _product_mode(s1, s2)
    # tag points: window y0 of s2 is the block at (0, y0), window x0 of s1 (x0, 0)
    cols = _first_repeat(window_keys(s2.colors, n, mode == "cyclic"), zip(repeat(0), count()))
    rows = _first_repeat(window_keys(s1.colors, m, mode == "cyclic"), zip(count(), repeat(0)))
    table = _ProductEntries(rows, cols, s2.palette_size, m, n)
    return _keyed_codebook(m, n, s1.palette_size * s2.palette_size, mode, table)


def decode_colors(cb: Codebook, colors: Iterable[int]) -> tuple[int, int]:
    """Tag point of the block whose sensors reported colors, in any order:
    ``decode(cb, Multiset.of(colors, cb.palette_size))``, so its errors are
    ``Multiset.of``'s (InputError, naming the first color outside the palette
    in input order, or else the first that is not an integer) and then
    ``decode``'s."""
    return decode(cb, Multiset.of(colors, cb.palette_size))


def decode(cb: Codebook, s: Multiset) -> tuple[int, int]:
    """Tag point of the block with multiset s, looked up by the sorted colors
    that s keeps; s's count vector is not read.  A multiset over another
    palette than the codebook's, or of a count other than m*n, is malformed
    (CardinalityError), and the count is refused before the colors of a
    multiset made from counts are expanded; one that no block has raises
    UnknownBlockError."""
    k, want = cb.palette_size, cb.block_m * cb.block_n
    if s.palette_size != k:
        raise CardinalityError(
            f"multiset palette {s.palette_size} differs from codebook palette {k}"
        )
    if s.cardinality != want:
        raise CardinalityError(f"multiset has {s.cardinality} elements; blocks have {want}")
    pos = cb.entries.table.get(s._colors)
    if pos is None:
        raise UnknownBlockError(f"multiset {_count_key(s._colors, k)} is not a code symbol")
    return pos


def format_grid(g: ColorGrid2D) -> str:
    """Grid file: '#' header with M, N, k, mode; one CSV row per grid row."""
    return "".join(_grid_lines(g))


def _grid_lines(g: ColorGrid2D) -> Iterator[str]:
    """The lines of ``format_grid``, made one grid row at a time."""
    header = f"# M={g.M} N={g.N} k={g.palette_size} mode={g.mode}\n"
    row_format = ",".join(["%s"] * g.N) + "\n"  # one C call per row, not one per cell
    return chain([header], (row_format % tuple(row) for row in g.cells))


def parse_grid(text: str) -> ColorGrid2D:
    """Read a grid file; header M= and N= must match the row and column counts.
    A header of more than MAX_CELLS cells is refused at its first row, and
    rows past MAX_CELLS cells as they are read."""
    header: dict = {}
    rows: list[tuple[int, ...]] = []
    for line in data_lines(text, header, ("M", "N", "k"), _GRID_MODES):
        M, N = header.get("M", 0), header.get("N", 0)
        if M > 0 and N > 0:
            _require_cells(M, N)
        try:
            rows.append(tuple(int(tok) for tok in line.split(",")))
        except ValueError as exc:
            raise InputError(f"bad grid row {line!r}") from exc
        _require_cells(len(rows), len(rows[0]))
    if not rows:
        raise InputError("no grid rows found")
    k = header["k"] if "k" in header else max(max(row) for row in rows)
    g = ColorGrid2D(tuple(rows), k, header.get("mode", "plain"))
    if (header.get("M", g.M), header.get("N", g.N)) != (g.M, g.N):
        raise InputError(f"grid header disagrees with its {g.M}x{g.N} rows")
    return g


def _count_key(colors: Sequence[int], k: int) -> str:
    """``Multiset.of(colors, k).key()`` of sorted colors: a k-long '0' row set at each run."""
    row = ["0"] * k
    for color, run in groupby(colors):
        row[color - 1] = str(sum(1 for _ in run))
    return "-".join(row)


def format_codebook(cb: Codebook) -> str:
    """Codebook file: CSV rows key,x0,y0 with the key's counts joined by '-'."""
    return "".join(_codebook_lines(cb))


def _codebook_lines(cb: Codebook) -> Iterator[str]:
    """The lines of ``format_codebook``, made one row at a time; a palette
    too long to write is refused before this returns."""
    table, k = cb.entries.table, cb.palette_size
    _require_length(k, "each count vector in the codebook file", InputError)
    # keys of one size: descending sorted colors are ascending count vectors
    keys = sorted(table, reverse=True)
    header = f"# m={cb.block_m} n={cb.block_n} k={k} mode={cb.mode}\nkey,x0,y0\n"
    return chain([header], ("{},{},{}\n".format(_count_key(c, k), *table[c]) for c in keys))


def parse_codebook(text: str) -> Codebook:
    """Read a codebook file; header m*n must match the rows' cardinality,
    header k their palette, and no key may appear on two rows."""
    header: dict = {}
    rows: dict[tuple, tuple[int, int]] = {}
    for line in data_lines(text, header, ("m", "n", "k"), _GRID_MODES):
        if line == "key,x0,y0":
            continue
        try:
            key_str, x_str, y_str = line.rsplit(",", 2)
            parts = key_str.split("-")
            # a block names a few of the k colors: only their counts are read
            counts = [(c, int(p)) for c, p in enumerate(parts, 1) if p != "0"]
            start = (int(x_str), int(y_str))
        except ValueError as exc:
            raise InputError(f"bad codebook row {line!r}") from exc
        key = (len(parts), tuple([cc for cc in counts if cc[1]]))  # the count vector
        if key in rows:
            raise InputError(f"codebook key {key_str} appears on two rows")
        rows[key] = start
    if not rows:
        raise InputError("no codebook rows found")
    shapes = {(k, sum(count for _, count in counts)) for k, counts in rows}
    if len(shapes) != 1:
        raise InputError("codebook rows disagree on palette or block size")
    ((k, card),) = shapes
    if "m" in header and "n" in header:
        m, n = header["m"], header["n"]
    else:
        m, n = card, 1  # header absent: only the product is known
    if m * n != card or header.get("k", k) != k:
        raise InputError(
            f"codebook header disagrees with its rows: {card} of {k} colors each"
        )
    _require_length(card, "each multiset in the codebook file", InputError)
    table = {
        tuple([c for c, count in counts for _ in range(count)]): start
        for (_, counts), start in rows.items()
    }
    return _keyed_codebook(m, n, k, header.get("mode", "plain"), table)
