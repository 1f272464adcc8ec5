"""Color sequences, windowed multisets, and distinguishability checking.

A color sequence is a word over the palette [k] = {1, ..., k}, read either
linearly or cyclically.  Every length-m window is summarized by the multiset
of colors it contains; the sequence is m-distinguishable when all window
multisets are pairwise distinct, so a window's multiset identifies where the
window sits.

The checks and the codebooks key each window or block by the sorted tuple of
its colors (``window_keys``), which costs O(m) per window whatever the palette
size.  The count vector of ``Multiset`` is the file form only: the '-'-joined
keys of the codebook file and of error messages.
This module also owns the '# key=value' header that the sequence, grid and
codebook files share (``data_lines``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import compress
from typing import Iterable, Iterator, Literal, Sequence

from .errors import InputError, SelfCheckError

Mode = Literal["linear", "cyclic"]

__all__ = [
    "Multiset",
    "ColorSequence",
    "DistinguishabilityReport",
    "window_starts",
    "window_multiset",
    "window_keys",
    "keyed_report",
    "check_distinguishable",
    "t_cut",
    "format_sequence",
    "data_lines",
    "parse_sequences",
]


def _require_palette(k: int, colors: Sequence[int] = ()) -> None:
    """The palette rule: k is at least 1 and every color lies in 1..k; the
    error names the first color that does not."""
    if k < 1:
        raise InputError("palette size must be at least 1")
    for c in colors:
        if not 1 <= c <= k:
            raise InputError(f"color {c} outside palette [1..{k}]")


@cache
def _indices(k: int) -> tuple[int, ...]:
    return tuple(range(k))  # made once: compress over a range allocates k ints


def _sorted_colors(counts: Sequence[int], k: int, size: int) -> tuple[int, ...] | None:
    """The colors of a count vector, ascending (color i+1 counts[i] times), when
    it has k entries, none negative, summing to size; otherwise None.  One pass
    finds the colors present; only they are read before the expansion."""
    if len(counts) != k:
        return None
    present = list(compress(_indices(k), counts))
    mults = list(map(counts.__getitem__, present))
    if sum(mults) != size or (mults and min(mults) < 0):
        return None
    return tuple([i + 1 for i in present for _ in range(counts[i])])


@dataclass(frozen=True)
class Multiset:
    """A multiset over [k], stored as its count vector in palette order.

    The count vector is the file form: the '-'-joined ``key()`` of codebook
    files and error messages.  Distinguishability checks and codebook keys do
    not use it; they key windows and blocks by their sorted colors
    (``window_keys``), and ``grid2d.decode_colors`` decodes reported colors.
    """

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts:
            raise InputError("multiset needs a palette of at least one color")
        if min(self.counts) < 0:
            raise InputError("negative multiplicity in count vector")

    @classmethod
    def of(cls, elements: Iterable[int], palette_size: int) -> "Multiset":
        colors = tuple(elements)
        _require_palette(palette_size, colors)
        counts = [0] * palette_size
        for color in colors:
            counts[color - 1] += 1
        # Counts of a non-empty palette are valid by construction, so the
        # scan in __post_init__ is skipped: it would cost more than the count.
        ms = object.__new__(cls)
        object.__setattr__(ms, "counts", tuple(counts))
        return ms

    @classmethod
    def from_key(cls, key: str) -> "Multiset":
        try:
            return cls(tuple(int(part) for part in key.split("-")))
        except ValueError as exc:
            raise InputError(f"malformed multiset key {key!r}") from exc

    @property
    def palette_size(self) -> int:
        return len(self.counts)

    @property
    def cardinality(self) -> int:
        return sum(self.counts)

    def elements(self) -> list[int]:
        """The colors with multiplicity, ascending: the key a codebook has for
        them, expanded from the colors present (``_sorted_colors``)."""
        return list(_sorted_colors(self.counts, self.palette_size, self.cardinality))

    def key(self) -> str:
        return "-".join(str(c) for c in self.counts)


@dataclass(frozen=True)
class ColorSequence:
    """A word over [palette_size] with a linear or cyclic reading."""

    colors: tuple[int, ...]
    palette_size: int
    mode: Mode = "cyclic"

    def __post_init__(self):
        _require_palette(self.palette_size)
        if len(self.colors) < 1:
            raise InputError("sequence must not be empty")
        if self.mode not in ("linear", "cyclic"):
            raise InputError(f"unknown mode {self.mode!r}")
        _require_palette(self.palette_size, self.colors)

    @classmethod
    def of(
        cls,
        colors: Iterable[int],
        palette_size: int | None = None,
        mode: Mode = "cyclic",
    ) -> "ColorSequence":
        tup = tuple(int(c) for c in colors)
        if palette_size is None:
            palette_size = max(tup) if tup else 0
        return cls(tup, palette_size, mode)

    @classmethod
    def from_digits(
        cls, digits: str, palette_size: int | None = None, mode: Mode = "cyclic"
    ) -> "ColorSequence":
        """Build from a compact digit string (palettes up to 9 colors)."""
        return cls.of((int(ch) for ch in digits), palette_size, mode)

    def __len__(self) -> int:
        return len(self.colors)

    def __iter__(self) -> Iterator[int]:
        return iter(self.colors)

    def with_mode(self, mode: Mode) -> "ColorSequence":
        return ColorSequence(self.colors, self.palette_size, mode)


@dataclass(frozen=True)
class DistinguishabilityReport:
    """Outcome of a distinguishability check.

    On failure ``collision`` is the lexicographically smallest pair of window
    tag positions carrying equal multisets.
    """

    ok: bool
    collision: tuple | None = None
    window_count: int = 0


def _require_window(seq: ColorSequence, m: int) -> None:
    if m < 1:
        raise InputError("window size must be at least 1")
    if m > len(seq):
        raise InputError(f"window size {m} exceeds sequence length {len(seq)}")


def window_starts(seq: ColorSequence, m: int) -> range:
    """Valid window tag positions for the sequence's mode."""
    _require_window(seq, m)
    if seq.mode == "linear":
        return range(len(seq) - m + 1)
    return range(len(seq))


def window_keys(
    colors: Sequence[int], m: int, cyclic: bool, step: int = 1
) -> list[tuple[int, ...]]:
    """Sorted colors of each length-m window whose start is a multiple of step.

    Cyclic windows start anywhere and wrap, more than once when the word is
    shorter than m.  Equal keys mean equal multisets.
    """
    n = len(colors)
    if cyclic:
        colors = colors + (colors * ((m - 1) // n + 1))[: m - 1]
        stop = n
    else:
        stop = n - m + 1
    return [tuple(sorted(colors[t : t + m])) for t in range(0, stop, step)]


def keyed_report(keys: list, tags: Sequence) -> DistinguishabilityReport:
    """Report on window keys listed in ascending tag order; a collision is the
    smallest (first, repeat) tag pair over all repeated keys."""
    if len(set(keys)) == len(keys):
        return DistinguishabilityReport(True, None, len(keys))
    first: dict = {}
    for tag, key in zip(tags, keys):
        first.setdefault(key, tag)
    best = min((first[key], tag) for tag, key in zip(tags, keys) if first[key] != tag)
    return DistinguishabilityReport(False, best, len(keys))


def window_multiset(seq: ColorSequence, t: int, m: int) -> Multiset:
    """Multiset of the m colors in the window tagged at position t."""
    if t not in window_starts(seq, m):
        raise InputError(f"window start {t} out of range for mode {seq.mode}")
    wrapped = seq.colors + seq.colors[: m - 1]  # linear windows end before the tail
    return Multiset.of(wrapped[t : t + m], seq.palette_size)


def check_distinguishable(seq: ColorSequence, m: int) -> DistinguishabilityReport:
    """Are all window multisets pairwise distinct?"""
    starts = window_starts(seq, m)
    return keyed_report(window_keys(seq.colors, m, seq.mode == "cyclic"), starts)


def _require_distinguishable(seq: ColorSequence, m: int, what: str) -> None:
    """Self-check: raise SelfCheckError "<what> at windows <collision>"."""
    report = check_distinguishable(seq, m)
    if not report.ok:
        raise SelfCheckError(f"{what} at windows {report.collision}")


def t_cut(seq: ColorSequence, t: int, m: int) -> ColorSequence:
    """Linearize a cyclic sequence: cut after position t and repeat m-1 symbols.

    Output is the rotation starting at t+1 followed by its own first m-1
    colors, length len(seq)+m-1, for a window m in 1..len(seq).  A cyclic
    m-distinguishable input yields a linear m-distinguishable output for
    every t.
    """
    if seq.mode != "cyclic":
        raise InputError("t_cut requires a cyclic sequence")
    if not 0 <= t < len(seq):
        raise InputError(f"cut position {t} out of range 0..{len(seq) - 1}")
    _require_window(seq, m)
    rotated = seq.colors[t + 1 :] + seq.colors[: t + 1]
    return ColorSequence(rotated + rotated[: m - 1], seq.palette_size, "linear")


def format_sequence(seq: ColorSequence, comments: Iterable[str] = ()) -> str:
    """Sequence text form: '#' header carrying k and mode, colors on one line."""
    lines = [f"# k={seq.palette_size} mode={seq.mode}"]
    lines.extend(f"# {comment}" for comment in comments)
    lines.append(" ".join(str(c) for c in seq.colors))
    return "\n".join(lines) + "\n"


def data_lines(
    text: str, header: dict, ints: Sequence[str], modes: Sequence[str]
) -> Iterator[str]:
    """Yield the stripped, non-blank lines of a text file that are not headers.

    A line starting with '#' is a header of key=value tokens: a key in ints is
    stored in header as an int, mode= when its value is one of modes, and
    other tokens are comments.  header thus holds the values in force at
    each yielded line.  A bad value raises InputError.
    """
    for raw in text.splitlines():
        line = raw.strip()
        if not line.startswith("#"):
            if line:
                yield line
            continue
        for token in line[1:].split():
            key, sep, value = token.partition("=")
            if sep and key in ints:
                try:
                    header[key] = int(value)
                except ValueError as exc:
                    raise InputError(f"bad header token {token!r}") from exc
            elif sep and key == "mode":
                if value not in modes:
                    raise InputError(f"unknown mode {value!r} in header")
                header[key] = value


def parse_sequences(text: str) -> list[ColorSequence]:
    """Parse the sequence text format, one sequence per line.

    A '#' header sets k and mode for the lines that follow; lines without a
    preceding header default to linear with the palette inferred from the
    colors present.
    """
    header: dict = {}
    out: list[ColorSequence] = []
    for line in data_lines(text, header, ("k",), ("linear", "cyclic")):
        try:
            colors = tuple(int(tok) for tok in line.split())
        except ValueError as exc:
            raise InputError(f"bad sequence line {line!r}") from exc
        k = header["k"] if "k" in header else max(colors)
        out.append(ColorSequence(colors, k, header.get("mode", "linear")))
    return out
