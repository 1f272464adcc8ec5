"""Color sequences, windowed multisets, and distinguishability checking.

A color sequence is a word over the palette [k] = {1, ..., k}, read linearly
or cyclically.  It is m-distinguishable when the multisets of its length-m
windows are pairwise distinct, so a window's multiset identifies where it sits.

The window-key kernel, shared by every check: each window or block is keyed
by the sum of fixed 64-bit weights of its colors (``_mix``), slid along the
word from prefix sums at constant cost per window, or by one add of two
neighbouring weights when m = 2.  ``_mix`` memoizes the weights of the last
4096 distinct colors it was asked for, so checks within one process weigh
each color once, and a word of more colors keeps the memo at that bound.
Equal multisets have equal sums, so only windows whose sums repeat get the
exact key (``_summed_report``): the sorted tuple of their colors
(``window_keys``), which codebooks use too.  A cyclic read appends the
word's head (``_wrapped``) and every sum is slid by ``_sliding``.  An m x n
block of a grid is the same kernel twice, as in a summed-area table: its sum
is the length-n window sum, along a band of m rows, of the band's length-m
column window sums.  This module also owns the coding area's tag points
(``_starts``), the window-count ceiling (``upper_bound``) and the
'# key=value' header of the sequence, grid and codebook files
(``data_lines``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, compress, islice, repeat, tee
from operator import add, ne, sub
from typing import Callable, Iterable, Iterator, Literal, Sequence

from .errors import InputError, SelfCheckError

Mode = Literal["linear", "cyclic"]

__all__ = [
    "Multiset",
    "ColorSequence",
    "DistinguishabilityReport",
    "window_starts",
    "window_multiset",
    "window_keys",
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
    # a long word has few distinct colors, and set() finds them in C
    for c in set(colors) if len(colors) > 64 else colors:
        if not 1 <= c <= k:
            c = next(c for c in colors if not 1 <= c <= k)  # the first in the word
            raise InputError(f"color {c} outside palette [1..{k}]")


def _sorted_colors(counts: Sequence[int], k: int, size: int) -> tuple[int, ...] | None:
    """The colors of a count vector, ascending (color i+1 counts[i] times), when
    it has k entries, none negative, summing to size; otherwise None."""
    if len(counts) != k or sum(counts) != size or min(counts) < 0:
        return None
    return tuple([c for c, n in enumerate(counts, 1) for _ in range(n)])


@dataclass(frozen=True)
class Multiset:
    """A multiset over [k], stored as its count vector in palette order.

    The count vector is the file form only: the '-'-joined ``key()`` of
    codebook files and error messages, and the keys of ``Codebook.entries``;
    checks and codebooks key by weight sums and sorted colors instead.  A
    multiset keeps its sorted colors, which ``grid2d.decode`` reads.  One
    made by ``of`` keeps the palette size and the colors it is given, sorted,
    and makes its count vector on first read; one made from counts expands
    its colors on first use.  The colors are not a field, so equality, hash,
    repr and pickles are those of the count vector.
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
        if not isinstance(palette_size, int):
            raise InputError(f"palette size {palette_size} is not an integer")
        if not all(map(isinstance, colors, repeat(int))):
            c = next(c for c in colors if not isinstance(c, int))
            raise InputError(f"color {c} is not an integer")
        ms = object.__new__(cls)
        vars(ms).update(
            palette_size=palette_size, cardinality=len(colors), _colors=tuple(sorted(colors))
        )
        return ms

    @classmethod
    def from_key(cls, key: str) -> "Multiset":
        try:
            return cls(tuple(int(part) for part in key.split("-")))
        except ValueError as exc:
            raise InputError(f"malformed multiset key {key!r}") from exc

    def __getattr__(self, name: str):
        """The count vector of a multiset made by ``of``, made on first read:
        its palette and colors are valid by then, so no scan is needed."""
        if name != "counts" or "_colors" not in vars(self):
            return super().__getattribute__(name)  # the usual AttributeError
        counts = [0] * self.palette_size
        for color in self._colors:
            counts[color - 1] += 1
        vars(self)["counts"] = counts = tuple(counts)
        return counts

    def __getstate__(self) -> dict:
        return {"counts": self.counts}  # the kept colors are made again on use

    @cached_property
    def palette_size(self) -> int:
        return len(self.counts)

    @cached_property
    def cardinality(self) -> int:
        return sum(self.counts)

    @cached_property
    def _colors(self) -> tuple[int, ...]:
        """The colors with multiplicity, ascending (``_sorted_colors``)."""
        return _sorted_colors(self.counts, self.palette_size, self.cardinality)

    def elements(self) -> list[int]:
        """The colors with multiplicity, ascending: the key a codebook has for them."""
        return list(self._colors)

    def key(self) -> str:
        return "-".join(str(c) for c in self.counts)


def multichoose(k: int, m: int) -> int:
    """Number of m-multisets over a k-color palette: C(k+m-1, m)."""
    if k < 1 or m < 0:
        raise InputError("need k >= 1 and m >= 0")
    return math.comb(k + m - 1, m)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % p for p in range(2, int(n**0.5) + 1))


def _require_window_palette(m: int, k: int) -> None:
    if m < 1 or k < 1:
        raise InputError("need m >= 1 and k >= 1")


def _forced_unused(m: int, k: int) -> int:
    """How many m-multisets on [k] every cyclic word leaves unused: when m
    is a prime dividing k a counting parity forces k/m, else none."""
    return k // m if k % m == 0 and _is_prime(m) else 0


def upper_bound(m: int, k: int, cyclic: bool = True) -> int:
    """Ceiling on the length of an m-distinguishable sequence on [k].

    Its windows are distinct m-multisets on [k], of which there are
    C(k+m-1, m).  A cyclic word has a window per symbol and leaves unused
    the multisets ``_forced_unused`` counts; every base word of
    ``construct`` reaches this ceiling.  A linear word has m-1 symbols more
    than windows, and no wraparound for that refinement to rest on.
    """
    _require_window_palette(m, k)
    total = multichoose(k, m)
    if cyclic:
        return total - _forced_unused(m, k)
    return total + m - 1


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


def _starts(n: int, m: int, cyclic: bool) -> range:
    """Tag points on an axis of n cells: all when cyclic, else the n - m + 1 where m fit."""
    return range(n) if cyclic else range(n - m + 1)


def window_starts(seq: ColorSequence, m: int) -> range:
    """Valid window tag positions for the sequence's mode."""
    _require_window(seq, m)
    return _starts(len(seq), m, seq.mode == "cyclic")


def window_keys(
    colors: Sequence[int], m: int, cyclic: bool, step: int = 1
) -> list[tuple[int, ...]]:
    """Sorted colors of each length-m window whose start is a multiple of step.

    Cyclic windows start anywhere and wrap, more than once when the word is
    shorter than m.  Equal keys mean equal multisets.
    """
    starts = _starts(len(colors), m, cyclic)[::step]
    if cyclic and starts:  # an empty word has no start, and nothing to wrap
        colors = _wrapped(colors, m)
    return [tuple(sorted(colors[t : t + m])) for t in starts]


def _wrapped(colors: Sequence[int], m: int) -> Sequence[int]:
    """A cyclic word followed by its first m - 1 symbols, wrapping as often as needed."""
    return colors + (colors * ((m - 1) // len(colors) + 1))[: m - 1]


def window_multiset(seq: ColorSequence, t: int, m: int) -> Multiset:
    """Multiset of the m colors in the window tagged at position t."""
    if t not in window_starts(seq, m) or not isinstance(t, int):  # 1.0 in range(2)
        raise InputError(f"window start {t} out of range for mode {seq.mode}")
    wrapped = _wrapped(seq.colors, m)  # linear windows end before the tail
    return Multiset.of(wrapped[t : t + m], seq.palette_size)


_MASK = 2**64 - 1


@lru_cache(maxsize=4096)
def _mix(c: int) -> int:
    """The fixed 64-bit weight of color c: splitmix64 of the color, memoized
    for the process's last 4096 distinct colors."""
    z = c * 0x9E3779B97F4A7C15 & _MASK
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK
    return z ^ z >> 31


def _weigher(colors: Iterable[int]) -> Callable[[int], int]:
    """Color -> weight for the colors that occur in colors, so the cost
    follows the distinct colors and not the largest one.  _mix is read at
    each call, so a replaced weight takes effect at once."""
    distinct = set(colors)
    return dict(zip(distinct, map(_mix, distinct))).__getitem__


def _sliding(values: Iterable[int], m: int) -> list[int]:
    """Sum of every m consecutive values, in start order: pairwise for m = 2,
    else from prefix sums (of which tee keeps only the m between the two
    ends of a window)."""
    if m == 2:
        starts, ends = tee(values)
        return list(map(add, starts, islice(ends, 1, None)))
    ends, starts = tee(accumulate(values, initial=0))
    return list(map(sub, islice(ends, m, None), starts))


def _summed_report(
    sums: list[int], tag: Callable[[int], object], key: Callable[[int], tuple]
) -> DistinguishabilityReport:
    """Report on the weight sums of windows listed in ascending tag order,
    whatever the weights; a collision is the smallest (first, repeat) pair
    over all repeated multisets, named by tag(i), the tag of window i.  Only
    the windows of a repeated sum get key(i), their exact key, bucket by
    bucket in order of the bucket's first window, until a bucket starts
    after the best pair's first."""
    n = len(sums)
    if len(set(sums)) == n:
        return DistinguishabilityReport(True, None, n)
    first = dict(zip(reversed(sums), range(n - 1, -1, -1)))  # sum -> its first window
    heads = list(map(first.__getitem__, sums))
    buckets: dict[int, list[int]] = {}
    for i in compress(range(n), map(ne, heads, range(n))):
        buckets.setdefault(heads[i], [heads[i]]).append(i)
    best = (n, n)
    for head in sorted(buckets):
        if head > best[0]:
            break
        seen: dict = {}
        for i in buckets[head]:
            j = seen.setdefault(key(i), i)
            if j != i:
                best = min(best, (j, i))
                if j == head:  # no later pair, in this bucket or after it, is smaller
                    break
    collision = None if best[0] == n else (tag(best[0]), tag(best[1]))
    return DistinguishabilityReport(collision is None, collision, n)


def check_distinguishable(seq: ColorSequence, m: int) -> DistinguishabilityReport:
    """Are all window multisets pairwise distinct?"""
    starts = window_starts(seq, m)
    colors = _wrapped(seq.colors, m) if seq.mode == "cyclic" else seq.colors
    sums = _sliding(map(_weigher(colors), colors), m)
    return _summed_report(sums, starts.__getitem__, lambda t: tuple(sorted(colors[t : t + m])))


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
    return ColorSequence(_wrapped(rotated, m), seq.palette_size, "linear")


def format_sequence(seq: ColorSequence, comments: Iterable[str] = ()) -> str:
    """Sequence text form: '#' header carrying k and mode, colors on one line."""
    lines = [f"# k={seq.palette_size} mode={seq.mode}"]
    lines.extend(f"# {comment}" for comment in comments)
    lines.append(" ".join(str(c) for c in seq.colors))
    return "\n".join(lines) + "\n"


def data_lines(
    text: str, header: dict, ints: Sequence[str] = (), modes: Sequence[str] = ()
) -> Iterator[str]:
    """Yield the stripped, non-blank lines of a text file that are not headers.

    A line starting with '#' is a header of key=value tokens: a key in ints is
    stored in header as an int, mode= when modes are given and its value is
    one of them, and other tokens are comments.  header thus holds the values
    in force at each yielded line.  A bad value raises InputError.
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
            elif sep and key == "mode" and modes:
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
