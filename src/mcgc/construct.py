"""Constructive generators for cyclic m-distinguishable sequences.

m=1 is the bare palette; m=2 walks an Eulerian circuit of the complete graph
(with a loop per vertex for odd palettes, minus a perfect matching for even
ones); m=3 grows a pair of base words recursively, three new colors per
step.  Every generator validates its own output against the checker and the
length formula before returning it.

One table (``_BASES``) holds, per window size, the palettes it is built for,
the length of each build and the generator.  ``palettes``, ``cyclic_length``
and ``build`` read it; compositions, simulator axes and bound tables go
through these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError, SelfCheckError, UnsupportedParameterError
from .eulerian import Multigraph, eulerian_circuit
from .sequences import ColorSequence, _require_distinguishable, t_cut

__all__ = [
    "RecursionPair",
    "palettes",
    "cyclic_length",
    "build",
    "build_m1",
    "build_m2",
    "build_m3",
    "build_m3_pair",
    "repeat_first_occurrences",
    "canonical_one_factor",
    "pad_with_new_colors",
]

# Base words for the m=3 family.  The 54-symbol word on six colors splits
# into the 9-symbol word on three colors plus a 45-symbol tail; the
# recursion consumes such (head, tail) pairs.
_BASE_M3_K3 = "111222333"
_BASE_M3_K6 = "111222333" "116631552245353244336214146262514365554446665"

# Word templates for one m=3 recursion step.  Letters a..f stand for the six
# highest colors k-5..k; digit characters are literal colors.
_Y_EVEN = "aaffcaeebbdececbddccfbadadfbf"
_Y_ODD = "beb1fabd1cffaaecbfbfdada1eccfaeecdcdbd"
# Each strand alternates two letter pairs around a run of literal colors
# descending from k-6 (to 1 for even k, to 2 for odd k), then a suffix.
_Z_STRANDS = (("be", "af", "be"), ("ad", "ce", "ad"), ("cf", "bd", "cfe"))


def build_m1(k: int) -> ColorSequence:
    """The palette itself, 1..k; cyclic 1-distinguishable."""
    if k < 1:
        raise InputError("k must be at least 1")
    return ColorSequence(tuple(range(1, k + 1)), k, "cyclic")


def repeat_first_occurrences(word) -> tuple[int, ...]:
    """Double each color's first occurrence, reading the word from its
    first element."""
    seen: set[int] = set()
    out: list[int] = []
    for v in word:
        out.append(v)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return tuple(out)


def canonical_one_factor(k: int) -> list[tuple[int, int]]:
    """The perfect matching {1,2},{3,4},...,{k-1,k} removed for even k."""
    if k % 2 != 0:
        raise InputError("a perfect matching needs an even vertex count")
    return [(v, v + 1) for v in range(1, k, 2)]


# Base words by window: first palette, palette step, cyclic length on k
# colors, and the generator's name.  build looks the generator up by name
# when called, so a wrapper set on the module sees every build.
_BASES = {
    1: (1, 1, lambda k: k, "build_m1"),
    2: (3, 1, lambda k: math.comb(k + 1, 2) - (0 if k % 2 else k // 2), "build_m2"),
    3: (3, 3, lambda k: math.comb(k + 2, 3) - k // 3, "build_m3"),
}


def _base(m: int) -> tuple:
    if m not in _BASES:
        raise InputError(f"no base construction for window {m}")
    return _BASES[m]


def palettes(m: int, max_colors: int) -> range:
    """Palette sizes up to max_colors that build(m, k) accepts, ascending."""
    first, step, _, _ = _base(m)
    return range(first, max_colors + 1, step)


def cyclic_length(m: int, k: int) -> int:
    """Length of the cyclic word build(m, k), for k in palettes(m, ...)."""
    return _base(m)[2](k)


def build(m: int, k: int) -> ColorSequence:
    """The cyclic m-distinguishable word on [k]."""
    return globals()[_base(m)[3]](k)


def _self_check(seq: ColorSequence, m: int) -> None:
    want_length = cyclic_length(m, seq.palette_size)
    if len(seq) != want_length:
        raise SelfCheckError(
            f"built length {len(seq)} disagrees with formula value {want_length}"
        )
    _require_distinguishable(seq, m, f"output failed {m}-distinguishability")


def build_m2(k: int) -> ColorSequence:
    """Cyclic 2-distinguishable sequence on [k].

    Odd k: length k(k+1)/2, covering every pair multiset exactly once (an
    Eulerian circuit of the complete graph with one loop per vertex).  Even
    k: length k(k+1)/2 - k/2, an Eulerian circuit of the complete graph
    minus the canonical matching with every first occurrence doubled.

    k=2 is rejected: removing the matching leaves no edges, and exhaustive
    search shows no cyclic 2-distinguishable sequence of length 2 exists on
    two colors.
    """
    if k < 3:
        raise UnsupportedParameterError(
            f"no 2-distinguishable construction for k={k}; need k >= 3"
        )
    if k % 2 == 1:
        g = Multigraph.complete(k, loops=True)
        seq = ColorSequence(tuple(eulerian_circuit(g, 1)), k, "cyclic")
    else:
        g = Multigraph.complete(k, skip_edges=canonical_one_factor(k))
        circuit = eulerian_circuit(g, 1)
        seq = ColorSequence(repeat_first_occurrences(circuit), k, "cyclic")
    _self_check(seq, 2)
    return seq


@dataclass(frozen=True)
class RecursionPair:
    """Head/tail split of a cyclic 3-distinguishable word on [k].

    The head is itself a valid cyclic word on [k-3]; the tail carries every
    triple touching the top three colors.  Both open with 1,1 and the tail
    closes with k,k-1, which is exactly what the next recursion step needs.
    """

    s_part: tuple[int, ...]
    t_part: tuple[int, ...]
    palette_size: int

    @property
    def sequence(self) -> ColorSequence:
        return ColorSequence(
            self.s_part + self.t_part, self.palette_size, "cyclic"
        )


def _letter_map(k: int) -> dict[str, int]:
    return {ch: k - 5 + i for i, ch in enumerate("abcdef")}


def _instantiate(template: str, k: int) -> tuple[int, ...]:
    lut = _letter_map(k)
    return tuple(lut[ch] if ch in lut else int(ch) for ch in template)


def _y_word(k: int) -> tuple[int, ...]:
    return _instantiate(_Y_EVEN if k % 2 == 0 else _Y_ODD, k)


def _z_word(k: int) -> tuple[int, ...]:
    lut = _letter_map(k)
    low = 1 if k % 2 == 0 else 2
    out: list[int] = []
    for first, second, suffix in _Z_STRANDS:
        pairs = (first, second)
        for i, literal in enumerate(range(k - 6, low - 1, -1)):
            out.extend(lut[ch] for ch in pairs[i % 2])
            out.append(literal)
        out.extend(lut[ch] for ch in suffix)
    return tuple(out)


def _check_pair(pair: RecursionPair) -> None:
    k = pair.palette_size
    if pair.s_part[:2] != (1, 1) or pair.t_part[:2] != (1, 1):
        raise SelfCheckError("recursion parts must open with 1,1")
    if pair.t_part[-2:] != (k, k - 1):
        raise SelfCheckError(f"recursion tail must close with {k},{k - 1}")


def build_m3_pair(k: int) -> RecursionPair:
    """The (head, tail) split behind build_m3, for k a multiple of 3, k >= 6."""
    if k < 6 or k % 3 != 0:
        raise UnsupportedParameterError(
            f"recursion pair needs k a multiple of 3 with k >= 6, got {k}"
        )
    if k == 6:
        word = tuple(int(ch) for ch in _BASE_M3_K6)
        pair = RecursionPair(word[:9], word[9:], 6)
    else:
        prev = build_m3_pair(k - 3)
        relabel = {k - 5: k - 2, k - 4: k - 1, k - 3: k}
        x = tuple(relabel.get(c, c) for c in prev.t_part)
        pair = RecursionPair(
            prev.s_part + prev.t_part,
            x + _y_word(k) + _z_word(k),
            k,
        )
    _check_pair(pair)
    return pair


def build_m3(k: int) -> ColorSequence:
    """Cyclic 3-distinguishable sequence on [k], k a multiple of 3.

    Length C(k+2,3) - k/3: every triple multiset occurs as a window except
    the k/3 consecutive ones {1,2,3}, {4,5,6}, ..., {k-2,k-1,k}.
    """
    if k < 3 or k % 3 != 0:
        raise UnsupportedParameterError(
            f"k must be a positive multiple of 3, got {k}"
        )
    if k == 3:
        seq = ColorSequence.from_digits(_BASE_M3_K3, 3)
    else:
        seq = build_m3_pair(k).sequence
    _self_check(seq, 3)
    return seq


def pad_with_new_colors(seq: ColorSequence, m: int, new_colors: int) -> ColorSequence:
    """Cut the cyclic sequence open and append m copies of each of
    new_colors fresh colors, ascending.

    Output is linear m-distinguishable on the enlarged palette, length
    len(seq) + m - 1 + new_colors*m.  new_colors=0 degenerates to a plain
    cut.
    """
    if new_colors < 0:
        raise InputError("new color count must be non-negative")
    cut = t_cut(seq, len(seq) - 1, m)
    colors = list(cut.colors)
    for i in range(1, new_colors + 1):
        colors.extend([seq.palette_size + i] * m)
    out = ColorSequence(tuple(colors), seq.palette_size + new_colors, "linear")
    _require_distinguishable(out, m, "padded sequence failed validation")
    return out
