"""Constructive generators for cyclic m-distinguishable sequences.

m=1 is the bare palette; m=2 is an Eulerian circuit written in closed form
(``build_m2``); m=3 grows a (head, tail) pair, three colors per step.  Every
generator refuses a word longer than MAX_LENGTH before building it and
validates its own output against the checker and the ceiling it reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, cycle

from .errors import InputError, SelfCheckError, UnsupportedParameterError
from .sequences import ColorSequence, _require_distinguishable, t_cut, upper_bound

__all__ = [
    "MAX_LENGTH",
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
_BASE_M3_K6 = "111222333" "116631552245353244336214146262514365554446665"
_BASE_M3_K3 = _BASE_M3_K6[:9]

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
    _require_length(k, f"the window-1 word on {k} colors")
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


# Base words by window: first palette, palette step and the generator's
# name.  Each word reaches the cyclic ceiling upper_bound (its docstring has
# the argument).  palettes, cyclic_length and build read the table, and
# compositions, simulator axes and bound tables go through them.  build
# looks the generator up by name when called, so a wrapper set on the
# module sees every build.
_BASES = {1: (1, 1, "build_m1"), 2: (3, 1, "build_m2"), 3: (3, 3, "build_m3")}


# The longest word a generator, compose_for_m or a codebook file makes: a
# million symbols build and self-check in seconds within about half a
# gigabyte; _require_length refuses longer ones before allocating them.
MAX_LENGTH = 2**20


def _require_length(length: int, what: str, error=UnsupportedParameterError) -> None:
    """Raise error naming what and its length when it exceeds MAX_LENGTH."""
    if length > MAX_LENGTH:
        raise error(f"{what} has {length} symbols, more than the limit of {MAX_LENGTH}")


def _base(m: int) -> tuple:
    if m not in _BASES:
        raise InputError(f"no base construction for window {m}")
    return _BASES[m]


def palettes(m: int, max_colors: int) -> range:
    """Palette sizes up to max_colors that build(m, k) accepts, ascending."""
    first, step, _ = _base(m)
    return range(first, max_colors + 1, step)


def cyclic_length(m: int, k: int) -> int:
    """Length of build(m, k) for k in palettes(m, ...): the ceiling it reaches."""
    _base(m)
    return upper_bound(m, k)


def build(m: int, k: int) -> ColorSequence:
    """The cyclic m-distinguishable word on [k]; its generator refuses a
    word longer than MAX_LENGTH before building it."""
    return globals()[_base(m)[2]](k)


def _self_check(seq: ColorSequence, m: int) -> None:
    want_length = cyclic_length(m, seq.palette_size)
    if len(seq) != want_length:
        raise SelfCheckError(
            f"built length {len(seq)} disagrees with formula value {want_length}"
        )
    _require_distinguishable(seq, m, f"output failed {m}-distinguishability")


def _m2_word(k: int) -> tuple[int, ...]:
    """build_m2's word on k >= 3 colors; every color first occurs in segment 1."""
    odd = k % 2
    segments = (
        chain(range(a, a + 1 + odd), chain.from_iterable(zip(range(a + 2, k), cycle(alt))), (k,))
        for a in range(1, k - 1, 2)
        for alt in [(a + 1 - odd, a + odd)]  # a, a+1, ... for odd k; a+1, a, ... for even k
    )
    return tuple(chain(repeat_first_occurrences(next(segments)), chain.from_iterable(segments)))


def build_m2(k: int) -> ColorSequence:
    """Cyclic 2-distinguishable sequence on [k].

    Length upper_bound(2, k).  Odd k: k(k+1)/2, every pair multiset once
    (an Eulerian circuit of the complete graph with one loop per vertex).
    Even k: k(k+1)/2 - k/2, an Eulerian circuit of the complete graph minus
    the canonical matching with every first occurrence doubled.  The
    circuit is the one ``eulerian_circuit(g, 1)`` walks (loops first, then
    the lowest free neighbor), in closed form: for a = 1, 3, ... below k-1,
    a segment a (a, a+1 for odd k), then v = a+2..k, each v but k followed
    by the next of the alternation a, a+1, ... (odd k) or a+1, a, ... (even
    k).  The walk runs segment 1 and closes at 1 from k, then runs the rest
    from k.  For odd k it takes each loop on the color's first visit, which
    doubles the first occurrence as for even k.

    k=2 is rejected: removing the matching leaves no edges, and exhaustive
    search shows no cyclic 2-distinguishable sequence of length 2 exists on
    two colors.
    """
    if k < 3:
        raise UnsupportedParameterError(
            f"no 2-distinguishable construction for k={k}; need k >= 3"
        )
    _require_length(cyclic_length(2, k), f"the window-2 word on {k} colors")
    seq = ColorSequence(_m2_word(k), k, "cyclic")
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


def _y_word(k: int) -> tuple[int, ...]:
    lut = _letter_map(k)
    template = _Y_EVEN if k % 2 == 0 else _Y_ODD
    return tuple(lut[ch] if ch in lut else int(ch) for ch in template)


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
    """The (head, tail) split behind build_m3, for k a multiple of 3, k >= 6,
    grown from the six-color base word three colors per step."""
    if k < 6 or k % 3 != 0:
        raise UnsupportedParameterError(
            f"recursion pair needs k a multiple of 3 with k >= 6, got {k}"
        )
    _require_length(cyclic_length(3, k), f"the window-3 word on {k} colors")
    word = tuple(int(ch) for ch in _BASE_M3_K6)
    pair = RecursionPair(word[:9], word[9:], 6)
    _check_pair(pair)
    for j in range(9, k + 1, 3):
        relabel = {j - 5: j - 2, j - 4: j - 1, j - 3: j}
        x = tuple(map(relabel.get, pair.t_part, pair.t_part))
        pair = RecursionPair(
            pair.s_part + pair.t_part, x + _y_word(j) + _z_word(j), j
        )
        _check_pair(pair)
    return pair


def build_m3(k: int) -> ColorSequence:
    """Cyclic 3-distinguishable sequence on [k], k a multiple of 3.

    Length upper_bound(3, k) = C(k+2,3) - k/3: every triple multiset occurs
    as a window except the k/3 consecutive ones {1,2,3}, ..., {k-2,k-1,k}.
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
