"""Exhaustive search for the longest cyclic m-distinguishable sequence.

One iterative depth-first pass over canonical words (first symbol 1, first
occurrences in ascending color order; every sequence is one up to rotation
and relabeling).  It prunes a prefix whose newest window repeats, and keeps a
word longer than the best when its wrapping windows are new too.  Ascending
preorder meets each length lexicographically, so the witness is the smallest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import upper_bound
from .errors import InputError
from .sequences import ColorSequence, window_keys

__all__ = ["SearchResult", "brute_force_max_cyclic"]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exhaustive maximum-length search.

    ``proven`` is True when every length above max_length up to the
    theoretical ceiling was exhausted; False means the cap cut the search
    short and longer sequences may exist.
    """

    max_length: int
    witness: ColorSequence
    proven: bool
    cap: int
    ceiling: int


def brute_force_max_cyclic(m: int, k: int, length_cap: int) -> SearchResult:
    """Longest cyclic m-distinguishable sequence on [k] up to length_cap.

    Small instances only; the search is exponential.  Windows wrap, so
    lengths below m are legal here (a single wrapped window is trivially
    distinct), which is why a single color is always a witness of length 1.
    """
    if m < 1 or k < 1 or length_cap < 1:
        raise InputError("m, k and the length cap must all be at least 1")
    ceiling = upper_bound(m, k, cyclic=True)
    limit = min(length_cap, ceiling)
    # per symbol: the key it completes, and the largest color up to it.  Before
    # m symbols the key is the sorted prefix, which no window key can equal.
    word: list[int] = []
    keys: list[tuple[int, ...]] = []
    tops = [0]
    seen: set[tuple[int, ...]] = set()
    best: list[int] = []
    color = 1
    while len(best) < limit and (word or color == 1):  # the root tries color 1 only
        if color > min(k, tops[-1] + 1) or len(word) == limit:
            color = word.pop() + 1
            seen.remove(keys.pop())
            tops.pop()
            continue
        word.append(color)
        key = tuple(sorted(word[-m:]))  # window_keys' key, inlined: hot loop
        if key in seen:
            word.pop()
            color += 1
            continue
        seen.add(key)
        keys.append(key)
        tops.append(max(tops[-1], color))
        color = 1
        n = len(word)
        if n > len(best):
            # the seam's windows are the m - 1 that wrap, or all n when n < m
            seam = word[n + 1 - m :] + word[: m - 1] if n >= m else (word * m)[: n + m - 1]
            wrapped = window_keys(seam, m, cyclic=False)
            if len(set(wrapped)) == len(wrapped) and seen.isdisjoint(wrapped):
                best = word[:]
    return SearchResult(
        max_length=len(best),
        witness=ColorSequence(tuple(best), k, "cyclic"),
        proven=length_cap >= ceiling,
        cap=length_cap,
        ceiling=ceiling,
    )
