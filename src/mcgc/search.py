"""Exhaustive search for the longest cyclic m-distinguishable sequence.

Symmetry pruning fixes the first symbol to 1 and forces first occurrences
into ascending color order.  Every sequence is equivalent to such a
canonical form under rotation and relabeling, so the maximum length is
unaffected, and the first witness found in ascending-color DFS is the
lexicographically smallest valid sequence overall.
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
    for n in range(min(length_cap, ceiling), 0, -1):
        witness = _find_at_length(m, k, n)
        if witness is not None:
            return SearchResult(
                max_length=n,
                witness=ColorSequence(witness, k, "cyclic"),
                proven=length_cap >= ceiling,
                cap=length_cap,
                ceiling=ceiling,
            )
    raise AssertionError("unreachable: length 1 always admits a witness")


def _find_at_length(m: int, k: int, n: int) -> tuple[int, ...] | None:
    """Lexicographically smallest canonical word of exactly length n whose
    cyclic windows are all distinct, or None."""
    prefix: list[int] = []
    seen: set[tuple[int, ...]] = set()  # completed non-wrapping windows

    def extend() -> tuple[int, ...] | None:
        if len(prefix) == n:
            distinct = len(set(window_keys(prefix, m, cyclic=True))) == n
            return tuple(prefix) if distinct else None
        used = max(prefix, default=0)
        for color in range(1, min(k, used + 1) + 1):
            prefix.append(color)
            key = None
            if len(prefix) >= m:
                key = tuple(sorted(prefix[-m:]))  # window_keys' key, inlined: hot loop
                if key in seen:
                    prefix.pop()
                    continue
                seen.add(key)
            found = extend()
            if found is not None:
                return found
            if key is not None:
                seen.remove(key)
            prefix.pop()
        return None

    return extend()
