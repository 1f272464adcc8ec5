"""The exhaustive search's node loop as it was before its depth frames were
index-addressed: a verbatim copy of ``mcgc.search._search`` from then, kept
only so that the property tests can hold the current kernel to it, result
for result and placed symbol for placed symbol.  The search argument lives
in ``mcgc.search``'s module docstring."""

from __future__ import annotations

from mcgc.errors import InputError
from mcgc.search import SearchResult
from mcgc.sequences import ColorSequence, _forced_unused, multichoose


def _search(m: int, k: int, length_cap: int) -> tuple[SearchResult, int]:
    """brute_force_max_cyclic's result, and how many symbols it placed.

    Once the word holds m - 1 symbols, ``ends`` keys the end window of each
    color but 1 (the color with those m - 1 symbols) and ``unused`` counts
    those that no placed window uses.  ``runs`` holds the length of the run
    each symbol ends (after a 0 for the empty word), and ``head`` the first
    run's length once a color other than 1 ends it, or the limit before.
    ``occurs`` counts each color's symbols, up to the cap ``most``.
    """
    if m < 1 or k < 1 or length_cap < 1:
        raise InputError("m, k and the length cap must all be at least 1")
    windows = multichoose(k, m)
    ceiling = windows - _forced_unused(m, k)
    limit = min(length_cap, ceiling)
    most = windows // k  # the occurrence cap
    weight = [0] + [(m + 1) ** c for c in range(min(k, limit))]  # colors a canonical word can use
    # per symbol: its prefix sum, and the largest color the next symbol may take
    word: list[int] = []
    prefix = [0]
    tops = [1]
    runs = [0]
    occurs = [0] * len(weight)
    head = limit
    seen: set[int] = set()
    ends: set[int] = set()
    unused = len(weight) - 2  # the end windows of colors 2, 3, ...
    best = [1]  # the single 1 closes at every m and k
    placed = 0
    color = 1
    while len(best) < limit and (word or color == 1):  # the root tries color 1 only
        n = len(word) + 1
        top = tops[-1] if n <= limit and unused else 0
        base = prefix[-1] - prefix[n - m] if n >= m else prefix[-1]  # the key, less the new color
        prev = word[-1] if word else 0
        full = prev if runs[-1] == head else 0  # the color whose run may not grow
        while color <= top and (color == full or base + weight[color] in seen):
            color += 1
        if color > top:
            color = word.pop()
            occurs[color] -= 1
            color += 1
            runs.pop()
            if len(word) == head:  # back into the first run
                head = limit
            last = prefix.pop()
            key = last - prefix[n - 1 - m] if n > m else last
            seen.remove(key)
            unused += key in ends
            tops.pop()
            continue
        if occurs[color] == most:  # tested here, not per color tried in the loop above
            color += 1
            continue
        word.append(color)
        occurs[color] += 1
        placed += 1
        runs.append(runs[-1] + 1 if color == prev else 1)
        if color > 1 and head == limit:
            head = n - 1
        key = base + weight[color]
        prefix.append(prefix[-1] + weight[color])
        seen.add(key)
        tops.append(top + 1 if color == top < k else top)
        if n == m - 1:  # no window of m symbols is placed yet: unused counts them all
            ends = {prefix[-1] + w for w in weight[2:]}
        unused -= key in ends
        # a closing word longer than 1 does not end in 1
        if n > len(best) and unused and color > 1:
            # the m - 1 windows that wrap, or all n when n < m; the one from s
            # keys as P(s + m) - P(s), with P(x) = (x // n) * prefix[n] + prefix[x % n]
            starts = range(max(0, n + 1 - m), n)
            wrapped = {(s + m) // n * prefix[n] + prefix[(s + m) % n] - prefix[s] for s in starts}
            if len(wrapped) == len(starts) and seen.isdisjoint(wrapped):
                best = word[:]
        color = 1
    result = SearchResult(
        max_length=len(best),
        witness=ColorSequence(tuple(best), k, "cyclic"),
        proven=length_cap >= ceiling,
        cap=length_cap,
        ceiling=ceiling,
    )
    return result, placed
