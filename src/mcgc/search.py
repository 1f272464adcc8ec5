"""Exhaustive search for the longest cyclic m-distinguishable sequence.

One iterative depth-first pass over canonical words (first symbol 1, first
occurrences in ascending color order; every sequence is one up to rotation
and relabeling).  It prunes a prefix whose newest window repeats, and keeps a
word longer than the best when its wrapping windows are new too.  Ascending
preorder meets each length lexicographically, so the witness is the smallest.

Keys are exact integers.  Color c weighs (m+1)**(c-1); no window holds more
than m of a color, so its weight sum is its count vector read in base m+1.
Equal sums are equal multisets, and a sum is a difference of prefix sums.  A
prefix shorter than m keys as its own sum: fewer symbols than any window.

Three cuts keep the search small.  The end-window cut and the occurrence
cap drop only subtrees that hold no closing word.  For m >= 2, a word of
any length n >= m that closes ends in some color c, and its last wrapped
window is c with the first m - 1 symbols.  That end window must differ from
every window placed before it, and the placed windows only grow along a
path.  So once every color's end window is placed, no word below the node
can close, and its subtree is dropped.  At m = 1 no window wraps.

The occurrence cap: each position of a cyclic word lies in exactly m of its
windows, so color c's multiplicities over the windows sum to m·occ(c).  In
a closing word the windows are distinct m-multisets on [k], and over all
C(k+m-1, m) of them c's multiplicities sum to m·C(k+m-1, m)/k.  So no color
occurs more than C(k+m-1, m)/k times in a closing word of any length.
Occurrences only grow along a path, so a color at that count is not placed
again.

The rotation cut drops closing words, but never the witness.  The witness W
is the smallest canonical closing word of its length (the maximum, or the
cap); let r0 be the length of its first run, of 1s.  No run of W, read
cyclically, is longer than r0: were some run longer, W rotated to start at
that run and relabeled by first occurrence would be a canonical closing word
of the same length with a 1 at position r0 + 1, where W holds a larger
color, so it would be smaller than W.  Nor does W end in 1 unless it is all
1s, since its last run would join its first; and the only all-1s word that
closes is the single 1, so the search starts from it.  So once a color other
than 1 ends the first run, no run may grow longer than it, and a word that
ends in 1 is not recorded.  For the same reason the end-window cut leaves
out color 1's end window: a subtree where only that one is left holds no
word the search would record.  The cut search still meets W, and meets no
longer closing word and no smaller one of W's length, as the full search
meets none; so every result and witness is the one the full search returns.

The pass keeps one frame per depth d in lists indexed by d: symbol d, its
prefix sum and the run it ends, and the node's scan bound, window base and
run-blocked color.  A backtrack reads the parent's last three back, as
computed when it was entered.  They stay valid: they follow from the
parent's prefix, ``head`` and ``unused``, and taking a symbol off restores
``head`` and ``unused`` exactly.  The lists grow with the deepest word
reached, never from the cap or the ceiling, which can be far longer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .sequences import ColorSequence, multichoose, upper_bound

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
    return _search(m, k, length_cap)[0]


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
    ceiling = upper_bound(m, k)
    limit = min(length_cap, ceiling)
    most = multichoose(k, m) // k  # the occurrence cap
    weight = [0] + [(m + 1) ** c for c in range(min(k, limit))]  # colors a canonical word can use
    # the depth frames, after a 0 for the empty word (see the module docstring)
    word, prefix, runs, tops, bases, fulls = [0], [0], [0], [1], [0], [0]
    occurs = [0] * len(weight)
    head = limit
    seen: set[int] = set()
    ends: set[int] = set()
    unused = len(weight) - 2  # the end windows of colors 2, 3, ...
    best = [1]  # the single 1 closes at every m and k
    longest, placed, d = 1, 0, 0
    color, top, base, full = 1, 1, 0, 0  # the root tries color 1 only
    while longest < limit:
        while color <= top and (color == full or base + weight[color] in seen):
            color += 1
        if color > top:  # back to the parent, whose slots are as it left them
            if not d:
                break
            color = word[d]
            occurs[color] -= 1
            d -= 1
            if d == head:  # back into the first run
                head = limit
            top, base, full = tops[d], bases[d], fulls[d]
            key = base + weight[color]
            seen.remove(key)
            unused += key in ends
            color += 1
            continue
        if occurs[color] == most:  # tested here, not per color tried in the loop above
            color += 1
            continue
        n = d + 1
        if n == len(word):
            for stack in (word, prefix, runs, tops, bases, fulls):
                stack.append(0)
        word[n] = color
        occurs[color] += 1
        placed += 1
        run = runs[n] = runs[d] + 1 if color == word[d] else 1
        if color > 1 and head == limit:
            head = d
        key = base + weight[color]
        last = prefix[n] = prefix[d] + weight[color]
        seen.add(key)
        if n == m - 1:  # no window of m symbols is placed yet: unused counts them all
            ends = {last + w for w in weight[2:]}
        unused -= key in ends
        # a closing word longer than 1 does not end in 1
        if n > longest and unused and color > 1:
            # the m - 1 windows that wrap, or all n when n < m; the one from s
            # keys as P(s + m) - P(s), with P(x) = (x // n) * prefix[n] + prefix[x % n]
            starts = range(max(0, n + 1 - m), n)
            wrapped = {(s + m) // n * last + prefix[(s + m) % n] - prefix[s] for s in starts}
            if len(wrapped) == len(starts) and seen.isdisjoint(wrapped):
                best, longest = word[1 : n + 1], n
        d = n
        top = tops[d] = (top + 1 if color == top < k else top) if n < limit and unused else 0
        base = bases[d] = last - prefix[n + 1 - m] if n + 1 >= m else last  # the key, less the new color
        full = fulls[d] = color if run == head else 0  # the color whose run may not grow
        color = 1
    result = SearchResult(
        max_length=len(best),
        witness=ColorSequence(tuple(best), k, "cyclic"),
        proven=length_cap >= ceiling,
        cap=length_cap,
        ceiling=ceiling,
    )
    return result, placed
