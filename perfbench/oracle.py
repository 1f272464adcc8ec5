"""Independent correctness checks for benchmark outputs.

Windows and blocks are keyed by the sorted tuple of their colors, not by the
count vectors the library uses, so a defect in the library's window kernel
cannot hide in the oracle as well.
"""

from __future__ import annotations


def _first_pair(keys):
    """Smallest (first, second) occurrence pair over all repeated keys."""
    seen: dict = {}
    best = None
    for pos, key in keys:
        occurrences = seen.setdefault(key, [])
        if len(occurrences) < 2:
            occurrences.append(pos)
            if len(occurrences) == 2:
                pair = (occurrences[0], occurrences[1])
                if best is None or pair < best:
                    best = pair
    return best


def sequence_verdict(colors, m, cyclic):
    """(collision pair or None, window count) for a word read linearly or
    cyclically with window m."""
    colors = tuple(colors)
    n = len(colors)
    if cyclic:
        padded = colors + colors[: m - 1]
        starts = range(n)
    else:
        padded = colors
        starts = range(n - m + 1)
    pair = _first_pair((t, tuple(sorted(padded[t : t + m]))) for t in starts)
    return pair, len(starts)


def grid_verdict(cells, m, n, cyclic):
    """(collision pair or None, block count) for a grid given as rows."""
    rows, cols = len(cells), len(cells[0])
    if cyclic:
        xs, ys = range(rows), range(cols)
    else:
        xs, ys = range(rows - m + 1), range(cols - n + 1)

    def block(x0, y0):
        out = []
        for i in range(m):
            row = cells[(x0 + i) % rows]
            out.extend(row[(y0 + j) % cols] for j in range(n))
        return tuple(sorted(out))

    keys = (((x, y), block(x, y)) for x in xs for y in ys)
    return _first_pair(keys), len(xs) * len(ys)


def report_matches(report, verdict):
    """Does a library DistinguishabilityReport agree with an oracle verdict?"""
    pair, count = verdict
    return (
        report.ok == (pair is None)
        and report.collision == pair
        and report.window_count == count
    )
