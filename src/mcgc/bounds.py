"""Window-count bounds, best-known lengths, minimal colors, and coding gain.

Everything here is exact integer arithmetic except the gains.  The published
gain tables truncate to three decimals rather than round (0.4347 prints as
0.434), so table emission truncates; the test suite pins this cell by cell.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

from .construct import cyclic_length, palettes
from .errors import InputError, UnsupportedParameterError
from .sequences import _require_window_palette, multichoose, upper_bound

__all__ = [
    "multichoose",
    "upper_bound",
    "BoundRecord",
    "bound_record",
    "lower_bound",
    "min_colors_1d",
    "min_colors_2d",
    "GainRecord",
    "gain_record",
    "coding_gain",
    "gain_3dp",
    "bounds_table",
    "kmin_table",
    "gain_table",
    "render_bounds_csv",
    "render_kmin_csv",
    "render_gain_csv",
]


@dataclass(frozen=True)
class BoundRecord:
    """Best known bracket on the longest linear m-distinguishable length."""

    m: int
    k: int
    lower: int
    upper: int
    tight: bool
    lower_provenance: str
    upper_provenance: str
    existence_only: bool = False


# Smallest palette the multiset-cycle family is stated for, per window.
_Y0 = {2: 1, 3: 4, 4: 5, 6: 11}


def _families(m: int, k: int) -> list[tuple[str, bool, Callable[[], int]]]:
    """(provenance, existence_only, value) for every family that applies,
    each value a function, so that coverage is decided before any value.

    Provenance names the mechanism.  For the windows in _Y0, from palette
    _Y0[m] on, a cycle through every m-multiset on [k] is known when
    gcd(k, m) = 1 (shown to exist, not built, for m > 2).  "mcycle-cut" cuts
    it open and attains the ceiling; otherwise "padded-mcycle-cut" cuts open
    such a cycle on k - j colors, for the least j with gcd(k - j, m) = 1,
    and appends m copies of each of the j fresh colors.  "dense-cyclic-cut"
    cuts open the base word build(m, k) of window 2 or 3; "ucycle-cut" cuts
    a cycle of distinct m-subsets.
    """
    if m == 1:
        return [("exact", False, lambda: k)]
    out: list[tuple[str, bool, Callable[[], int]]] = []
    if m in (2, 3) and k in palettes(m, k):
        out.append(("dense-cyclic-cut", False, lambda: cyclic_length(m, k) + m - 1))
    if m not in _Y0:
        # general window size: only the subset-cycle family, and only under
        # its divisibility condition
        if k >= m and _divides_binomial(m, k - 1, m - 1):
            out.append(("ucycle-cut", True, lambda: math.comb(k, m) + m - 1))
    elif k >= _Y0[m]:
        j = 0
        while math.gcd(k - j, m) != 1:
            j += 1
        provenance = "padded-mcycle-cut" if j else "mcycle-cut"
        out.append((provenance, m > 2, lambda: multichoose(k - j, m) + (j + 1) * m - 1))
    return out


def _divides_binomial(m: int, n: int, r: int) -> bool:
    """Does m divide C(n, r), for 0 <= r <= n, without computing C(n, r)?

    Kummer's theorem: a prime p divides C(n, r) as often as adding r and
    n - r in base p carries, and the carry into digit i is
    n // p**i - r // p**i - (n - r) // p**i.  m is factored by trial
    division below 2**16; a cofactor left unfactored is tested on C(n, r).
    """

    def carries(p: int) -> int:
        total, q = 0, p
        while q <= n:
            total += n // q - r // q - (n - r) // q
            q *= p
        return total

    p = 2
    while p * p <= m and p < 2**16:
        e = 0
        while m % p == 0:
            m, e = m // p, e + 1
        if e and carries(p) < e:
            return False
        p += 1 if p == 2 else 2
    if p * p > m:  # what is left is 1 or a prime
        return m == 1 or carries(m) > 0
    return math.comb(n, r) % m == 0


def _refuse_unprintable_ceiling(m: int, k: int) -> None:
    """Raise the error that printing the cyclic ceiling of (m, k) would
    raise, when that ceiling is surely too long to print, before anything
    computes it or a number at least as long.

    The ceiling is at least half of C(n, r) >= (n/r)**r, with n = k + m - 1
    and r = min(m, k - 1), so it has over r*log10(n/r) - 1 digits.  Below
    two digits past the limit nothing is refused here, and the exact number
    is printed or refused when it is printed.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    r = min(m, k - 1)
    if not limit or r < 1:  # the ceiling is 1, or m or k is refused elsewhere
        return
    # as n >= 2r, r > 4 * limit alone means over r/4 digits, and keeps a huge r out of floats
    if r > 4 * limit or r * (math.log10(k + m - 1) - math.log10(r)) > limit + 2:
        str(10**limit)  # limit + 1 digits: the interpreter's own ValueError


def bound_record(m: int, k: int) -> BoundRecord:
    return _bound_record(m, k, printed=False)


def _bound_record(m: int, k: int, printed: bool) -> BoundRecord:
    """bound_record's row; a printed row whose ceiling is surely too long to
    print ends after the coverage test, before any number is computed.  (A
    kmin or gain row prints no ceiling, so min_colors_1d asks for no row.)"""
    _require_window_palette(m, k)  # first: _families divides by 0 at m = 0, loops at m = -1
    families = _families(m, k)
    if not families:  # refused before the ceiling, which can run to millions of digits
        raise UnsupportedParameterError(
            f"no finite lower-bound formula covers m={m}, k={k}; "
            "known results there are asymptotic only"
        )
    if printed:  # the row's upper is at least the cyclic ceiling
        _refuse_unprintable_ceiling(m, k)
    upper_linear = upper_bound(m, k, cyclic=False)
    candidates = [(value(), provenance, existence) for provenance, existence, value in families]
    value, provenance, existence = max(candidates, key=lambda c: (c[0], c[1]))
    if value > upper_linear:
        raise AssertionError(
            f"lower bound {value} exceeds ceiling {upper_linear} for m={m}, k={k}"
        )
    return BoundRecord(
        m=m,
        k=k,
        lower=value,
        upper=upper_linear,
        tight=value == upper_linear,
        lower_provenance=provenance,
        upper_provenance="window-count",
        existence_only=existence,
    )


def lower_bound(m: int, k: int) -> int:
    """Best known lower bound on the longest linear m-distinguishable
    length over [k] (largest applicable family)."""
    return bound_record(m, k).lower


# The largest palette min_colors_1d tries before giving up.
_K_LIMIT = 10_000_000


def min_colors_1d(M: int, m: int) -> int:
    """Smallest palette, up to _K_LIMIT, whose best known length bound
    reaches M.

    The scan starts at the least k whose linear ceiling (increasing in k)
    reaches M and asks _families' values one at a time, skipping palettes
    none covers; the answer's ceiling, which bound_record checks, is not computed.
    """
    if m < 1 or M < m:
        raise InputError("need M >= m >= 1")
    hi = 1  # gallop first: a ceiling far above M can run to millions of digits
    while hi < _K_LIMIT and upper_bound(m, hi, cyclic=False) < M:
        hi *= 2
    ks = range(1, _K_LIMIT + 1)
    start = bisect_left(ks, M, hi // 2, min(hi, _K_LIMIT), key=lambda k: upper_bound(m, k, False))
    if m != 1 and m not in _Y0:  # only the subset-cycle family, from k = m on
        start = max(start, m - 1)
    for k in ks[start:]:
        if any(value() >= M for _, _, value in _families(m, k)):
            return k
    raise UnsupportedParameterError(
        f"no palette up to {_K_LIMIT} reaches length {M} for window {m}"
    )


def min_colors_2d(M: int, N: int, m: int, n: int) -> int:
    """Product-code bound: color the two axes independently."""
    return min_colors_1d(M, m) * min_colors_1d(N, n)


@dataclass(frozen=True)
class GainRecord:
    """Bits-per-label reduction of the color protocol over unique labels.

    Computed from the product-code bound, so the gain is an upper bound on
    what the best 2D code could achieve.
    """

    M: int
    N: int
    m: int
    n: int
    k_M: int
    k_N: int
    gain: float
    provenance: ClassVar[str] = "product-code-bound"


def _gain_records(shapes: Iterable[tuple[int, int, int, int]]) -> Iterator[GainRecord]:
    """The record of each (M, N, m, n) in turn, each (size, side) pair
    searched once.  A failed search is not cached, so the first row that
    needs a failing pair raises its error, as one search per row would."""
    palette = functools.cache(min_colors_1d)
    for M, N, m, n in shapes:
        k_m = palette(M, m)
        k_n = palette(N, n)
        label_bits = math.log2(M) + math.log2(N)
        # a 1x1 grid needs no label bits either way; call that no gain
        gain = (math.log2(k_m) + math.log2(k_n)) / label_bits if label_bits else 1.0
        yield GainRecord(M=M, N=N, m=m, n=n, k_M=k_m, k_N=k_n, gain=gain)


def gain_record(M: int, N: int, m: int, n: int) -> GainRecord:
    return next(_gain_records([(M, N, m, n)]))


def coding_gain(M: int, N: int, m: int, n: int) -> float:
    """(log2 k_M + log2 k_N) / (log2 M + log2 N) with the minimal 1D colors."""
    return gain_record(M, N, m, n).gain


def gain_3dp(gain: float) -> float:
    """Truncate a gain to three decimals, matching the published tables."""
    return math.floor(gain * 1000) / 1000


def bounds_table(m: int, ks: Iterable[int]) -> list[BoundRecord]:
    return [_bound_record(m, k, printed=True) for k in sorted(set(ks))]


def kmin_table(
    ms: Sequence[int], sizes: Sequence[int]
) -> list[tuple[int, int, int]]:
    """(m, M, k) rows, ascending m then M."""
    return [
        (m, M, min_colors_1d(M, m))
        for m in sorted(set(ms))
        for M in sorted(set(sizes))
    ]


def gain_table(
    sizes: Sequence[int], blocks: Sequence[tuple[int, int]]
) -> list[GainRecord]:
    """Gain records for every (M, N) in sizes x sizes, per block shape.

    Each distinct (size, side) pair is searched once per call; the rows and
    the first error are those of one gain_record per row."""
    ordered = sorted(set(sizes))
    return list(_gain_records((M, N, m, n) for m, n in blocks for M in ordered for N in ordered))


# Per table: its CSV header, and per row its CSV line and its JSON object.
_TABLES = {
    "bounds": (
        "m,k,lower,upper,tight,lower_provenance,upper_provenance,existence_only\n",
        lambda r: f"{r.m},{r.k},{r.lower},{r.upper},{str(r.tight).lower()},"
        f"{r.lower_provenance},{r.upper_provenance},{str(r.existence_only).lower()}\n",
        vars,  # the fields, as asdict gives them, without its deep copy
    ),
    "kmin": ("m,M,k\n", lambda r: "{},{},{}\n".format(*r), lambda r: dict(m=r[0], M=r[1], k=r[2])),
    "gain": (
        "m,n,M,N,k_M,k_N,gain\n",
        lambda r: f"{r.m},{r.n},{r.M},{r.N},{r.k_M},{r.k_N},{gain_3dp(r.gain):.3f}\n",
        lambda r: vars(r) | {"gain": gain_3dp(r.gain)},
    ),
}
_JSON = json.JSONEncoder(sort_keys=True, indent=2)


def _table_chunks(table: str, rows: Iterable, fmt: str = "csv") -> Iterable[str]:
    """The named table as CSV, or as the bytes of ``json.dumps(objects,
    sort_keys=True, indent=2) + "\\n"``.  Every row is formatted before this
    returns, so a row that cannot be printed fails before any byte is written."""
    header, line, item = _TABLES[table]
    if fmt == "csv":
        return [header, *map(line, rows)]
    items = [_JSON.encode([item(r)])[1:-2] for r in rows]  # "\n  {...}", as in a list
    return chain(["["], items[:1], ("," + t for t in items[1:]), ["\n]\n" if items else "]\n"])


def render_bounds_csv(records: Iterable[BoundRecord]) -> str:
    return "".join(_table_chunks("bounds", records))


def render_kmin_csv(rows: Iterable[tuple[int, int, int]]) -> str:
    return "".join(_table_chunks("kmin", rows))


def render_gain_csv(records: Iterable[GainRecord]) -> str:
    return "".join(_table_chunks("gain", records))
