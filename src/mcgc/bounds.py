"""Window-count bounds, best-known lengths, minimal colors, and coding gain.

Everything here is exact integer arithmetic except the gains.  The published
gain tables truncate to three decimals rather than round (0.4347 prints as
0.434), so table emission truncates; the test suite pins this cell by cell.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import ClassVar, Iterable, Sequence

from .construct import cyclic_length, palettes
from .errors import InputError, UnsupportedParameterError

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


def multichoose(k: int, m: int) -> int:
    """Number of m-multisets over a k-color palette: C(k+m-1, m)."""
    if k < 1 or m < 0:
        raise InputError("need k >= 1 and m >= 0")
    return math.comb(k + m - 1, m)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, int(n**0.5) + 1))


def upper_bound(m: int, k: int, cyclic: bool = True) -> int:
    """Ceiling on the length of an m-distinguishable sequence on [k].

    Cyclic mode: the window count C(k+m-1, m), less k/m when m is a prime
    dividing k (a counting parity then forces at least k/m multisets to go
    unused).  Linear mode: window count plus m-1; the cyclic refinement
    rests on wraparound and does not transfer.
    """
    if m < 1 or k < 1:
        raise InputError("need m >= 1 and k >= 1")
    total = multichoose(k, m)
    if cyclic:
        if k % m == 0 and _is_prime(m):
            return total - k // m
        return total
    return total + m - 1


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


def _lower_candidates(m: int, k: int) -> list[tuple[int, str, bool]]:
    """(value, provenance, existence_only) for every family that applies.

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
        return [(k, "exact", False)]
    out: list[tuple[int, str, bool]] = []
    if m in (2, 3) and k in palettes(m, k):
        out.append((cyclic_length(m, k) + m - 1, "dense-cyclic-cut", False))
    if m not in _Y0:
        # general window size: only the subset-cycle family, and only under
        # its divisibility condition
        if k >= m and math.comb(k - 1, m - 1) % m == 0:
            out.append((math.comb(k, m) + m - 1, "ucycle-cut", True))
    elif k >= _Y0[m]:
        j = 0
        while math.gcd(k - j, m) != 1:
            j += 1
        provenance = "padded-mcycle-cut" if j else "mcycle-cut"
        out.append((multichoose(k - j, m) + (j + 1) * m - 1, provenance, m > 2))
    return out


def bound_record(m: int, k: int) -> BoundRecord:
    upper_linear = upper_bound(m, k, cyclic=False)  # refuses m or k below 1
    candidates = _lower_candidates(m, k)
    if not candidates:
        raise UnsupportedParameterError(
            f"no finite lower-bound formula covers m={m}, k={k}; "
            "known results there are asymptotic only"
        )
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
    reaches M and asks the families of _lower_candidates directly, skipping
    palettes none covers; only the answer is checked through bound_record.
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
        if any(value >= M for value, _, _ in _lower_candidates(m, k)):
            return bound_record(m, k).k
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


def gain_record(M: int, N: int, m: int, n: int) -> GainRecord:
    k_m = min_colors_1d(M, m)
    k_n = min_colors_1d(N, n)
    label_bits = math.log2(M) + math.log2(N)
    # a 1x1 grid needs no label bits either way; call that no gain
    gain = (math.log2(k_m) + math.log2(k_n)) / label_bits if label_bits else 1.0
    return GainRecord(M=M, N=N, m=m, n=n, k_M=k_m, k_N=k_n, gain=gain)


def coding_gain(M: int, N: int, m: int, n: int) -> float:
    """(log2 k_M + log2 k_N) / (log2 M + log2 N) with the minimal 1D colors."""
    return gain_record(M, N, m, n).gain


def gain_3dp(gain: float) -> float:
    """Truncate a gain to three decimals, matching the published tables."""
    return math.floor(gain * 1000) / 1000


def bounds_table(m: int, ks: Iterable[int]) -> list[BoundRecord]:
    return [bound_record(m, k) for k in sorted(set(ks))]


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
    """Gain records for every (M, N) in sizes x sizes, per block shape."""
    ordered = sorted(set(sizes))
    return [gain_record(M, N, m, n) for m, n in blocks for M in ordered for N in ordered]


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
