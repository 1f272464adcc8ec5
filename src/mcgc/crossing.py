"""Interleaving two cyclic distinguishable sequences into one.

Splitting each input into words of its window size and alternating them
yields a cyclic sequence distinguishable at the combined window size,
provided the word counts share a factor d >= 2 that is coprime to both
quotients.  Folding such interleavings builds sequences for any window size
out of the window-2 and window-3 generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .construct import _require_length, build, cyclic_length, palettes
from .errors import (
    ComposeError,
    InputError,
    PaletteError,
    PlanError,
)
from .sequences import ColorSequence, _require_distinguishable

__all__ = [
    "CrossProductPlan",
    "plan_cross",
    "cross",
    "shift_palette",
    "split_window",
    "ComposeResult",
    "compose_for_m",
]

_MAX_COLORS = 48  # the default palette budget of compose_for_m and mcgc compose
# The most symbols the base words and stages of one composition may hold
# together: a fold's words sum to about its final length times its stages.
_MAX_BUILD = 2**23


@dataclass(frozen=True)
class CrossProductPlan:
    """Validated parameters for one interleaving."""

    M1: int
    m1: int
    M2: int
    m2: int
    d: int
    L: int

    @property
    def output_length(self) -> int:
        return (self.m1 + self.m2) * self.L

    def index_pairs(self) -> list[tuple[int, int]]:
        """Word-index pairs (first, second) visited, in emission order.

        Exactly the pairs (i, j) with i = j modulo d, each once.
        """
        a = self.M1 // self.m1
        b = self.M2 // self.m2
        return [(x % a, x % b) for x in range(self.L)]


def plan_cross(M1: int, m1: int, M2: int, m2: int) -> CrossProductPlan:
    """Check the interleaving preconditions; each failure is named."""
    for name, value in (("M1", M1), ("m1", m1), ("M2", M2), ("m2", m2)):
        if value < 1:
            raise PlanError("positive", f"{name} must be positive, got {value}")
    if M1 % m1 != 0:
        raise PlanError("m1-divides-M1", f"m1={m1} does not divide M1={M1}")
    if M2 % m2 != 0:
        raise PlanError("m2-divides-M2", f"m2={m2} does not divide M2={M2}")
    a, b = M1 // m1, M2 // m2
    d = math.gcd(a, b)
    if d < 2:
        raise PlanError(
            "common-factor", f"gcd({a}, {b}) = {d}; the word counts need a common factor >= 2"
        )
    if math.gcd(d, a // d) != 1:
        raise PlanError(
            "coprime-first", f"gcd(d={d}, (M1/m1)/d={a // d}) != 1"
        )
    if math.gcd(d, b // d) != 1:
        raise PlanError(
            "coprime-second", f"gcd(d={d}, (M2/m2)/d={b // d}) != 1"
        )
    return CrossProductPlan(M1, m1, M2, m2, d, math.lcm(a, b))


def shift_palette(seq: ColorSequence, offset: int) -> ColorSequence:
    """Relabel all colors upward by offset, widening the palette to match."""
    if offset < 0:
        raise InputError("palette shift must be non-negative")
    return ColorSequence(
        tuple(c + offset for c in seq.colors), seq.palette_size + offset, seq.mode
    )


def cross(s: ColorSequence, t: ColorSequence, plan: CrossProductPlan) -> ColorSequence:
    """Interleave word by word per the plan.

    The first operand lives on [k1]; the second must use only colors above
    k1 (shift it with shift_palette first).  The output is cyclic on the
    union palette and (m1+m2)-distinguishable, verified before return.
    """
    if s.mode != "cyclic" or t.mode != "cyclic":
        raise InputError("both operands must be cyclic sequences")
    if (len(s), len(t)) != (plan.M1, plan.M2):
        raise PlanError(
            "plan-mismatch",
            f"plan is for lengths ({plan.M1}, {plan.M2}), got ({len(s)}, {len(t)})",
        )
    k1 = s.palette_size
    if t.palette_size <= k1 or any(c <= k1 for c in t.colors):
        raise PaletteError(
            f"second operand must use colors strictly above the first palette 1..{k1}"
        )
    alphas = [s.colors[i : i + plan.m1] for i in range(0, plan.M1, plan.m1)]
    betas = [t.colors[j : j + plan.m2] for j in range(0, plan.M2, plan.m2)]
    out: list[int] = []
    for i, j in plan.index_pairs():
        out.extend(alphas[i])
        out.extend(betas[j])
    # the plan fixed every word's length, so the output has plan.output_length
    result = ColorSequence(tuple(out), t.palette_size, "cyclic")
    m = plan.m1 + plan.m2
    _require_distinguishable(result, m, f"interleaving failed {m}-distinguishability")
    return result


def _split_counts(m: int) -> tuple[int, int]:
    """How many 3s and 2s split_window(m) holds: the most 3s possible."""
    if m < 2:
        raise InputError("composition needs a window of at least 2")
    twos = -m % 3
    return (m - 2 * twos) // 3, twos


def split_window(m: int) -> list[int]:
    """m as 3s then 2s, the most 3s possible (-m % 3 twos), folded left."""
    threes, twos = _split_counts(m)
    return [3] * threes + [2] * twos


@dataclass(frozen=True)
class ComposeResult:
    sequence: ColorSequence
    split: tuple[int, ...]
    factor_palettes: tuple[int, ...]
    plans: tuple[CrossProductPlan, ...]


def _walk(parts: list[int], budget: int) -> dict:
    """Fold the factors left to right within budget colors, over each
    factor's palettes up to budget.  After each factor a state (colors
    used, folded length) maps to its palettes and plans.  The rest of the
    fold depends on the state alone, so it keeps only its lexicographically
    smallest palettes: states are visited in ascending palette order and
    the first to reach a state stays."""
    menus = [palettes(p, budget) for p in parts]
    need = sum(menu.start for menu in menus[1:])
    states = {
        (k, cyclic_length(parts[0], k)): ((k,), ())
        for k in menus[0]
        if k + need <= budget
    }
    cur_m = parts[0]
    for part, menu in zip(parts[1:], menus[1:]):
        need -= menu.start
        folded = {}
        for (used, length), (ks, plans) in states.items():
            for k in menu:
                if used + k + need > budget:
                    break
                try:
                    plan = plan_cross(length, cur_m, cyclic_length(part, k), part)
                except PlanError:
                    continue
                state = (used + k, plan.output_length)
                if state not in folded:
                    folded[state] = (ks + (k,), plans + (plan,))
        states = folded
        cur_m += part
    return states


def compose_for_m(m: int, max_colors: int = _MAX_COLORS, min_length: int = 1) -> ComposeResult:
    """Build a cyclic m-distinguishable sequence on the fewest colors the
    window-2 and window-3 constructions reach: one base word for m = 2 or 3,
    otherwise a left fold of interleavings of such words.

    Base words keep their native lengths (a cyclic word cannot generally be
    truncated and stay distinguishable), so the palette varies per factor
    instead (``_walk``).  The color budget starts at the least the factors
    need, and its spare colors double up to max_colors until some fold
    admits a valid plan at every stage and reaches min_length.  The pick is
    the fewest colors, then the shortest output, then the smaller palettes
    in order.  A pick longer than construct.MAX_LENGTH, or whose base words
    and stages hold more than _MAX_BUILD symbols together, raises
    ComposeError before anything is built; a window at which every pick
    would hold more, before the factors are listed or walked.
    """
    if min_length < 1:
        raise InputError("min_length must be at least 1")
    # A plan's output, (m1 + m2) * lcm(M1/m1, M2/m2), is never shorter than
    # M1 + M2, so each stage is at least the running sum of the least base
    # lengths, and those running sums bound every pick's build work.
    threes, twos = _split_counts(m)
    three, two = (cyclic_length(p, palettes(p, p).start) for p in (3, 2))
    work = three * threes * (threes + 1) // 2 + twos * three * threes + two * twos * (twos + 1) // 2
    if work > _MAX_BUILD:
        raise ComposeError(
            f"every window-{m} word takes at least {work} symbols to build, "
            f"more than the limit of {_MAX_BUILD}"
        )
    parts = split_window(m)
    least = budget = sum(palettes(p, max_colors).start for p in parts)
    while True:
        budget = min(budget, max_colors)
        walked = _walk(parts, budget)
        reached = [state for state in walked if state[1] >= min_length]
        if reached or budget == max_colors:
            break
        budget = 2 * budget - least + 1
    if not reached:
        raise ComposeError(
            f"no window-{m} word from split {'+'.join(map(str, parts))} "
            f"reaches length {min_length} within {max_colors} colors"
        )
    pick = min(reached)
    what = f"the window-{m} word picked for length {min_length}"
    _require_length(pick[1], what, ComposeError)
    ks, plans = walked[pick]
    work = sum(map(cyclic_length, parts, ks)) + sum(plan.output_length for plan in plans)
    if work > _MAX_BUILD:
        raise ComposeError(
            f"{what} takes {work} symbols to build, more than the limit of {_MAX_BUILD}"
        )
    seq = build(parts[0], ks[0])
    for part, k, plan in zip(parts[1:], ks[1:], plans):
        factor = shift_palette(build(part, k), seq.palette_size)
        seq = cross(seq, factor, plan)
    return ComposeResult(seq, tuple(parts), ks, plans)
