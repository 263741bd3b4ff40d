"""Numerology for secant dimension statements on P^m x P^n in bidegree (1, d).

A *statement* S(m, n; 1, d; s; t) asserts that s generic tangent spaces plus
t generic V-slices of the Segre-Veronese cone span a subspace of the expected
dimension min{s(m+n+1) + t(m+1), (m+1) C(n+d, d)}.  T(m, n; 1, d; s) is the
t = 0 case, i.e. the statement that the s-th secant variety has the expected
dimension (all dimensions here are affine, for the cones).

This module holds the closed-form side: ambient and expected dimensions, the
sub/super/equiabundant trichotomy, the certified thresholds for d = 2, the
unbalanced range, the conjectured defect list for d = 2, and the exact rank
of every m = 0 statement (the Alexander-Hirschowitz count), used for the
prover's base cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


@dataclass(frozen=True)
class Statement:
    """S(m, n; 1, d; s; t): s tangent spaces and t V-slices in general position."""

    m: int
    n: int
    d: int
    s: int
    t: int = 0

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ValueError("factor dimensions must be >= 0")
        if self.d < 1:
            raise ValueError("embedding degree must be >= 1")
        if self.s < 0 or self.t < 0:
            raise ValueError("point counts must be >= 0")

    @property
    def key(self) -> tuple[int, int, int, int, int]:
        return (self.m, self.n, self.d, self.s, self.t)


class Abundance(Enum):
    SUBABUNDANT = "sub"
    SUPERABUNDANT = "super"
    EQUIABUNDANT = "equi"


def ambient_dim(m: int, n: int, d: int) -> int:
    return (m + 1) * math.comb(n + d, d)


def span_count(st: Statement) -> int:
    """The naive row-count s(m+n+1) + t(m+1) before truncation."""
    return st.s * (st.m + st.n + 1) + st.t * (st.m + 1)


def expected_dim(st: Statement) -> int:
    return min(span_count(st), ambient_dim(st.m, st.n, st.d))


def classify(st: Statement) -> Abundance:
    lhs = span_count(st)
    rhs = ambient_dim(st.m, st.n, st.d)
    if lhs < rhs:
        return Abundance.SUBABUNDANT
    if lhs > rhs:
        return Abundance.SUPERABUNDANT
    return Abundance.EQUIABUNDANT


def is_subabundant(st: Statement) -> bool:
    """Inclusive: equiabundant statements count on both sides."""
    return span_count(st) <= ambient_dim(st.m, st.n, st.d)


def is_superabundant(st: Statement) -> bool:
    return span_count(st) >= ambient_dim(st.m, st.n, st.d)


def q_bound(m: int, n: int) -> int:
    """Largest s for which T(m, n; 1, 2; s) is subabundant."""
    return (m + 1) * math.comb(n + 2, 2) // (m + n + 1)


def s_under(m: int, n: int) -> int:
    """Certified subabundant threshold for d = 2: T(m, n; 1, 2; s) holds for
    all s <= s_under(m, n), provided m <= n + 2.  Clamped at 0 (for n = m - 2
    the formula vanishes exactly)."""
    k = n // 2
    if n % 2 == 0:
        val = (m + 1) * k - (m - 2) * (m + 1) // 2
    elif m % 2 == 1:
        val = (m + 1) * k - (m - 3) * (m + 1) // 2
    else:
        val = (m + 1) * k - ((m - 3) * (m + 1) + 1) // 2
    return max(val, 0)


def s_over(m: int, n: int) -> int:
    """Certified superabundant threshold for d = 2: T(m, n; 1, 2; s) holds for
    all s >= s_over(m, n), for m >= 1."""
    k = n // 2
    if n % 2 == 0:
        return (m + 1) * k + 1
    return (m + 1) * k + 3


def r_bound(m: int, n: int) -> int:
    """Threshold on n past which s_under(m, n) reaches the subabundant
    maximum q_bound(m, n).  Negative for m = 1, so the coincidence holds for
    every n there."""
    if m % 2 == 0 and n % 2 == 1:
        return m**3 - 2 * m
    return (m - 2) * (m + 1) ** 2 // 2


def unbalanced_range(m: int, n: int, d: int) -> tuple[int, int] | None:
    """Open interval (lo, hi) of defective s-values when (m, n; 1, d) is
    unbalanced, i.e. m > C(n+d, d) - n; None when balanced.

    In the unbalanced range the truncated expected dimension overshoots: the
    actual dimension is s (C(n+d,d) + m + 1 - s), reported by
    ``unbalanced_expected_dim``.
    """
    c = math.comb(n + d, d)
    if m <= c - n:
        return None
    lo = c - n
    hi = min(m + 1, c)
    if hi <= lo + 1:
        return None
    return lo, hi


def conjecture_verdict(m: int, n: int, s: int) -> str:
    """Classification of (m, n, s) for d = 2 by the conjectured defect list:
    (a) the unbalanced range, (b) (2, 2k+1, 3k+2), (c) (4, 3, 6)."""
    rng = unbalanced_range(m, n, 2)
    if rng is not None and rng[0] < s < rng[1]:
        return "defective:a"
    if m == 2 and n >= 3 and n % 2 == 1 and s == 3 * (n // 2) + 2:
        return "defective:b"
    if (m, n, s) == (4, 3, 6):
        return "defective:c"
    return "nondefective"


def unbalanced_expected_dim(m: int, n: int, d: int, s: int) -> int:
    """Corrected affine dimension of the s-th secant cone in the unbalanced
    defective range."""
    c = math.comb(n + d, d)
    return s * (c + m + 1 - s)


# Veronese double-point systems (n, d, s) that fail to impose independent
# conditions, beyond the quadric rule: the classical quartic surface, quartic
# threefold, quartic fourfold, and cubic fourfold cases.  In each, s(n+1)
# equals C(n+d, d) and the s tangent spaces span a hyperplane.
AH_EXCEPTIONS = frozenset({(2, 4, 5), (3, 4, 9), (4, 4, 14), (4, 3, 7)})


def m0_rank(n: int, d: int, s: int, t: int) -> int:
    """Exact rank of S(0, n; 1, d; s; t): the span of s generic tangent
    spaces and t generic points of the Veronese cone v_d(P^n).

    The tangent spaces span s(n+1) - C(s, 2) for d = 2 and s <= n+1 (the
    cone of symmetric matrices of rank <= s), a hyperplane in the four
    AH_EXCEPTIONS, and min(s(n+1), C(n+d, d)) otherwise (Alexander-
    Hirschowitz; d = 1 fills at once).  Each generic point adds one until
    the space is full.
    """
    c = math.comb(n + d, d)
    if d == 2 and s <= n + 1:
        span = s * (n + 1) - math.comb(s, 2)
    elif (n, d, s) in AH_EXCEPTIONS:
        span = c - 1
    else:
        span = min(s * (n + 1), c)
    return min(span + t, c)
