"""Reference answers for the benchmark's output checks.

Everything here is written out from the source paper's statements, not
computed by the package, so a check compares the package against an
independent oracle.  No answer depends on the workload seed.

Secant varieties of P^m x P^n in bidegree (1, 2) are conjectured to be
defective exactly in three families:

  (a) unbalanced: C(n+2, 2) - n < s < min(m + 1, C(n+2, 2)), where the
      affine cone dimension is s (C(n+2, 2) + m + 1 - s);
  (b) (2, 2k+1, 3k+2), one short of expected;
  (c) (4, 3, 6), one short of expected.

For m = 0 the statement is the Alexander-Hirschowitz interpolation problem
for quadrics: s double points in P^n fail to impose independent conditions
exactly when 2 <= s <= n.
"""

from __future__ import annotations

import math

GRID = 8


def ambient(m: int, n: int) -> int:
    return (m + 1) * math.comb(n + 2, 2)


def expected(m: int, n: int, s: int) -> int:
    return min(s * (m + n + 1), ambient(m, n))


def s_range(m: int, n: int) -> range:
    """s from 1 to one past the filling bound ceil(N / (m + n + 1))."""
    return range(1, -(-ambient(m, n) // (m + n + 1)) + 2)


def conjecture(m: int, n: int, s: int) -> str:
    c = math.comb(n + 2, 2)
    if c - n < s < min(m + 1, c):
        return "defective:a"
    if m == 2 and n >= 3 and n % 2 == 1 and s == 3 * (n // 2) + 2:
        return "defective:b"
    if (m, n, s) == (4, 3, 6):
        return "defective:c"
    return "nondefective"


def true_rank(m: int, n: int, s: int) -> int:
    """Affine dimension of the s-th secant cone under the conjecture."""
    label = conjecture(m, n, s)
    if label == "defective:a":
        return s * (math.comb(n + 2, 2) + m + 1 - s)
    if label.startswith("defective"):
        return expected(m, n, s) - 1
    return expected(m, n, s)


def scan_cells() -> list[tuple[int, int, int]]:
    return [(m, n, s) for m in range(1, GRID + 1) for n in range(1, GRID + 1)
            for s in s_range(m, n)]


def prove_queries() -> list[tuple[int, int, int]]:
    return [(m, n, s) for m in range(0, GRID + 1) for n in range(1, GRID + 1)
            for s in s_range(m, n)]


def provable(m: int, n: int, s: int) -> bool:
    """Whether T(m, n; 1, 2; s) holds, so the prover must find a proof."""
    if m == 0:
        return not 2 <= s <= n
    return conjecture(m, n, s) == "nondefective"


# Labels the package is known to get wrong.  ``bounds.unbalanced_range``
# tests balance with m <= C(n+2, 2) - d instead of m <= C(n+2, 2) - n; the
# two agree only for n = 2, so the scan labels (8, 3, 8) nondefective and
# flags it ``agree: false`` although its measured rank 88 is the unbalanced
# dimension 8 (10 + 9 - 8).  A mismatch here is reported on every run but
# does not fail it; a mismatch anywhere else does.
KNOWN_LABEL_DEFECTS = frozenset({(8, 3, 8)})


# Certificate workload: every call must come back true.
CERTIFICATES = (
    [("certify_Q", (m, n)) for m in range(1, 10) for n in range(3, 10)]
    + [("certify_R_under", (m, n)) for m in range(1, 10) for n in range(m, 10)]
    + [("certify_R_over", (m, n)) for m in range(2, 10) for n in range(2, 10)]
    + [("certify_R2n", (n,)) for n in (3, 5, 7, 9)]
    + [("witness_Rmm", (m,)) for m in range(2, 10)]
)
STRASSEN_K = range(1, 8)
STRASSEN_SEEDS = 20
