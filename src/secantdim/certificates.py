"""Rank certificates for secant dimension statements.

A configuration stacks row blocks in V (x) S_d(W): coordinate blocks
V (x) S_d(U) on windows U of W, tangent spaces at points drawn in order under
their constraints, and V-slices V (x) v^d at generic points, drawn last.  The
basic oracle stacks s generic tangent spaces and t V-slices and measures the
rank over F_p.  Rank is lower semicontinuous, so measuring the expected
dimension at one specialization proves the statement; a shortfall is only
evidence of deficiency, cross-checked over a second prime before it is reported.

A configuration's points come from one sample_points call on the seeded
stream (``Configuration.draw``).  A u or v that comes out zero is kept: the
configuration is then a specialization, so its rank is at most the general
one, a `true` verdict is still a proof, and a short rank is a failed trial
like any other.  The u and v stay stacked: the rows v^d and v^(d-1) f_j of
all tangent points are built in one pass, and the V-slices in one y_rows
call on their stacked v.  eval_pair's extra point is still drawn by
sample_point and built by tangent_rows, and the window columns still come
from subspace_rows, because the benchmark's tracer times drawing and row
building through those names.

The full stack is never eliminated.  Every block but the rows u (x) w,
w = v^(d-1) f_j, spans V (x) Y' for Y' its m = 0 (Veronese) block.  With
Y = sum Y', rank = (m+1) dim Y + rank(u (x) (w mod Y)): reduction is linear,
so the s(n+1) vectors w are reduced in S_d(W) once.  A window block S_d(U)
is spanned by monomials, so it is not stacked at all: its columns are
deleted from the other blocks and counted into dim Y.  The rows u (x) w are
not tensored out either.  A basis of V that starts with a maximal
independent set u_a of the points' u, picked last point first, makes point
a's rows e_a (x) W_a, W_a the span of its reduced w, and every other point's
rows sum_a c_ia e_a (x) w with c_ia the coordinates of its u.  So
    rank = (m+1) dim Y + sum_a dim W_a + rank(c_ia (w mod W_a)),
and only that last matrix, without its zero rows and columns, reaches the
rank kernel.  Dependent u make the set u_a smaller, but every u still lies
in its span, so the identity needs no other path.  Each step is an identity
for the specialized matrix; a `true` verdict is a proof.  One more point's
rows go through the same reductions, and then modulo that last matrix, so
one elimination gives the ranks without and with the point (``eval_pair``).

Four specialized configurations degenerate some points onto the two
codimension-2 windows of W and adjoin the full coordinate blocks
V (x) S_2(U) for the corresponding windows U.  Their expected ranks are the
exact counts that drive the two-step induction on n used by the prover:

* Q(m, n): both windows, m+1 tangents on each; expected full.
* R_under(m, n): first window, s_under(m,n)-(m+1) tangents on it, m+1 at
  general points; expected full minus 1 exactly when m is even and n is odd.
* R_over(m, n): same shape with s_over(m,n)-(m+1) on the window; expected full.
* R2n(n): the m = 2, n odd variant with 3*floor(n/2)-1 tangents on the
  window and 3 general; expected full.

The paper takes the general points off the window; here they are drawn
generic.  One that falls on the window gives a specialization, whose rank is
at most the general one, so reaching the expected rank there is still a proof.

``witness_Rmm`` checks one fully explicit configuration on P^m x P^m (no
randomness): u_i = e_i, v_0 = f_0, v_1 = f_1, v_i = i f_0 + f_1 + f_i, with
window span(f_2..f_m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import Statement, ambient_dim, expected_dim, s_over, s_under
from .field import (PRIMARY_PRIME, SECONDARY_PRIME, DenseMatrix, PrimeField,
                    SeededRng, derive_seed, gauss_jordan, rank, reduce_modulo,
                    reduce_rows)
# Configuration points are drawn and built in batches (sample_points,
# _span_rank), and y_rows builds all V-slices from their stacked v in one
# call.  sample_point and tangent_rows still make eval_pair's extra point, a
# single point, and subspace_rows the window columns: bench/tracing.py patches
# these names here to time drawing and row building.
from .tensorspace import (Point, PointConstraint, _on_v, power_rows,
                          sample_point, sample_points, subspace_rows,
                          tangent_rows, y_rows)

OUTCOME_TRUE = "true"
OUTCOME_DEFICIENT = "deficient"

# How often eval_statement_checked re-derives the seed when the two primes
# disagree before it gives up.
_MAX_RESEEDS = 3


@dataclass(frozen=True)
class Verdict:
    rank: int
    expected: int
    trials: int
    outcome: str

    @property
    def defect(self) -> int:
        return self.expected - self.rank

    def as_dict(self) -> dict:
        return {"rank": self.rank, "expected": self.expected,
                "defect": self.defect, "outcome": self.outcome}


@dataclass(frozen=True)
class Configuration:
    """Coordinate blocks on the windows, one tangent space per constraint in
    tangents, and slices V-slices at generic points."""

    m: int
    n: int
    d: int
    windows: tuple[PointConstraint, ...] = ()
    tangents: tuple[PointConstraint, ...] = ()
    slices: int = 0

    def draw(self, rng: SeededRng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The tangent points' u, shape (s, m+1), and v, shape (s, n+1), and
        the V-slice points' v, shape (t, n+1), from one sample_points call:
        tangent points first, then the V-slices at generic points.  A zero u
        or v is kept: the rank is then that of a specialization, at most the
        general one."""
        s = len(self.tangents)
        u, v = sample_points(rng, self.tangents
                             + (PointConstraint.GENERIC,) * self.slices,
                             self.m, self.n)
        return u[:s], v[:s], v[s:]


def statement_config(st: Statement) -> Configuration:
    return Configuration(st.m, st.n, st.d,
                         tangents=(PointConstraint.GENERIC,) * st.s, slices=st.t)


def _span_rank(m: int, n: int, d: int, field: PrimeField,
               windows: tuple[PointConstraint, ...], u: np.ndarray,
               v: np.ndarray, ys: np.ndarray,
               extra: Point | None = None) -> int | tuple[int, int] | None:
    """Rank of the window blocks, the tangent spaces at the points
    (u_i, v_i), the rows of u and v, and the V-slices at the rows v of ys,
    stacked.  The points' rows v_i^d and v_i^(d-1) f_j are built for all i at
    once, from v stacked.  Each block but the rows u_i (x) v_i^(d-1) f_j is
    V (x) Y' for Y' its m = 0 (Veronese) block; with Y the sum of the Y' and
    w_ij = v_i^(d-1) f_j mod Y in S_d(W), rank = (m+1) dim Y + rank(u_i (x) w_ij).

    A window block S_d(U) is spanned by monomials, so Y is those monomials
    plus the rest of Y with their columns deleted: the window columns are
    pivots of Y, and the representative of w_ij vanishing on Y's pivots is the
    same.

    The rows u_i (x) w_ij change basis on V.  Gauss-Jordan on the u, taken
    last to first, picks a maximal independent set u_a (for generic draws the
    last min(s, m+1), the certificates' general points) and the coordinates
    c_ia of every u_i in it.  In a basis of V that starts with the u_a, point
    a's rows are e_a (x) w_aj, spanning e_a (x) W_a, and every other row is
    sum_a c_ia e_a (x) w_ij.  Eliminating the e_a (x) W_a first gives
        rank(u_i (x) w_ij) = sum_a dim W_a + rank(c_ia (w_ij mod W_a)),
    the last matrix having one column block per a.  When the u are dependent
    the set is smaller, every u still lies in its span, and the identity is
    the same.  Zero rows and columns are left out of the rank.

    With an extra point (u', v') this returns the pair (rank, rank with the
    extra point's tangent space too), from the same reductions: the second is
    the first plus the rank of the extra rows reduced modulo the span.  Its
    v'^d and v'^(d-1) f_j are reduced modulo Y (not added to it), u' is the
    last column of the Gauss-Jordan on the u, giving u' = sum_a c_a u_a, and
    its m+n+2 rows e_a (x) v'^d and sum_a c_a e_a (x) v'^(d-1) f_j are reduced
    modulo the W_a with the other rows.  The last matrix is then eliminated
    with the extra rows below it, pivoting in its own rows: the pivots give
    its rank, and the rows left give the increment.  That needs the u_a to be
    a basis of V, so the pair is None when the u do not span V."""
    nmon = ambient_dim(0, n, d)  # dim S_d(W)
    s = len(u)
    p = field.p
    spans = [subspace_rows(w.window(n), 0, n, d, field) for w in windows]
    tangents = ([] if extra is None
                else [tangent_rows(Point((1,), extra.v), 0, n, d, field)])
    k = len(tangents)  # extra points: 0 or 1
    slices = [y_rows(ys, 0, n, d, field)] if len(ys) else []
    if any(mat.cols != nmon for mat in spans + tangents + slices):
        raise ValueError("configuration blocks disagree on columns")
    on_window = np.zeros(nmon, dtype=bool)
    for mat in spans:
        on_window |= mat.array.any(axis=0)
    keep = ~on_window
    vd, w = power_rows(v % p, n, d, p)
    gens = [vd[:, keep]] + [mat.array[:, keep] for mat in slices]
    w_rows = w[:, :, keep].reshape(s * (n + 1), int(keep.sum()))
    if extra is not None:  # its v'^d is reduced modulo Y, not added to it
        tan = tangents[0].array[:, keep]
        w_rows = np.vstack([w_rows, tan[1:], tan[:1]])
    dim_y, rest = reduce_rows(np.vstack(gens), w_rows, p)
    # the extra point's reduced rows: its w', then its v'^d
    rest, rest_extra = rest[:s * (n + 1)], rest[s * (n + 1):]
    dim_y += int(on_window.sum())
    # Gauss-Jordan on u^T with the points last to first: the pivot columns
    # are the basis points a, and column i then holds u_i's coordinates c_ia
    us = u[::-1] if extra is None else np.vstack([u[::-1], [extra.u]])
    coords = us.T % p
    picked = gauss_jordan(coords[None], p)[0]
    if extra is not None and not ((picked >= 0) & (picked < s)).all():
        return None  # the u do not span V, or u' would join the basis
    basis = s - 1 - picked[picked >= 0]
    coords = coords[picked >= 0, ::-1]  # u' first, then u_0 .. u_(s-1)
    coords, c_extra = coords[:, k:], coords[:, :k]
    blocks = rest.reshape(s, n + 1, rest.shape[1])[basis]
    pivots = gauss_jordan(blocks, p)
    others = np.ones(s, dtype=bool)
    others[basis] = False
    rows = rest[np.repeat(others, n + 1)]
    live = rows.any(axis=1)
    # c_ia reduced mod p, so every product stays below p^2 < 2^63
    stack = np.repeat(coords[:, others], n + 1, axis=1)[:, live, None] * rows[live]
    if extra is not None:
        # the rows e_b (x) v'^d, indexed [block a, row b] as stack is, and
        # block a of the row sum_a c_a e_a (x) w' is c_a w'
        diag = _on_v(rest_extra[-1:], m).reshape(m + 1, m + 1, -1)
        stack = np.concatenate([stack, diag.transpose(1, 0, 2),
                                c_extra[:, :, None] * rest_extra[:-1]], axis=1)
    stack %= p
    reduce_modulo(stack, blocks, pivots, p)
    # block a's pivot columns are zero now, and go with the other zero columns
    mat = stack.transpose(1, 0, 2).reshape(stack.shape[1],
                                           len(basis) * rest.shape[1])
    mat = mat[:, mat.any(axis=0)]
    split = len(mat) - k * (m + n + 2)
    mat, mat_extra = mat[:split], mat[split:]
    mat = mat[mat.any(axis=1)]
    known = (m + 1) * dim_y + int((pivots >= 0).sum())
    if extra is None:
        return known + rank(DenseMatrix(mat, field))
    dim_mat, left = reduce_rows(mat, mat_extra, p)
    known += dim_mat
    return known, known + rank(DenseMatrix(left, field))


def _at_most_expected(r: int, expected: int) -> None:
    if r > expected:
        raise ArithmeticError(
            f"rank {r} exceeds expected {expected}; semicontinuity violated")


def _measure(config: Configuration, expected: int, seed: int, trials: int,
             field: PrimeField, label: tuple) -> Verdict:
    """Evaluate a configuration up to `trials` times, stopping at success."""
    if trials < 1:
        raise ValueError("need at least one trial")
    best = -1
    for trial in range(trials):
        drawn = config.draw(SeededRng(derive_seed(seed, *label, trial), field))
        r = _span_rank(config.m, config.n, config.d, field, config.windows,
                       *drawn)
        _at_most_expected(r, expected)
        if r > best:
            best = r
        if r == expected:
            return Verdict(r, expected, trial + 1, OUTCOME_TRUE)
    return Verdict(best, expected, trials, OUTCOME_DEFICIENT)


def eval_pair(st: Statement, seed: int = 0,
              field: PrimeField = PrimeField()) -> tuple[int, int] | None:
    """Ranks for st and for st with one more point, from one elimination:
    st's own first draw in eval_statement, then that draw plus the first
    point of the first draw for s + 1 (sample_point, which draws that point
    again if its u or v is zero).  Each rank is exact for its
    specialization, so one that reaches its expected dimension proves its
    statement; a short one proves nothing.  None when the u of st's draw do
    not span V."""
    more = Statement(st.m, st.n, st.d, st.s + 1, st.t)
    drawn = statement_config(st).draw(
        SeededRng(derive_seed(seed, "S", *st.key, 0), field))
    extra = sample_point(SeededRng(derive_seed(seed, "S", *more.key, 0), field),
                         PointConstraint.GENERIC, st.m, st.n)
    pair = _span_rank(st.m, st.n, st.d, field, (), *drawn, extra)
    if pair is not None:
        for r, each in zip(pair, (st, more)):
            _at_most_expected(r, expected_dim(each))
    return pair


def eval_statement(st: Statement, seed: int = 0, trials: int = 3,
                   field: PrimeField = PrimeField()) -> Verdict:
    """Probabilistic-exact oracle for S(m, n; 1, d; s; t).

    A `true` outcome is a certificate.  A `deficient` outcome means every
    trial fell short of the expected dimension.
    """
    return _measure(statement_config(st), expected_dim(st), seed, trials,
                    field, ("S",) + st.key)


def eval_statement_checked(st: Statement, seed: int = 0, trials: int = 3,
                           field: PrimeField = PrimeField()) -> Verdict:
    """Like eval_statement, but a deficient verdict must be reproduced with
    the same rank over a second prime: the secondary prime, or the primary
    one when field is already the secondary.  On disagreement both
    measurements are redone with a re-derived seed; persistent disagreement
    raises."""
    second = PrimeField(PRIMARY_PRIME if field.p == SECONDARY_PRIME
                        else SECONDARY_PRIME)
    attempt_seed = seed
    for attempt in range(_MAX_RESEEDS + 1):
        v1 = eval_statement(st, attempt_seed, trials, field)
        if v1.outcome == OUTCOME_TRUE:
            return v1
        v2 = eval_statement(st, attempt_seed, trials, second)
        if v2.rank == v1.rank:
            return v1
        attempt_seed = derive_seed(seed, "reseed", attempt + 1)
    raise ArithmeticError(
        f"rank disagreement between primes persists for {st}")


class DomainError(ValueError):
    """A certificate's parameters lie outside its domain."""


def q_config(m: int, n: int) -> Configuration:
    if n < 3:
        raise DomainError("Q certificate needs n >= 3 (disjoint windows)")
    if m < 1:
        raise DomainError("Q certificate needs m >= 1")
    on_l, on_m = PointConstraint.ON_L, PointConstraint.ON_M
    return Configuration(m, n, 2, (on_l, on_m), (on_l,) * (m + 1) + (on_m,) * (m + 1))


def certify_Q(m: int, n: int, seed: int = 0, trials: int = 3,
              field: PrimeField = PrimeField()) -> Verdict:
    """Both coordinate blocks plus m+1 tangents on each window span everything."""
    expected = ambient_dim(m, n, 2)
    return _measure(q_config(m, n), expected, seed, trials, field, ("Q", m, n))


def _r_config(m: int, n: int, s: int) -> Configuration:
    on_l = s - (m + 1)
    if on_l < 0:
        raise ValueError(f"certificate needs s >= m + 1, got s = {s}")
    window = PointConstraint.ON_L
    return Configuration(m, n, 2, (window,),
                         (window,) * on_l + (PointConstraint.GENERIC,) * (m + 1))


def r_under_expected(m: int, n: int) -> int:
    """Full space, short by exactly one when m is even and n is odd."""
    drop = 1 if (m % 2 == 0 and n % 2 == 1) else 0
    return ambient_dim(m, n, 2) - drop


def certify_R_under(m: int, n: int, seed: int = 0, trials: int = 3,
                    field: PrimeField = PrimeField()) -> Verdict:
    """First window block, s_under(m,n)-(m+1) tangents on it, m+1 general."""
    if not (1 <= m <= n):
        raise DomainError("R_under certificate needs 1 <= m <= n")
    config = _r_config(m, n, s_under(m, n))
    return _measure(config, r_under_expected(m, n), seed, trials, field,
                    ("Runder", m, n))


def certify_R_over(m: int, n: int, seed: int = 0, trials: int = 3,
                   field: PrimeField = PrimeField()) -> Verdict:
    """Same shape at the superabundant threshold; expected full."""
    if m < 2 or n < 2:
        raise DomainError("R_over certificate needs m >= 2 and n >= 2")
    config = _r_config(m, n, s_over(m, n))
    return _measure(config, ambient_dim(m, n, 2), seed, trials, field,
                    ("Rover", m, n))


def certify_R2n(n: int, seed: int = 0, trials: int = 3,
                field: PrimeField = PrimeField()) -> Verdict:
    """The m = 2, n odd configuration at s = 3*floor(n/2)+2; expected full."""
    if n < 3 or n % 2 == 0:
        raise DomainError("R2n certificate needs odd n >= 3")
    config = _r_config(2, n, 3 * (n // 2) + 2)
    return _measure(config, ambient_dim(2, n, 2), seed, trials, field, ("R2n", n))


def witness_Rmm(m: int, field: PrimeField = PrimeField()) -> bool:
    """Deterministic spanning witness on P^m x P^m.

    Stacks V (x) S_2(span(f_2..f_m)) with the tangent spaces at the m+1
    explicit points (e_i, v_i), v_0 = f_0, v_1 = f_1, v_i = i f_0 + f_1 + f_i,
    and checks that they span all of V (x) S_2(W).  The small integer
    coefficients must be distinct and nonzero, hence the characteristic
    guard.
    """
    if m < 2:
        raise DomainError("witness needs m >= 2")
    if field.p <= m:
        raise DomainError("field characteristic must exceed m")
    u = np.eye(m + 1, dtype=np.int64)
    v = np.eye(m + 1, dtype=np.int64)
    v[2:, 0] = np.arange(2, m + 1)
    v[2:, 1] = 1
    ys = np.zeros((0, m + 1), dtype=np.int64)
    return (_span_rank(m, m, 2, field, (PointConstraint.ON_M,), u, v, ys)
            == ambient_dim(m, m, 2))
