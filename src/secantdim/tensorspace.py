"""Coordinate model of V (x) S_d(W) for the Segre-Veronese variety of
P(V) x P(W) = P^m x P^n embedded by O(1, d).

Conventions, fixed once for the whole package:

* V has basis e_0..e_m, W has basis f_0..f_n.
* S_d(W) is written in the monomial basis {f^mu : |mu| = d}, ordered by
  descending lexicographic order on exponent vectors (graded lex within the
  fixed degree d), so for n = 1, d = 2 the order is (2,0), (1,1), (0,2).
* A power v^d expands as sum_mu multinomial(d; mu) v^mu f^mu.
* Columns of every matrix are indexed by pairs (i, mu) flattened as
  i * len(basis) + index(mu), i.e. V-index major.
* Rows are laid out the same way: a block V (x) span(b_0..b_(r-1)) of rows
  b_k in S_d(W) has row i * r + k = e_i (x) b_k.  ``_on_v`` is the one place
  that layout is built, for the rows e_i (x) v^d of a tangent space, the
  V-slices (``y_rows``) and the window blocks (``subspace_rows``).

The affine tangent space to the cone over the variety at p = [u (x) v^d] is
spanned by the rows e_i (x) v^d (i = 0..m) and u (x) v^(d-1) f_j (j = 0..n);
``tangent_rows`` materializes exactly those m + n + 2 rows, of which at most
m + n + 1 are independent.

Two distinguished codimension-2 coordinate subspaces of W recur in the
certificates: span(f_0..f_{n-2}) and span(f_2..f_n).  ``PointConstraint``
names them (ON_L, ON_M, next to GENERIC for all of W), and its ``window``
method is the one place their W-indices are spelled out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .field import DenseMatrix, PrimeField, SeededRng


@dataclass(frozen=True)
class MonomialBasis:
    """Degree-d monomials in n+1 variables, descending lex order."""

    n: int
    d: int
    exponents: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.exponents)

    def index(self, mu: tuple[int, ...]) -> int:
        return self._index_map[mu]

    @cached_property
    def _index_map(self) -> dict[tuple[int, ...], int]:
        return {mu: i for i, mu in enumerate(self.exponents)}


def _exponents(nvars: int, d: int):
    if nvars == 1:
        yield (d,)
        return
    for e0 in range(d, -1, -1):
        for rest in _exponents(nvars - 1, d - e0):
            yield (e0,) + rest


@lru_cache(maxsize=None)
def monomial_basis(n: int, d: int) -> MonomialBasis:
    if n < 0 or d < 0:
        raise ValueError("monomial basis needs n >= 0 and d >= 0")
    return MonomialBasis(n, d, tuple(_exponents(n + 1, d)))


@lru_cache(maxsize=None)
def _lower_index(n: int, d: int) -> np.ndarray:
    """[j, pos]: index in degree d - 1 of the pos-th monomial mu of degree d
    minus e_j, or len(monomial_basis(n, d - 1)) when mu_j = 0."""
    lower = monomial_basis(n, d - 1)
    table = np.array([[lower.index(mu[:j] + (mu[j] - 1,) + mu[j + 1:])
                       if mu[j] else len(lower)
                       for mu in monomial_basis(n, d).exponents]
                      for j in range(n + 1)], dtype=np.intp)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _window_index(idx: tuple[int, ...], n: int, d: int) -> np.ndarray:
    """Indices in degree d of the monomials in the variables f_i, i in idx
    (sorted), in the descending lex order of their exponents on idx."""
    index = monomial_basis(n, d).index
    table = np.array([index(tuple(dict(zip(idx, smu)).get(j, 0)
                                  for j in range(n + 1)))
                      for smu in monomial_basis(len(idx) - 1, d).exponents],
                     dtype=np.intp)
    table.setflags(write=False)
    return table


def multinomial(mu: Sequence[int]) -> int:
    total = 0
    out = 1
    for e in mu:
        total += e
        out *= math.comb(total, e)
    return out


@lru_cache(maxsize=None)
def _power_tables(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables of the degree-d monomials in n+1 variables:
    [k, pos] is the k-th variable of the pos-th monomial, counted with
    multiplicity, and [pos] is its multinomial coefficient."""
    exponents = monomial_basis(n, d).exponents
    variables = np.array([[j for j, e in enumerate(mu) for _ in range(e)]
                          for mu in exponents], dtype=np.intp)
    variables = variables.reshape(len(exponents), d).T
    coeffs = np.array([multinomial(mu) for mu in exponents], dtype=np.int64)
    for table in (variables, coeffs):
        table.setflags(write=False)
    return variables, coeffs


def _power(vals: np.ndarray, n: int, d: int, p: int) -> np.ndarray:
    """Coefficients of v^d for the residues vals of v, in the monomial
    basis: multinomial(mu) * v^mu mod p.  vals may stack several v on
    leading axes, one v per last-axis row.  Every product is of two
    residues, so it stays below p^2 < 2^63."""
    variables, coeffs = _power_tables(n, d)
    out = np.empty(vals.shape[:-1] + coeffs.shape, dtype=np.int64)
    out[...] = coeffs % p
    for var in variables:
        out *= vals[..., var]
        out %= p
    return out


def power_rows(vals: np.ndarray, n: int, d: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """v^d and the rows v^(d-1) f_j, j = 0..n, for the residues vals of v,
    with one v per last-axis row of vals: shapes (..., N) and (..., n+1, N),
    N = dim S_d(W).  The coefficient of f^mu in v^(d-1) f_j is
    multinomial(d-1; mu - e_j) v^(mu - e_j)."""
    low = _power(vals, n, d - 1, p)
    # a trailing 0, which the table's missing monomials read
    low = np.concatenate([low, np.zeros(low.shape[:-1] + (1,), dtype=np.int64)],
                         axis=-1)
    return _power(vals, n, d, p), low[..., _lower_index(n, d)]


def _on_v(rows: np.ndarray, m: int) -> np.ndarray:
    """The rows e_i (x) b_k spanning V (x) span(b_k), for the rows b_k of
    rows, shape (r, N): row i * r + k is e_i (x) b_k, shape
    ((m+1) r, (m+1) N)."""
    r, nmon = rows.shape
    out = np.zeros((m + 1, r, m + 1, nmon), dtype=np.int64)
    out[np.arange(m + 1), :, np.arange(m + 1)] = rows
    return out.reshape((m + 1) * r, (m + 1) * nmon)


class PointConstraint(Enum):
    """Coordinate-subspace constraint on the W-factor of a sample point."""

    GENERIC = "generic"
    ON_L = "on_L"                  # v in span(f_0 .. f_{n-2})
    ON_M = "on_M"                  # v in span(f_2 .. f_n)

    def window(self, n: int) -> list[int]:
        """Indices of the W-coordinates the constraint leaves free; empty
        when the window is the zero subspace (ON_L, ON_M for n <= 1)."""
        if self is PointConstraint.ON_L:
            return list(range(n - 1))
        if self is PointConstraint.ON_M:
            return list(range(2, n + 1))
        return list(range(n + 1))


@dataclass(frozen=True)
class Point:
    """A point [u (x) v^d] of the cone, stored as residue tuples."""

    u: tuple[int, ...]
    v: tuple[int, ...]

    def __post_init__(self) -> None:
        if not any(self.u) or not any(self.v):
            raise ValueError("point factors must be nonzero")


def sample_points(rng: SeededRng, constraints: Sequence[PointConstraint],
                  m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The u, shape (k, m+1), and v, shape (k, n+1), of one point per
    constraint, from one call on the stream: each point draws its u, then
    its v on its window (zero off it), in order.  A zero u or v is kept as
    drawn.  Raises ValueError for a constraint with an empty window."""
    kinds = list(dict.fromkeys(constraints))
    # the entries a point of each kind draws into its u and its v
    drawn_by = np.zeros((len(kinds), m + n + 2), dtype=bool)
    drawn_by[:, :m + 1] = True
    for row, kind in zip(drawn_by, kinds):
        window = kind.window(n)
        if not window:
            raise ValueError(f"constraint {kind.value} infeasible for n = {n}")
        row[[m + 1 + j for j in window]] = True
    # every point's entries, in row-major order: the draw order
    mask = drawn_by[[kinds.index(kind) for kind in constraints]]
    drawn = np.zeros(mask.shape, dtype=np.int64)
    drawn[mask] = rng.elements(int(mask.sum()))
    return drawn[:, :m + 1], drawn[:, m + 1:]


def sample_point(rng: SeededRng, constraint: PointConstraint, m: int, n: int) -> Point:
    """One point of sample_points, drawn again while its u or v is zero."""
    while True:
        u, v = sample_points(rng, (constraint,), m, n)
        if u.any() and v.any():
            return Point(tuple(u[0].tolist()), tuple(v[0].tolist()))


def tangent_rows(point: Point, m: int, n: int, d: int, field: PrimeField) -> DenseMatrix:
    """The m + n + 2 spanning rows of the affine tangent space at [u (x) v^d].

    Rows 0..m are e_i (x) v^d; rows m+1..m+n+1 are u (x) v^(d-1) f_j.
    """
    if len(point.u) != m + 1 or len(point.v) != n + 1:
        raise ValueError("point has wrong factor lengths")
    if d < 1:
        raise ValueError("embedding degree must be >= 1")
    p = field.p
    vd, mon = power_rows(np.array(point.v, dtype=np.int64) % p, n, d, p)
    u = np.array(point.u, dtype=np.int64) % p
    # products of residues stay below p^2 < 2^63; DenseMatrix reduces the
    # whole stack mod p once
    derivs = (mon[:, None, :] * u[None, :, None]).reshape(n + 1, -1)
    return DenseMatrix(np.vstack([_on_v(vd[None], m), derivs]), field)


def y_rows(vs: np.ndarray, m: int, n: int, d: int, field: PrimeField) -> DenseMatrix:
    """Rows spanning the V-slices V (x) v^d at the rows v of vs, shape
    (t, n+1): row i * t + k is e_i (x) v_k^d."""
    if vs.ndim != 2 or vs.shape[1] != n + 1:
        raise ValueError("slice points have wrong length")
    p = field.p
    return DenseMatrix(_on_v(_power(vs % p, n, d, p), m), field)


def subspace_rows(indices: Sequence[int], m: int, n: int, d: int,
                  field: PrimeField) -> DenseMatrix:
    """Unit rows spanning V (x) S_d(U) for U = span(f_i : i in indices).

    Row count is (m+1) * C(len(indices)-1+d, d); the rows are distinct unit
    vectors, so the block always has full row rank.
    """
    idx = tuple(sorted(set(int(i) for i in indices)))
    if any(i < 0 or i > n for i in idx):
        raise ValueError("subspace indices outside 0..n")
    window = _window_index(idx, n, d) if idx else []
    units = np.eye(len(monomial_basis(n, d)), dtype=np.int64)[window]
    return DenseMatrix(_on_v(units, m), field)
