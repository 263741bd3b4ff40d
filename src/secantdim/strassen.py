"""Strassen-type Pfaffian certificate for sigma_{3k+2} of P^2 x P^(2k+1)
in bidegree (1, 2).

A tensor phi in V (x) S_2(W) with dim V = 3 and dim W = 2k+2 has three
symmetric slices P, Q, R (the coefficient matrices of the three V
coordinates).  The associated skew matrix

    S_phi = [[ 0,  P, Q],
             [-P,  0, R],
             [-Q, -R, 0]]

has order 3(2k+2).  If phi is a sum of s decomposables u (x) v^2 then
rank S_phi <= 2s, so for s = 3k+2 the Pfaffian of S_phi (a polynomial of
degree 3(k+1) in phi) vanishes identically on the s-th secant cone, while a
generic phi gives full rank.  That separates the secant cone from the
generic orbit and certifies the defect of sigma_{3k+2}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .field import DenseMatrix, PrimeField, SeededRng, pfaffian
from .tensorspace import Point, PointConstraint, sample_point


@dataclass(frozen=True)
class SymTensor3:
    """phi in V (x) S_2(W), dim V = 3, dim W = 2k+2, as three symmetric slices."""

    k: int
    slices: tuple[np.ndarray, np.ndarray, np.ndarray]
    field: PrimeField

    def __post_init__(self) -> None:
        w = 2 * self.k + 2
        for sl in self.slices:
            if sl.shape != (w, w):
                raise ValueError(f"slice shape {sl.shape}, expected {(w, w)}")
            if np.any((sl - sl.T) % self.field.p != 0):
                raise ValueError("slices must be symmetric")

    @property
    def order(self) -> int:
        return 3 * (2 * self.k + 2)


def slices_from_points(points: Sequence[Point], k: int,
                       field: PrimeField) -> SymTensor3:
    """phi = sum_i u_i (x) v_i^2, slice a = sum_i u_i[a] * v_i v_i^T."""
    w = 2 * k + 2
    p = field.p
    if any(len(pt.u) != 3 or len(pt.v) != w for pt in points):
        raise ValueError("point has wrong factor lengths for this k")
    u = np.array([pt.u for pt in points], dtype=np.int64).reshape(-1, 3) % p
    v = np.array([pt.v for pt in points], dtype=np.int64).reshape(-1, w) % p
    outer = v[:, :, None] * v[:, None, :] % p
    # [a, i] = u_i[a] v_i v_i^T mod p, below p, so the sum over the s
    # points stays below s p < 2^63
    terms = u.T[:, :, None, None] * outer % p
    return SymTensor3(k, tuple(terms.sum(axis=1) % p), field)


def random_tensor(rng: SeededRng, k: int) -> SymTensor3:
    """Generic phi: three independent symmetric slices."""
    w = 2 * k + 2
    p = rng.field.p
    slices = []
    for _ in range(3):
        a = rng.elements(w * w).reshape(w, w)
        slices.append((a + a.T) % p)
    return SymTensor3(k, tuple(slices), rng.field)


def random_points(rng: SeededRng, count: int, k: int) -> list[Point]:
    """count generic points of P^2 x P^(2k+1)."""
    return [sample_point(rng, PointConstraint.GENERIC, 2, 2 * k + 1)
            for _ in range(count)]


def strassen_matrix(t: SymTensor3) -> DenseMatrix:
    p = t.field.p
    P, Q, R = t.slices
    w = P.shape[0]
    z = np.zeros((w, w), dtype=np.int64)
    top = np.hstack([z, P, Q])
    mid = np.hstack([(-P) % p, z, R])
    bot = np.hstack([(-Q) % p, (-R) % p, z])
    return DenseMatrix(np.vstack([top, mid, bot]), t.field)


def pfaffian_certificate(points: Sequence[Point], k: int,
                         field: PrimeField) -> int:
    """Pf(S_phi) for phi the sum of the given decomposable points."""
    return pfaffian(strassen_matrix(slices_from_points(points, k, field)))
