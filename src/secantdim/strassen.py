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

s points are drawn in one sample_points call, as u (s, 3) and v (s, 2k+2).
A zero u or v is kept as drawn: it only drops a term from phi, so Pf(S_phi)
still vanishes and rank S_phi <= 2s still holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import DenseMatrix, PrimeField, SeededRng, pfaffian
from .tensorspace import PointConstraint, sample_points


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


def slices_from_points(points: tuple[np.ndarray, np.ndarray], k: int,
                       field: PrimeField) -> SymTensor3:
    """phi = sum_i u_i (x) v_i^2 over the rows of points = (u, v), slice
    a = sum_i u_i[a] * v_i v_i^T."""
    u, v = points
    if u.shape[1:] != (3,) or v.shape != (len(u), 2 * k + 2):
        raise ValueError("points have wrong factor lengths for this k")
    p = field.p
    u, v = u % p, v % p
    outer = v[:, :, None] * v[:, None, :] % p
    # [a, i] = u_i[a] v_i v_i^T mod p, below p, so the sum over the s
    # points stays below s p < 2^63
    terms = u.T[:, :, None, None] * outer % p
    return SymTensor3(k, tuple(terms.sum(axis=1) % p), field)


def random_tensor(rng: SeededRng, k: int) -> SymTensor3:
    """Generic phi: three independent symmetric slices, in one stream call."""
    w = 2 * k + 2
    a = rng.elements(3 * w * w).reshape(3, w, w)
    return SymTensor3(k, tuple((a + a.transpose(0, 2, 1)) % rng.field.p),
                      rng.field)


def random_points(rng: SeededRng, count: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The u, shape (count, 3), and v, shape (count, 2k+2), of count generic
    points of P^2 x P^(2k+1)."""
    return sample_points(rng, (PointConstraint.GENERIC,) * count, 2, 2 * k + 1)


def strassen_matrix(t: SymTensor3) -> DenseMatrix:
    P, Q, R = t.slices
    z = np.zeros(P.shape, dtype=np.int64)
    # DenseMatrix reduces the whole stack mod p, -P, -Q and -R included
    return DenseMatrix(np.vstack([np.hstack([z, P, Q]), np.hstack([-P, z, R]),
                                  np.hstack([-Q, -R, z])]), t.field)


def pfaffian_certificate(points: tuple[np.ndarray, np.ndarray], k: int,
                         field: PrimeField) -> int:
    """Pf(S_phi) for phi the sum of the decomposable points (u, v)."""
    return pfaffian(strassen_matrix(slices_from_points(points, k, field)))
