"""Skew-matrix rank and Pfaffian behaviour on V (x) S_2(W), dim V = 3."""

import hashlib

import numpy as np
import pytest

from secantdim.field import (PRIMARY_PRIME, PrimeField, SeededRng, derive_seed,
                             pfaffian, rank)
from secantdim.strassen import (SymTensor3, pfaffian_certificate,
                                random_points, random_tensor,
                                slices_from_points, strassen_matrix)
from secantdim.tensorspace import Point

F = PrimeField(PRIMARY_PRIME)


def test_symmetry_enforced():
    bad = np.zeros((4, 4), dtype=np.int64)
    bad[0, 1] = 1
    with pytest.raises(ValueError):
        SymTensor3(1, (bad, bad.copy(), bad.copy()), F)
    with pytest.raises(ValueError):
        SymTensor3(2, (bad, bad, bad), F)  # wrong slice size for k = 2


def test_matrix_is_skew_with_zero_diagonal_blocks():
    rng = SeededRng(derive_seed(31, "skew"), F)
    t = random_tensor(rng, 2)
    m = strassen_matrix(t).array
    w = 2 * 2 + 2
    assert m.shape == (3 * w, 3 * w)
    assert np.all((m + m.T) % F.p == 0)
    for b in range(3):
        assert np.all(m[b * w:(b + 1) * w, b * w:(b + 1) * w] == 0)
    assert np.array_equal(m[0:w, w:2 * w], t.slices[0])
    assert np.array_equal(m[0:w, 2 * w:3 * w], t.slices[1])
    assert np.array_equal(m[w:2 * w, 2 * w:3 * w], t.slices[2])


def test_single_point_rank_two():
    pt = Point((1, 2, 3), (1, 1, 0, 4))
    t = slices_from_points([pt], 1, F)
    assert rank(strassen_matrix(t)) == 2


def test_rank_bound_and_pfaffian_vanishing():
    for k in (1, 2, 3):
        w = 2 * k + 2
        s = 3 * k + 2
        rng = SeededRng(derive_seed(8, "pf", k), F)
        t = slices_from_points(random_points(rng, s, k), k, F)
        m = strassen_matrix(t)
        assert rank(m) <= 2 * s
        assert rank(m) < 3 * w  # strictly rank deficient: 2(3k+2) < 6k+6
        assert pfaffian(m) == 0


def test_generic_tensor_full_rank():
    for k in (1, 2, 3):
        rng = SeededRng(derive_seed(9, "gen", k), F)
        t = random_tensor(rng, k)
        m = strassen_matrix(t)
        assert rank(m) == t.order == 3 * (2 * k + 2)
        assert pfaffian(m) != 0


def test_one_more_point_fills():
    # s = 3k+3 decomposables give 2s = 6k+6 = full order, so the Pfaffian
    # no longer vanishes for a generic choice
    k = 1
    rng = SeededRng(derive_seed(10, "fill"), F)
    t = slices_from_points(random_points(rng, 3 * k + 3, k), k, F)
    assert pfaffian(strassen_matrix(t)) != 0


def test_pfaffian_certificate_wrapper():
    k = 2
    rng = SeededRng(derive_seed(11, "wrap"), F)
    pts = random_points(rng, 3 * k + 2, k)
    assert pfaffian_certificate(pts, k, F) == 0


def test_pfaffian_degree():
    # Pf(S_phi) is homogeneous of degree 3(k+1) in phi
    k = 1
    rng = SeededRng(derive_seed(12, "deg"), F)
    t = random_tensor(rng, k)
    lam = 1234567
    scaled = SymTensor3(k, tuple((lam * sl) % F.p for sl in t.slices), F)
    pf = pfaffian(strassen_matrix(t))
    pf_scaled = pfaffian(strassen_matrix(scaled))
    assert pf_scaled == pf * pow(lam, 3 * (k + 1), F.p) % F.p


def test_point_shape_checked():
    with pytest.raises(ValueError):
        slices_from_points([Point((1, 2), (1, 0, 0, 1))], 1, F)
    with pytest.raises(ValueError):
        slices_from_points([Point((1, 2, 3), (1, 0, 0))], 1, F)


@pytest.mark.parametrize("prime", [PRIMARY_PRIME, 3_037_000_493])
def test_slices_match_point_loop(prime):
    # against slice a = sum_i u_i[a] v_i v_i^T, point by point in Python ints
    field = PrimeField(prime)
    rng = SeededRng(derive_seed(13, "slices", prime), field)
    for k in range(0, 8):
        w = 2 * k + 2
        top = Point((prime - 1,) * 3, (prime - 1,) * w)
        for pts in (random_points(rng, 3 * k + 2, k), [top] * (3 * k + 2),
                    random_points(rng, 2, k) + [top], []):
            want = [[[sum(pt.u[a] * pt.v[i] * pt.v[j] for pt in pts) % prime
                      for j in range(w)] for i in range(w)] for a in range(3)]
            got = slices_from_points(pts, k, field)
            assert [sl.tolist() for sl in got.slices] == want, (k, len(pts))
        bad = random_points(rng, 2, k) + [Point((1, 2, 3), (1,) * (w - 1))]
        with pytest.raises(ValueError, match="wrong factor lengths"):
            slices_from_points(bad, k, field)


# md5 of the (u, v) of every point random_points draws below.  A change to
# the draw stream shows here: Pfaffians and ranks cannot show it, and the
# seed is meant to reproduce a run.
POINTS_PIN_MD5 = "7c90590ef4413a39b38298058f9ee57d"


def test_random_points_are_pinned():
    rng = SeededRng(derive_seed(5, "strassen-pin"), F)
    pts = [(pt.u, pt.v) for k in range(1, 8)
           for pt in random_points(rng, 3 * k + 2, k)]
    assert hashlib.md5(repr(pts).encode()).hexdigest() == POINTS_PIN_MD5
