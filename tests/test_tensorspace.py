"""Monomial bases, point sampling, tangent-space and slice row builders."""

import numpy as np
import pytest

from secantdim.field import (PRIMARY_PRIME, SECONDARY_PRIME, DenseMatrix,
                             PrimeField, SeededRng, derive_seed, rank)
from secantdim.bounds import ambient_dim
from secantdim.tensorspace import (MonomialBasis, Point, PointConstraint,
                                   _power, monomial_basis, multinomial,
                                   power_rows, sample_point, subspace_rows,
                                   tangent_rows, y_rows)

F = PrimeField(PRIMARY_PRIME)


def test_basis_descending_lex():
    assert monomial_basis(1, 2).exponents == ((2, 0), (1, 1), (0, 2))
    assert monomial_basis(2, 2).exponents == (
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    b = monomial_basis(3, 2)
    assert len(b) == 10
    assert all(sum(mu) == 2 for mu in b.exponents)
    assert list(b.exponents) == sorted(b.exponents, reverse=True)


def test_basis_index_roundtrip():
    b = monomial_basis(4, 3)
    for pos, mu in enumerate(b.exponents):
        assert b.index(mu) == pos
    with pytest.raises(KeyError):
        b.index((3, 0, 0, 0, 1))  # wrong total degree


def test_multinomial():
    assert multinomial((2, 0)) == 1
    assert multinomial((1, 1)) == 2
    assert multinomial((1, 1, 1)) == 6
    assert multinomial((2, 2)) == 6


def _eval_power(v, mu, p):
    """Reference in Python ints: multinomial(mu) * prod v_j^mu_j mod p."""
    c = multinomial(mu) % p
    for vj, e in zip(v, mu):
        c = c * pow(int(vj) % p, e, p) % p
    return c


def test_eval_power_and_power_row():
    # at m = 0 y_rows is the single row v^d, each entry carrying the
    # multinomial coefficient of its monomial:
    # (3 x + 5 y)^2 = 9 x^2 + 30 x y + 25 y^2
    row = y_rows(np.array([[3, 5]]), 0, 1, 2, F)
    assert row.array.tolist() == [[9, 30, 25]]
    for wrong in (np.array([[3, 5, 7]]), np.array([3, 5])):
        with pytest.raises(ValueError):
            y_rows(wrong, 0, 1, 2, F)


@pytest.mark.parametrize("prime", [PRIMARY_PRIME, 3_037_000_493])
def test_power_row_matches_monomial_loop(prime):
    field = PrimeField(prime)
    rng = SeededRng(derive_seed(16, "power", prime), field)
    for n in range(0, 7):
        for d in range(0, 5):
            basis = monomial_basis(n, d)
            for v in (rng.elements(n + 1).tolist(), [prime - 1] * (n + 1),
                      [0] * n + [prime - 1]):
                row = y_rows(np.array([v]), 0, n, d, field)
                got = row.array[0].tolist()
                assert got == [_eval_power(v, mu, prime)
                               for mu in basis.exponents], (n, d, v)


def test_window_index_helpers():
    # the two codimension-2 windows of W: U_L = {0..n-2}, U_M = {2..n}
    assert list(PointConstraint.ON_L.window(4)) == [0, 1, 2]
    assert list(PointConstraint.ON_M.window(4)) == [2, 3, 4]
    assert PointConstraint.ON_L.window(1) == []
    assert PointConstraint.ON_M.window(1) == []


def test_constraint_windows():
    assert list(PointConstraint.GENERIC.window(4)) == [0, 1, 2, 3, 4]
    # an empty window is a valid (zero) subspace block, but no point lies on it
    assert subspace_rows(PointConstraint.ON_L.window(1), 2, 1, 2, F).rows == 0
    rng = SeededRng(derive_seed(10, "empty"), F)
    for c in (PointConstraint.ON_L, PointConstraint.ON_M):
        with pytest.raises(ValueError):
            sample_point(rng, c, 2, 1)


def test_point_validation():
    with pytest.raises(ValueError):
        Point((0, 0), (1, 2))
    with pytest.raises(ValueError):
        Point((1,), ())
    Point((0, 1), (1, 0))  # fine: both factors nonzero


def test_sample_point_respects_constraint():
    rng = SeededRng(derive_seed(11, "pts"), F)
    for c in PointConstraint:
        pt = sample_point(rng, c, 2, 5)
        window = set(c.window(5))
        assert len(pt.u) == 3 and len(pt.v) == 6
        for j, vj in enumerate(pt.v):
            if j not in window:
                assert vj == 0
        assert any(vj != 0 for vj in pt.v)


def test_tangent_rows_hand_example():
    """m = n = 1, d = 2 at u = (1,2), v = (3,5), basis x^2, xy, y^2."""
    t = tangent_rows(Point((1, 2), (3, 5)), 1, 1, 2, F)
    assert t.array.tolist() == [
        [9, 30, 25, 0, 0, 0],
        [0, 0, 0, 9, 30, 25],
        [3, 5, 0, 6, 10, 0],
        [0, 3, 5, 0, 6, 10],
    ]
    # the n+1 derivative rows overlap the scaling direction: rank is m+n+1
    assert rank(t) == 3


def test_tangent_rank_generic():
    rng = SeededRng(derive_seed(13, "trank"), F)
    for m, n in ((0, 2), (1, 3), (2, 2), (3, 4)):
        pt = sample_point(rng, PointConstraint.GENERIC, m, n)
        assert rank(tangent_rows(pt, m, n, 2, F)) == m + n + 1


def _tangent_rows_by_monomial(point, m, n, d, p):
    """Reference: each row u (x) v^(d-1) f_j built monomial by monomial,
    in Python ints, below the m + 1 rows e_i (x) v^d."""
    basis, lower = monomial_basis(n, d), monomial_basis(n, d - 1)
    vd = [_eval_power(point.v, mu, p) for mu in basis.exponents]
    rows = [[0] * (i * len(basis)) + vd + [0] * ((m - i) * len(basis))
            for i in range(m + 1)]
    for j in range(n + 1):
        mon = [0] * len(basis)
        for nu in lower.exponents:
            mu = nu[:j] + (nu[j] + 1,) + nu[j + 1:]
            mon[basis.index(mu)] = _eval_power(point.v, nu, p)
        rows.append([int(ui) * c % p for ui in point.u for c in mon])
    return rows


@pytest.mark.parametrize("prime", [PRIMARY_PRIME, 3_037_000_493])
def test_tangent_rows_match_monomial_loop(prime):
    field = PrimeField(prime)
    rng = SeededRng(derive_seed(15, "tloop", prime), field)
    for n in range(0, 7):
        for d in (1, 2, 3):
            for m in (0, 1, 2):
                top = Point((prime - 1,) * (m + 1), (prime - 1,) * (n + 1))
                pts = [sample_point(rng, PointConstraint.GENERIC, m, n), top]
                if m == 0:
                    # the oracle passes u = (1,); other u at m = 0, and v
                    # with zeros, are built the same way
                    v = sample_point(rng, PointConstraint.GENERIC, m, n).v
                    pts += [Point((1,), v), Point((prime - 1,), v),
                            Point((int(rng.elements(1)[0]) or 1,),
                                  (0,) * n + (prime - 1,))]
                for pt in pts:
                    got = tangent_rows(pt, m, n, d, field).array.tolist()
                    assert got == _tangent_rows_by_monomial(pt, m, n, d, prime), \
                        (m, n, d, pt)


@pytest.mark.parametrize("prime", [PRIMARY_PRIME, 3_037_000_493])
def test_batched_power_matches_monomial_loop(prime):
    """_power over an (s, n+1) stack gives every row's v^d, and power_rows
    every row's v^(d-1) f_j, as the Python-int expansion does.  At the top
    modulus the all-(p-1) row makes every product of residues (p-1)^2, near
    2^63."""
    field = PrimeField(prime)
    rng = SeededRng(derive_seed(17, "batch", prime), field)
    for n in range(0, 6):
        for d in (1, 2, 3):
            basis = monomial_basis(n, d)
            for s in (0, 1, 4):
                vals = rng.elements(s * (n + 1)).reshape(s, n + 1)
                if s:
                    vals[-1] = prime - 1
                got = _power(vals, n, d, prime)
                assert got.shape == (s, len(basis)), (n, d, s)
                assert got.tolist() == [[_eval_power(v, mu, prime)
                                         for mu in basis.exponents]
                                        for v in vals.tolist()], (n, d, s)
                # a second leading axis, one v per last-axis row
                assert (_power(np.stack([vals, vals[::-1]]), n, d, prime)
                        == np.stack([got, got[::-1]])).all()
                vd, mon = power_rows(vals, n, d, prime)
                assert mon.shape == (s, n + 1, len(basis)), (n, d, s)
                assert vd.tolist() == got.tolist()
                assert mon.tolist() == [
                    _tangent_rows_by_monomial(Point((1,), tuple(v)), 0, n, d,
                                              prime)[1:]
                    for v in vals.tolist()], (n, d, s)


def test_y_rows_are_slice_block():
    y = y_rows(np.array([[3, 5]]), 1, 1, 2, F)
    assert y.array.tolist() == [[9, 30, 25, 0, 0, 0], [0, 0, 0, 9, 30, 25]]
    assert rank(y) == 2


@pytest.mark.parametrize("prime", [PRIMARY_PRIME, SECONDARY_PRIME, 3_037_000_493])
def test_y_rows_on_a_stack_are_the_per_row_blocks(prime):
    """y_rows on t stacked v gives row i * t + k = e_i (x) v_k^d, row i of
    the block of v_k alone; no v gives no rows."""
    field = PrimeField(prime)
    rng = SeededRng(derive_seed(18, "slices", prime), field)
    for m in (0, 2):
        for n in (1, 3):
            cols = ambient_dim(m, n, 2)
            for t in (0, 1, 3):
                vs = rng.elements(t * (n + 1)).reshape(t, n + 1)
                if t:
                    vs[-1] = prime - 1
                got = y_rows(vs, m, n, 2, field).array
                assert got.shape == ((m + 1) * t, cols), (m, n, t)
                for k in range(t):
                    block = y_rows(vs[k:k + 1], m, n, 2, field).array
                    assert (got[k::t] == block).all(), (m, n, t, k)


def test_subspace_rows_unit_block():
    sub = subspace_rows(PointConstraint.ON_L.window(4), 2, 4, 2, F)
    assert sub.rows == 3 * 6  # (m+1) * dim S_2(U_L) with dim U_L = 3
    assert sub.cols == ambient_dim(2, 4, 2)
    assert rank(sub) == sub.rows
    assert sorted(np.nonzero(sub.array)[1].tolist()) == sorted(
        set(np.nonzero(sub.array)[1].tolist()))  # one unit per row, no overlap


def test_tangent_on_l_mod_subspace():
    # tangent space at a point of L adds exactly 2 dimensions on top of
    # V (x) S_2(U_L), independent of m and n
    rng = SeededRng(derive_seed(14, "onl"), F)
    for m, n in ((1, 3), (2, 4), (2, 5), (3, 6)):
        sub = subspace_rows(PointConstraint.ON_L.window(n), m, n, 2, F)
        pt = sample_point(rng, PointConstraint.ON_L, m, n)
        tangent = tangent_rows(pt, m, n, 2, F)
        assert rank(DenseMatrix(np.vstack([sub.array, tangent.array]), F)) == sub.rows + 2


def test_degree_one_embedding():
    # d = 1 reduces to the Segre product: tangent rows live in V (x) W
    pt = Point((1, 1), (2, 3))
    t = tangent_rows(pt, 1, 1, 1, F)
    assert t.cols == 4
    assert rank(t) == 3
