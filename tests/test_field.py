"""Prime-field arithmetic, rank, determinant, Pfaffian, seeded randomness."""

import numpy as np
import pytest

from secantdim.field import (PRIMARY_PRIME, SECONDARY_PRIME, DenseMatrix,
                             PrimeField, SeededRng, derive_seed, det, pfaffian,
                             rank, vstack)

F = PrimeField(PRIMARY_PRIME)


def test_prime_constants():
    sympy = pytest.importorskip("sympy")
    assert PRIMARY_PRIME == 2 ** 31 - 1
    assert sympy.isprime(PRIMARY_PRIME)
    assert sympy.isprime(SECONDARY_PRIME)
    assert SECONDARY_PRIME >= 2 ** 31 - 1
    assert SECONDARY_PRIME != PRIMARY_PRIME
    # products of two residues must stay below 2**63 for int64 arithmetic
    assert (SECONDARY_PRIME - 1) ** 2 < 2 ** 63


def test_field_validation():
    with pytest.raises(ValueError):
        PrimeField(2 ** 31 - 19)  # below the int64-safety floor
    with pytest.raises(ValueError):
        PrimeField(2 ** 31 + 1)  # composite
    with pytest.raises(ValueError):
        PrimeField(3_037_000_507)  # prime but above the ceiling


def test_rank_basics():
    m = F.matrix([[1, 2], [2, 4]])
    assert rank(m) == 1
    assert rank(F.matrix([[0, 0], [0, 0]])) == 0
    assert rank(F.matrix([[1, 0, 3], [0, 1, 4]])) == 2
    ident = F.matrix(np.eye(6, dtype=np.int64))
    assert rank(ident) == 6
    assert rank(F.matrix(np.zeros((0, 5), dtype=np.int64))) == 0


def test_rank_random_products():
    # rank of A(r x k) @ B(k x c) with random full-rank factors is k
    rng = SeededRng(derive_seed(99, "rankprod"), F)
    for k in (1, 3, 5):
        a = rng.elements((8, k)).astype(object)
        b = rng.elements((k, 9)).astype(object)
        m = DenseMatrix((a @ b) % F.p, F)
        assert rank(m) == k


def test_vstack_rank_additivity():
    rng = SeededRng(derive_seed(3, "vstack"), F)
    top = DenseMatrix(rng.elements((4, 10)), F)
    bottom = DenseMatrix(rng.elements((3, 10)), F)
    stacked = vstack([top, bottom])
    assert stacked.rows == 7 and stacked.cols == 10
    assert rank(stacked) <= rank(top) + rank(bottom)


def test_det_sign_and_singular():
    assert det(F.matrix([[2, 0], [0, 3]])) == 6
    assert det(F.matrix([[0, 1], [1, 0]])) == F.p - 1
    assert det(F.matrix([[1, 2], [2, 4]])) == 0


def test_pfaffian_closed_forms():
    a = 7
    m2 = F.matrix([[0, a], [F.p - a, 0]])
    assert pfaffian(m2) == a
    # order 4: Pf = a*f - b*e + c*d
    vals = dict(a=3, b=5, c=11, d=2, e=9, f=4)
    m4 = [[0, vals["a"], vals["b"], vals["c"]],
          [-vals["a"], 0, vals["d"], vals["e"]],
          [-vals["b"], -vals["d"], 0, vals["f"]],
          [-vals["c"], -vals["e"], -vals["f"], 0]]
    expect = vals["a"] * vals["f"] - vals["b"] * vals["e"] + vals["c"] * vals["d"]
    assert pfaffian(F.matrix(m4)) == expect % F.p


def test_pfaffian_odd_order_rejected():
    with pytest.raises(ValueError):
        pfaffian(F.matrix([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]))


def _random_skew(rng, order):
    upper = rng.elements((order, order))
    m = (np.triu(upper, 1) - np.triu(upper, 1).T) % F.p
    return DenseMatrix(m, F)


def test_pfaffian_squares_to_det():
    rng = SeededRng(derive_seed(17, "pfdet"), F)
    for trial in range(200):
        order = 2 * (1 + trial % 6)  # orders 2 through 12
        m = _random_skew(rng, order)
        pf = pfaffian(m)
        assert (pf * pf) % F.p == det(m)


def test_pfaffian_zero_iff_singular():
    rng = SeededRng(derive_seed(23, "pfsing"), F)
    for _ in range(50):
        m = _random_skew(rng, 8)
        assert (pfaffian(m) == 0) == (rank(m) < 8)


def test_rank_agrees_across_primes():
    g = PrimeField(SECONDARY_PRIME)
    rng = SeededRng(derive_seed(5, "xprime"), F)
    for _ in range(20):
        raw = rng.elements((6, 4)) % 1000  # small entries embed in both fields
        assert rank(DenseMatrix(raw, F)) == rank(DenseMatrix(raw.copy(), g))


def test_seeded_rng_deterministic():
    first = SeededRng(42, F).elements(5).tolist()
    assert first == [191664963, 1662057957, 1405681631, 942484272, 929893137]
    assert SeededRng(42, F).elements(5).tolist() == first
    assert SeededRng(43, F).elements(5).tolist() != first


def test_nonzero_vector():
    rng = SeededRng(derive_seed(1, "nz"), F)
    for _ in range(100):
        v = rng.nonzero_vector(4)
        assert v.shape == (4,) and np.any(v != 0)


def test_derive_seed_frozen_values():
    assert derive_seed(0) == 8493733112532773764
    assert derive_seed(0, "a") == 5635702516447729777
    assert derive_seed(7, "S", 2, 3, 1) == 8243510308044160503


def test_derive_seed_separates_parts():
    # concatenation must not collide: (1, 23) vs (12, 3)
    assert derive_seed(0, 1, 23) != derive_seed(0, 12, 3)
    assert derive_seed(0, "ab") != derive_seed(0, "a", "b")
