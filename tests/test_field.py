"""Prime-field arithmetic, rank, determinant, Pfaffian, seeded randomness."""

import math

import numpy as np
import pytest

from secantdim.field import (PRIMARY_PRIME, SECONDARY_PRIME, DenseMatrix,
                             PrimeField, SeededRng, _eliminate, _sub_product,
                             derive_seed, det, gauss_jordan, pfaffian, rank,
                             reduce_modulo, reduce_rows)

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
    stacked = DenseMatrix(np.vstack([top.array, bottom.array]), F)
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


# -- the top supported prime, against pure-Python integer elimination ---------
#
# At p = 3037000493 a product of two residues p - 1 is within 2^61 of 2^63, so
# an int64 step that multiplies before reducing, or lets a difference of two
# such products through, shows up as a wrong rank, determinant or Pfaffian.

TOP = PrimeField(3_037_000_493)


def _py_echelon(rows, p):
    """Reduced row echelon form with Python ints: (rows, pivot columns)."""
    rows = [[x % p for x in row] for row in rows]
    out, pivots = [], []
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in rows if r[col]), None)
        if piv is None:
            continue
        rows.remove(piv)
        inv = pow(piv[col], p - 2, p)
        piv = [x * inv % p for x in piv]
        rows = [[x - r[col] * y for x, y in zip(r, piv)] for r in rows]
        rows = [[x % p for x in r] for r in rows]
        out = [[(x - r[col] * y) % p for x, y in zip(r, piv)] for r in out]
        out.append(piv)
        pivots.append(col)
    return out, pivots


def _py_det(rows, p):
    rows = [list(r) for r in rows]
    result = 1
    for col in range(len(rows)):
        piv = next((i for i in range(col, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            result = -result
        result = result * rows[col][col] % p
        inv = pow(rows[col][col], p - 2, p)
        for i in range(col + 1, len(rows)):
            f = rows[i][col] * inv
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[col])]
    return result % p


def _py_pfaffian(rows, p):
    """Expansion along the first row."""
    if not rows:
        return 1
    total = 0
    for j in range(1, len(rows)):
        keep = [k for k in range(1, len(rows)) if k != j]
        minor = [[rows[a][b] for b in keep] for a in keep]
        total += (-1) ** (j + 1) * rows[0][j] * _py_pfaffian(minor, p)
    return total % p


def _top_matrices(rng, shape):
    p = TOP.p
    yield np.full(shape, p - 1, dtype=np.int64)
    yield p - 1 - rng.integers(0, 3, size=shape)  # -1, -2, -3: full rank
    yield rng.integers(0, p, size=shape)


def test_top_prime_kernels_match_python_ints():
    p = TOP.p
    rng = np.random.default_rng(31)
    # the wide shapes span two or three panels, so they reach the trailing
    # float64 product at full panel depth
    for shape in ((7, 7), (5, 9), (9, 4), (40, 70), (70, 40), (70, 70)):
        for arr in _top_matrices(rng, shape):
            rows = arr.tolist()
            assert rank(DenseMatrix(arr, TOP)) == len(_py_echelon(rows, p)[1])
            if shape[0] == shape[1]:
                assert det(DenseMatrix(arr, TOP)) == _py_det(rows, p)
    for arr in _top_matrices(rng, (8, 8)):
        skew = (np.triu(arr, 1) - np.triu(arr, 1).T) % p
        assert pfaffian(DenseMatrix(skew, TOP)) == _py_pfaffian(skew.tolist(), p)


def test_top_prime_reduce_rows_matches_python_ints():
    p = TOP.p
    rng = np.random.default_rng(37)
    # the second case is tall and spans three panels
    for gens_shape, rows_shape in (((4, 10), (6, 10)), ((30, 70), (60, 70))):
        for gens in _top_matrices(rng, gens_shape):
            for rows in _top_matrices(rng, rows_shape):
                dim_y, reduced = reduce_rows(gens, rows, p)
                basis, pivots = _py_echelon(gens.tolist(), p)
                want = []
                for row in rows.tolist():
                    for b, col in zip(basis, pivots):
                        row = [(x - row[col] * y) % p for x, y in zip(row, b)]
                    want.append([x for c, x in enumerate(row)
                                 if c not in pivots])
                assert dim_y == len(pivots)
                assert reduced.tolist() == want


def test_top_prime_product_depth_bound():
    # all-(p-1) factors make every float64 partial sum as large as it gets:
    # depth 45 is the deepest exact product at this prime, 46 is refused
    p = TOP.p
    for k in (1, 45):
        c = np.zeros((3, 5), dtype=np.int64)
        _sub_product(c, np.full((3, k), p - 1), np.full((k, 5), p - 1), p)
        assert c.tolist() == [[-k * (p - 1) ** 2 % p] * 5] * 3
    with pytest.raises(OverflowError):
        _sub_product(np.zeros((3, 5), dtype=np.int64), np.full((3, 46), p - 1),
                     np.full((46, 5), p - 1), p)


# -- the blocked kernel against the unblocked one it replaced -----------------

def _unblocked_eliminate(a, p, npiv):
    """The reference: one pivot at a time, each updating every row below it
    from its own column on, so every row below a pivot is zero there."""
    r, pivots = 0, []
    for col in range(a.shape[1]):
        if r == npiv:
            break
        hits = np.nonzero(a[r:npiv, col])[0]
        if hits.size == 0:
            continue
        piv = r + int(hits[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
            a[piv] = -a[piv] % p
        factors = a[r + 1:, col] * pow(int(a[r, col]), p - 2, p) % p
        a[r + 1:, col:] = (a[r + 1:, col:] - factors[:, None] * a[r, col:]) % p
        pivots.append(col)
        r += 1
    return pivots


def _property_matrices(rng, p, shape):
    rows, cols = shape
    yield "random", rng.integers(0, p, size=shape)
    yield "rank-1", np.outer(rng.integers(0, p, size=rows),
                             rng.integers(0, p, size=cols)) % p
    yield "sparse", rng.integers(0, p, size=shape) * (rng.random(shape) < 0.1)
    yield "all p-1", np.full(shape, p - 1, dtype=np.int64)
    yield "near p-1", p - 1 - rng.integers(0, 3, size=shape)


@pytest.mark.parametrize("p", [PRIMARY_PRIME, TOP.p])
def test_blocked_kernel_matches_unblocked(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p % 1000)
    for panels in range(1, 6):
        cols = 32 * panels - 5
        for rows, npiv in ((cols + 9, cols - 3), (cols // 2 + 3, cols // 3 + 1),
                           (cols, cols)):
            for kind, arr in _property_matrices(rng, p, (rows, cols)):
                want = arr.copy()
                want_pivots = _unblocked_eliminate(want, p, npiv)
                # reduce_rows: generators are the first npiv rows
                dim_y, reduced = reduce_rows(arr[:npiv], arr[npiv:], p)
                free = [c for c in range(cols) if c not in want_pivots]
                assert dim_y == len(want_pivots), (kind, rows, cols)
                assert reduced.tolist() == want[npiv:, free].tolist()
                got = arr.copy()
                assert _eliminate(got, p, npiv) == want_pivots, (kind, rows)
                for i, col in enumerate(want_pivots):  # the echelon rows
                    assert got[i, col:].tolist() == want[i, col:].tolist()
                if npiv == rows == cols:
                    want_det = (math.prod(np.diagonal(want).tolist()) % p
                                if len(want_pivots) == rows else 0)
                    assert det(DenseMatrix(arr, field)) == want_det, kind


@pytest.mark.parametrize("p", [PRIMARY_PRIME, TOP.p])
def test_rank_of_tall_matrices_matches_unblocked(p):
    # rank eliminates the transpose of a tall matrix
    field = PrimeField(p)
    rng = np.random.default_rng(p % 997)
    for rows, cols in ((9, 4), (70, 33), (430, 90)):
        low = (rng.integers(0, 4, size=(rows, cols // 2))
               @ rng.integers(0, p, size=(cols // 2, cols))) % p
        for kind, arr in [*_property_matrices(rng, p, (rows, cols)),
                          ("low rank", low)]:
            want = len(_unblocked_eliminate(arr.copy(), p, rows))
            assert rank(DenseMatrix(arr, field)) == want, (kind, rows, cols)


@pytest.mark.parametrize("p", [PRIMARY_PRIME, TOP.p])
def test_narrow_matrices_are_one_panel(p, monkeypatch):
    # up to two panel widths (64 columns) a matrix is eliminated as one
    # panel and takes no float64 product; at 65 columns the first panel's
    # trailing update is one
    products = []
    sub_product = _sub_product

    def counting(c, l, u, p):
        products.append(c.shape)
        sub_product(c, l, u, p)

    monkeypatch.setattr("secantdim.field._sub_product", counting)
    rng = np.random.default_rng(p % 991)
    for cols in (64, 65):
        rows, npiv = cols + 3, cols - 2
        for kind, arr in _property_matrices(rng, p, (rows, cols)):
            products.clear()
            want = arr.copy()
            want_pivots = _unblocked_eliminate(want, p, npiv)
            got = arr.copy()
            assert _eliminate(got, p, npiv) == want_pivots, (kind, cols)
            assert bool(products) == (cols == 65), (kind, cols)
            for i, col in enumerate(want_pivots):  # the echelon rows
                assert got[i, col:].tolist() == want[i, col:].tolist()
            free = [c for c in range(cols) if c not in want_pivots]
            assert got[npiv:, free].tolist() == want[npiv:, free].tolist()


@pytest.mark.parametrize("p", [PRIMARY_PRIME, TOP.p])
def test_empty_shapes(p):
    field = PrimeField(p)

    def zeros(rows, cols):
        return DenseMatrix(np.zeros((rows, cols), dtype=np.int64), field)

    for shape in ((0, 0), (0, 5), (5, 0)):
        assert rank(zeros(*shape)) == 0
    assert det(zeros(0, 0)) == 1
    for gens, rows in (((0, 0), (0, 0)), ((2, 0), (3, 0)), ((0, 4), (3, 4))):
        dim_y, reduced = reduce_rows(zeros(*gens).array, zeros(*rows).array, p)
        assert dim_y == 0 and reduced.shape == rows


def test_reduce_rows_measures_the_quotient():
    rng = SeededRng(derive_seed(8, "reduce"), F)
    gens = rng.elements((3, 7))
    rows = rng.elements((5, 7))
    dim_y, reduced = reduce_rows(gens, rows, F.p)
    assert reduced.shape == (5, 7 - dim_y)
    assert dim_y + rank(F.matrix(reduced)) == rank(F.matrix(np.vstack([gens, rows])))
    # rows already in Y reduce to zero, and the inputs are left as they were
    before = gens.copy()
    dim_y, reduced = reduce_rows(gens, gens, F.p)
    assert dim_y == 3 and not reduced.any()
    assert (gens == before).all()


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


# -- the stacked kernels of the rank oracle's change of basis -----------------

def _blocks(rng, p, r, c):
    """Blocks of r x c residues: random, all p - 1, near p - 1, of rank at
    most 2, and zero."""
    low = rng.integers(0, 4, size=(r, 2)) @ rng.integers(0, p, size=(2, c)) % p
    return np.array([rng.integers(0, p, size=(r, c)),
                     np.full((r, c), p - 1, dtype=np.int64),
                     p - 1 - rng.integers(0, 3, size=(r, c)),
                     low, np.zeros((r, c), dtype=np.int64)], dtype=np.int64)


@pytest.mark.parametrize("p", [PRIMARY_PRIME, TOP.p])
def test_stacked_gauss_jordan_matches_python_ints(p):
    rng = np.random.default_rng(p % 983)
    for r, c in ((4, 7), (7, 4), (6, 6), (1, 5), (3, 1), (3, 0), (0, 3)):
        blocks = _blocks(rng, p, r, c)
        got = blocks.copy()
        pivots = gauss_jordan(got, p)
        assert pivots.shape == (len(blocks), r)
        for block, echelon, piv in zip(blocks, got, pivots):
            want_rows, want_pivots = _py_echelon(block.tolist(), p)
            order = sorted((col, i) for i, col in enumerate(piv) if col >= 0)
            assert [col for col, _ in order] == want_pivots, (r, c)
            assert [echelon[i].tolist() for _, i in order] == want_rows
            assert not echelon[piv < 0].any()


@pytest.mark.parametrize("p", [PRIMARY_PRIME, TOP.p])
def test_stacked_sub_product_matches_python_ints(p):
    # depth 45 is the deepest exact product at TOP; 70 rows span two row blocks
    rng = np.random.default_rng(p % 977)
    for r, k, s in ((70, 45, 5), (3, 1, 4), (2, 0, 3)):
        c, l, u = (np.concatenate([rng.integers(0, p, size=(2,) + shape),
                                   np.full((1,) + shape, p - 1)])
                   for shape in ((r, s), (r, k), (k, s)))
        got = c.copy()
        _sub_product(got, l, u, p)
        for cs, ls, us, gs in zip(c, l, u, got):
            want = [[(cs[i, j].item() - sum(ls[i, t].item() * us[t, j].item()
                                             for t in range(k))) % p
                     for j in range(s)] for i in range(r)]
            assert gs.tolist() == want, (r, k, s)


@pytest.mark.parametrize("p", [PRIMARY_PRIME, TOP.p])
def test_reduce_modulo_matches_python_ints(p, monkeypatch):
    # echelon blocks of 50 rows: past depth 45 at TOP, so the product there
    # runs in two chunks
    depths = []
    sub_product = _sub_product

    def recording(c, l, u, p):
        depths.append(l.shape[-1])
        sub_product(c, l, u, p)

    monkeypatch.setattr("secantdim.field._sub_product", recording)
    rng = np.random.default_rng(p % 971)
    for r, c, rows in ((50, 60, 7), (4, 9, 3)):
        blocks = _blocks(rng, p, r, c)
        echelon = blocks.copy()
        pivots = gauss_jordan(echelon, p)
        stack = np.array([rng.integers(0, p, size=(rows, c))
                          for _ in blocks])
        stack[:, 0] = p - 1
        got = stack.copy()
        depths.clear()
        reduce_modulo(got, echelon, pivots, p)
        exact = 45 if p == TOP.p else 64
        assert depths == [min(exact, r - k0) for k0 in range(0, r, exact)]
        for block, xs, gs in zip(blocks, stack, got):
            basis, cols = _py_echelon(block.tolist(), p)
            want = []
            for x in xs.tolist():
                for b, col in zip(basis, cols):
                    x = [(xi - x[col] * bi) % p for xi, bi in zip(x, b)]
                want.append(x)
            assert gs.tolist() == want, (r, c)
