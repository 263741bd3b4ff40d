"""Exact linear algebra over word-sized prime fields.

Every certificate in this package reduces to the rank (or the Pfaffian) of a
dense matrix over F_p for a large prime p.  Ranks over a random large prime
are a standard exact surrogate for generic complex ranks: the rank of any
specialization is at most the generic rank, so hitting the expected value is
a proof, while a shortfall is strong evidence that is cross-checked over a
second prime.

Entries are canonical residues in [0, p) held in int64 arrays, under one of
two calling conventions:

* ``rank``, ``det`` and ``pfaffian`` take a ``DenseMatrix`` and reduce their
  own copy of its array mod p;
* the rank oracle's reductions, ``reduce_rows``, ``gauss_jordan`` and
  ``reduce_modulo``, take int64 arrays that already hold residues, and the
  modulus p, and return or update arrays.

Two elimination kernels do the work:

* ``_eliminate``, forward elimination with row pivoting in panels, gives
  ``rank``, ``det`` and ``reduce_rows`` (rows reduced modulo the row space
  of one matrix);
* ``gauss_jordan`` takes a stack of small blocks to reduced echelon form
  at once, pivoting each row on its first nonzero column, and
  ``reduce_modulo`` reduces rows modulo each block's row space in one
  stacked product.  The rank oracle uses them for the many small W_a blocks
  and for the points' coordinates in V.

``gauss_jordan`` makes one set of numpy calls per step for every block, but
each step updates every row of a block over all its columns, where
``_eliminate`` updates only the rows below the pivot within its panel.  So
the oracle's single reduction modulo Y stays on ``reduce_rows``: routed
through ``gauss_jordan`` + ``reduce_modulo`` it gave identical ranks, but
R_over(8, 8) went from 4.0-4.1 to 4.7-4.8 ms and R_over(9, 9) from 4.4-5.3
to 6.0-6.2 ms (medians of 15 in-process passes, two alternating runs each,
2-vCPU Intel Xeon, Python 3.11, numpy 2.4).

``_eliminate`` is exact under three bounds:

* int64 row operations within a panel: the modulus is capped so that a
  product of two residues, plus one more residue, still fits in a signed
  64-bit word;
* the float64 products of a panel with k pivots (bringing its pivot rows up
  to date, and the trailing update): two GEMMs on the 16-bit limbs of one
  factor, whose partial sums stay exact integers while
  k (p-1)(2^16-1) < 2^53.  That allows k <= 45 at the top modulus and
  k <= 64 at 2^31 - 1, so panels are 32 columns wide.  The product checks
  the bound and raises past it: a rounded update could read a rank too
  high, and a rank that reaches the expected value counts as a proof;
* the int64 sum of the two limb products: the high one is reduced and
  shifted (below 2^48) and the low one is taken raw (below 2^53), so a
  residue minus both stays far inside a signed 64-bit word and one
  reduction per block suffices.

A matrix at most two panels (64 columns) wide is eliminated as one panel:
it has no trailing update, so it takes no float64 product and only the
first bound applies.  The rank calls of the certificates are mostly this
narrow.  ``rank`` eliminates a tall matrix as its transpose, so the
elimination pivots on the short side.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

PRIMARY_PRIME = 2**31 - 1
SECONDARY_PRIME = 2**31 + 11

_MIN_MODULUS = 2**31 - 1
# Largest p with (p - 1)^2 + p < 2^63.
_MAX_MODULUS = 3_037_000_499

# Elimination panel width and the limb width of its float64 products:
# 32 (p - 1)(2^16 - 1) < 2^53 for every supported p.
_PANEL = 32
_LIMB_BITS = 16
# Rows per block of the trailing update, which bounds its scratch arrays.
_BLOCK_ROWS = 64


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3_215_031_751."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """Arithmetic engine for F_p with an odd prime p in [2^31 - 1, 3037000499]."""

    p: int = PRIMARY_PRIME

    def __post_init__(self) -> None:
        if not (_MIN_MODULUS <= self.p <= _MAX_MODULUS):
            raise ValueError(f"modulus {self.p} outside supported range "
                             f"[{_MIN_MODULUS}, {_MAX_MODULUS}]")
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")


class DenseMatrix:
    """Dense matrix over a prime field, stored as an int64 array of residues."""

    __slots__ = ("field", "array")

    def __init__(self, entries, field: PrimeField):
        arr = np.asarray(entries, dtype=np.int64)  # % p below copies it
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {arr.shape}")
        self.field = field
        self.array = arr % field.p

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols} mod {self.field.p})"


def _sub_product(c: np.ndarray, l: np.ndarray, u: np.ndarray, p: int) -> None:
    """c <- (c - l u) mod p in place, for residues c, l (r x k) and u (k x s),
    or stacks of them (b x r x k and so on): then each slice of c takes the
    product of the same slices of l and u, as in np.matmul.

    l u runs as two float64 GEMMs, one per 16-bit limb of u.  Each entry of
    such a product is a sum of k terms below (p-1)(2^16-1), so every partial
    sum is an exact float64 integer while k (p-1)(2^16-1) < 2^53; past that
    bound this raises instead of rounding.  The high-limb product is reduced
    and shifted (below 2^48), the low-limb one is subtracted raw (below 2^53),
    and the block is reduced once.  The rows of c go in blocks of
    _BLOCK_ROWS per slice, so the float and int scratch stays that small.

    Both reductions are x - (x // p) p through scratch: numpy divides by a
    scalar several times faster than it takes an int64 %, and a fresh
    temporary per step would cost as much again.  _eliminate's per-pivot
    panel updates keep %: on their small slices the extra steps cost more
    than they save."""
    k = l.shape[-1]
    if k * (p - 1) * (2**_LIMB_BITS - 1) >= 2**53:
        raise OverflowError(f"a product of depth {k} mod {p} is not exact "
                            f"in float64")
    high = (u >> _LIMB_BITS).astype(np.float64)
    low = (u & (2**_LIMB_BITS - 1)).astype(np.float64)
    rows = c.shape[-2]
    fbuf = np.empty(c.shape[:-2] + (min(_BLOCK_ROWS, rows), c.shape[-1]))
    ibuf = np.empty(fbuf.shape, dtype=np.int64)
    qbuf = np.empty(fbuf.shape, dtype=np.int64)
    for lo in range(0, rows, _BLOCK_ROWS):
        block = c[..., lo:lo + _BLOCK_ROWS, :]
        lf = l[..., lo:lo + _BLOCK_ROWS, :].astype(np.float64)
        height = block.shape[-2]
        fprod, iprod = fbuf[..., :height, :], ibuf[..., :height, :]
        quot = qbuf[..., :height, :]
        np.matmul(lf, high, out=fprod)
        np.copyto(iprod, fprod, casting="unsafe")
        np.floor_divide(iprod, p, out=quot)
        quot *= p
        iprod -= quot
        iprod <<= _LIMB_BITS
        block -= iprod
        np.matmul(lf, low, out=fprod)
        np.copyto(iprod, fprod, casting="unsafe")
        block -= iprod
        np.floor_divide(block, p, out=quot)
        quot *= p
        block -= quot


def _eliminate(a: np.ndarray, p: int, npiv: int) -> list[int]:
    """Forward elimination in place on the residues a, pivoting in the first
    npiv rows only; returns the pivot columns.  Row i then holds the i-th
    row of a row echelon form from column pivots[i] on, the rows from npiv
    on hold their reduction modulo the pivot rows on the non-pivot columns,
    and the entries below each pivot hold its multipliers.  A row exchange
    negates one of the two rows, which keeps the determinant.

    The columns go in panels of _PANEL.  Within a panel each pivot updates
    the rows below it on the panel's columns only and leaves its multipliers
    in its own column: the k pivots leave A11 = L11 U11 with L11 unit lower
    triangular.  Then the panel's pivot rows are brought up to date on the
    columns right of the panel, U12 = L11^-1 A12, and the rows below them
    get the trailing update A22 -= L21 U12; both are one exact product
    (_sub_product).  A matrix of at most two panels' width is one panel, so
    it has no trailing update and takes no float64 product."""
    cols = a.shape[1]
    width = _PANEL if cols > 2 * _PANEL else max(cols, 1)
    r, pivots = 0, []
    for c0 in range(0, cols, width):
        if r == npiv:
            break
        c1 = min(c0 + width, cols)
        r0, panel = r, []
        for col in range(c0, c1):
            if r == npiv:
                break
            pivot = a.item(r, col)
            if pivot == 0:
                hits = np.nonzero(a[r + 1:npiv, col])[0]
                if hits.size == 0:
                    continue
                piv = r + 1 + int(hits[0])
                a[[r, piv]] = a[[piv, r]]
                a[piv] = -a[piv] % p
                pivot = a.item(r, col)
            factors = a[r + 1:, col]  # the multipliers, scaled in place
            factors *= pow(pivot, -1, p)
            factors %= p
            below = a[r + 1:, col + 1:c1]
            below -= factors[:, None] * a[r, col + 1:c1]
            below %= p
            panel.append(col)
            r += 1
        k = len(panel)
        if k and c1 < cols:
            # L11^-1 from the multipliers; U12 = A12 - (I - L11^-1) A12
            linv = np.eye(k, dtype=np.int64)
            for i in range(k - 1):
                linv[i + 1:] -= a[r0 + i + 1:r, panel[i], None] * linv[i]
                linv[i + 1:] %= p
            top = a[r0:r, c1:]
            _sub_product(top, (np.eye(k, dtype=np.int64) - linv) % p, top.copy(), p)
            _sub_product(a[r:, c1:], a[r:, panel], top, p)
        pivots += panel
    return pivots


def rank(m: DenseMatrix) -> int:
    """Rank, from eliminating the matrix or, when it is tall, its transpose:
    the elimination then pivots on the short side."""
    a = np.array(m.array.T if m.rows > m.cols else m.array, order="C")
    a %= m.field.p
    return len(_eliminate(a, m.field.p, len(a)))


def reduce_rows(gens: np.ndarray, rows: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """dim Y and the residues rows reduced modulo the row space Y of the
    residues gens, restricted to the non-pivot columns of Y: their rank is
    dim(Y + rowspace(rows)) - dim Y.  Eliminating gens stacked over rows,
    pivoting in gens only, leaves each row the unique representative of its
    class mod Y vanishing on Y's pivots."""
    stack = np.concatenate((gens, rows))
    pivots = _eliminate(stack, p, len(gens))
    free = sorted(set(range(stack.shape[1])) - set(pivots))
    return len(pivots), stack[len(gens):, free]


def gauss_jordan(a: np.ndarray, p: int) -> np.ndarray:
    """Gauss-Jordan elimination of every block of the residues a (b x r x c)
    in place; returns the pivot column of each row (b x r), -1 for a row that
    ends zero.  Row k, reduced by the pivot rows above it, is either zero
    (dependent on them) or is scaled to a unit pivot at its first nonzero
    column, which is then cleared in every other row of its block.  So the
    pivot rows form a reduced echelon form up to their order, and each
    block's pivot columns hold identity columns.  The steps run over all b
    blocks at once; past step c, where the rank is reached, they stop as
    soon as the rows left are zero."""
    b, r, c = a.shape
    pivots = np.zeros((b, r), dtype=np.int64)
    every = np.arange(b)
    for k in range(r):
        if k >= c and not a[:, k:].any():
            break
        row = a[:, k]
        col = (row != 0).argmax(axis=1)
        pivots[:, k] = col
        factors = a[every, :, col]
        inverse = [pow(x, -1, p) if x else 0 for x in factors[:, k].tolist()]
        unit = row * np.array(inverse, dtype=np.int64)[:, None] % p
        # row i -= a_i[col] unit clears the column; row k -= (pivot - 1) unit
        # leaves unit there, and a zero row k stays zero
        factors[:, k] -= 1
        a -= factors[:, :, None] * unit[:, None, :]
        a %= p
    pivots[~a.any(axis=2)] = -1
    return pivots


def reduce_modulo(stack: np.ndarray, echelon: np.ndarray, pivots: np.ndarray,
                  p: int) -> None:
    """Reduce each slice of the residues stack (b x N x c) modulo the row
    space of the same slice of echelon (b x r x c), in place.  echelon comes
    from gauss_jordan with the pivot columns pivots, so slice a becomes
    stack[a] minus stack[a][:, pivots[a]] echelon[a], which vanishes on those
    columns.  The product is one stacked _sub_product per chunk of depth that
    it computes exactly, so r is not bounded."""
    if not stack.size:
        return
    # a row with pivot -1 is zero, so the column it picks into lead adds nothing
    lead = np.take_along_axis(stack, pivots[:, None, :], axis=2)  # b x N x r
    exact = (2**53 - 1) // ((p - 1) * (2**_LIMB_BITS - 1))
    for k0 in range(0, echelon.shape[1], exact):
        _sub_product(stack, lead[..., k0:k0 + exact], echelon[:, k0:k0 + exact], p)


def det(m: DenseMatrix) -> int:
    """Determinant: the product of the pivots of the shared elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    p = m.field.p
    a = m.array % p
    if len(_eliminate(a, p, m.rows)) < m.rows:
        return 0
    return math.prod(np.diagonal(a).tolist()) % p


def pfaffian(m: DenseMatrix) -> int:
    """Pfaffian of a skew-symmetric matrix of even order.

    Skew elimination: repeatedly pivot on the (k, k+1) entry alpha and replace
    the trailing block D by D + (g r^T - r g^T) with g = column k below the
    pivot rows divided by alpha and r = row k+1 beyond the pivot columns.
    Pf([[0, a], [-a, 0]] in the leading corner) factors out as alpha, row or
    column swaps flip the sign.
    """
    p = m.field.p
    a = m.array % p
    n = a.shape[0]
    if n != a.shape[1]:
        raise ValueError("pfaffian of a non-square matrix")
    if n % 2 != 0:
        raise ValueError("pfaffian needs even order")
    if np.any((a + a.T) % p != 0):
        raise ValueError("matrix is not skew-symmetric mod p")
    result = 1
    for k in range(0, n, 2):
        hits = np.nonzero(a[k, k + 1:])[0]
        if hits.size == 0:
            return 0
        j = k + 1 + int(hits[0])
        if j != k + 1:
            a[[k + 1, j]] = a[[j, k + 1]]
            a[:, [k + 1, j]] = a[:, [j, k + 1]]
            result = -result % p
        alpha = int(a[k, k + 1])
        result = result * alpha % p
        if k + 2 < n:
            g = a[k + 2:, k] * pow(alpha, -1, p) % p
            r = a[k + 1, k + 2:]
            # a difference of two products of residues, plus a residue:
            # below (p-1)^2 + p < 2^63
            blk = a[k + 2:, k + 2:]
            blk += np.multiply.outer(g, r) - np.multiply.outer(r, g)
            blk %= p
    return result % p


class SeededRng:
    """Deterministic stream of field elements.

    Wraps numpy's PCG64 generator, whose integer streams are stable across
    platforms for a fixed seed.  tensorspace.sample_points turns the stream
    into point coordinates.
    """

    def __init__(self, seed: int, field: PrimeField):
        self.field = field
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def elements(self, count: int) -> np.ndarray:
        """count elements, zero included.  One call draws the same values as
        consecutive calls whose counts add up to count: every supported p is
        below 2^32, and PCG64 keeps its spare 32-bit half in its state
        between calls."""
        return self._gen.integers(0, self.field.p, size=count, dtype=np.int64)


def derive_seed(root: int, *parts: int | str) -> int:
    """Split a root seed into an independent 64-bit stream seed.

    The derivation hashes the decimal rendering of the root and each part,
    joined by '|', with BLAKE2b; it is documented here so that runs can be
    reproduced from the command-line seed alone.
    """
    text = "|".join(str(x) for x in (root, *parts))
    digest = hashlib.blake2b(text.encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "little")
