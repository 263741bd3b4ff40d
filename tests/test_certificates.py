"""Statement evaluation and the named window certificates."""

import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from secantdim import certificates
from secantdim.bounds import Statement, ambient_dim, expected_dim, s_over, s_under
from secantdim.certificates import (OUTCOME_DEFICIENT, OUTCOME_TRUE, Verdict,
                                    certify_Q, certify_R2n, certify_R_over,
                                    certify_R_under, eval_statement,
                                    eval_statement_checked, r_under_expected,
                                    witness_Rmm)
from secantdim.field import (PRIMARY_PRIME, SECONDARY_PRIME, DenseMatrix,
                             PrimeField, SeededRng, derive_seed, rank)
from secantdim.tensorspace import (Point, PointConstraint, sample_point,
                                   sample_points)

F = PrimeField(PRIMARY_PRIME)
# The top supported modulus, as in test_field.py.
TOP = PrimeField(3_037_000_493)


def test_verdict_shape():
    v = Verdict(rank=29, expected=30, trials=3, outcome="deficient")
    assert v.defect == 1
    assert v.as_dict() == {"rank": 29, "expected": 30, "defect": 1,
                           "outcome": "deficient"}


def test_known_defective_triples():
    for (m, n, s), exp in (((2, 3, 5), 30), ((2, 5, 8), 63), ((4, 3, 6), 48)):
        v = eval_statement(Statement(m, n, 2, s, 0))
        assert v.expected == exp
        assert v.rank == exp - 1
        assert v.outcome == "deficient"


def test_known_true_statements():
    assert eval_statement(Statement(2, 3, 2, 4, 0)).as_dict() == {
        "rank": 24, "expected": 24, "defect": 0, "outcome": "true"}
    assert eval_statement(Statement(2, 3, 2, 6, 0)).outcome == "true"  # fills
    assert eval_statement(Statement(1, 1, 2, 2, 0)).rank == 6
    v = eval_statement(Statement(1, 2, 2, 1, 1))
    assert v.outcome == "true" and v.expected == 6


def test_empty_statement():
    """No points and no slices: rank 0 of expected 0 on the first trial, and
    the trial count is still checked."""
    for m, n, d in itertools.product((0, 1, 3), (0, 3), (1, 2)):
        st = Statement(m, n, d, 0, 0)
        for oracle in (eval_statement, eval_statement_checked):
            assert oracle(st) == Verdict(0, 0, 1, OUTCOME_TRUE)
            with pytest.raises(ValueError, match="at least one trial"):
                oracle(st, trials=0)


def test_eval_reproducible():
    a = eval_statement(Statement(2, 4, 2, 5, 1), seed=9)
    b = eval_statement(Statement(2, 4, 2, 5, 1), seed=9)
    assert a == b


def test_rank_bounded_by_expected():
    rng = np.random.default_rng(4)
    for _ in range(15):
        m = int(rng.integers(0, 4))
        n = int(rng.integers(1, 5))
        s = int(rng.integers(0, 7))
        t = int(rng.integers(0, 3))
        v = eval_statement(Statement(m, n, 2, s, t), seed=int(rng.integers(1000)))
        assert 0 <= v.rank <= v.expected <= ambient_dim(m, n, 2)


def test_rank_monotone_in_s():
    prev = 0
    for s in range(1, 8):
        v = eval_statement(Statement(2, 3, 2, s, 0), seed=2)
        assert v.rank >= prev
        prev = v.rank
    assert prev == 30


def test_rank_above_expected_raises(monkeypatch):
    # semicontinuity: a rank above the expected dimension means the rows
    # were built wrong, and must raise rather than certify
    st = Statement(2, 3, 2, 4, 0)
    monkeypatch.setattr(certificates, "rank", lambda mat: expected_dim(st) + 1)
    with pytest.raises(ArithmeticError):
        eval_statement(st)


def test_cross_prime_check():
    v = eval_statement_checked(Statement(2, 3, 2, 5, 0))
    assert v.rank == 29 and v.outcome == "deficient"
    v = eval_statement_checked(Statement(2, 3, 2, 5, 0),
                               field=PrimeField(SECONDARY_PRIME))
    assert v.rank == 29 and v.outcome == "deficient"
    w = eval_statement_checked(Statement(2, 3, 2, 4, 0))
    assert w.outcome == "true"


def _fake_oracle(monkeypatch, rank_of):
    """Replace eval_statement by a deficient verdict of rank rank_of(seed, p);
    returns the list of (seed, p, verdict) calls."""
    calls = []

    def fake(st, seed, trials, field):
        v = Verdict(rank_of(seed, field.p), expected_dim(st), trials,
                    OUTCOME_DEFICIENT)
        calls.append((seed, field.p, v))
        return v

    monkeypatch.setattr(certificates, "eval_statement", fake)
    return calls


def test_cross_prime_disagreement_that_persists_raises(monkeypatch):
    calls = _fake_oracle(monkeypatch,
                         lambda seed, p: 29 if p == PRIMARY_PRIME else 28)
    with pytest.raises(ArithmeticError, match="persists"):
        eval_statement_checked(Statement(2, 3, 2, 5, 0), seed=7)
    reseeds = [derive_seed(7, "reseed", k)
               for k in range(1, certificates._MAX_RESEEDS + 1)]
    assert [c[:2] for c in calls] == [
        (s, p) for s in [7] + reseeds for p in (PRIMARY_PRIME, SECONDARY_PRIME)]


def test_cross_prime_disagreement_cleared_by_a_reseed(monkeypatch):
    calls = _fake_oracle(
        monkeypatch,
        lambda seed, p: 28 if (seed, p) == (7, SECONDARY_PRIME) else 29)
    v = eval_statement_checked(Statement(2, 3, 2, 5, 0), seed=7)
    assert [c[:2] for c in calls] == [
        (7, PRIMARY_PRIME), (7, SECONDARY_PRIME),
        (derive_seed(7, "reseed", 1), PRIMARY_PRIME),
        (derive_seed(7, "reseed", 1), SECONDARY_PRIME)]
    assert v is calls[2][2] and v.rank == 29


# -- independent Terracini oracle -------------------------------------------
#
# Builds the same matrix from the partial-derivative formula: the row for
# direction f_j at [u (x) v^d] has (i, mu) entry
#     u_i * multinomial(mu) * mu_j * v^(mu - e_j),
# which is d times the production row, so row spaces and ranks agree.  The
# monomial order here is ascending and re-sorted, on purpose.


def _oracle_monomials(n, d):
    out = [mu for mu in itertools.product(range(d + 1), repeat=n + 1)
           if sum(mu) == d]
    return sorted(out)


def _oracle_multinomial(mu):
    num = math.factorial(sum(mu))
    for e in mu:
        num //= math.factorial(e)
    return num


def _oracle_rank(m, n, d, s, t, seed):
    p = F.p
    mons = _oracle_monomials(n, d)
    cols = (m + 1) * len(mons)
    gen = np.random.default_rng(seed)
    rows = []

    def point():
        while True:
            u = gen.integers(0, p, size=m + 1)
            v = gen.integers(0, p, size=n + 1)
            if u.any() and v.any():
                return u.tolist(), v.tolist()

    def vpow(v, mu):
        out = 1
        for base, e in zip(v, mu):
            out = out * pow(base, e, p) % p
        return out

    for _ in range(s):
        u, v = point()
        for i in range(m + 1):
            row = [0] * cols
            for c, mu in enumerate(mons):
                row[i * len(mons) + c] = _oracle_multinomial(mu) * vpow(v, mu) % p
            rows.append(row)
        for j in range(n + 1):
            row = [0] * cols
            for c, mu in enumerate(mons):
                if mu[j] == 0:
                    continue
                shifted = list(mu)
                shifted[j] -= 1
                coeff = _oracle_multinomial(mu) * mu[j] * vpow(v, shifted)
                for i in range(m + 1):
                    row[i * len(mons) + c] = coeff * u[i] % p
            rows.append(row)
    for _ in range(t):
        u, v = point()
        for i in range(m + 1):
            row = [0] * cols
            for c, mu in enumerate(mons):
                row[i * len(mons) + c] = _oracle_multinomial(mu) * vpow(v, mu) % p
            rows.append(row)
    if not rows:
        return 0
    return rank(DenseMatrix(np.array(rows, dtype=np.int64), F))


def test_terracini_matrix_against_derivative_oracle():
    for m in range(0, 4):
        for n in range(1, 5):
            for s, t in ((1, 0), (2, 0), (3, 1), (5, 0), (6, 2)):
                st = Statement(m, n, 2, s, t)
                got = eval_statement(st, seed=21).rank
                want = max(_oracle_rank(m, n, 2, s, t, seed=1000 + 7 * s + t),
                           _oracle_rank(m, n, 2, s, t, seed=2000 + 7 * s + t))
                assert got == want, (m, n, s, t)


def test_oracle_covers_degree_three():
    st = Statement(1, 2, 3, 3, 0)
    assert eval_statement(st, seed=3).rank == _oracle_rank(1, 2, 3, 3, 0, seed=44)


# -- named certificates -------------------------------------------------------


def test_certify_q_small_grid():
    for m in (1, 2, 3):
        for n in (3, 4, 5):
            v = certify_Q(m, n)
            assert v.expected == ambient_dim(m, n, 2)
            assert v.outcome == "true", (m, n)
    with pytest.raises(ValueError):
        certify_Q(2, 2)


def test_r_under_expected_parity():
    assert r_under_expected(2, 3) == 30 - 1
    assert r_under_expected(2, 4) == 45
    assert r_under_expected(3, 3) == 40
    assert r_under_expected(4, 5) == 5 * 21 - 1


def test_certify_r_under():
    for m, n in ((1, 3), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4), (4, 5)):
        v = certify_R_under(m, n)
        assert v.expected == r_under_expected(m, n)
        assert v.outcome == "true", (m, n)
    with pytest.raises(ValueError):
        certify_R_under(4, 3)  # defined for 1 <= m <= n only


def test_certify_r_over():
    for m, n in ((3, 2), (3, 3), (2, 4), (4, 2), (2, 3)):
        v = certify_R_over(m, n)
        assert v.expected == ambient_dim(m, n, 2)
        assert v.outcome == "true", (m, n)


def test_certify_r2n():
    for n in (3, 5):
        v = certify_R2n(n)
        assert v.outcome == "true", n
    with pytest.raises(ValueError):
        certify_R2n(4)


def test_witness_deterministic_and_true():
    for m in (2, 3, 4, 5, 6):
        assert witness_Rmm(m, F) is True
    assert witness_Rmm(3, PrimeField(SECONDARY_PRIME)) is True


# -- the quotient oracle against the full stack --------------------------------


def _equivalence_cases():
    for m in range(1, 6):
        for n in range(3, 6):
            yield certificates.q_config(m, n), ("Q", m, n)
    for m in range(1, 6):
        for n in range(m, 6):
            yield certificates._r_config(m, n, s_under(m, n)), ("Runder", m, n)
    for m in range(2, 6):
        for n in range(2, 6):
            yield certificates._r_config(m, n, s_over(m, n)), ("Rover", m, n)
    for n in (3, 5):
        yield certificates._r_config(2, n, 3 * (n // 2) + 2), ("R2n", n)
    # t > 0, the known deficient cells, and the unbalanced cell (5, 2, 5)
    for key in ((1, 2, 2, 1, 1), (2, 4, 2, 5, 1), (3, 3, 2, 2, 3),
                (2, 2, 2, 0, 2), (1, 2, 3, 2, 1), (2, 3, 2, 5, 0),
                (4, 3, 2, 6, 0), (5, 2, 2, 5, 0)):
        st = Statement(*key)
        yield certificates.statement_config(st), ("S",) + st.key


def _points(u, v):
    """The points (u_i, v_i) for the rows of u and v."""
    return [Point(tuple(a), tuple(b)) for a, b in zip(u.tolist(), v.tolist())]


def _arrays(points, m, n):
    """The u and v of points, stacked as _span_rank takes them."""
    return (np.array([pt.u for pt in points], dtype=np.int64).reshape(-1, m + 1),
            np.array([pt.v for pt in points], dtype=np.int64).reshape(-1, n + 1))


def _full_stack(m, n, d, field, windows, u, v, ys):
    """Every row that _span_rank(m, n, d, field, windows, u, v, ys)
    measures, stacked: windows, tangents, slices, each built by the
    single-point builders with the whole V factor."""
    mats = [certificates.subspace_rows(w.window(n), m, n, d, field)
            for w in windows]
    mats += [certificates.tangent_rows(pt, m, n, d, field) for pt in _points(u, v)]
    mats += [certificates.y_rows(ys[k:k + 1], m, n, d, field)
             for k in range(len(ys))]
    return DenseMatrix(np.vstack([mat.array for mat in mats]), field)


def test_quotient_rank_equals_full_stack_rank(monkeypatch):
    # At TOP a product u (x) w_j of two residues is within 2^61 of 2^63, so
    # an unreduced factor or a sum of two products overflows int64.
    for field in (F, TOP):
        for config, label in _equivalence_cases():
            for trial in range(3):
                rng = SeededRng(derive_seed(0, *label, trial), field)
                args = (config.m, config.n, config.d, field, config.windows,
                        *config.draw(rng))
                got = certificates._span_rank(*args)
                assert got == rank(_full_stack(*args)), (field.p, label, trial)
    # the explicit witness points, as witness_Rmm passes them
    calls = []
    span_rank = certificates._span_rank
    monkeypatch.setattr(certificates, "_span_rank",
                        lambda *args: calls.append(args) or span_rank(*args))
    for field in (F, TOP):
        for m in (2, 3, 4, 5):
            assert witness_Rmm(m, field) is True
            args = calls.pop()
            assert rank(_full_stack(*args)) == ambient_dim(m, m, 2), (field.p, m)


def _u_rank(points, p):
    """Rank of the points' u over F_p, by Python-int elimination."""
    rows = [[x % p for x in pt.u] for pt in points]
    rank_ = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in rows[rank_:] if r[col]), None)
        if piv is None:
            continue
        rows.remove(piv)
        rows.insert(rank_, piv)
        inv = pow(piv[col], p - 2, p)
        rows[rank_ + 1:] = [[(x - r[col] * inv * y) % p for x, y in zip(r, piv)]
                            for r in rows[rank_ + 1:]]
        rank_ += 1
    return rank_


def _with_dependent_u(points, m, p):
    """The same points with dependent u: the last repeats the one before
    it, the last is a multiple of the first, or every u lies in the
    hyperplane u_0 = u_1 (m >= 1)."""
    last, before = points[-1], points[-2]
    yield points[:-1] + [Point(before.u, last.v)]
    yield points[:-1] + [Point(tuple(5 * x % p for x in points[0].u), last.v)]
    if m >= 1:
        yield [Point((pt.u[1],) + pt.u[1:], pt.v) for pt in points]


def _basis_cases():
    # m = 0, s <= m+1, t > 0, and window configurations; at n = 46 the
    # blocks W_a have 47 rows, past the depth 45 of one exact product at TOP
    for key in ((0, 3, 2, 3, 0), (0, 4, 2, 2, 2), (0, 2, 3, 2, 1),
                (3, 3, 2, 2, 0), (4, 2, 2, 5, 0), (3, 4, 2, 4, 1),
                (2, 4, 2, 5, 2), (2, 3, 2, 6, 1), (1, 3, 2, 3, 2),
                (0, 46, 2, 2, 0)):
        st = Statement(*key)
        yield certificates.statement_config(st), ("S",) + st.key
    yield certificates.q_config(2, 4), ("Q", 2, 4)
    yield certificates._r_config(2, 3, s_under(2, 3)), ("Runder", 2, 3)
    yield certificates._r_config(3, 4, s_over(3, 4)), ("Rover", 3, 4)
    yield certificates._r_config(2, 5, 3 * (5 // 2) + 2), ("R2n", 5)


@pytest.mark.parametrize("field", [F, TOP], ids=["F", "TOP"])
def test_change_of_basis_equals_full_stack_rank(field):
    """The change of basis on V keeps the rank of the full stack for drawn
    points and when the u of the last m+1 points are forced dependent: the
    basis of u is then smaller, or takes earlier points."""
    dependent = 0
    for config, label in _basis_cases():
        m, n, d = config.m, config.n, config.d
        for trial in range(2):
            u, v, ys = config.draw(SeededRng(derive_seed(0, *label, trial),
                                             field))
            points = _points(u, v)
            variants = [points]
            if len(points) >= 2:
                variants += _with_dependent_u(points, m, field.p)
            for pts in variants:
                args = (m, n, d, field, config.windows, *_arrays(pts, m, n), ys)
                got = certificates._span_rank(*args)
                assert got == rank(_full_stack(*args)), (label, trial)
                tail = pts[-(m + 1):]
                dependent += _u_rank(tail, field.p) < len(tail)
    assert dependent >= 40


# -- the filling pair from one elimination ------------------------------------


def _pair_draws(st, seed, field):
    """st's first draw in eval_statement, and the first point of the first
    draw for s + 1: the points eval_pair measures."""
    u, v, ys = certificates.statement_config(st).draw(
        SeededRng(derive_seed(seed, "S", *st.key, 0), field))
    more = Statement(st.m, st.n, st.d, st.s + 1, st.t)
    ceil_u, ceil_v, _ = certificates.statement_config(more).draw(
        SeededRng(derive_seed(seed, "S", *more.key, 0), field))
    return _points(u, v), ys, _points(ceil_u, ceil_v)[0]


def _two_calls(st, field, points, ys, extra):
    """The oracle's ranks without and with the extra point."""
    args = (st.m, st.n, st.d, field, ())
    return (certificates._span_rank(*args, *_arrays(points, st.m, st.n), ys),
            certificates._span_rank(*args, *_arrays(points + [extra], st.m, st.n),
                                    ys))


@pytest.mark.parametrize("field", [F, TOP], ids=["F", "TOP"])
def test_pair_equals_two_oracle_calls(field):
    """Both ranks of the pair are the oracle's on the same draws, for every
    m, n <= 6 and m+1 <= s <= 15: the u then span V."""
    cases = 0
    for m, n in itertools.product(range(1, 7), repeat=2):
        for s in range(m + 1, 16):
            st = Statement(m, n, 2, s, 0)
            want = _two_calls(st, field, *_pair_draws(st, 3, field))
            assert certificates.eval_pair(st, seed=3, field=field) == want, st
            cases += 1
    assert cases == 414


def _special_pairs(points, extra, m, p):
    """The draws with a repeated u or v among the points or in the extra
    point, or with u that do not span V."""
    first, last, before = points[0], points[-1], points[-2]
    yield points[:-1] + [Point(last.u, before.v)], extra
    yield points, Point(extra.u, first.v)
    yield points, Point(first.u, extra.v)
    yield points, first  # the extra point is a point already there
    for pts in _with_dependent_u(points, m, p):
        yield pts, extra


@pytest.mark.parametrize("field", [F, TOP], ids=["F", "TOP"])
def test_pair_in_special_position(field):
    """Repeated u or v keep the pair equal to the oracle's two ranks; u that
    do not span V give no pair, since the extra rows need the u_a to be a
    basis of V."""
    spanning = none = 0
    keys = [(m, n, 2, s, 0) for m in range(1, 5) for n in range(1, 5)
            for s in (m + 1, m + 2, m + 4)]
    keys += [(1, 2, 3, 3, 1), (2, 4, 2, 5, 1), (3, 3, 2, 4, 2)]
    for key in keys:
        st = Statement(*key)
        points, ys, extra = _pair_draws(st, 0, field)
        for pts, ex in _special_pairs(points, extra, st.m, field.p):
            got = certificates._span_rank(st.m, st.n, st.d, field, (),
                                          *_arrays(pts, st.m, st.n), ys, ex)
            if _u_rank(pts, field.p) < st.m + 1:
                assert got is None, (key, pts)
                none += 1
            else:
                assert got == _two_calls(st, field, pts, ys, ex), (key, pts, ex)
                spanning += 1
    assert spanning >= 250 and none >= 80
    # too few points to span V
    assert certificates.eval_pair(Statement(4, 3, 2, 3, 0), field=field) is None


@pytest.mark.parametrize("name", ["rank", "reduce_rows"])
def test_pair_rank_above_expected_raises(monkeypatch, name):
    # one dimension too many on either side of the pair (rank gives the
    # increment, reduce_rows dim Y and the floor's last rank) must raise
    # rather than certify
    real = getattr(certificates, name)

    def inflated(*args):
        out = real(*args)
        return out + 1 if name == "rank" else (out[0] + 1, out[1])

    st = Statement(3, 3, 2, 5, 0)
    assert certificates.eval_pair(st) == (35, 40)
    monkeypatch.setattr(certificates, name, inflated)
    with pytest.raises(ArithmeticError, match="semicontinuity"):
        certificates.eval_pair(st)


def test_reduction_runs_on_the_w_parts_only(monkeypatch):
    """Y is reduced against the s(n+1) rows v^(d-1) f_j of S_d(W), once,
    not against their (m+1) V-slices each, and on the columns off the
    window blocks only."""
    shapes = []
    reduce_rows = certificates.reduce_rows

    def record(gens, rows, p):
        shapes.append(rows.shape)
        return reduce_rows(gens, rows, p)

    monkeypatch.setattr(certificates, "reduce_rows", record)
    # R_over(4, 4) deletes the S_2 monomials of its 3-variable window
    for run, s, n, cols in (
            (lambda: certify_R_over(4, 4), s_over(4, 4), 4,
             math.comb(6, 2) - math.comb(4, 2)),
            (lambda: eval_statement(Statement(3, 3, 2, 4, 1)), 4, 3,
             math.comb(5, 2))):
        shapes.clear()
        trials = run().trials
        assert shapes == [(s * (n + 1), cols)] * trials, (s, n)


def test_rank_runs_on_the_nonzero_rows_only(monkeypatch):
    """An on-window point's rows v f_j, j in the window, reduce to zero and
    never reach rank, nor do the m+1 general points' rows, which span their
    blocks e_a (x) W_a after the change of basis on V.  For R_over(9, 9) the
    W_a span everything modulo Y, so rank gets an empty matrix."""
    shapes = []
    rank_ = certificates.rank

    def record(mat):
        shapes.append((mat.rows, mat.cols))
        return rank_(mat)

    monkeypatch.setattr(certificates, "rank", record)
    for run, shape in ((lambda: certify_R_over(9, 9), (0, 0)),
                       (lambda: certify_Q(9, 9), (20, 20))):
        shapes.clear()
        assert run().outcome == OUTCOME_TRUE
        assert shapes == [shape]


# md5 of the full stacked rows of every _equivalence_cases configuration at
# seed 0, trial 0.  Verdicts cannot show a change in draw order (any generic
# draw gives the same rank), but the seed is meant to reproduce a run.
DRAW_PIN_MD5 = "529576bc5818b6a54da6f16b5969bc30"


def test_configuration_draws_are_pinned():
    digest = hashlib.md5()
    for config, label in _equivalence_cases():
        full = _full_stack(config.m, config.n, config.d, F, config.windows,
                           *config.draw(SeededRng(derive_seed(0, *label, 0), F)))
        digest.update(full.array.tobytes())
    assert digest.hexdigest() == DRAW_PIN_MD5


# -- one stream call per configuration -----------------------------------------


GENERIC, ON_L, ON_M = (PointConstraint.GENERIC, PointConstraint.ON_L,
                       PointConstraint.ON_M)


def _draw_point_by_point(config, rng):
    """The configuration's points drawn one sample_point call at a time."""
    m, n, s = config.m, config.n, len(config.tangents)
    kinds = config.tangents + (GENERIC,) * config.slices
    u, v = _arrays([sample_point(rng, kind, m, n) for kind in kinds], m, n)
    return u[:s], v[:s], v[s:]


def _assert_same_draws(got, want, where):
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape and (a == b).all(), where


def _mixes(m):
    """Tangent constraints: every mix of three, the R certificates' run on
    the window before m+1 generic points, and Q's two window runs."""
    yield ()
    yield from itertools.product((GENERIC, ON_L, ON_M), repeat=3)
    yield (ON_L,) * 4 + (GENERIC,) * (m + 1)
    yield (ON_L,) * (m + 1) + (ON_M,) * (m + 1)


@pytest.mark.parametrize("field", [F, TOP], ids=["F", "TOP"])
def test_batched_draw_equals_point_by_point(field):
    """One stream call per configuration draws the points sample_point
    draws one vector at a time, and leaves the stream at the same place."""
    cases = 0
    for m, n in itertools.product(range(0, 7), range(2, 7)):
        for tangents in _mixes(m):
            for slices in (0, 2):
                config = certificates.Configuration(m, n, 2, (), tangents, slices)
                seed = derive_seed(0, "batch", m, n, cases)
                batched, single = SeededRng(seed, field), SeededRng(seed, field)
                _assert_same_draws(config.draw(batched),
                                   _draw_point_by_point(config, single),
                                   (m, n, tangents, slices))
                assert batched.elements(1) == single.elements(1)
                cases += 1
    assert cases == 35 * 30 * 2


class _ZeroedRng(SeededRng):
    """A stream whose first call comes out with the entries at zeroed set
    to 0, and moves on as usual."""

    def __init__(self, seed, field, zeroed):
        super().__init__(seed, field)
        self.zeroed = zeroed
        self.calls = 0

    def elements(self, count):
        out = super().elements(count)
        if self.calls == 0:
            out[self.zeroed] = 0
        self.calls += 1
        return out


def test_sample_point_redraws_a_zero_point():
    """A first draw with a zero u or v is drawn again whole: the point is
    the stream's next one, and the stream reads on as after two points."""
    m, n = 2, 4
    for zeroed in (slice(0, m + 1), slice(m + 1, None)):
        for seed in range(3):
            rng, plain = _ZeroedRng(seed, F, zeroed), SeededRng(seed, F)
            got = sample_point(rng, ON_M, m, n)
            sample_points(plain, (ON_M,), m, n)
            assert got == sample_point(plain, ON_M, m, n), (zeroed, seed)
            assert rng.calls == 2 and rng.elements(1) == plain.elements(1)


def _specialized_stack(m, n, d, field, windows, u, v, ys):
    """_full_stack for a draw with zero factors: a point with u = 0 spans
    only V (x) v^d, a V-slice, and a point with v = 0 spans nothing."""
    whole = u.any(axis=1) & v.any(axis=1)
    slices = np.vstack([ys, v[~u.any(axis=1)]])
    return _full_stack(m, n, d, field, windows, u[whole], v[whole], slices)


@pytest.mark.parametrize("field", [F, TOP], ids=["F", "TOP"])
def test_zero_vector_is_kept_as_drawn(field, monkeypatch):
    """A zero u or v in a configuration's one stream call comes back as
    drawn, and the stream moves on by that call alone.  The oracle measures
    that specialization: the rank of its full stack, at most the expected
    one, and a short rank is a failed trial, not an error."""
    m, n = 2, 4
    config = certificates.Configuration(m, n, 2, (), (ON_L, GENERIC, ON_M), 1)
    st, more = Statement(m, n, 2, 5, 1), Statement(m, n, 2, 6, 1)
    # the first point's u, and the last point's v
    for zeroed, point, part in ((slice(0, m + 1), 0, 0),
                                (slice(-(n + 1), None), -1, 2)):
        for seed in range(3):
            rng, plain = _ZeroedRng(seed, field, zeroed), SeededRng(seed, field)
            got, want = config.draw(rng), config.draw(plain)
            want[part][point] = 0
            _assert_same_draws(got, want, (zeroed, seed))
            assert rng.calls == 1 and rng.elements(1) == plain.elements(1)
            args = (m, n, 2, field, config.windows, *got)
            assert (certificates._span_rank(*args)
                    == rank(_specialized_stack(*args))), (zeroed, seed)
        with monkeypatch.context() as patch:
            patch.setattr(certificates, "SeededRng",
                          lambda seed, fld: _ZeroedRng(seed, fld, zeroed))
            # every trial's draw is zeroed, so every trial falls short
            verdict = eval_statement(st, trials=2, field=field)
            assert verdict.rank <= expected_dim(st), zeroed
            assert (verdict.outcome, verdict.trials) == (OUTCOME_DEFICIENT, 2)
            pair = certificates.eval_pair(st, field=field)
            assert pair is None or (pair[0] <= expected_dim(st)
                                    and pair[1] <= expected_dim(more)), zeroed


def test_infeasible_window_raises_as_sample_point():
    for n in (0, 1):
        for kind in (ON_L, ON_M):
            with pytest.raises(ValueError) as want:
                sample_point(SeededRng(0, F), kind, 2, n)
            config = certificates.Configuration(2, n, 2, (), (GENERIC, kind))
            with pytest.raises(ValueError, match=re.escape(str(want.value))):
                config.draw(SeededRng(0, F))


def test_column_mismatch_raises(monkeypatch):
    # the blocks a single-point builder makes: the V-slices, and the extra
    # point of eval_pair
    for name, run in (("y_rows", lambda: eval_statement(Statement(2, 3, 2, 4, 1))),
                      ("tangent_rows",
                       lambda: certificates.eval_pair(Statement(2, 3, 2, 4, 0)))):
        wide = getattr(certificates, name)

        def one_column_too_many(*args, wide=wide):
            mat = wide(*args)
            return DenseMatrix(np.hstack([mat.array, mat.array[:, :1]]), mat.field)

        with monkeypatch.context() as patch:
            patch.setattr(certificates, name, one_column_too_many)
            with pytest.raises(ValueError, match="disagree on columns"):
                run()
        run()  # the real builder again


def test_slices_are_built_in_one_call(monkeypatch):
    """_span_rank builds all its V-slices with one y_rows call on their
    stacked v, with or without eval_pair's extra point, and calls y_rows
    not at all when there are none."""
    calls, per_call = [], []
    y_rows, span_rank = certificates.y_rows, certificates._span_rank
    monkeypatch.setattr(certificates, "y_rows",
                        lambda *args: calls.append(args) or y_rows(*args))

    def counted(*args):
        calls.clear()
        out = span_rank(*args)
        per_call.append(len(calls))
        return out

    monkeypatch.setattr(certificates, "_span_rank", counted)
    assert eval_statement(Statement(2, 3, 2, 2, 3)).outcome == OUTCOME_TRUE
    assert certificates.eval_pair(Statement(1, 2, 2, 2, 3)) is not None
    assert per_call == [1, 1]
    per_call.clear()
    assert eval_statement(Statement(2, 3, 2, 4, 0)).outcome == OUTCOME_TRUE
    assert certificates.eval_pair(Statement(1, 2, 2, 2, 0)) is not None
    assert certify_Q(2, 4).outcome == OUTCOME_TRUE
    assert witness_Rmm(3) is True
    assert per_call == [0, 0, 0, 0]
