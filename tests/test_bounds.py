"""Numeric thresholds, abundance classification, the exact m = 0 count."""

import json
import math
import os

import pytest

from secantdim.bounds import (AH_EXCEPTIONS, Abundance, Statement,
                              ambient_dim, classify, conjecture_verdict,
                              expected_dim, is_subabundant, is_superabundant,
                              m0_rank, q_bound, r_bound, s_over, s_under,
                              span_count, unbalanced_expected_dim,
                              unbalanced_range)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_statement_validation():
    st = Statement(2, 3, 2, 5, 0)
    assert st.key == (2, 3, 2, 5, 0)
    with pytest.raises(ValueError):
        Statement(-1, 3, 2, 5, 0)
    with pytest.raises(ValueError):
        Statement(2, 3, 0, 5, 0)
    with pytest.raises(ValueError):
        Statement(2, 3, 2, -1, 0)
    with pytest.raises(ValueError):
        Statement(2, 3, 2, 5, -2)


def test_ambient_and_expected():
    assert ambient_dim(2, 3, 2) == 3 * 10
    assert ambient_dim(1, 1, 2) == 6
    assert span_count(Statement(2, 3, 2, 5, 0)) == 5 * 6
    assert expected_dim(Statement(2, 3, 2, 5, 0)) == 30  # truncated at ambient
    assert expected_dim(Statement(2, 3, 2, 4, 0)) == 24
    assert expected_dim(Statement(1, 2, 2, 1, 1)) == 4 + 2  # t adds m+1 each


def test_classify():
    assert classify(Statement(2, 3, 2, 4, 0)) is Abundance.SUBABUNDANT
    assert classify(Statement(2, 3, 2, 5, 0)) is Abundance.EQUIABUNDANT
    assert classify(Statement(2, 3, 2, 6, 0)) is Abundance.SUPERABUNDANT
    assert is_subabundant(Statement(2, 3, 2, 5, 0))
    assert is_superabundant(Statement(2, 3, 2, 5, 0))  # equality counts both ways


def test_q_examples():
    assert q_bound(2, 3) == (3 * 10) // 6 == 5
    assert q_bound(2, 4) == (3 * 15) // 7 == 6
    assert q_bound(4, 3) == (5 * 10) // 8 == 6
    assert q_bound(1, 1) == 2  # floor(2*3/3), not 3


def test_s_under_examples():
    assert s_under(2, 3) == 4
    assert s_under(3, 3) == 4
    assert s_under(2, 4) == 6
    assert s_under(4, 2) == 0  # the m = n+2 boundary
    assert s_under(6, 1) == 0  # clamped outside m <= n+2
    assert s_under(1, 1) == 2  # 2*0 - (-1)(2)/2


def test_s_over_examples():
    assert s_over(2, 3) == 3 * 1 + 3 == 6
    assert s_over(2, 4) == 3 * 2 + 1 == 7
    assert s_over(1, 3) == 5
    assert s_over(1, 4) == 5


def test_r_examples():
    assert r_bound(2, 3) == 8 - 4 == 4
    assert r_bound(4, 3) == 64 - 8 == 56
    assert r_bound(3, 3) == (1 * 16) // 2 == 8
    assert r_bound(2, 4) == 0  # (2-2)... even n falls in the generic branch
    assert r_bound(1, 1) == -2
    assert r_bound(1, 4) == -2


def test_threshold_golden_table():
    with open(os.path.join(GOLDEN, "thresholds.json")) as fh:
        rows = json.load(fh)
    assert len(rows) == 72
    for row in rows:
        m, n = row["m"], row["n"]
        assert q_bound(m, n) == row["q"], (m, n)
        assert s_under(m, n) == row["s_under"], (m, n)
        assert s_over(m, n) == row["s_over"], (m, n)
        assert r_bound(m, n) == row["r"], (m, n)


def test_threshold_identities():
    for m in range(1, 7):
        for n in range(1, 41):
            assert s_under(m, n) <= q_bound(m, n) <= s_over(m, n), (m, n)
            if m >= 2:  # so the prover builds at most one chain per query
                assert s_under(m, n) < s_over(m, n), (m, n)
            if n > 2 and m <= n:
                assert s_under(m, n) - (m + 1) == s_under(m, n - 2), (m, n)
            if n > r_bound(m, n):
                assert s_under(m, n) == q_bound(m, n), (m, n)


def _double_points_independent(n, d, s):
    """T(0, n; 1, d; s): s double points impose independent conditions."""
    return m0_rank(n, d, s, 0) == expected_dim(Statement(0, n, d, s, 0))


def test_ah_quadric_band():
    # d = 2: s double points fail for 2 <= s <= n, succeed elsewhere
    assert _double_points_independent(3, 2, 1)
    assert not _double_points_independent(3, 2, 2)
    assert not _double_points_independent(3, 2, 3)
    assert _double_points_independent(3, 2, 4)
    assert _double_points_independent(1, 2, 2)


def test_ah_sporadic_exceptions():
    assert AH_EXCEPTIONS == {(2, 4, 5), (3, 4, 9), (4, 4, 14), (4, 3, 7)}
    for n, d, s in AH_EXCEPTIONS:
        assert not _double_points_independent(n, d, s)
        assert _double_points_independent(n, d, s - 1)
        assert _double_points_independent(n, d, s + 1)


def test_ah_table_against_measured_ranks():
    """Re-derive the m = 0 count from actual tangent ranks, with up to three
    V-slices and d = 1 included."""
    from secantdim.certificates import eval_statement

    for n in range(1, 5):
        for d in (1, 2, 3, 4):
            amb = math.comb(n + d, d)
            for s in range(0, amb // (n + 1) + 2):
                for t in range(4):
                    st = Statement(0, n, d, s, t)
                    verdict = eval_statement(st, seed=5)
                    assert verdict.rank == m0_rank(n, d, s, t), st.key


def test_unbalanced_range():
    assert unbalanced_range(2, 2, 2) is None  # m <= C - n
    assert unbalanced_range(5, 2, 2) == (4, 6)
    assert unbalanced_range(6, 2, 2) == (4, 6)  # hi capped at C = 6
    assert unbalanced_range(9, 2, 2) == (4, 6)
    # balance is m <= C - n, not C - d: (8, 3) is unbalanced, (7, 3) is not
    assert unbalanced_range(8, 3, 2) == (7, 9)
    assert unbalanced_range(7, 3, 2) is None
    assert unbalanced_expected_dim(5, 2, 2, 5) == 5 * (6 + 6 - 5) == 35
    assert unbalanced_expected_dim(6, 2, 2, 5) == 5 * (6 + 7 - 5) == 40


def test_unbalanced_range_against_measured_ranks():
    from secantdim.certificates import eval_statement

    for m, n in ((5, 2), (6, 2), (9, 3), (8, 3)):
        rng = unbalanced_range(m, n, 2)
        assert rng is not None
        lo, hi = rng
        for s in range(lo + 1, hi):
            verdict = eval_statement(Statement(m, n, 2, s, 0), seed=7)
            assert verdict.defect > 0, (m, n, s)
            assert verdict.rank == unbalanced_expected_dim(m, n, 2, s), (m, n, s)


def test_conjecture_verdict_classes():
    assert conjecture_verdict(2, 3, 5) == "defective:b"
    assert conjecture_verdict(2, 5, 8) == "defective:b"
    assert conjecture_verdict(4, 3, 6) == "defective:c"
    assert conjecture_verdict(5, 2, 5) == "defective:a"
    assert conjecture_verdict(6, 2, 5) == "defective:a"
    assert conjecture_verdict(2, 3, 4) == "nondefective"
    assert conjecture_verdict(3, 3, 4) == "nondefective"
