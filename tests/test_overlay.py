import numpy as np
import pytest

from vinefolio import overlay
from vinefolio.errors import DimensionMismatch

# Worked three-currency carry example used throughout: currencies
# (USD, GBP, JPY) with per-period rates (2%, 4%, 1%); positions of 1% of
# the portfolio buying USD against JPY, 9% buying GBP against USD, and
# 2% buying JPY against GBP.
RATES = np.array([0.02, 0.04, 0.01])


def _worked_example_overlay():
    T = overlay.build_ternary(3)
    # pairs: (0,1)=(USD,GBP), (0,2)=(USD,JPY), (1,2)=(GBP,JPY)
    q = np.array([-0.09, 0.01, -0.02])
    return T, q, overlay.build_overlay(T, q)


def test_build_ternary_c3():
    T = overlay.build_ternary(3)
    assert T.n_pairs == 3 and T.n_currencies == 3
    assert T.pairs == ((0, 1), (0, 2), (1, 2))
    expected = np.array([[1, -1, 0], [1, 0, -1], [0, 1, -1]])
    assert np.array_equal(T.matrix, expected)


def test_build_ternary_row_properties():
    for C in (2, 5, 14):
        T = overlay.build_ternary(C)
        assert T.n_pairs == C * (C - 1) // 2
        assert np.all(T.matrix.sum(axis=1) == 0)
        assert np.all((T.matrix == 1).sum(axis=1) == 1)
        assert np.all((T.matrix == -1).sum(axis=1) == 1)
        rows = {tuple(r) for r in T.matrix}
        assert len(rows) == T.n_pairs


def test_build_ternary_14_currencies_gives_91_pairs():
    assert overlay.build_ternary(14).n_pairs == 91


def test_build_ternary_minimum_size():
    T = overlay.build_ternary(2)
    assert np.array_equal(T.matrix, [[1, -1]])
    with pytest.raises(DimensionMismatch):
        overlay.build_ternary(1)


def test_build_overlay_zero_positions():
    T = overlay.build_ternary(3)
    assert np.array_equal(overlay.build_overlay(T, np.zeros(3)), np.zeros((3, 3)))


def test_build_overlay_single_pair():
    T = overlay.build_ternary(3)
    F = overlay.build_overlay(T, np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(F[0], [1.0, -1.0, 0.0])
    assert np.array_equal(F[1:], np.zeros((2, 3)))


def test_build_overlay_rows_sum_to_zero():
    T, q, F = _worked_example_overlay()
    assert np.all(F.sum(axis=1) == 0.0)


def test_build_overlay_dimension_mismatch():
    T = overlay.build_ternary(3)
    with pytest.raises(DimensionMismatch):
        overlay.build_overlay(T, np.zeros(4))


def test_worked_example_column_sums():
    _, _, F = _worked_example_overlay()
    v = overlay.overlay_positions(F)
    assert v == pytest.approx([-0.08, 0.07, 0.01], abs=1e-12)


def test_per_contract_carries():
    # buy USD vs JPY, 1%: 0.01 * (2% - 1%) = 0.01%
    assert overlay.cost_of_carry([0.01, 0.0, -0.01], RATES) == pytest.approx(1e-4, abs=1e-12)
    # buy GBP vs USD, 9%: 0.09 * (4% - 2%) = 0.18%
    assert overlay.cost_of_carry([-0.09, 0.09, 0.0], RATES) == pytest.approx(18e-4, abs=1e-12)
    # buy JPY vs GBP, 2%: 0.02 * (1% - 4%) = -0.06%
    assert overlay.cost_of_carry([0.0, -0.02, 0.02], RATES) == pytest.approx(-6e-4, abs=1e-12)


def test_worked_example_net_carry():
    _, _, F = _worked_example_overlay()
    carry = overlay.cost_of_carry(overlay.overlay_positions(F), RATES)
    assert carry == pytest.approx(0.0013, abs=1e-12)


def test_cost_of_carry_linear():
    rng = np.random.default_rng(0)
    v1, v2, rates = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
    lhs = overlay.cost_of_carry(2.0 * v1 + v2, rates)
    rhs = 2.0 * overlay.cost_of_carry(v1, rates) + overlay.cost_of_carry(v2, rates)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_total_overlay_zero():
    assert overlay.total_overlay(np.zeros((3, 3))) == 0.0


def test_worked_example_total_overlay():
    _, _, F = _worked_example_overlay()
    assert overlay.total_overlay(F) == pytest.approx(0.08, abs=1e-12)


def test_total_overlay_single_forward():
    T = overlay.build_ternary(2)
    F = overlay.build_overlay(T, np.array([0.37]))
    assert overlay.total_overlay(F) == pytest.approx(0.37, abs=1e-15)

