import numpy as np
import pytest

from swarmpp.metrics import aggregate_relative_error, pair_figures, relative_error, win_fraction


def test_win_fraction_strict_sweep():
    frac, ties = win_fraction([2.0, 2.0], [1.0, 1.5])
    assert frac == 1.0 and ties == 0


def test_win_fraction_all_ties():
    frac, ties = win_fraction([3.0, 3.0], [3.0, 3.0])
    assert frac == 0.5 and ties == 2


def test_win_fraction_enumerated():
    # B=(1,2,3,4) vs A=(2,2,2,2): (1 + 0.5 + 0 + 0)/4
    frac, ties = win_fraction([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0])
    assert frac == 0.375 and ties == 1


def test_winning_proportion_over_functions():
    rows = pair_figures([("f1", [2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0])])
    assert [r[:3] for r in rows] == [("f1", 0.375, 1), ("ALL", 0.375, 1)]
    # pooled over functions, weighted by runs: (0.375 * 4 + 1.0 * 2) / 6
    rows = pair_figures([
        ("f1", [2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0]),
        ("f2", [5.0, 5.0], [0.0, 1.0]),
    ])
    assert [r[0] for r in rows] == ["f1", "f2", "ALL"]
    assert rows[-1][1] == (0.375 * 4 + 1.0 * 2) / 6 and rows[-1][2] == 1
    assert rows[-1][3:] == (
        aggregate_relative_error([rows[0][3], rows[1][3]]),
        aggregate_relative_error([rows[0][4], rows[1][4]]),
    )
    assert pair_figures([]) == []


def test_winning_proportion_antisymmetry():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = rng.integers(0, 5, 20).astype(float)  # integer values force ties
        b = rng.integers(0, 5, 20).astype(float)
        fa, _ = win_fraction(a, b)
        fb, _ = win_fraction(b, a)
        assert fa + fb == 1.0


def test_winning_proportion_monotone_response():
    rng = np.random.default_rng(1)
    a = rng.normal(0, 1, 30)
    b = rng.normal(0, 1, 30)
    p0, _ = win_fraction(a, b)
    worse = np.where(b > a)[0]
    if worse.size:
        b2 = b.copy()
        b2[worse[0]] = a[worse[0]] - 1.0
        p1, _ = win_fraction(a, b2)
        assert p1 >= p0


def test_winning_proportion_shape_errors():
    with pytest.raises(ValueError):
        pair_figures([("f1", [1.0, 2.0], [1.0])])
    with pytest.raises(ValueError):
        pair_figures([("f1", np.zeros((3, 3)), np.zeros((3, 3)))])
    with pytest.raises(ValueError):
        win_fraction([1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="at least one run"):
        win_fraction([], [])
    with pytest.raises(ValueError, match="non-finite"):
        win_fraction([1.0, np.nan], [1.0, 2.0])


def test_relative_error_extremes():
    assert relative_error([0, 0, 0], [1, 1, 1]) == (0.0, 1.0)


def test_relative_error_zero_range():
    assert relative_error([2.0, 2.0], [2.0, 2.0]) == (0.0, 0.0)


def test_relative_error_arithmetic():
    # pooled min 0, range 4: RE_A = (0 + 0.25)/2, RE_B = (0.5 + 1)/2
    re_a, re_b = relative_error([0.0, 1.0], [2.0, 4.0])
    assert re_a == 0.125 and re_b == 0.75


def test_relative_error_nonfinite_rejected():
    with pytest.raises(ValueError):
        relative_error([0.0, np.inf], [1.0, 2.0])


def test_relative_error_empty_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        relative_error([], [1.0])


def test_relative_error_scale_invariance():
    rng = np.random.default_rng(2)
    a = rng.normal(3, 2, 50)
    b = rng.normal(3.5, 2, 50)
    base = relative_error(a, b)
    for _ in range(100):
        c = rng.uniform(1e-6, 1e6)
        scaled = relative_error(c * a, c * b)
        assert abs(scaled[0] - base[0]) < 1e-12
        assert abs(scaled[1] - base[1]) < 1e-12


def test_relative_error_shift_invariance():
    rng = np.random.default_rng(3)
    a = rng.normal(0, 1, 40)
    b = rng.normal(0, 1, 40)
    base = relative_error(a, b)
    for shift in (-100.0, -1.0, 5.0, 1e4):
        shifted = relative_error(a + shift, b + shift)
        assert abs(shifted[0] - base[0]) < 1e-9
        assert abs(shifted[1] - base[1]) < 1e-9


def test_aggregate_relative_error():
    assert aggregate_relative_error([0.2, 0.2, 0.2]) == pytest.approx(0.2)
    assert aggregate_relative_error([0.0, 1.0]) == 0.5
    assert aggregate_relative_error([0.125, 0.75, 0.1]) == pytest.approx(0.325)
    with pytest.raises(ValueError):
        aggregate_relative_error([])


def test_checkpoint_matrix_validation():
    # a runs x checkpoints matrix is compared one checkpoint column at a time
    values = np.arange(9.0).reshape(3, 3)
    with pytest.raises(ValueError):
        win_fraction(values, values)
    with pytest.raises(ValueError):
        pair_figures([("f1", values, values[:, 0])])
    figures = pair_figures([("f1", values[:, 0], values[:, 1])])
    assert figures[0][:3] == ("f1", 0.0, 0)
    assert figures[-1][:3] == ("ALL", 0.0, 0)
