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


def _table(*functions, runs=None):
    """Run tables (F, 1, R) of A and B at one checkpoint and their valid mask,
    from (a, b) run vectors per function; a shorter function's missing runs
    are invalid."""
    runs = runs or max(len(a) for a, _ in functions)
    a, b = np.zeros((2, len(functions), 1, runs))
    valid = np.zeros((len(functions), runs), dtype=bool)
    for f, (av, bv) in enumerate(functions):
        a[f, 0, :len(av)], b[f, 0, :len(bv)], valid[f, :len(av)] = av, bv, True
    return a, b, valid


def _rows(figures, names):
    """(function, win, ties, RE_a, RE_b) per row with runs, at the first checkpoint."""
    count, *per_checkpoint = figures
    return [(name, *(x[f, 0] for x in per_checkpoint)) for f, name in enumerate(names + ["ALL"]) if count[f]]


def test_winning_proportion_over_functions():
    rows = _rows(pair_figures(*_table(([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0]))), ["f1"])
    assert [r[:3] for r in rows] == [("f1", 0.375, 1), ("ALL", 0.375, 1)]
    # pooled over functions, weighted by runs: (0.375 * 4 + 1.0 * 2) / 6
    figures = pair_figures(*_table(
        ([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0]),
        ([5.0, 5.0], [0.0, 1.0]),
    ))
    rows = _rows(figures, ["f1", "f2"])
    assert figures[0].tolist() == [4, 2, 6]
    assert [r[0] for r in rows] == ["f1", "f2", "ALL"]
    assert rows[-1][1] == (0.375 * 4 + 1.0 * 2) / 6 and rows[-1][2] == 1
    assert rows[-1][3:] == (
        aggregate_relative_error([rows[0][3], rows[1][3]]),
        aggregate_relative_error([rows[0][4], rows[1][4]]),
    )
    # no function: no row
    assert _rows(pair_figures(np.zeros((0, 1, 3)), np.zeros((0, 1, 3)), np.zeros((0, 3), bool)), []) == []


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
    # run tables (F, C, R): the same shape on both sides, and a (F, R) mask
    with pytest.raises(ValueError):
        pair_figures(np.zeros((1, 1, 2)), np.zeros((1, 1, 1)), np.ones((1, 2), bool))
    with pytest.raises(ValueError):
        pair_figures(np.zeros((3, 3)), np.zeros((3, 3)), np.ones((3, 3), bool))
    with pytest.raises(ValueError):
        pair_figures(np.zeros((1, 1, 2)), np.zeros((1, 1, 2)), np.ones((1, 1, 2), bool))
    # a non-finite value is refused where a run is compared, and ignored
    # where it is not (a failed run's table entry)
    a, b, valid = _table(([1.0, np.nan], [1.0, 2.0]))
    with pytest.raises(ValueError, match="non-finite"):
        pair_figures(a, b, valid)
    valid[0, 1] = False
    assert pair_figures(a, b, valid)[0].tolist() == [1, 1]
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
        pair_figures(values.T[None], values.T[None, :1], np.ones((1, 3), bool))
    # column c of A against column c + 1 of B, every checkpoint in one call
    _, win, ties, _, _ = pair_figures(values.T[None, :2], values.T[None, 1:], np.ones((1, 3), bool))
    assert (win.tolist(), ties.tolist()) == ([[0.0, 0.0]] * 2, [[0, 0]] * 2)


def test_pair_figures_equal_per_vector_code():
    # every figure, by repr, against win_fraction, relative_error and
    # np.mean per vector, over ragged valid sets and runs past numpy's
    # pairwise blocks of 8 and 128 values
    rng = np.random.default_rng(4)
    for P, F, C, R in ((1, 3, 1, 1), (2, 14, 3, 9), (3, 15, 2, 20), (1, 12, 1, 150), (2, 5, 4, 300)):
        a = rng.lognormal(0.0, 3.0, (P, F, C, R))
        b = rng.lognormal(0.0, 3.0, (P, F, C, R))
        b[..., ::3] = a[..., ::3]  # exact ties
        a[:, 0], b[:, 0] = 2.0, 2.0  # zero spread
        valid = rng.random((P, F, R)) < 0.8
        valid[:, 1], valid[0, -1] = True, False
        a[~np.broadcast_to(valid[:, :, None], a.shape)] = np.nan  # a failed run has no values
        figures = pair_figures(a, b, valid)
        for p in range(P):
            runs = valid[p]
            assert figures[0][p].tolist() == [*runs.sum(-1), runs.sum()]
            assert not figures[1][p, :F][~runs.any(-1)].any()  # no run compared: 0
            for c in range(C):
                wins, ties_all, re_all = 0.0, 0, ([], [])
                for f in np.flatnonzero(runs.any(-1)):
                    av, bv = a[p, f, c, runs[f]], b[p, f, c, runs[f]]
                    frac, ties = win_fraction(av, bv)
                    want = (frac, ties, *relative_error(av, bv))
                    assert repr(tuple(x[p, f, c].item() for x in figures[1:])) == repr(want)
                    wins += frac * len(av)
                    ties_all += ties
                    re_all[0].append(want[2])
                    re_all[1].append(want[3])
                pooled = (wins / int(runs.sum()), ties_all, *(aggregate_relative_error(re) for re in re_all))
                assert repr(tuple(x[p, F, c].item() for x in figures[1:])) == repr(pooled)
