"""Pairwise comparison statistics: winning proportion and relative error.

Winning proportion of B over A at a checkpoint is the double average over
functions and runs of the indicator that B's best-so-far beats A's.  Exact
ties count half to each side, which keeps P(B>A) + P(A>B) = 1 even with
floating-point collisions; tie counts are reported so the strict-only figure
is recoverable.

Relative error rescales each algorithm's outputs by the pooled best and range
of both algorithms' runs at a fixed (function, checkpoint), giving a
scale- and shift-free score in [0, 1].
"""

from __future__ import annotations

import math

import numpy as np


def win_fraction(a: np.ndarray, b: np.ndarray) -> tuple[float, int]:
    """Fraction of paired runs where b < a, ties counting 1/2; plus tie count."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("need matched 1-d run vectors")
    if a.size == 0:
        raise ValueError("need at least one run")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite best-so-far values")
    ties = int(np.sum(a == b))
    wins = float(np.sum(b < a)) + 0.5 * ties
    return wins / a.size, ties


def relative_error(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Mean of (value - pooled min) / pooled range for each algorithm.

    Returns (RE_a, RE_b); (0, 0) when all pooled values coincide.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("need non-empty run vectors")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite best-so-far values")
    pooled = np.concatenate([a, b])
    m_star, m_top = pooled.min(), pooled.max()
    spread = m_top - m_star
    if spread == 0.0:
        return 0.0, 0.0
    return float(np.mean((a - m_star) / spread)), float(np.mean((b - m_star) / spread))


def aggregate_relative_error(per_function: list[float]) -> float:
    """Mean relative error over a function collection."""
    if not per_function:
        raise ValueError("need at least one function")
    return float(np.mean(per_function))


def _compacted(x: np.ndarray, mask: np.ndarray):
    """The rows of x (M, ..., L) grouped by their number n > 0 of entries set
    in mask (M, L): per n, (n, rows, x[rows] holding only the set entries
    along L, in order), the last a C-contiguous array (len(rows), ..., n);
    rows is a slice of them all when all M have n."""
    counts = mask.sum(-1).tolist()
    for n in sorted(set(counts) - {0}):
        # a slice when every row has n entries, so that x is not copied
        rows = slice(None) if counts.count(n) == len(counts) else [i for i, c in enumerate(counts) if c == n]
        if n == mask.shape[-1]:
            yield n, rows, np.ascontiguousarray(x[rows])
        else:
            columns = np.argsort(~mask[rows], axis=-1, kind="stable")[:, :n]
            yield n, rows, np.take_along_axis(x[rows], columns.reshape(len(columns), *[1] * (x.ndim - 2), n), axis=-1)


def pair_figures(a, b, valid) -> tuple[np.ndarray, ...]:
    """Comparison figures of B against A at every checkpoint, in one call.

    a and b are run tables of shape (..., F, C, R): the best-so-far values of
    F functions at C checkpoints in R runs, runs last; leading axes, such as
    one per pair, are carried through.  valid (..., F, R) marks the runs
    compared, those that ran on both sides.  Per function the figures are
    win_fraction and relative_error of its valid runs; the pooled row weights
    the winning proportions by runs, sums the ties and takes the mean
    relative errors over the functions with a valid run.

    Returns (count, win, ties, re_a, re_b): the runs compared (..., F + 1),
    and the winning proportion, the tie count and the relative errors of A
    and B (..., F + 1, C).  Along their function axis the F functions come
    first and the pooled row ("ALL") last; a row of count 0 compares no run,
    and its figures are 0.

    Each figure has the bits of that per-vector code: a function's valid runs
    are compacted and grouped with the functions of as many valid runs, and
    every mean reduces a contiguous last axis, as numpy's does a vector; the
    pooled win is the sequential sum of win x runs in function order.
    """
    a, b, valid = np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(valid, dtype=bool)
    if a.shape != b.shape or a.ndim < 3 or valid.shape != a.shape[:-2] + a.shape[-1:]:
        raise ValueError("need matched (..., F, C, R) run tables and a (..., F, R) valid mask")
    *lead, F, C, R = a.shape
    M = math.prod(lead)
    a, b, valid = a.reshape(M * F, C, R), b.reshape(M * F, C, R), valid.reshape(M * F, R)
    if not (np.isfinite(a).all(1)[valid].all() and np.isfinite(b).all(1)[valid].all()):
        raise ValueError("non-finite best-so-far values")
    win, wins, re = np.zeros((M * F, C)), np.zeros((M * F, C)), np.zeros((M * F, C, 2))
    ties = np.zeros((M * F, C), dtype=int)
    for (n, rows, runs_a), (_, _, runs_b) in zip(_compacted(a, valid), _compacted(b, valid)):  # one mask: one grouping
        tie = runs_a == runs_b
        ties[rows] = tie.sum(-1)
        # counted as floats, which is exact: an int-to-float cast would page
        # in more of numpy's code, adding to the peak memory
        frac = ((runs_b < runs_a).sum(-1, dtype=float) + 0.5 * tie.sum(-1, dtype=float)) / n
        win[rows], wins[rows] = frac, frac * n
        low = np.minimum(runs_a.min(-1), runs_b.min(-1))[..., None]  # of A's runs and B's, pooled
        spread = np.maximum(runs_a.max(-1), runs_b.max(-1))[..., None] - low
        spread[spread == 0.0] = 1.0  # every value is low: (0.0, 0.0)
        for side, runs in enumerate((runs_a, runs_b)):
            scaled = runs - low
            scaled /= spread  # in place: one temporary the size of the runs, not two
            re[rows, :, side] = scaled.mean(-1)

    # the pooled row, over the F functions of each leading index
    count = valid.sum(-1).reshape(M, F)
    win, wins, ties, re = win.reshape(M, F, C), wins.reshape(M, F, C), ties.reshape(M, F, C), re.reshape(M, F, C, 2)
    all_win, all_re = np.zeros((M, C)), np.zeros((M, 2, C))
    if F:  # each win x runs added in function order, as a loop adds them
        compared = valid.reshape(M, F * R).sum(-1, dtype=float)
        all_win = np.add.accumulate(wins, axis=1)[:, -1] / np.maximum(compared, 1.0)[:, None]
    kept = valid.reshape(M, F, R).any(-1)  # not count > 0, an int comparison: more of numpy's code again
    for _, rows, per_function in _compacted(re.transpose(0, 3, 2, 1), kept):
        all_re[rows] = per_function.mean(-1)
    return tuple(np.concatenate([x, p[:, None]], axis=1).reshape(*lead, F + 1, *x.shape[2:])
                 for x, p in ((count, count.sum(-1)), (win, all_win), (ties, ties.sum(1)),
                              (re[..., 0], all_re[:, 0]), (re[..., 1], all_re[:, 1])))
