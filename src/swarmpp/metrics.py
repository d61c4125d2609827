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


def pair_figures(runs) -> list[tuple[str, float, int, float, float]]:
    """Comparison figures of B against A at one checkpoint.

    runs is a sequence of (function, a, b): matched run vectors of A and B.
    Returns one (function, win, ties, RE_a, RE_b) row per function, in the
    given order, followed by the pooled row ("ALL", ...): the run-weighted
    winning proportion, the tie total and the mean relative errors.  Empty
    when runs is.
    """
    rows = []
    wins, count, ties_total = 0.0, 0, 0
    for function, a, b in runs:
        frac, ties = win_fraction(a, b)
        re_a, re_b = relative_error(a, b)
        rows.append((function, frac, ties, re_a, re_b))
        wins += frac * len(a)
        count += len(a)
        ties_total += ties
    if not rows:
        return rows
    re_a = aggregate_relative_error([row[3] for row in rows])
    re_b = aggregate_relative_error([row[4] for row in rows])
    return rows + [("ALL", wins / count, ties_total, re_a, re_b)]
