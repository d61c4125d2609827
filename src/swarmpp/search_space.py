"""Axis-aligned box search domains: clamping, containment and uniform sampling.

The search space is always a nondegenerate hyper-rectangle, so the Euclidean
projection is the componentwise clamp and is unique (no tie-breaking needed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """A compact hyper-rectangle given by per-dimension lower/upper bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.ndim != 1 or upper.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if lower.size < 1:
            raise ValueError("box must have at least one dimension")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("box bounds must be finite")
        if not np.all(lower < upper):
            raise ValueError("need lower[k] < upper[k] in every dimension")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(upper - lower)):
                raise ValueError("box spans must be finite: upper - lower overflows a double")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.size

    @classmethod
    def cube(cls, lower: float, upper: float, dim: int) -> "Box":
        """A box with the same bounds in every dimension."""
        return cls(np.full(dim, float(lower)), np.full(dim, float(upper)))


@dataclass(frozen=True)
class BoxStack:
    """The boxes of R stacked runs of one dimension, their bounds shaped
    (R, 1, d) to broadcast against (R, n, d) stacks of points."""

    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def of(cls, boxes) -> "BoxStack":
        return cls(np.array([b.lower for b in boxes])[:, None], np.array([b.upper for b in boxes])[:, None])

    @property
    def dim(self) -> int:
        return self.lower.shape[-1]


def _check_point(x, box: Box | BoxStack) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != box.dim:
        raise ValueError(f"point has dimension {x.shape[-1]}, box has {box.dim}")
    return x


def project(x, box: Box) -> np.ndarray:
    """Nearest point of the box under Euclidean distance (componentwise clamp).

    Accepts a single point of shape (d,) or a batch of shape (n, d).
    Rejects non-finite coordinates instead of clamping them: a NaN would
    otherwise silently corrupt best-so-far bookkeeping downstream.
    """
    x = _check_point(x, box)
    if not np.all(np.isfinite(x)):
        raise ValueError("point has non-finite coordinates")
    return np.clip(x, box.lower, box.upper)


def contains(x, box: Box | BoxStack, axis=None):
    """True iff every coordinate of a point (d,) or batch (n, d) lies within
    the (closed) box; a NaN coordinate lies outside it.

    With `axis`, the test reduces over those axes only and gives one flag per
    remaining index: contains(X, stack, axis=(1, 2)) flags each run of an
    (R, n, d) stack X against its own box of the BoxStack `stack`.
    """
    x = _check_point(x, box)
    inside = (x >= box.lower) & (x <= box.upper)
    return bool(inside.all()) if axis is None else inside.all(axis=axis)


def uniform_in(box: Box | BoxStack, u: np.ndarray) -> np.ndarray:
    """The points lower + (upper - lower) * u of the box, or of each run's box
    of a BoxStack, for values u in [0, 1) that broadcast against its bounds."""
    return box.lower + (box.upper - box.lower) * u


def sample_uniform(box: Box, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Sample uniformly over the box: shape (d,) or (size, d), uniform_in of
    rng.random() values, not Generator.uniform, whose stream numpy may change."""
    return uniform_in(box, rng.random(box.dim if size is None else (size, box.dim)))
