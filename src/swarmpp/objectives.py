"""Benchmark objective registry: 28 test functions F1-F28.

Every evaluator is vectorized over the last axis, so f(X) works for a single
point of shape (d,) and for a population of shape (n, d) alike.  The two
agree to the bit except where a value derived from a point's components,
such as Beale's 1.5 - x1 + x1*x2 or Zakharov's weighted sum s, is raised to
a power: for one point it is a numpy scalar, whose `**` is C pow, and for a
population an array, whose `**` is numpy's vectorized power loop.  Those
sites call the evaluator's power helper, f(x, pw=pow), instead of `**`;
BatchEvaluator.per_point binds pw to a scalar power per element, so one call
gives every row its single-point value.  Powers of x itself (x**2,
x[..., 0]**2) agree either way and keep `**`.

The default collection pairs the 14 fixed-dimension functions with each
arbitrary-dimension function instantiated at d in {5, 10, 20, 40}, giving 70
members.

Known quirks, kept deliberately:
  * F3 Bohachevsky3 is implemented with the conventional index pattern
    (x_i, x_{i+1}) for i = 1..d-1; the published index shift would run past
    the coordinate vector.
  * F22 Powell sums over complete 4-coordinate blocks only, so at d = 5 or 10
    the trailing coordinates are inert.
  * F24 Schwefel evaluates the shifted form 418.9829*d - sum(x_i sin sqrt|x_i|),
    not the conventional -sum(x_i sin sqrt|x_i|) with minimum -418.9829*d.
    Its minimum, at x_i = 420.9687, is d*(418.9829 - 418.98288727...), about
    1.27e-5*d; known_min records it as 0.0.  No metric reads known_min.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .search_space import Box

ARBITRARY_DIMS = (5, 10, 20, 40)
COLLECTION_DIMS = (2, 5, 10, 20, 40)


def _ackley(x, pw=pow):
    d = x.shape[-1]
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(np.sum(x**2, axis=-1) / d))
        - np.exp(np.sum(np.cos(2 * np.pi * x), axis=-1) / d)
        + 20.0
        + math.e
    )


def _bohachevsky1(x, pw=pow):
    a, b = x[..., :-1], x[..., 1:]
    return np.sum(
        a**2 + 2 * b**2 - 0.3 * np.cos(3 * np.pi * a) - 0.4 * np.cos(4 * np.pi * b) + 0.7,
        axis=-1,
    )


def _bohachevsky2(x, pw=pow):
    a, b = x[..., :-1], x[..., 1:]
    return np.sum(
        a**2 + 2 * b**2 - 0.3 * np.cos(3 * np.pi * a) * np.cos(4 * np.pi * b) + 0.3,
        axis=-1,
    )


def _bohachevsky3(x, pw=pow):
    a, b = x[..., :-1], x[..., 1:]
    return np.sum(
        a**2 + 2 * b**2 - 0.3 * np.cos(3 * np.pi * a + 4 * np.pi * b) + 0.3,
        axis=-1,
    )


def _bukin6(x, pw=pow):
    x1, x2 = x[..., 0], x[..., 1]
    return 100.0 * np.sqrt(np.abs(x2 - 0.01 * x1**2)) + 0.01 * np.abs(x1 + 10.0)


def _dropwave(x, pw=pow):
    r2 = x[..., 0] ** 2 + x[..., 1] ** 2
    return -(1.0 + np.cos(12.0 * np.sqrt(r2))) / (0.5 * r2 + 2.0)


def _eggholder(x, pw=pow):
    x1, x2 = x[..., 0], x[..., 1]
    return -(x2 + 47.0) * np.sin(np.sqrt(np.abs(x2 + x1 / 2.0 + 47.0))) - x1 * np.sin(
        np.sqrt(np.abs(x1 - (x2 + 47.0)))
    )


def _goldstein_price(x, pw=pow):
    x1, x2 = x[..., 0], x[..., 1]
    a = 1 + pw(x1 + x2 + 1, 2) * (
        19 - 14 * x1 + 3 * x1**2 - 14 * x2 + 6 * x1 * x2 + 3 * x2**2
    )
    b = 30 + pw(2 * x1 - 3 * x2, 2) * (
        18 - 32 * x1 + 12 * x1**2 + 48 * x2 - 36 * x1 * x2 + 27 * x2**2
    )
    return a * b


def _griewank(x, pw=pow):
    d = x.shape[-1]
    i = np.arange(1, d + 1, dtype=float)
    return 1.0 + np.sum(x**2, axis=-1) / 4000.0 - np.prod(np.cos(x / np.sqrt(i)), axis=-1)


def _mccormick(x, pw=pow):
    x1, x2 = x[..., 0], x[..., 1]
    return np.sin(x1 + x2) + pw(x1 - x2, 2) - 1.5 * x1 + 2.5 * x2 + 1.0


def _schaffer2(x, pw=pow):
    x1, x2 = x[..., 0], x[..., 1]
    r2 = x1**2 + x2**2
    return 0.5 + (pw(np.sin(x1**2 - x2**2), 2) - 0.5) / pw(1.0 + 0.001 * r2, 2)


def _schaffer4(x, pw=pow):
    x1, x2 = x[..., 0], x[..., 1]
    r2 = x1**2 + x2**2
    return 0.5 + (pw(np.cos(np.sin(np.abs(x1**2 - x2**2))), 2) - 0.5) / pw(1.0 + 0.001 * r2, 2)


def _booth(x, pw=pow):
    x1, x2 = x[..., 0], x[..., 1]
    return pw(x1 + 2 * x2 - 7, 2) + pw(2 * x1 + x2 - 5, 2)


def _branin(x, pw=pow):
    x1, x2 = x[..., 0], x[..., 1]
    b = 5.1 / (4 * np.pi**2)
    c = 5.0 / np.pi
    s = 10.0
    t = 1.0 / (8 * np.pi)
    return pw(x2 - b * x1**2 + c * x1 - 6.0, 2) + s * (1 - t) * np.cos(x1) + s


def _michalewicz(x, pw=pow):
    d = x.shape[-1]
    i = np.arange(1, d + 1, dtype=float)
    return -np.sum(np.sin(x) * np.sin(i * x**2 / np.pi) ** 20, axis=-1)


def _rastrigin(x, pw=pow):
    d = x.shape[-1]
    return 10.0 * d + np.sum(x**2 - 10.0 * np.cos(2 * np.pi * x), axis=-1)


def _shubert(x, pw=pow):
    i = np.arange(1, 6, dtype=float)
    t1 = np.sum(i * np.cos((i + 1) * x[..., 0, None] + i), axis=-1)
    t2 = np.sum(i * np.cos((i + 1) * x[..., 1, None] + i), axis=-1)
    return t1 * t2


def _beale(x, pw=pow):
    x1, x2 = x[..., 0], x[..., 1]
    return (
        pw(1.5 - x1 + x1 * x2, 2)
        + pw(2.25 - x1 + x1 * x2**2, 2)
        + pw(2.625 - x1 + x1 * x2**3, 2)
    )


def _dixon_price(x, pw=pow):
    d = x.shape[-1]
    i = np.arange(2, d + 1, dtype=float)
    return pw(x[..., 0] - 1, 2) + np.sum(
        i * (2 * x[..., 1:] ** 2 - x[..., :-1]) ** 2, axis=-1
    )


def _easom(x, pw=pow):
    x1, x2 = x[..., 0], x[..., 1]
    return -np.cos(x1) * np.cos(x2) * np.exp(-pw(x1 - np.pi, 2) - pw(x2 - np.pi, 2))


def _matyas(x, pw=pow):
    x1, x2 = x[..., 0], x[..., 1]
    return 0.26 * (x1**2 + x2**2) - 0.48 * x1 * x2


def _powell(x, pw=pow):
    nblocks = x.shape[-1] // 4
    total = np.zeros(x.shape[:-1])
    for b in range(nblocks):
        x1 = x[..., 4 * b]
        x2 = x[..., 4 * b + 1]
        x3 = x[..., 4 * b + 2]
        x4 = x[..., 4 * b + 3]
        total = total + (
            pw(x1 + 10 * x2, 2)
            + 5 * pw(x3 - x4, 2)
            + pw(x2 - 2 * x3, 4)
            + 10 * pw(x1 - x4, 4)
        )
    return total


def _rosenbrock(x, pw=pow):
    a, b = x[..., :-1], x[..., 1:]
    return np.sum(100.0 * (b - a**2) ** 2 + (a - 1) ** 2, axis=-1)


def _schwefel(x, pw=pow):
    d = x.shape[-1]
    return 418.9829 * d - np.sum(x * np.sin(np.sqrt(np.abs(x))), axis=-1)


def _trid(x, pw=pow):
    return np.sum((x - 1) ** 2, axis=-1) - np.sum(x[..., 1:] * x[..., :-1], axis=-1)


def _zakharov(x, pw=pow):
    d = x.shape[-1]
    i = np.arange(1, d + 1, dtype=float)
    s = np.sum(0.5 * i * x, axis=-1)
    return np.sum(x**2, axis=-1) + pw(s, 2) + pw(s, 4)


def _sphere(x, pw=pow):
    return np.sum(x**2, axis=-1)


def _sumsquare(x, pw=pow):
    d = x.shape[-1]
    i = np.arange(1, d + 1, dtype=float)
    return np.sum(i * x**2, axis=-1)


def _trid_min(d: int) -> float:
    return -d * (d + 4) * (d - 1) / 6.0


def _trid_minimizer(d: int) -> np.ndarray:
    i = np.arange(1, d + 1, dtype=float)
    return i * (d + 1 - i)


def _dixon_price_minimizer(d: int) -> np.ndarray:
    i = np.arange(1, d + 1, dtype=float)
    return 2.0 ** (-(2.0**i - 2.0) / 2.0**i)


@dataclass(frozen=True)
class ObjectiveSpec:
    """One registered test function and its metadata."""

    label: str
    name: str
    func: Callable[[np.ndarray], np.ndarray]
    fixed_dim: int | None  # None means any d in ARBITRARY_DIMS
    known_min: float | Callable[[int], float]
    unimodal: bool
    separable: bool
    # domain: either (lo, hi) applied to every coordinate, or explicit
    # per-coordinate (lower_list, upper_list) for fixed-dim functions,
    # or a callable d -> (lo, hi) for dimension-dependent bounds.
    domain: object
    # canonical minimizer location where one is standard; None otherwise
    minimizer: object = None

    @property
    def dims(self) -> tuple[int, ...]:
        if self.fixed_dim is not None:
            return (self.fixed_dim,)
        return ARBITRARY_DIMS

    def admits(self, d: int) -> bool:
        return d in self.dims

    def min_value(self, d: int) -> float:
        if callable(self.known_min):
            return float(self.known_min(d))
        return float(self.known_min)

    def minimizer_at(self, d: int):
        if self.minimizer is None:
            return None
        if callable(self.minimizer):
            return np.asarray(self.minimizer(d), dtype=float)
        return np.asarray(self.minimizer, dtype=float)


REGISTRY: dict[str, ObjectiveSpec] = {
    s.label: s
    for s in [
        ObjectiveSpec("F1", "Ackley", _ackley, None, 0.0, False, False, (-32.768, 32.768), lambda d: np.zeros(d)),
        ObjectiveSpec("F2", "Bohachevsky2", _bohachevsky2, None, 0.0, False, False, (-100.0, 100.0), lambda d: np.zeros(d)),
        ObjectiveSpec("F3", "Bohachevsky3", _bohachevsky3, None, 0.0, False, False, (-100.0, 100.0), lambda d: np.zeros(d)),
        ObjectiveSpec("F4", "Bukin6", _bukin6, 2, 0.0, False, False, ([-15.0, -3.0], [-5.0, 3.0]), [-10.0, 1.0]),
        ObjectiveSpec("F5", "DropWave", _dropwave, 2, -1.0, False, False, (-5.12, 5.12), [0.0, 0.0]),
        ObjectiveSpec("F6", "Eggholder", _eggholder, 2, -959.6407, False, False, (-512.0, 512.0), [512.0, 404.2319]),
        ObjectiveSpec("F7", "GoldSteinPrice", _goldstein_price, 2, 3.0, False, False, (-2.0, 2.0), [0.0, -1.0]),
        ObjectiveSpec("F8", "Griewank", _griewank, None, 0.0, False, False, (-600.0, 600.0), lambda d: np.zeros(d)),
        ObjectiveSpec("F9", "McCormick", _mccormick, 2, -1.9133, False, False, ([-1.5, -3.0], [4.0, 4.0]), None),
        ObjectiveSpec("F10", "Schaffer2", _schaffer2, 2, 0.0, False, False, (-100.0, 100.0), [0.0, 0.0]),
        ObjectiveSpec("F11", "Schaffer4", _schaffer4, 2, 0.292579, False, False, (-100.0, 100.0), None),
        ObjectiveSpec("F12", "Bohachevsky1", _bohachevsky1, None, 0.0, False, True, (-100.0, 100.0), lambda d: np.zeros(d)),
        ObjectiveSpec("F13", "Booth", _booth, 2, 0.0, False, True, (-10.0, 10.0), [1.0, 3.0]),
        ObjectiveSpec("F14", "Branin", _branin, 2, 0.397887, False, True, ([-5.0, 0.0], [10.0, 15.0]), [np.pi, 2.275]),
        ObjectiveSpec("F15", "Michalewicz5", _michalewicz, 5, -4.687658, False, True, (0.0, np.pi), None),
        ObjectiveSpec("F16", "Rastrigin", _rastrigin, None, 0.0, False, True, (-5.12, 5.12), lambda d: np.zeros(d)),
        ObjectiveSpec("F17", "Shubert", _shubert, 2, -186.73, False, True, (-10.0, 10.0), None),
        ObjectiveSpec("F18", "Beale", _beale, 2, 0.0, True, False, (-4.5, 4.5), [3.0, 0.5]),
        ObjectiveSpec("F19", "DixonPrice", _dixon_price, None, 0.0, True, False, (-10.0, 10.0), _dixon_price_minimizer),
        ObjectiveSpec("F20", "Easom", _easom, 2, -1.0, True, False, (-100.0, 100.0), [np.pi, np.pi]),
        ObjectiveSpec("F21", "Matyas", _matyas, 2, 0.0, True, False, (-10.0, 10.0), [0.0, 0.0]),
        ObjectiveSpec("F22", "Powell", _powell, None, 0.0, True, False, (-4.0, 5.0), lambda d: np.zeros(d)),
        ObjectiveSpec("F23", "Rosenbrock", _rosenbrock, None, 0.0, True, False, (-5.0, 10.0), lambda d: np.ones(d)),
        ObjectiveSpec("F24", "Schwefel", _schwefel, None, 0.0, True, False, (-500.0, 500.0), None),
        ObjectiveSpec("F25", "Trid6", _trid, None, _trid_min, True, False, lambda d: (-(d**2), d**2), _trid_minimizer),
        ObjectiveSpec("F26", "Zakharov", _zakharov, None, 0.0, True, False, (-5.0, 10.0), lambda d: np.zeros(d)),
        ObjectiveSpec("F27", "Sphere", _sphere, None, 0.0, True, True, (-5.12, 5.12), lambda d: np.zeros(d)),
        ObjectiveSpec("F28", "Sumsquare", _sumsquare, None, 0.0, True, True, (-10.0, 10.0), lambda d: np.zeros(d)),
    ]
}

ALL_LABELS = tuple(REGISTRY)


class UnsupportedDimensionError(ValueError):
    pass


def get(label: str) -> ObjectiveSpec:
    try:
        return REGISTRY[label]
    except KeyError:
        raise KeyError(f"unknown function label {label!r}") from None


def default_domain(spec: ObjectiveSpec, d: int) -> Box:
    """The standard literature search domain for (spec, d)."""
    if not spec.admits(d):
        raise UnsupportedDimensionError(f"{spec.label} does not admit d={d}")
    dom = spec.domain
    if callable(dom):
        dom = dom(d)
    lo, hi = dom
    if np.isscalar(lo):
        return Box.cube(lo, hi, d)
    return Box(np.asarray(lo, float), np.asarray(hi, float))


def evaluate(spec: ObjectiveSpec, d: int, x) -> float:
    """Evaluate f at a single point of length d."""
    if not spec.admits(d):
        raise UnsupportedDimensionError(f"{spec.label} does not admit d={d}")
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise ValueError(f"expected point of shape ({d},), got {x.shape}")
    return float(spec.func(x))


def _scalar_pow(base, exp):
    """base ** exp element by element, each on a numpy float64 scalar (C pow),
    as one point's derived component values are raised."""
    base = np.asarray(base, dtype=float)
    return np.array([v**exp for v in base.flat]).reshape(base.shape)


@dataclass(frozen=True)
class BatchEvaluator:
    """What batch_evaluator returns.  Calling it maps an (n, d) population (or
    one (d,) point) to values with numpy's array arithmetic; `per_point` maps
    a population in one call to the values each row gets evaluated alone."""

    func: Callable[..., np.ndarray]

    def __call__(self, X):
        return self.func(X)

    def per_point(self, X):
        return self.func(X, pw=_scalar_pow)


def batch_evaluator(spec: ObjectiveSpec, d: int) -> BatchEvaluator:
    """The evaluator of spec at dimension d (see BatchEvaluator)."""
    if not spec.admits(d):
        raise UnsupportedDimensionError(f"{spec.label} does not admit d={d}")
    return BatchEvaluator(spec.func)


def list_collection(dim: int | None = None) -> list[tuple[ObjectiveSpec, int]]:
    """Members of the default 70-function collection, optionally at one dimension."""
    if dim is not None and dim not in COLLECTION_DIMS:
        raise ValueError(f"dimension must be one of {COLLECTION_DIMS}, got {dim}")
    members = []
    for spec in REGISTRY.values():
        for d in spec.dims:
            if dim is None or d == dim:
                members.append((spec, d))
    return members
