import dataclasses

import numpy as np
import pytest

from swarmpp import objectives as ob
from swarmpp.objectives import UnsupportedDimensionError
from swarmpp.search_space import contains, sample_uniform


def test_collection_sizes():
    assert len(ob.list_collection()) == 70
    assert len(ob.list_collection(2)) == 13
    # d=5: the 14 arbitrary-dimension functions plus Michalewicz5
    assert len(ob.list_collection(5)) == 15
    assert len(ob.list_collection(40)) == 14
    with pytest.raises(ValueError):
        ob.list_collection(3)


def test_registry_labels():
    assert ob.ALL_LABELS == tuple(f"F{i}" for i in range(1, 29))
    with pytest.raises(KeyError, match="unknown function label 'F29'"):
        ob.get("F29")


def test_fixed_dimension_rejection():
    for label in ("F4", "F5", "F6", "F7", "F9", "F10", "F11", "F13", "F14", "F17", "F18", "F20", "F21"):
        spec = ob.get(label)
        assert spec.dims == (2,)
        with pytest.raises(UnsupportedDimensionError):
            ob.evaluate(spec, 5, np.zeros(5))
        with pytest.raises(UnsupportedDimensionError, match=f"{label} does not admit d=5"):
            ob.default_domain(spec, 5)
        with pytest.raises(UnsupportedDimensionError, match=f"{label} does not admit d=5"):
            ob.batch_evaluator(spec, 5)
    assert ob.get("F15").dims == (5,)


def test_length_mismatch():
    with pytest.raises(ValueError):
        ob.evaluate(ob.get("F1"), 5, np.zeros(4))


def test_spot_values():
    assert ob.evaluate(ob.get("F27"), 5, np.zeros(5)) == 0.0
    assert abs(ob.evaluate(ob.get("F1"), 10, np.zeros(10))) < 1e-12
    # hand evaluation: (1+6-7)^2 + (2+3-5)^2 = 0
    assert ob.evaluate(ob.get("F13"), 2, [1.0, 3.0]) == 0.0
    # hand evaluation of the product form at (0,-1): 1 * 3 = 3
    assert ob.evaluate(ob.get("F7"), 2, [0.0, -1.0]) == 3.0
    # -d(d+4)(d-1)/6 at d=5
    assert ob.get("F25").min_value(5) == -30.0
    assert abs(ob.evaluate(ob.get("F25"), 5, ob.get("F25").minimizer_at(5)) + 30.0) < 1e-9


def test_known_minimum_at_registered_minimizer():
    for spec, d in ob.list_collection():
        loc = spec.minimizer_at(d)
        if loc is None:
            continue
        value = ob.evaluate(spec, d, loc)
        target = spec.min_value(d)
        if target == 0.0:
            assert abs(value) < 1e-9, spec.label
        else:
            assert abs(value - target) <= 1e-6 * abs(target), spec.label


def test_minimizer_inside_domain():
    for spec, d in ob.list_collection():
        loc = spec.minimizer_at(d)
        if loc is None:
            continue
        assert contains(loc, ob.default_domain(spec, d)), spec.label


def test_default_domains():
    np.testing.assert_array_equal(ob.default_domain(ob.get("F16"), 5).lower, np.full(5, -5.12))
    np.testing.assert_array_equal(ob.default_domain(ob.get("F27"), 10).upper, np.full(10, 5.12))
    branin = ob.default_domain(ob.get("F14"), 2)
    np.testing.assert_array_equal(branin.lower, [-5.0, 0.0])
    np.testing.assert_array_equal(branin.upper, [10.0, 15.0])


def test_default_domains_are_shared_and_read_only():
    # one box per registered function and dimension, whose bounds no caller can edit
    for label, d in (("F16", 5), ("F16", 40), ("F14", 2)):
        box = ob.default_domain(ob.get(label), d)
        assert ob.default_domain(ob.get(label), d) is box
        for bound in (box.lower, box.upper):
            with pytest.raises(ValueError, match="read-only"):
                bound[0] = 0.0
    assert ob.default_domain(ob.get("F16"), 5) is not ob.default_domain(ob.get("F16"), 10)
    # a spec of the caller's own, even under a registered label, gets a box of its own domain
    own = dataclasses.replace(ob.get("F16"), domain=(-1.0, 1.0))
    np.testing.assert_array_equal(ob.default_domain(own, 5).upper, np.ones(5))
    assert ob.default_domain(own, 5) is not ob.default_domain(own, 5)


def test_no_nan_over_domain():
    rng = np.random.default_rng(3)
    for spec, d in ob.list_collection():
        box = ob.default_domain(spec, d)
        X = sample_uniform(box, rng, size=10_000)
        vals = spec.func(X)
        assert np.all(np.isfinite(vals)), spec.label


@pytest.mark.parametrize("label", ["F16", "F27", "F28"])
def test_separable_structure(label):
    # changing coordinate k changes f by an amount independent of the others
    spec = ob.get(label)
    d = 5
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.uniform(-2, 2, d)
        y = rng.uniform(-2, 2, d)
        k = rng.integers(d)
        xk = x.copy()
        xk[k] = 7.0 - xk[k]
        yk = y.copy()
        yk[k] = xk[k]
        y_base = y.copy()
        y_base[k] = x[k]
        delta_x = ob.evaluate(spec, d, xk) - ob.evaluate(spec, d, x)
        delta_y = ob.evaluate(spec, d, yk) - ob.evaluate(spec, d, y_base)
        assert abs(delta_x - delta_y) < 1e-8


def test_evaluation_pure():
    spec = ob.get("F8")
    x = np.array([1.1, -2.2, 3.3, 0.4, -0.5])
    assert ob.evaluate(spec, 5, x) == ob.evaluate(spec, 5, x)


def test_powell_block_convention():
    # d=5 evaluates only the first complete 4-coordinate block
    spec = ob.get("F22")
    x = np.array([1.0, 2.0, 3.0, 4.0, 99.0])
    assert ob.evaluate(spec, 5, x) == ob.evaluate(ob.get("F22"), 5, np.append(x[:4], 0.0))


def test_schwefel_formula_verbatim():
    spec = ob.get("F24")
    # the printed, shifted formula has minimum ~1.27e-5*d near x_i = 420.9687,
    # which known_min records as 0
    val = ob.evaluate(spec, 5, np.full(5, 420.9687))
    assert abs(val) < 1e-2
    assert spec.min_value(5) == 0.0



def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_per_point_block_equals_single_points_bitwise():
    # DE values its trials with BatchEvaluator.per_point: one call for the
    # block, each value bit-equal to evaluating its row alone
    rng = np.random.default_rng(8)
    for spec, d in ob.list_collection():
        box = ob.default_domain(spec, d)
        ev = ob.batch_evaluator(spec, d)
        # a derived value's square differs between the two on ~0.1 % of
        # points, and the sum it enters hides some of those, so the members
        # with such sites (d=2 and d=5 mostly) get many points
        X = sample_uniform(box, rng, size={2: 32768, 5: 8192}.get(d, 512))
        points = np.concatenate(
            [
                X,
                np.clip(np.round(X[:512]), box.lower, box.upper),  # integer-valued
                np.where(rng.random((64, d)) < 0.5, box.lower, box.upper),  # box corners
                np.where(rng.random((64, d)) < 0.5, box.lower, X[:64]),  # points on faces
            ]
        )
        single = [ev(x) for x in points]
        for block in np.split(points, [32, 96, 200, 512]):
            np.testing.assert_array_equal(_bits(ev.per_point(block)), _bits(single[: len(block)]), spec.label)
            single = single[len(block):]


def test_scalar_pow_equals_numpy_scalar_power_bitwise():
    # _scalar_pow raises each value by math.pow, the C pow that a numpy
    # float64 scalar's ** calls: the same bits on negative, tiny, huge and
    # integer bases at the exponents the objectives use, and in any shape
    rng = np.random.default_rng(3)
    base = np.concatenate([
        rng.normal(size=20000) * 10.0 ** rng.integers(-150, 70, 20000),
        -np.abs(rng.normal(size=2000)) * 1e-160,  # tiny and negative: squares underflow
        np.round(rng.uniform(-50, 50, 500)), [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0],
    ]).reshape(-1, 2)
    for exp in (2, 4):
        expected = np.array([v**exp for v in base.flat]).reshape(base.shape)
        np.testing.assert_array_equal(_bits(ob._scalar_pow(base, exp)), _bits(expected))
    assert ob._scalar_pow(np.float64(-3.0), 2).shape == ()
    # a base whose power overflows: math.pow raises, and the value is numpy's
    # scalar inf, with numpy's warning
    with pytest.warns(RuntimeWarning, match="overflow"):
        out = ob._scalar_pow(np.array([[-1e200, 3.0]]), 2)
    np.testing.assert_array_equal(out, [[np.inf, 9.0]])
