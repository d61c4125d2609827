import numpy as np
import pytest

from swarmpp.search_space import Box, contains, project, sample_uniform


def test_box_validation():
    with pytest.raises(ValueError):
        Box([0.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        Box([0.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        Box([0.0, np.nan], [1.0, 1.0])
    b = Box.cube(-1, 1, 3)
    assert b.dim == 3


def test_box_refuses_a_span_past_the_largest_double():
    with pytest.raises(ValueError, match="spans must be finite"):
        Box.cube(-1e308, 1e308, 2)
    with pytest.raises(ValueError, match="spans must be finite"):
        Box([0.0, -1.7e308], [1.0, 1.7e308])
    # the widest span a double holds is a box
    assert Box.cube(-8e307, 8e307, 2).dim == 2


def test_project_clamps_one_coordinate():
    box = Box.cube(-1, 1, 2)
    np.testing.assert_array_equal(project([2.0, 0.5], box), [1.0, 0.5])


def test_project_identity_inside():
    box = Box.cube(-1, 1, 2)
    np.testing.assert_array_equal(project([0.3, -0.4], box), [0.3, -0.4])


def test_project_mixed_clamp():
    # verified against brute-force nearest-point search in test_project_brute_force_oracle
    box = Box.cube(0, 1, 3)
    np.testing.assert_array_equal(project([5.0, -5.0, 0.25], box), [1.0, 0.0, 0.25])


def test_project_errors():
    box = Box.cube(-1, 1, 2)
    with pytest.raises(ValueError):
        project([1.0, 2.0, 3.0], box)
    with pytest.raises(ValueError):
        project([np.nan, 0.0], box)
    with pytest.raises(ValueError):
        contains([1.0, 2.0, 3.0], box)


def test_contains_boundary():
    box = Box.cube(-1, 1, 2)
    assert contains([0.0, 0.0], box)
    assert contains([1.0, -1.0], box)
    assert not contains([1.0000001, 0.0], box)
    assert not contains([0.0, np.nan], box)


def test_project_always_contained():
    rng = np.random.default_rng(7)
    box = Box.cube(-1, 1, 4)
    for _ in range(10_000):
        x = rng.normal(0, 5, 4)
        assert contains(project(x, box), box)


def test_project_idempotent_and_fixed_point():
    rng = np.random.default_rng(8)
    box = Box(np.array([-2.0, 0.0, -1.0]), np.array([1.0, 3.0, 0.5]))
    for _ in range(1000):
        x = rng.normal(0, 10, 3)
        p = project(x, box)
        np.testing.assert_array_equal(project(p, box), p)
    inside = sample_uniform(box, rng)
    np.testing.assert_array_equal(project(inside, box), inside)


def test_project_nonexpansive_toward_interior():
    rng = np.random.default_rng(9)
    box = Box.cube(-1, 1, 5)
    for _ in range(10_000):
        x = rng.normal(0, 3, 5)
        y = sample_uniform(box, rng)
        assert np.linalg.norm(project(x, box) - y) <= np.linalg.norm(x - y) + 1e-12


def test_project_matches_grid_oracle():
    # independent oracle: nearest point on a fine grid of the box
    rng = np.random.default_rng(10)
    box = Box.cube(-1, 1, 2)
    grid_axis = np.linspace(-1, 1, 201)
    gx, gy = np.meshgrid(grid_axis, grid_axis)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    resolution = grid_axis[1] - grid_axis[0]
    for _ in range(50):
        x = rng.normal(0, 2, 2)
        nearest = grid[np.argmin(np.sum((grid - x) ** 2, axis=1))]
        assert np.max(np.abs(project(x, box) - nearest)) <= resolution


def test_sample_uniform_contained_and_mean():
    rng = np.random.default_rng(11)
    box = Box.cube(0, 1, 2)
    samples = sample_uniform(box, rng, size=100_000)
    assert np.all(samples >= 0) and np.all(samples <= 1)
    assert np.max(np.abs(samples.mean(axis=0) - 0.5)) < 0.01


def test_sample_uniform_deterministic():
    box = Box.cube(-3, 2, 4)
    a = sample_uniform(box, np.random.default_rng(5), size=10)
    b = sample_uniform(box, np.random.default_rng(5), size=10)
    np.testing.assert_array_equal(a, b)
