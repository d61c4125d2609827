import re

import numpy as np
import pytest

from swarmpp.algorithms import perturb_project
from swarmpp.perturbation import NoiseModel, sample_noise
from swarmpp.search_space import Box, contains


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(kind="gaussian", sigma=0.0)
    with pytest.raises(ValueError):
        NoiseModel(kind="scaled_t", df=2)
    with pytest.raises(ValueError):
        NoiseModel(kind="cauchy")
    NoiseModel(kind="scaled_t", df=5)


def test_noise_model_refuses_what_from_dict_refuses():
    # a df the Gaussian kind would drop from to_dict() and the digest
    with pytest.raises(ValueError, match="gaussian noise takes only 'sigma'; unused key"):
        NoiseModel(kind="gaussian", df=5)
    # a df that is no integer, as any integer field: 10.0 was read as 10
    for df in (3.5, 10.0):
        with pytest.raises(TypeError, match=re.escape(f"df must be an integer, got {df!r}")):
            NoiseModel(kind="scaled_t", df=df)
    # a df past the largest double, which standard_t failed to convert
    with pytest.raises(ValueError, match=re.escape(f"df must be finite, got {10**400!r}")):
        NoiseModel.from_dict({"kind": "scaled_t", "df": 10**400})
    # a sigma the scaled t would drop likewise
    with pytest.raises(ValueError, match="scaled_t noise takes only 'df'; unused key"):
        NoiseModel(kind="scaled_t", df=5, sigma=0.1)
    # an integer df of any type is stored, serialised and digested as an int
    model = NoiseModel(kind="scaled_t", df=np.int64(10))
    assert type(model.df) is int and model == NoiseModel(kind="scaled_t", df=10)
    assert model.to_dict() == {"kind": "scaled_t", "df": 10}
    # a sigma that is a bool or no real number: True ran as sigma = 1.0, and
    # a string was converted by from_dict
    for sigma in (True, np.True_, "0.01", "x", None, 1j):
        with pytest.raises(TypeError, match=re.escape(f"sigma must be a real number, got {sigma!r}")):
            NoiseModel(sigma=sigma)
        with pytest.raises(TypeError, match=re.escape(f"sigma must be a real number, got {sigma!r}")):
            NoiseModel.from_dict({"kind": "gaussian", "sigma": sigma})
    # and one that is not finite: 10**400 leaked an OverflowError
    for sigma in (np.nan, np.inf, 10**400):
        with pytest.raises(ValueError, match=re.escape(f"sigma must be finite, got {sigma!r}")):
            NoiseModel(sigma=sigma)
    # a number of any type is stored, serialised and digested as a float
    for sigma in (1, np.float32(0.5), np.int64(2)):
        model = NoiseModel(sigma=sigma)
        assert type(model.sigma) is float and model.to_dict() == NoiseModel.from_dict({"sigma": sigma}).to_dict()


def test_gaussian_degenerate_limit():
    rng = np.random.default_rng(0)
    w = sample_noise(NoiseModel(sigma=1e-300), 10, rng)
    assert np.all(np.abs(w) < 1e-290)


def test_gaussian_moments():
    rng = np.random.default_rng(1)
    sigma = 0.005
    w = sample_noise(NoiseModel(sigma=sigma), 1, rng, size=1_000_000).ravel()
    assert abs(w.std() - sigma) < 0.02 * sigma
    assert abs(w.mean()) < 3 * sigma / np.sqrt(w.size)


def test_scaled_t_std_is_001():
    rng = np.random.default_rng(2)
    w = sample_noise(NoiseModel(kind="scaled_t", df=5), 1, rng, size=1_000_000).ravel()
    assert abs(w.std() - 0.01) < 0.03 * 0.01


def pp_update(x, box, model, rng):
    """The kernels' perturb-project path applied to one candidate."""
    return perturb_project(np.asarray(x, dtype=float)[None], box, model, rng, k=1, rows=1)[0]


def test_pp_update_identity_inside_with_degenerate_noise():
    box = Box.cube(-1, 1, 2)
    rng = np.random.default_rng(3)
    x = np.array([0.25, -0.5])
    out = pp_update(x, box, NoiseModel(sigma=1e-300), rng)
    np.testing.assert_array_equal(out, x)


def test_pp_update_clamps_then_perturbs():
    box = Box.cube(-1, 1, 2)
    rng = np.random.default_rng(4)
    out = pp_update([2.0, 2.0], box, NoiseModel(sigma=1e-300), rng)
    np.testing.assert_array_equal(out, [1.0, 1.0])


def test_perturb_project_leaves_its_input_alone():
    # the clamp works in place on the stack's own copy of the rows
    box = Box.cube(-1, 1, 2)
    Y = np.array([[2.0, -3.0], [0.5, 4.0], [-0.25, 0.75]])
    before = Y.copy()
    out = perturb_project(Y, box, NoiseModel(sigma=0.1), np.random.default_rng(7), k=2, rows=3)
    np.testing.assert_array_equal(Y, before)
    assert contains(out, box) and out[2].tolist() == [-0.25, 0.75]


def test_pp_update_always_in_box():
    box = Box.cube(-1, 1, 3)
    rng = np.random.default_rng(5)
    model = NoiseModel(sigma=0.5)
    for _ in range(10_000):
        x = rng.normal(0, 4, 3)
        assert contains(pp_update(x, box, model, rng), box)


def test_pp_update_deterministic():
    box = Box.cube(-1, 1, 4)
    model = NoiseModel(sigma=0.1)
    a = pp_update(np.full(4, 0.2), box, model, np.random.default_rng(9))
    b = pp_update(np.full(4, 0.2), box, model, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_interior_ball_hit_frequency_scales_with_volume():
    # condition (C2) probe: from a fixed interior candidate with noise on the
    # scale of the box, interior balls are hit with frequency ~ volume
    box = Box.cube(-1, 1, 2)
    model = NoiseModel(sigma=1.0)
    rng = np.random.default_rng(6)
    x = np.array([0.1, -0.2])
    outs = np.array([pp_update(x, box, model, rng) for _ in range(100_000)])
    centers = [np.array([0.5, 0.5]), np.array([-0.4, 0.3])]
    hits = []
    for c, radius in zip(centers, (0.2, 0.4)):
        inside = np.sum(np.sum((outs - c) ** 2, axis=1) <= radius**2)
        assert inside > 0
        hits.append(inside / (np.pi * radius**2))
    # per-volume hit rates within a factor of a few of each other
    assert 0.2 < hits[0] / hits[1] < 5.0


def test_noise_model_serialization():
    g = NoiseModel(sigma=0.02)
    assert NoiseModel.from_dict(g.to_dict()) == g
    t = NoiseModel(kind="scaled_t", df=30)
    assert NoiseModel.from_dict(t.to_dict()) == t
    assert NoiseModel.from_dict({"sigma": 0.02}) == g
    with pytest.raises(ValueError):
        NoiseModel.from_dict({"kind": "cauchy"})
    # a key the kind does not use, or a df that is no integer, is refused
    with pytest.raises(ValueError, match="sgima"):
        NoiseModel.from_dict({"kind": "gaussian", "sgima": 0.1})
    with pytest.raises(ValueError, match="sigma"):
        NoiseModel.from_dict({"kind": "scaled_t", "df": 10, "sigma": 0.1})
    with pytest.raises(ValueError, match="df"):
        NoiseModel.from_dict({"kind": "gaussian", "df": 10})
    for df in (10.7, 10.0):
        with pytest.raises(TypeError, match=re.escape(f"df must be an integer, got {df!r}")):
            NoiseModel.from_dict({"kind": "scaled_t", "df": df})
    # noise that is not a JSON object
    for value in (5, "gaussian", [1], None):
        with pytest.raises(TypeError, match="noise must be a JSON object"):
            NoiseModel.from_dict(value)
