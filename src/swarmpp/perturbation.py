"""Exploration noise models and their draws.  The step skeleton applies the
noise (algorithms._project).

Two noise families are supported: Gaussian with per-coordinate standard
deviation sigma, and a scaled Student-t whose scale 0.01*sqrt((df-2)/df) pins
each coordinate's standard deviation to 0.01 regardless of df.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import integer, real

NOISE_KINDS = ("gaussian", "scaled_t")


@dataclass(frozen=True)
class NoiseModel:
    kind: str = "gaussian"
    sigma: float = 0.005
    df: int | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"noise kind must be one of {NOISE_KINDS}")
        object.__setattr__(self, "sigma", real(self.sigma, "sigma"))  # stored, serialised and digested as a float
        if self.kind == "gaussian":
            if self.df is not None:
                raise ValueError("gaussian noise takes only 'sigma'; unused key(s): df")
            if not self.sigma > 0:
                raise ValueError(f"gaussian noise needs sigma > 0, got {self.sigma!r}")
        else:
            if self.sigma != NoiseModel.sigma:  # the scale is pinned by df; sigma stays its default
                raise ValueError("scaled_t noise takes only 'df'; unused key(s): sigma")
            object.__setattr__(self, "df", integer(self.df, "df", 3))  # df > 2, so the variance exists
            real(self.df, "df")  # standard_t takes df as a double

    def to_dict(self) -> dict:
        if self.kind == "gaussian":
            return {"kind": "gaussian", "sigma": self.sigma}
        return {"kind": "scaled_t", "df": self.df}

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseModel":
        """The inverse of to_dict.  A missing kind is Gaussian and a missing
        sigma takes its default; anything but a dict, or a key the kind does
        not use, is refused, and so, by the constructor, is an unknown kind
        or a bad sigma or df."""
        if not isinstance(d, dict):
            raise TypeError(f"noise must be a JSON object, got {d!r}")
        kind = d.get("kind", "gaussian")
        param = "sigma" if kind == "gaussian" else "df"
        model = cls(kind, **{key: d[key] for key in d.keys() & {param}})
        unused = sorted(set(d) - {"kind", param})
        if unused:
            raise ValueError(f"{kind} noise takes only {param!r}; unused key(s): {', '.join(unused)}")
        return model


def sample_noise(model: NoiseModel, d: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw iid per-coordinate noise: shape (d,) or (size, d)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    shape = (d,) if size is None else (size, d)
    if model.kind == "gaussian":
        return rng.normal(0.0, model.sigma, size=shape)
    scale = 0.01 * np.sqrt((model.df - 2) / model.df)
    return scale * rng.standard_t(model.df, size=shape)
