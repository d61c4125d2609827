"""Exploration noise models and their draws.  The step skeleton applies the
noise (algorithms._project).

Two noise families are supported: Gaussian with per-coordinate standard
deviation sigma, and a scaled Student-t whose scale 0.01*sqrt((df-2)/df) pins
each coordinate's standard deviation to 0.01 regardless of df.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

NOISE_KINDS = ("gaussian", "scaled_t")


@dataclass(frozen=True)
class NoiseModel:
    kind: str = "gaussian"
    sigma: float = 0.005
    df: int | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"noise kind must be one of {NOISE_KINDS}")
        if isinstance(self.sigma, bool) or not isinstance(self.sigma, numbers.Real):
            raise TypeError(f"noise sigma must be a number, got {self.sigma!r}")
        object.__setattr__(self, "sigma", float(self.sigma))  # stored, serialised and digested as a float
        if self.kind == "gaussian":
            if self.df is not None:
                raise ValueError("gaussian noise takes only 'sigma'; unused key(s): df")
            if not (np.isfinite(self.sigma) and self.sigma > 0):
                raise ValueError("gaussian noise needs finite sigma > 0")
        else:
            if self.sigma != NoiseModel.sigma:  # the scale is pinned by df; sigma stays its default
                raise ValueError("scaled_t noise takes only 'df'; unused key(s): sigma")
            if self.df is not None and self.df != int(self.df):
                raise ValueError(f"scaled_t df must be an integer, got {self.df!r}")
            if self.df is None or self.df <= 2:
                raise ValueError("scaled_t noise needs df > 2 so the variance exists")
            object.__setattr__(self, "df", int(self.df))

    def to_dict(self) -> dict:
        if self.kind == "gaussian":
            return {"kind": "gaussian", "sigma": self.sigma}
        return {"kind": "scaled_t", "df": self.df}

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseModel":
        """The inverse of to_dict.  A missing kind is Gaussian and a missing
        sigma takes its default; anything but a dict, or a key the kind does
        not use, is refused, and so, by the constructor, is a sigma that is no
        number or a non-integral df."""
        if not isinstance(d, dict):
            raise TypeError(f"noise must be a JSON object, got {d!r}")
        kind = d.get("kind", "gaussian")
        if kind not in NOISE_KINDS:
            raise ValueError(f"noise kind must be one of {NOISE_KINDS}")
        param = "sigma" if kind == "gaussian" else "df"
        unused = sorted(set(d) - {"kind", param})
        if unused:
            raise ValueError(f"{kind} noise takes only {param!r}; unused key(s): {', '.join(unused)}")
        if kind == "gaussian":
            return cls(sigma=d.get("sigma", cls.sigma))
        return cls(kind=kind, df=d.get("df"))


def sample_noise(model: NoiseModel, d: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw iid per-coordinate noise: shape (d,) or (size, d)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    shape = (d,) if size is None else (size, d)
    if model.kind == "gaussian":
        return rng.normal(0.0, model.sigma, size=shape)
    scale = 0.01 * np.sqrt((model.df - 2) / model.df)
    return scale * rng.standard_t(model.df, size=shape)
