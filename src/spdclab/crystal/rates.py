"""Relative pair-generation rates and the entangled-pair state angle.

The relative total pair rate of two source configurations follows

    R_a / R_b = (d_a/d_b)^2 (L_a/L_b)
                * [n_p n_s n_i (n_i - n_s)]_b / [n_p n_s n_i (n_i - n_s)]_a
                * Omega_a / Omega_b,

where Omega is a dimensionless spectral integral that depends on the
walk-off parameter Delta.  No closed form for Omega is implemented; it is
an input, optionally back-solved from a measured or published rate ratio.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from ..errors import SchemaError
from ..witness import _is_finite_real


@dataclass(frozen=True)
class RateInputs:
    """Per-crystal inputs to the relative-rate formula."""

    label: str
    d_eff_pm_v: float
    length_mm: float
    n_pump: float
    n_signal: float
    n_idler: float
    delta_walkoff: float = 0.0    # walk-off parameter feeding Omega (informational)
    omega: float = 1.0            # spectral integral, supplied or back-solved

    def __post_init__(self):
        for f in fields(self)[1:]:      # every field after the label is a number
            if not _is_finite_real(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be a finite number")
        for name in ("n_pump", "n_signal", "n_idler"):
            if getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must exceed 1")
        if self.length_mm <= 0 or self.d_eff_pm_v <= 0 or self.omega <= 0:
            raise ValueError("d_eff, length and omega must be positive")

    def index_factor(self) -> float:
        return self.n_pump * self.n_signal * self.n_idler * (self.n_idler - self.n_signal)


def relative_pair_rate(a: RateInputs, b: RateInputs) -> float:
    """R_a / R_b per the rate formula above."""
    fa, fb = a.index_factor(), b.index_factor()
    if fa == 0.0:
        raise ZeroDivisionError(
            f"{a.label}: n_idler equals n_signal; rate formula is singular"
        )
    return ((a.d_eff_pm_v / b.d_eff_pm_v) ** 2
            * (a.length_mm / b.length_mm)
            * (fb / fa)
            * (a.omega / b.omega))


def back_solve_omega_ratio(target_ratio: float, a: RateInputs, b: RateInputs) -> float:
    """Omega_a / Omega_b that makes relative_pair_rate(a, b) equal target_ratio."""
    base = relative_pair_rate(replace(a, omega=1.0), replace(b, omega=1.0))
    return target_ratio / base


def pair_state_angle(d_eff_arm_i: float, d_eff_arm_j: float) -> float:
    """State angle of cos(theta)|HH> + sin(theta)|VV> from the arm nonlinearities.

    The two polarization orderings are generated with amplitudes
    proportional to their effective nonlinearities, so
    theta = arctan(d_i / d_j).
    """
    if d_eff_arm_i < 0 or d_eff_arm_j < 0:
        raise ValueError("arm nonlinearities are magnitudes, must be >= 0")
    return float(np.arctan2(d_eff_arm_i, d_eff_arm_j))


def load_rate_inputs(path: str | None = None) -> dict:
    """Rate-formula inputs keyed by configuration label, from ``path`` or the shipped file."""
    source = (Path(path) if path is not None
              else resources.files("spdclab.data").joinpath("pair_rate_inputs.json"))
    out = {}
    try:
        raw = json.loads(source.read_text(encoding="utf-8"))
        for key, rec in raw["configurations"].items():
            out[key] = RateInputs(label=key, **rec)
    # TypeError covers unknown or missing fields; ValueError covers
    # undecodable or invalid JSON and RateInputs' own checks
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise SchemaError(f"malformed rate inputs {source}: {exc}") from exc
    return out
