"""Relative pair-generation rates of two down-conversion source configurations.

The relative total pair rate of two configurations follows

    R_a / R_b = (d_a/d_b)^2 (L_a/L_b)
                * [n_p n_s n_i (n_i - n_s)]_b / [n_p n_s n_i (n_i - n_s)]_a
                * Omega_a / Omega_b,

where Omega is a dimensionless spectral integral that depends on the
walk-off parameter Delta.  No closed form for Omega is implemented; it is
an input.  The shipped BiBO Omega was back-solved once so that the formula
reproduces the published ratio 0.424, as the data file's note says.

Standard library only: ``crystal rate-ratio`` runs without numpy.  Like the
whole package it imports no ``dataclasses`` (see ``spdclab._record``).  It
does not import ``witness`` either, so neither does ``spdclab.crystal``,
which re-exports it.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from ._record import _is_finite_real, _Record
from .errors import SchemaError
from .fileio import _json_object, _read_json, _record_fields


class RateInputs(_Record):
    """Per-crystal inputs to the relative-rate formula.

    ``delta_walkoff`` is the walk-off parameter feeding Omega (informational);
    ``omega`` is the spectral integral, an input.
    """

    __slots__ = ("label", "d_eff_pm_v", "length_mm", "n_pump", "n_signal", "n_idler",
                 "delta_walkoff", "omega")

    def __init__(self, label: str, d_eff_pm_v: float, length_mm: float, n_pump: float,
                 n_signal: float, n_idler: float, delta_walkoff: float = 0.0,
                 omega: float = 1.0):
        self._fill(label, d_eff_pm_v, length_mm, n_pump, n_signal, n_idler,
                   delta_walkoff, omega)
        for name in self.__slots__[1:]:     # every field after the label is a number
            if not _is_finite_real(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number")
        for name in ("n_pump", "n_signal", "n_idler"):
            if getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must exceed 1")
        # the index factor's (n_i - n_s) must be positive for a positive rate
        if self.n_idler <= self.n_signal:
            raise ValueError("n_idler must exceed n_signal")
        if self.length_mm <= 0 or self.d_eff_pm_v <= 0 or self.omega <= 0:
            raise ValueError("d_eff, length and omega must be positive")

    def index_factor(self) -> float:
        return self.n_pump * self.n_signal * self.n_idler * (self.n_idler - self.n_signal)


def relative_pair_rate(a: RateInputs, b: RateInputs) -> float:
    """R_a / R_b per the rate formula above."""
    return ((a.d_eff_pm_v / b.d_eff_pm_v) ** 2
            * (a.length_mm / b.length_mm)
            * (b.index_factor() / a.index_factor())
            * (a.omega / b.omega))


def load_rate_inputs(path: str | None = None) -> dict:
    """Rate-formula inputs keyed by configuration label, from ``path`` or the shipped file."""
    source = (Path(path) if path is not None
              else resources.files("spdclab.data").joinpath("pair_rate_inputs.json"))
    record = _record_fields(_read_json(source)[0], "pair_rate_inputs", "rate inputs file")
    configurations = _json_object(record.get("configurations"),
                                  "rate inputs 'configurations'")
    out = {}
    for key, rec in configurations.items():
        _json_object(rec, f"rate inputs configuration {key!r}")
        try:
            out[key] = RateInputs(label=key, **rec)
        # TypeError covers unknown or missing fields; ValueError RateInputs' own checks
        except (TypeError, ValueError) as exc:
            raise SchemaError(
                f"malformed rate inputs {source}: configuration {key!r}: {exc}") from exc
    return out
