"""Nonlinear-crystal phase matching for type-II down-conversion sources.

The package exports only the names that code outside the unit tests reads: the
CLI, the benchmark, the demos and the acceptance tests.  Every other name is
imported from the module that defines it: ``materials``, ``optics`` or
``phasematch``.
"""

# the rate formula lives in ``spdclab.rates`` (no numpy); re-exported here unchanged
from ..rates import RateInputs, load_rate_inputs, relative_pair_rate
from .materials import CrystalCut, load_crystal
from .optics import FAST, SLOW, solve_waves, walkoff_angle
from .phasematch import (
    DELTA_K_TOL,
    collinear_d_eff,
    cut_for_arm_opening,
    noncollinear_arms,
    pair_state_angle,
    phase_match_collinear,
    spdc_rings,
    spectral_fwhm,
)

__all__ = [
    "CrystalCut", "load_crystal",
    "FAST", "SLOW", "solve_waves", "walkoff_angle",
    "DELTA_K_TOL", "collinear_d_eff", "cut_for_arm_opening", "noncollinear_arms",
    "pair_state_angle", "phase_match_collinear", "spdc_rings", "spectral_fwhm",
    "RateInputs", "load_rate_inputs", "relative_pair_rate",
]
