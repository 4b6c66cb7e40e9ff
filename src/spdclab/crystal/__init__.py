"""Nonlinear-crystal phase matching for type-II down-conversion sources."""

# the rate formula lives in ``spdclab.rates`` (no numpy); re-exported here unchanged
from ..rates import RateInputs, load_rate_inputs, relative_pair_rate
from .materials import (
    BIAXIAL,
    UNIAXIAL,
    CrystalCut,
    CrystalData,
    NonlinearTensor,
    SellmeierSet,
    crystal_from_dict,
    load_crystal,
)
from .optics import (
    FAST,
    SLOW,
    WaveSolution,
    fresnel_residual,
    refractive_indices,
    solve_waves,
    walkoff_angle,
)
from .phasematch import (
    DELTA_K_TOL,
    NoncollinearArms,
    PhaseMatchSolution,
    RingCloud,
    collinear_d_eff,
    collinear_mismatch,
    cut_for_arm_opening,
    noncollinear_arms,
    pair_state_angle,
    phase_match_collinear,
    spdc_rings,
    spectral_fwhm,
)

__all__ = [
    "BIAXIAL", "UNIAXIAL", "CrystalCut", "CrystalData", "NonlinearTensor",
    "SellmeierSet", "crystal_from_dict", "load_crystal",
    "FAST", "SLOW", "WaveSolution", "fresnel_residual", "refractive_indices",
    "solve_waves", "walkoff_angle",
    "DELTA_K_TOL", "NoncollinearArms", "PhaseMatchSolution", "RingCloud",
    "collinear_d_eff", "collinear_mismatch", "cut_for_arm_opening",
    "noncollinear_arms", "pair_state_angle", "phase_match_collinear",
    "spdc_rings", "spectral_fwhm",
    "RateInputs", "load_rate_inputs", "relative_pair_rate",
]
