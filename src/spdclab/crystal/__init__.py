"""Nonlinear-crystal phase matching for type-II down-conversion sources."""

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
    phase_match_collinear,
    spdc_rings,
    spectral_fwhm,
)
from .rates import (
    RateInputs,
    back_solve_omega_ratio,
    load_rate_inputs,
    pair_state_angle,
    relative_pair_rate,
)

__all__ = [
    "BIAXIAL", "UNIAXIAL", "CrystalCut", "CrystalData", "NonlinearTensor",
    "SellmeierSet", "crystal_from_dict", "load_crystal",
    "FAST", "SLOW", "WaveSolution", "fresnel_residual", "refractive_indices",
    "solve_waves", "walkoff_angle",
    "DELTA_K_TOL", "NoncollinearArms", "PhaseMatchSolution", "RingCloud",
    "collinear_d_eff", "collinear_mismatch", "cut_for_arm_opening",
    "noncollinear_arms", "phase_match_collinear", "spdc_rings", "spectral_fwhm",
    "RateInputs", "back_solve_omega_ratio", "load_rate_inputs",
    "pair_state_angle", "relative_pair_rate",
]
