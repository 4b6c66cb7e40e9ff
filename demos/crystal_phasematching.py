#!/usr/bin/env python3
"""Type-II phase-matching survey for BBO and BiBO at a 390 nm pump.

Computes the collinear phase-matching curves with effective nonlinearity
and walk-off, locates the non-collinear ring intersections used by the
pair sources, and evaluates the relative pair-generation rate of the thin
BiBO configuration against the 2 mm BBO reference.  Writes the curve and
ring clouds as CSV next to this script.
"""

from pathlib import Path

import numpy as np

from spdclab import crystal
from spdclab.fileio import _csv_text
from spdclab.numpy_commands import CURVE_COLUMNS, RING_COLUMNS, curve_rows, ring_rows

out_dir = Path(__file__).resolve().parent
bbo = crystal.load_crystal("bbo")
bibo = crystal.load_crystal("bibo")

print("=== refractive indices at the BiBO reference cut ===")
cut = bibo.reference_cut
pump = crystal.solve_waves(bibo.sellmeier, cut.direction(), 390.0)
down = crystal.solve_waves(bibo.sellmeier, cut.direction(), 780.0)
print(f"pump (fast, 390 nm): n = {pump.n_fast:.4f}")
print(f"down-converted: n_fast = {down.n_fast:.4f}, n_slow = {down.n_slow:.4f}")
print(f"pump-wavelength walk-offs: fast {pump.walkoff_fast:.4f} rad, "
      f"slow {pump.walkoff_slow:.4f} rad, "
      f"quadrature {np.hypot(pump.walkoff_fast, pump.walkoff_slow):.4f} rad")

print("\n=== collinear type-II curves ===")
for name, crys, branch in (("BBO", bbo, "lower"), ("BiBO", bibo, "upper")):
    curve = crystal.phase_match_collinear(crys, branch=branch)
    best = max(curve, key=lambda s: s.d_eff_pm_v)
    print(f"{name}: {len(curve)} samples, max d_eff = {best.d_eff_pm_v:.3f} pm/V "
          f"at (theta, phi) = ({best.theta:.3f}, {best.phi:.3f}) rad")
    csv = out_dir / f"curve_{name.lower()}.csv"
    csv.write_text(_csv_text(CURVE_COLUMNS, curve_rows(curve)), encoding="utf-8")
    print(f"  wrote {csv.name}")

print("\n=== minimal walk-off region of the BiBO curve ===")
fine = crystal.phase_match_collinear(
    bibo, phi_grid=np.radians(np.arange(20.0, 23.01, 0.1)))
sample = min(fine, key=lambda s: np.hypot(s.walkoff_fast, s.walkoff_slow))
print(f"combined walk-off {np.hypot(sample.walkoff_fast, sample.walkoff_slow):.4f} rad "
      f"with d_eff = {sample.d_eff_pm_v:.3f} pm/V at "
      f"(theta, phi) = ({sample.theta:.3f}, {sample.phi:.3f}) rad")

print("\n=== non-collinear ring intersections at the reference cut ===")
arms = crystal.noncollinear_arms(bibo, cut)
lo, hi = sorted((arms.d_eff_fs, arms.d_eff_sf))
angle = crystal.pair_state_angle(lo, hi)
print(f"arm nonlinearities: {lo:.3f} and {hi:.3f} pm/V")
print(f"pair-state angle arctan(d_i/d_j) = {angle:.4f} rad "
      f"(7 pi/30 = {7 * np.pi / 30:.4f} rad)")
print(f"fast-polarization deflection from the arm axis: "
      f"{np.degrees(arms.fast_deflection_rad):.1f} degrees")

print("\n=== emission rings through a 3 nm filter ===")
bbo_cut = crystal.cut_for_arm_opening(
    bbo, external_half_angle_deg=arms.external_half_angle_deg, length_mm=2.0)
for name, crys, the_cut in (("bbo", bbo, bbo_cut), ("bibo", bibo, cut)):
    cloud = crystal.spdc_rings(crys, the_cut)
    csv = out_dir / f"rings_{name}.csv"
    csv.write_text(_csv_text(RING_COLUMNS, ring_rows(cloud)), encoding="utf-8")
    print(f"{name.upper()}: ring width {np.degrees(cloud.radial_spread()):.3f} deg "
          f"({cloud.kx.size} points) -> {csv.name}")

print("\n=== arm spectra (0.6 mm BiBO) ===")
for arm_name in ("signal", "idler"):
    width = crystal.spectral_fwhm(bibo, cut, arm=arm_name)
    print(f"{arm_name}: FWHM = {width:.1f} nm")

print("\n=== relative pair rate (0.6 mm BiBO vs 2 mm BBO) ===")
inputs = crystal.load_rate_inputs()
ratio = crystal.relative_pair_rate(inputs["bibo_0p6mm"], inputs["bbo_2mm"])
print(f"rate ratio = {ratio:.3f} "
      f"(omega ratio {inputs['bibo_0p6mm'].omega / inputs['bbo_2mm'].omega:.3f}, "
      f"back-solved)")
