#!/usr/bin/env python3
"""Monte Carlo run of the calibrated five-source experiment.

The shipped reference configuration reproduces the published per-source
brightness and efficiencies; at those settings tenfold coincidences arrive
at roughly half a count per hour, so observing statistics in simulation
needs either patience or brighter sources.  This script reports the model
rates for the reference configuration, then runs an artificially bright
configuration to populate actual coincidence histograms.
"""

import numpy as np

from spdclab import simulator

print("=== calibrated reference configuration ===")
cfg = simulator.reference_config()
rates = simulator._model_rates(cfg)
for i, r in enumerate(rates["twofold_per_source_hz"]):
    print(f"source {i + 1}: twofold {r / 1e3:.0f} k/s, "
          f"pair prob/pulse {cfg.sources[i].pair_prob:.4f}")
print(f"post-selection success probability: {rates['postselection_success_prob']:.4f}")
print(f"model tenfold rate: {rates['tenfold_per_hour_model']:.3f} counts/hour")
print(f"(repetition rate {cfg.rep_rate_hz / 1e6:.0f} MHz is an assumption; "
      f"see cfg.provenance)")

res = simulator.run_monte_carlo(cfg, 2_000_000_000, ["Z"])
print(f"2e9 pulses (~{2e9 / cfg.rep_rate_hz:.0f} s of beam time): "
      f"{res.diagnostics['events_per_setting']['Z']} tenfold events")

print("\n=== bright configuration for visible statistics ===")
# lossless arms and a mild double-pair weight keep the coherent channel
# dominant; raising double_pair_factor buries it in contamination
theta = 7 * np.pi / 30
sources = tuple(simulator.SourceModel(
    pair_prob=0.25, xi_signal=1.0, xi_idler=1.0, theta_state=theta,
    rotated=(i >= 3), double_pair_factor=0.5) for i in range(5))
bright = simulator.ExperimentConfig(
    sources=sources,
    interference=simulator.InterferenceModel(
        (simulator.overlap_for_visibility(0.715),)),
    rep_rate_hz=76e6, seed=2,
)
settings = ["Z", "M0", "M5"]
res = simulator.run_monte_carlo(bright, 30_000_000, settings)
for s in settings:
    print(f"{s}: {res.diagnostics['events_per_setting'][s]} events")
z = res.diagnostics["z_basis"]
print(f"\nZ basis: all-H {z['all_h']}, all-V {z['all_v']}, rest {z['rest']} "
      f"(population fraction {z['population_fraction']:.3f})")
print("correlations:", {k: round(v, 3)
                        for k, v in res.diagnostics["correlations"].items()})
print(f"mean coherence visibility: "
      f"{res.diagnostics['mean_coherence_visibility']:.3f}")
print("\nideal-limit check: exact fused state gives populations "
      f"cos^2 = {np.cos(theta)**2:.3f}, sin^2 = {np.sin(theta)**2:.3f}")
