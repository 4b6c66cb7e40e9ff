#!/usr/bin/env python3
"""Fidelity, verdict and p-value bound from coincidence counts.

Loads the shipped reconstruction of the published ten-photon run
(aggregated counts only; see the provenance notes inside the data file),
estimates the GHZ fidelity with Poissonian error bars, renders the
genuine-entanglement verdict, and computes the distribution-free p-value
bound from the same trial totals.
"""

from importlib import resources

from spdclab import hyptest, witness
from spdclab.cli import dataset_from_dict, ledger_from_dict
from spdclab.fileio import _read_json

shipped = resources.files("spdclab.data")
raw, _ = _read_json(shipped.joinpath("tenfold_run_reconstruction.counts.json"))
data = dataset_from_dict(raw)
print(f"dataset: n = {data.n}, provenance = {raw['provenance']}")

pop = witness.population_stats(data.z())
print(f"\nH/V basis: population fraction {pop.population_fraction:.4f}, "
      f"signal-to-noise {pop.signal_to_noise:.2f}:1")

print("\nper-setting correlations:")
for k, e in enumerate(data.correlations()):
    print(f"  M{k}: {e:+.4f}")

est = witness.estimate_fidelity(data)
print(f"\nfidelity: {est.value:.4f} +- {est.sigma:.4f}")
print(f"  population term {est.population_term:.4f}, "
      f"coherence term {est.coherence_term:.4f}")

verdict = witness.entanglement_verdict(est)
print(f"verdict: {verdict.sigmas_above:.2f} sigma above the 0.5 threshold "
      f"-> genuine multipartite entanglement: {verdict.genuine}")

ledger = ledger_from_dict(_read_json(shipped.joinpath("tenfold_trial_ledger.json"))[0])
bound = hyptest.p_value_bound(ledger)
print(f"\np-value bound: {bound.bound:.2e} ({bound.branch} branch, "
      f"x = {bound.x_arg:.3f})")
print(f"confidence in genuine entanglement is at least {1 - bound.bound:.4f}")
