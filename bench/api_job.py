"""Benchmark jobs for spdclab functions that the CLI does not expose.

Each job runs in a fresh process, like a CLI command, and writes one JSON
file:

    python bench/api_job.py spectrum --species bbo --cut THETA PHI --pump-nm 390 \\
        --pump-fwhm 2.1 --arm signal --out spectrum.json
    python bench/api_job.py cut-search --species bibo --pump-nm 390 \\
        --half-angle 3.0 --phi 0.962 --length-mm 0.6 --out cut.json
    python bench/api_job.py probe --layers crystal,mc,clean --config cfg.json \\
        --seed 1 --out probe.json

``probe`` calls layers a workload's own jobs do not reach, on small inputs,
so the traced run can report every per-layer metric on every workload.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from spdclab import crystal


def _cut(args) -> crystal.CrystalCut:
    ref = crystal.load_crystal(args.species).reference_cut
    return crystal.CrystalCut(args.cut[0], args.cut[1], ref.length_mm)


def run_spectrum(args) -> dict:
    crys = crystal.load_crystal(args.species)
    cut = _cut(args)
    return {args.arm: crystal.spectral_fwhm(crys, cut, args.arm, pump_fwhm_nm=args.pump_fwhm,
                                            pump_nm=args.pump_nm)}


def run_cut_search(args) -> dict:
    crys = crystal.load_crystal(args.species)
    cut = crystal.cut_for_arm_opening(crys, args.pump_nm, args.half_angle,
                                      phi=args.phi, length_mm=args.length_mm)
    return {"theta_rad": cut.theta, "phi_rad": cut.phi, "length_mm": cut.length_mm}


def _probe_witness(seed: int) -> dict:
    from spdclab import cli, witness

    rng = np.random.default_rng(seed)
    n = 6
    settings = [witness.SettingCounts(
        "Z", aggregated={"n_all_h": int(rng.integers(400, 500)),
                         "n_all_v": int(rng.integers(400, 500)),
                         "n_rest": int(rng.integers(50, 100))})]
    for k in range(n):
        plus, minus = int(rng.integers(800, 900)), int(rng.integers(100, 200))
        if k % 2:
            plus, minus = minus, plus
        settings.append(witness.SettingCounts(f"M{k}", aggregated={"n_plus": plus,
                                                                    "n_minus": minus}))
    report = cli.build_report(witness.CountDataset(n=n, settings=settings), "0" * 64)
    return {"fidelity": report["fidelity"]["value"]}


def _probe_crystal(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    crys = crystal.load_crystal("bbo")
    ref = crys.reference_cut
    cut = crystal.CrystalCut(ref.theta + rng.uniform(-0.003, 0.003), ref.phi, ref.length_mm)
    cloud = crystal.spdc_rings(crys, cut, n_psi=12)
    crystal.noncollinear_arms(crys, cut)
    curve = crystal.phase_match_collinear(crys, phi_grid=np.radians(np.arange(0.0, 20.0, 2.0)))
    width = crystal.spectral_fwhm(crys, cut, "signal", n_points=41)
    found = crystal.cut_for_arm_opening(crys, 390.0, float(rng.uniform(2.5, 3.5)),
                                        length_mm=ref.length_mm)
    return {"ring_points": int(cloud.kx.size), "curve_samples": len(curve),
            "spectrum_fwhm_nm": width, "cut_theta_rad": found.theta}


def _load_config(path: str):
    from spdclab import simulator

    with open(path, encoding="utf-8") as fh:
        return simulator.config_from_dict(json.load(fh))


def _probe_mc(config_path: str, seed: int) -> dict:
    from spdclab import simulator

    config = _load_config(config_path)
    settings = ["Z"] + [f"M{k}" for k in range(config.n_modes())]
    result = simulator.run_monte_carlo(config, 200_000, settings, seed=seed)
    return {"events": int(sum(result.diagnostics["events_per_setting"].values()))}


def _probe_clean(config_path: str, seed: int) -> dict:
    from spdclab import simulator

    config = _load_config(config_path)
    rng = np.random.default_rng(seed)
    events = 0
    for setting in ["Z"] + [f"M{k}" for k in range(config.n_modes())]:
        events += int(simulator.sample_postselected(config, setting, 20_000, rng).size)
    return {"events": events}


def run_probe(args) -> dict:
    out = {}
    for layer in [x for x in args.layers.split(",") if x]:
        if layer == "witness":
            out[layer] = _probe_witness(args.seed)
        elif layer == "crystal":
            out[layer] = _probe_crystal(args.seed)
        elif layer == "mc":
            out[layer] = _probe_mc(args.config, args.seed)
        elif layer == "clean":
            out[layer] = _probe_clean(args.config, args.seed)
        else:
            raise SystemExit(f"unknown probe layer {layer!r}")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="api_job")
    sub = parser.add_subparsers(dest="job", required=True)
    q = sub.add_parser("spectrum")
    q.add_argument("--species", required=True)
    q.add_argument("--cut", type=float, nargs=2, required=True)
    q.add_argument("--pump-nm", type=float, required=True)
    q.add_argument("--pump-fwhm", type=float, required=True)
    q.add_argument("--arm", choices=("signal", "idler"), required=True)
    q.set_defaults(func=run_spectrum)
    q = sub.add_parser("cut-search")
    q.add_argument("--species", required=True)
    q.add_argument("--pump-nm", type=float, required=True)
    q.add_argument("--half-angle", type=float, required=True)
    q.add_argument("--phi", type=float, required=True)
    q.add_argument("--length-mm", type=float, required=True)
    q.set_defaults(func=run_cut_search)
    q = sub.add_parser("probe")
    q.add_argument("--layers", required=True)
    q.add_argument("--config")
    q.add_argument("--seed", type=int, default=1)
    q.set_defaults(func=run_probe)
    for q in sub.choices.values():
        q.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    result = args.func(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
