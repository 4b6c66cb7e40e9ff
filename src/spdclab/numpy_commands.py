"""Handlers of ``simulate`` and of the commands that run on numpy, ``crystal
summary|curve|rings``.

``simulate`` runs on the standard library (see ``spdclab.simulator``); the
crystal handlers import numpy.  ``cli`` builds the parser and imports this
module only when it dispatches to one of these commands, so the count-path
commands never compile it.
Each handler writes its outputs or raises; ``cli.main`` maps what it raises
to an exit code.  This module never imports ``spdclab.cli`` (see there).
"""

from __future__ import annotations

import math

from . import __version__, witness
from .errors import SchemaError
from .fileio import _csv_text, _dump_json, _read_json, _write_text, dataset_to_dict

#: most azimuths ``crystal curve`` solves: 10^4 take 2.5-3.5 s and 0.2 GB (BiBO, 2-core Xeon)
MAX_CURVE_SAMPLES = 10_000

#: the crystal tables, as (column name, format spec) pairs in column order;
#: the names are both its CSV header and its JSON keys
CURVE_COLUMNS = (("phi_rad", ".6f"), ("theta_rad", ".9f"), ("d_eff_pm_v", ".5f"),
                 ("walkoff_fast_rad", ".6f"), ("walkoff_slow_rad", ".6f"),
                 ("delta_k_rad_per_um", ".3e"))
RING_COLUMNS = (("kx", ".6e"), ("ky", ".6e"), ("wavelength_nm", ".3f"),
                ("weight", ".5f"), ("branch", ""))


def _write_table(columns: tuple, rows: list, args, key: str, **meta) -> None:
    """``rows`` to ``args.out`` as ``args.format``: CSV, or JSON with ``meta`` and
    the rows under ``key`` as objects keyed by the column names."""
    if args.format == "json":
        names = [name for name, _ in columns]
        _dump_json({**meta, key: [dict(zip(names, row)) for row in rows]}, args.out)
    else:
        _write_text(_csv_text(columns, rows), args.out)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> None:
    if args.pulses < 1:
        raise SchemaError(f"--pulses must be a positive integer, got {args.pulses}")
    if args.seed is not None and args.seed < 0:
        raise SchemaError(f"--seed must be a non-negative integer, got {args.seed}")
    from . import simulator

    raw, digest = _read_json(args.config)
    config = simulator.config_from_dict(raw)
    seed = config.seed if args.seed is None else args.seed
    every = witness.setting_names(config.n_modes())
    settings = args.settings.split(",") if args.settings else every
    if not set(settings) <= set(every) or len(set(settings)) < len(settings):
        raise SchemaError(f"--settings must name distinct settings among {every}")
    result = simulator.run_monte_carlo(config, args.pulses, settings, seed=seed)
    counts_payload = dataset_to_dict(
        result.counts, provenance="simulated",
        notes="Monte Carlo output",
        extra={"config_digest": f"sha256:{digest}", "seed": seed,
               "pulses_per_setting": result.pulses_per_setting},
    )
    _dump_json(counts_payload, args.out)
    if args.report:
        _dump_json({
            "tool": "spdclab",
            "tool_version": __version__,
            "config_digest": f"sha256:{digest}",
            "rates": result.rates,
            "diagnostics": result.diagnostics,
        }, args.report)


# ---------------------------------------------------------------------------
# crystal
# ---------------------------------------------------------------------------

def _check_pump_nm(args) -> None:
    if not (math.isfinite(args.pump_nm) and args.pump_nm > 0):
        raise SchemaError(f"--pump-nm must be finite and positive, got {args.pump_nm}")


def _cut_from_args(crys, args):
    """``--cut`` or the reference cut, with ``--length-mm`` or the reference length, as a
    ``crystal.CrystalCut``."""
    from . import crystal

    ref = crys.reference_cut
    if args.cut is None and ref is None:
        raise SchemaError("species has no reference cut; pass --cut THETA PHI")
    theta, phi = (ref.theta, ref.phi) if args.cut is None else args.cut
    default_length = ref.length_mm if ref is not None else 1.0
    length = default_length if args.length_mm is None else args.length_mm
    return crystal.CrystalCut(theta, phi, length)


def curve_rows(curve) -> list:
    """The samples of a ``crystal.phase_match_collinear`` curve as rows of ``CURVE_COLUMNS``."""
    return [(s.phi, s.theta, s.d_eff_pm_v, s.walkoff_fast, s.walkoff_slow,
             s.delta_k_residual) for s in curve]


def ring_rows(cloud) -> list:
    """The points of a ``phasematch.RingCloud`` as rows of ``RING_COLUMNS``."""
    return list(zip(cloud.kx.tolist(), cloud.ky.tolist(), cloud.wavelength_nm.tolist(),
                    cloud.weight.tolist(), cloud.branch.tolist()))


def cmd_crystal_summary(args) -> None:
    import numpy as np

    from . import crystal

    _check_pump_nm(args)
    crys = crystal.load_crystal(args.species)
    cut = _cut_from_args(crys, args)
    pump = args.pump_nm
    try:
        arms = crystal.noncollinear_arms(crys, cut, pump_nm=pump)
        sol_pump = arms.pump_wave
        noncollinear = {
            "d_eff_fs_pm_v": arms.d_eff_fs,
            "d_eff_sf_pm_v": arms.d_eff_sf,
            "pair_state_angle_rad": crystal.pair_state_angle(arms.d_eff_fs, arms.d_eff_sf),
            "opening_internal_rad": [arms.opening_i, arms.opening_j],
            "fast_deflection_deg": math.degrees(arms.fast_deflection_rad),
        }
    except ValueError as exc:
        sol_pump = crystal.solve_waves(crys.sellmeier, cut.direction(), pump)
        noncollinear = {"unavailable": str(exc)}
    sol_down = crystal.solve_waves(crys.sellmeier, cut.direction(), 2 * pump)
    payload = {
        "species": crys.sellmeier.species,
        "cut": {"theta_rad": cut.theta, "phi_rad": cut.phi,
                "length_mm": cut.length_mm},
        "pump_nm": pump,
        "indices": {
            "pump_fast": sol_pump.n_fast,
            "down_fast": sol_down.n_fast,
            "down_slow": sol_down.n_slow,
        },
        "walkoff_rad": {
            "pump_fast": sol_pump.walkoff_fast,
            "pump_slow": sol_pump.walkoff_slow,
            "down_fast": sol_down.walkoff_fast,
            "down_slow": sol_down.walkoff_slow,
            "pump_quadrature": float(np.hypot(sol_pump.walkoff_fast,
                                              sol_pump.walkoff_slow)),
        },
        "d_eff_collinear_pm_v": crystal.collinear_d_eff(crys, sol_pump, sol_down),
        "noncollinear": noncollinear,
    }
    _dump_json(payload, args.out)


def cmd_crystal_curve(args) -> None:
    import numpy as np

    from . import crystal

    if not all(map(math.isfinite, (args.phi_start, args.phi_stop, args.phi_step))):
        raise SchemaError("--phi-start, --phi-stop and --phi-step must be finite")
    if args.phi_step <= 0:
        raise SchemaError(f"--phi-step must be positive, got {args.phi_step}")
    if args.phi_stop < args.phi_start:
        raise SchemaError(f"--phi-stop {args.phi_stop} is below --phi-start {args.phi_start}")
    samples = (args.phi_stop + 1e-9 - args.phi_start) / args.phi_step
    if samples > MAX_CURVE_SAMPLES:
        raise SchemaError(f"--phi-step {args.phi_step} gives {samples:.3g} samples "
                          f"from --phi-start to --phi-stop; at most {MAX_CURVE_SAMPLES}")
    _check_pump_nm(args)
    crys = crystal.load_crystal(args.species)
    curve = crystal.phase_match_collinear(
        crys, pump_nm=args.pump_nm,
        phi_grid=np.radians(np.arange(args.phi_start, args.phi_stop + 1e-9,
                                      args.phi_step)),
        branch=args.branch,
    )
    _write_table(CURVE_COLUMNS, curve_rows(curve), args, "samples",
                 species=crys.sellmeier.species, branch=args.branch)


def cmd_crystal_rings(args) -> None:
    from . import crystal

    _check_pump_nm(args)
    crys = crystal.load_crystal(args.species)
    cut = _cut_from_args(crys, args)
    for flag, width in (("--pump-fwhm", args.pump_fwhm),
                        ("--filter-fwhm", args.filter_fwhm)):
        if not (math.isfinite(width) and width >= 0):
            raise SchemaError(f"{flag} must be finite and >= 0, got {width}")
    cloud = crystal.spdc_rings(
        crys, cut, pump_nm=args.pump_nm, pump_fwhm_nm=args.pump_fwhm,
        filter_fwhm_nm=args.filter_fwhm,
    )
    _write_table(RING_COLUMNS, ring_rows(cloud), args, "points",
                 species=crys.sellmeier.species)
