"""Command-line front end.

Subcommands: ``analyze`` (fidelity / verdict / p-value report from a count
file), ``simulate`` (Monte Carlo run writing a count file of the same
schema), ``crystal`` (phase-matching summaries, curves, rings, rate
ratios), and ``pvalue`` (bound from a trial-ledger file).

Exit codes are a contract: 0 success, 2 schema violation, 3 insufficient
data, 4 numerical failure.  Every handler returns None and raises on failure;
only ``main`` maps the outcome to an exit code.  Reports embed a SHA-256
digest of their input file, so re-running on identical inputs reproduces the
report up to the timestamp field.

``analyze``, ``pvalue``, ``crystal rate-ratio`` and ``simulate`` run on the
standard library alone, without numpy or the ``inspect`` that numpy imports.
No command loads ``dataclasses`` (see ``spdclab._record``).  These commands
are bound by interpreter start-up, so every import on their path is paid by
every run.  The code is split at the numpy boundary so that each command
compiles and imports only what it runs:

* this module holds the parser, ``main``, the exit codes, the count-file and
  ledger loaders and the handlers of the standard-library commands;
  ``simulate`` imports ``spdclab.simulator`` when it runs, so the other
  commands never load it;
* ``numpy_commands`` holds the ``crystal summary|curve|rings`` handlers,
  which run on numpy, and is imported only when ``main`` dispatches to one
  of them;
* ``fileio`` holds the JSON, text and table I/O that both use.

No module a command loads may import ``spdclab.cli``.  Under ``python -m
spdclab.cli`` this module runs as ``__main__``, so importing ``spdclab.cli``
would compile and run it a second time.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__, hyptest, witness
from .errors import (
    InsufficientDataError,
    NumericalConsistencyError,
    SchemaError,
)
from .fileio import (
    _csv_text,
    _dump_json,
    _read_json,
    _record_fields,
    _write_text,
    dataset_to_dict,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INSUFFICIENT = 3
EXIT_NUMERIC = 4

PROVENANCE_KINDS = ("experimental", "simulated", "reconstructed")
#: trial-ledger keys that describe the record; every other key is a TrialLedger field
LEDGER_METADATA = ("schema_version", "kind", "provenance", "notes")
#: count-file keys that describe the record (``simulate`` adds the last three);
#: every other key is a CountDataset field
COUNT_METADATA = ("schema_version", "kind", "provenance", "notes",
                  "config_digest", "seed", "pulses_per_setting")
#: the ``--plot-data`` tables, as (column name, format spec) pairs in column order
Z_POPULATION_COLUMNS = (("outcome", ""), ("count", ""))
MK_COLUMNS = (("k", ""), ("expectation", ".6f"), ("sigma", ".6f"))


# ---------------------------------------------------------------------------
# Count-file schema
# ---------------------------------------------------------------------------

def dataset_from_dict(raw: dict) -> witness.CountDataset:
    record = _record_fields(raw, "count_dataset", "count file", COUNT_METADATA)
    for key in ("n", "settings"):
        if key not in record:
            raise SchemaError(f"count file missing required key {key!r}")
    prov = raw.get("provenance", "experimental")
    if prov not in PROVENANCE_KINDS:
        raise SchemaError(f"provenance must be one of {PROVENANCE_KINDS}, got {prov!r}")
    if not (isinstance(record["settings"], list)
            and all(isinstance(rec, dict) for rec in record["settings"])):
        raise SchemaError("settings must be a list of JSON objects")
    settings = []
    for i, rec in enumerate(record["settings"]):
        try:
            settings.append(witness.SettingCounts(**rec))
        except (TypeError, SchemaError) as exc:
            raise SchemaError(f"settings[{i}]: {exc}") from exc
    record["settings"] = tuple(settings)
    try:
        return witness.CountDataset(**record)
    except TypeError as exc:
        raise SchemaError(f"malformed count file: {exc}") from exc


def ledger_from_dict(raw: dict) -> hyptest.TrialLedger:
    record = _record_fields(raw, "trial_ledger", "ledger file", LEDGER_METADATA)
    try:
        return hyptest.TrialLedger(**record)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed ledger: {exc}") from exc


def _check_outputs(args) -> None:
    """Refuse an output path that cannot be written, before any work is done.

    ``--out`` and ``--report`` need an existing parent directory and must not
    name a directory; ``--plot-data`` must be a directory or creatable as one.
    """
    for out in (getattr(args, "out", None), getattr(args, "report", None)):
        if not out:
            continue
        if Path(out).is_dir():
            raise SchemaError(f"cannot write {out}: it is a directory")
        if not Path(out).parent.is_dir():
            raise SchemaError(f"cannot write {out}: {Path(out).parent} is not a directory")
    plot_dir = getattr(args, "plot_data", None)
    if plot_dir:
        nearest = next((p for p in (Path(plot_dir), *Path(plot_dir).parents) if p.exists()),
                       Path(plot_dir))
        if not nearest.is_dir():
            raise SchemaError(f"cannot write {plot_dir}: {nearest} is not a directory")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def build_report(data: witness.CountDataset, digest: str, f_0: float = 0.5) -> dict:
    from datetime import datetime, timezone     # only this report carries a time

    est = witness.estimate_fidelity(data)
    # sigma is 0 when Z has no rest counts and every M_k is one-sided
    sigmas_above = (witness.entanglement_verdict(est, threshold=f_0).sigmas_above
                    if est.sigma > 0 else None)
    ledger = hyptest.TrialLedger(
        n=data.n,
        n_z=data.z().total(),
        n_k=tuple(data.m(k).total() for k in range(data.n)),
        f_exp=est.value,
        f_0=f_0,
    )
    bound = hyptest.p_value_bound(ledger)
    pop = witness.population_stats(data.z())
    corr = data.correlations()
    return {
        "tool": "spdclab",
        "tool_version": __version__,
        "inputs_digest": f"sha256:{digest}",
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "fidelity": {
            "value": est.value,
            "sigma": est.sigma,
            "population_term": est.population_term,
            "coherence_term": est.coherence_term,
        },
        "verdict": {
            "threshold": f_0,
            "sigmas_above_threshold": sigmas_above,
            "genuine_multipartite": est.value > f_0,
        },
        "pvalue": {
            "x_arg": bound.x_arg,
            "bound": bound.bound,
            "branch": bound.branch,
            "informative": bound.informative,
        },
        "diagnostics": {
            "population_fraction": pop.population_fraction,
            "signal_to_noise": (None if pop.signal_to_noise == float("inf")
                                else pop.signal_to_noise),
            "correlations": {witness.m_setting(k): corr[k] for k in range(data.n)},
            "mean_coherence_visibility": witness.mean_coherence_visibility(corr),
            "normalized_trial_spread": hyptest.s_total(ledger),
        },
    }


def _plot_data_files(data: witness.CountDataset, directory: Path) -> None:
    """CSV plot data: H/V-basis populations and per-setting correlations."""
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SchemaError(f"cannot write {directory}: {exc}") from exc
    z = data.z()
    if z.histogram is not None:
        populations = sorted(z.histogram.items())
    else:
        agg = z.aggregates()
        populations = [("all_H", agg["n_all_h"]), ("all_V", agg["n_all_v"]),
                       ("rest", agg["n_rest"])]
    _write_text(_csv_text(Z_POPULATION_COLUMNS, populations),
                directory / "z_populations.csv")
    expectations = []
    for k in range(data.n):
        e_k, var = data.m(k).correlation()
        expectations.append((k, e_k, math.sqrt(var)))
    _write_text(_csv_text(MK_COLUMNS, expectations), directory / "mk_expectations.csv")


def cmd_analyze(args) -> None:
    raw, digest = _read_json(args.counts)
    data = dataset_from_dict(raw)
    report = build_report(data, digest, f_0=args.f0)
    _dump_json(report, args.out)
    if args.plot_data:
        _plot_data_files(data, Path(args.plot_data))


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
    # the report first: an overflowing rate fails it, and then nothing is written
    if args.report:
        _dump_json({
            "tool": "spdclab",
            "tool_version": __version__,
            "config_digest": f"sha256:{digest}",
            "rates": result.rates,
            "diagnostics": result.diagnostics,
        }, args.report)
    _dump_json(counts_payload, args.out)


# ---------------------------------------------------------------------------
# crystal rate-ratio
# ---------------------------------------------------------------------------

def cmd_crystal_rate_ratio(args) -> None:
    from . import rates

    table = rates.load_rate_inputs(args.inputs)
    try:
        a, b = table[args.a], table[args.b]
    except KeyError as exc:
        raise SchemaError(
            f"unknown configuration {exc}; available: {sorted(table)}"
        ) from exc
    _dump_json({
        "numerator": args.a,
        "denominator": args.b,
        "rate_ratio": rates.relative_pair_rate(a, b),
        "omega_ratio": a.omega / b.omega,
    }, args.out)


# ---------------------------------------------------------------------------
# pvalue
# ---------------------------------------------------------------------------

def cmd_pvalue(args) -> None:
    raw, digest = _read_json(args.ledger)
    ledger = ledger_from_dict(raw)
    bound = hyptest.p_value_bound(ledger)
    _dump_json({
        "inputs_digest": f"sha256:{digest}",
        "n_total_trials": ledger.n_total,
        "f_exp": ledger.f_exp,
        "f_0": ledger.f_0,
        "normalized_trial_spread": hyptest.s_total(ledger),
        "x_arg": bound.x_arg,
        "bound": bound.bound,
        "branch": bound.branch,
        "informative": bound.informative,
        **({"note": bound.note} if bound.note else {}),
    }, args.out)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _deferred(name: str):
    """The handler ``numpy_commands.<name>``, imported when it is called."""
    def run(args) -> None:
        from . import numpy_commands

        getattr(numpy_commands, name)(args)
    run.deferred = name
    return run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdclab",
        description="Multi-pair SPDC entanglement toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="fidelity, verdict and p-value from a count file")
    p.add_argument("counts")
    p.add_argument("--out")
    p.add_argument("--plot-data", help="directory for plot-data CSV files")
    p.add_argument("--f0", type=float, default=0.5,
                   help="bi-separability threshold (default 0.5)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo run producing a count file")
    p.add_argument("config")
    p.add_argument("--pulses", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--settings", help="comma list, e.g. Z,M0,M5 (default: all)")
    p.add_argument("--out")
    p.add_argument("--report", help="write a rates/diagnostics report here")
    p.set_defaults(func=cmd_simulate)

    pc = sub.add_parser("crystal", help="phase-matching calculations")
    csub = pc.add_subparsers(dest="crystal_command", required=True)

    def add_cut_args(q):
        q.add_argument("--species", required=True, choices=["bbo", "bibo"])
        q.add_argument("--cut", type=float, nargs=2, metavar=("THETA", "PHI"),
                       help="cut angles in rad (default: shipped reference cut)")
        q.add_argument("--length-mm", type=float, default=None)
        q.add_argument("--pump-nm", type=float, default=390.0)

    q = csub.add_parser("summary", help="indices, walk-offs and d_eff at a cut")
    add_cut_args(q)
    q.add_argument("--out")
    q.set_defaults(func=_deferred("cmd_crystal_summary"))

    q = csub.add_parser("curve", help="collinear type-II phase-matching curve")
    q.add_argument("--species", required=True, choices=["bbo", "bibo"])
    q.add_argument("--pump-nm", type=float, default=390.0)
    q.add_argument("--branch", choices=["upper", "lower"], default="upper")
    q.add_argument("--phi-start", type=float, default=0.0)
    q.add_argument("--phi-stop", type=float, default=90.0)
    q.add_argument("--phi-step", type=float, default=1.0)
    q.add_argument("--format", choices=["csv", "json"], default="csv")
    q.add_argument("--out")
    q.set_defaults(func=_deferred("cmd_crystal_curve"))

    q = csub.add_parser("rings", help="emission-ring point cloud")
    add_cut_args(q)
    q.add_argument("--pump-fwhm", type=float, default=2.1)
    q.add_argument("--filter-fwhm", type=float, default=3.0)
    q.add_argument("--format", choices=["csv", "json"], default="csv")
    q.add_argument("--out")
    q.set_defaults(func=_deferred("cmd_crystal_rings"))

    q = csub.add_parser("rate-ratio", help="relative pair-generation rate")
    q.add_argument("--inputs", help="JSON file of rate inputs (default: shipped)")
    q.add_argument("--a", default="bibo_0p6mm")
    q.add_argument("--b", default="bbo_2mm")
    q.add_argument("--out")
    q.set_defaults(func=cmd_crystal_rate_ratio)

    p = sub.add_parser("pvalue", help="p-value bound from a trial ledger")
    p.add_argument("ledger")
    p.add_argument("--out")
    p.set_defaults(func=cmd_pvalue)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except InsufficientDataError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except (NumericalConsistencyError, ArithmeticError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
