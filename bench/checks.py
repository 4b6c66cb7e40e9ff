"""Output checks for every benchmark job; a job that fails one counts as failed.

* analysis - fidelity, sigma, the p-value argument and the bound are
  recomputed here in closed form from the counts the generator wrote, with
  no spdclab code; rate ratios from the rate formula.
* crystal_design - every ring centre and curve sample is re-solved with the
  public scalar ``solve_waves`` to |dk| < ``DELTA_K_TOL``; summary indices
  must equal ``solve_waves`` at the cut; spectrum widths must be finite and
  positive; a found cut must reproduce the requested arm opening.
* simulate - the count file must parse and its histogram sums must equal
  the reported events per setting; bright runs must be accepted by
  ``analyze``, and for the default seed their per-setting counts must lie
  within ``POISSON_SIGMAS`` standard deviations of the counts recorded in
  ``reference_counts.json`` (statistical on purpose: a change of random
  streams keeps passing, a change of physics does not).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

#: 5! (e/5)^5, the tail-branch prefactor of the p-value bound
_PINELIS = 120.0 * (math.e / 5.0) ** 5
REL_TOL = 1e-9
POISSON_SIGMAS = 5.0
#: accepted error of a found cut's external half-angle, degrees
CUT_TOL_DEG = 1e-3

REFERENCE_FILE = Path(__file__).with_name("reference_counts.json")


def _close(a, b, rel=REL_TOL, abs_=1e-300) -> bool:
    return a is not None and b is not None and abs(a - b) <= max(rel * abs(b), abs_)


def _load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# analysis: closed forms
# ---------------------------------------------------------------------------

def closed_form_bound(n: int, n_z: int, n_k, f_exp: float, f_0: float = 0.5) -> dict:
    """x, bound, branch and informative flag of the p-value bound."""
    if f_exp <= f_0:
        return {"x_arg": 0.0, "bound": 1.0, "branch": "gaussian", "informative": False}
    s = math.sqrt(1.0 / (16.0 * n_z) + sum(1.0 / (4.0 * n * n * c) for c in n_k))
    x = (f_exp - f_0) / s
    gauss = math.exp(-0.5 * x * x)
    tail = _PINELIS * 0.5 * math.erfc(x / math.sqrt(2.0))
    return {"x_arg": x, "bound": min(gauss, tail, 1.0),
            "branch": "gaussian" if gauss <= tail else "pinelis_tail",
            "informative": True}


def closed_form_fidelity(n: int, z: dict, ms: list) -> tuple:
    """(F, sigma) from aggregates: population term plus alternating correlations."""
    n_z = z["n_all_h"] + z["n_all_v"] + z["n_rest"]
    n_sig = z["n_all_h"] + z["n_all_v"]
    f = 0.5 * n_sig / n_z
    var = 0.25 * z["n_rest"] * n_sig / n_z**3
    for k, agg in enumerate(ms):
        p, m = agg["n_plus"], agg["n_minus"]
        total = p + m
        alpha = (-1) ** k / (2.0 * n)
        f += alpha * (p - m) / total
        var += alpha * alpha * 4.0 * p * m / total**3
    return f, math.sqrt(var)


def _check_bound(got: dict, want: dict) -> list:
    errs = []
    for key in ("x_arg", "bound"):
        if not _close(got.get(key), want[key]):
            errs.append(f"{key} {got.get(key)!r} != closed form {want[key]!r}")
    for key in ("branch", "informative"):
        if got.get(key) != want[key]:
            errs.append(f"{key} {got.get(key)!r} != closed form {want[key]!r}")
    return errs


def check_analyze(job) -> list:
    rep = _load(job.outputs["report"])
    e = job.expect
    f, sigma = closed_form_fidelity(e["n"], e["z"], e["m"])
    errs = []
    if not _close(rep["fidelity"]["value"], f):
        errs.append(f"fidelity {rep['fidelity']['value']!r} != {f!r}")
    if not _close(rep["fidelity"]["sigma"], sigma):
        errs.append(f"sigma {rep['fidelity']['sigma']!r} != {sigma!r}")
    n_k = [a["n_plus"] + a["n_minus"] for a in e["m"]]
    errs += _check_bound(rep["pvalue"], closed_form_bound(e["n"], sum(e["z"].values()),
                                                          n_k, f))
    if "plots" in job.outputs:
        rows = (Path(job.outputs["plots"]) / "mk_expectations.csv").read_text().split("\n")
        if len([r for r in rows[1:] if r]) != e["n"]:
            errs.append("mk_expectations.csv row count")
        if not (Path(job.outputs["plots"]) / "z_populations.csv").is_file():
            errs.append("z_populations.csv missing")
    return errs


def check_pvalue(job) -> list:
    rep = _load(job.outputs["report"])
    led = job.expect["ledger"]
    errs = _check_bound(rep, closed_form_bound(led["n"], led["n_z"], led["n_k"],
                                               led["f_exp"], led["f_0"]))
    if rep.get("n_total_trials") != led["n_z"] + sum(led["n_k"]):
        errs.append("n_total_trials")
    return errs


def check_rate_ratio(job, checkout: Path) -> list:
    table = job.expect["inputs"]
    if table is None:
        table = _load(checkout / "src/spdclab/data/pair_rate_inputs.json")["configurations"]
    a, b = table[job.expect["a"]], table[job.expect["b"]]

    def factor(r):
        return r["n_pump"] * r["n_signal"] * r["n_idler"] * (r["n_idler"] - r["n_signal"])

    want = ((a["d_eff_pm_v"] / b["d_eff_pm_v"]) ** 2 * (a["length_mm"] / b["length_mm"])
            * factor(b) / factor(a) * a.get("omega", 1.0) / b.get("omega", 1.0))
    rep = _load(job.outputs["report"])
    return [] if _close(rep["rate_ratio"], want) else [
        f"rate_ratio {rep['rate_ratio']!r} != {want!r}"]


# ---------------------------------------------------------------------------
# crystal_design: re-solve with the public scalar wave solver
# ---------------------------------------------------------------------------

def _frame(cut_dir: np.ndarray) -> tuple:
    """Pump-frame transverse axes, same convention as the ring cloud's (kx, ky)."""
    helper = np.array([0.0, 0.0, 1.0]) if abs(cut_dir[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = helper - np.dot(helper, cut_dir) * cut_dir
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(cut_dir, e1)


def _wave_number(crystal, sel, direction, lam_nm: float, branch: str) -> float:
    sol = crystal.solve_waves(sel, direction, lam_nm)
    return 2.0 * math.pi * sol.n(branch) / (lam_nm * 1e-3)


def _ring_dk(crystal, sel, p, d, lam_s, lam_p, branch) -> float:
    lam_i = 1.0 / (1.0 / lam_p - 1.0 / lam_s)
    other = crystal.SLOW if branch == crystal.FAST else crystal.FAST
    k_p = _wave_number(crystal, sel, p, lam_p, crystal.FAST)
    k_s = _wave_number(crystal, sel, d, lam_s, branch)
    v = k_p * p - k_s * d
    nv = float(np.linalg.norm(v))
    return nv - _wave_number(crystal, sel, v / nv, lam_i, other)


def _grid(centre: float, fwhm: float, n: int, width: float) -> np.ndarray:
    sig = fwhm / 2.3548 if fwhm > 0 else 0.0
    return np.linspace(centre - width * sig, centre + width * sig, n) if sig > 0 \
        else np.array([centre])


def check_rings(job) -> tuple:
    """(errors, centres found) for a ``crystal rings`` CSV."""
    from spdclab import crystal

    e = job.expect
    crys = crystal.load_crystal(e["species"])
    sel = crys.sellmeier
    st = math.sin(e["cut"][0])
    p = np.array([st * math.cos(e["cut"][1]), st * math.sin(e["cut"][1]),
                  math.cos(e["cut"][0])])
    e1, e2 = _frame(p)
    lam_ps = _grid(e["pump_nm"], e["pump_fwhm"], 3, 2.0)
    lam_ss = _grid(2.0 * e["pump_nm"], e["filter_fwhm"], 5, 2.0)
    sig_f = e["filter_fwhm"] / 2.3548
    sig_p = e["pump_fwhm"] / 2.3548
    errs, centres = [], 0
    with open(job.outputs["csv"], newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            kx, ky = float(row["kx"]), float(row["ky"])
            # the CSV keeps 3 decimals of wavelength; snap to the exact grid
            lam_s = float(lam_ss[np.argmin(np.abs(lam_ss - float(row["wavelength_nm"])))])
            w_f = math.exp(-0.5 * ((lam_s - 2.0 * e["pump_nm"]) / sig_f) ** 2) \
                if sig_f > 0 else 1.0
            rel = float(row["weight"]) / w_f
            # centres carry the full edge weight 1 times the pump weight
            cands = [lp for lp in lam_ps
                     if abs((math.exp(-0.5 * ((lp - e["pump_nm"]) / sig_p) ** 2)
                             if sig_p > 0 else 1.0) - rel) < 1e-4]
            if not cands:
                continue                                 # a half-maximum edge point
            centres += 1
            d = math.sqrt(max(0.0, 1.0 - kx * kx - ky * ky)) * p + kx * e1 + ky * e2
            dks = [abs(_ring_dk(crystal, sel, p, d, lam_s, lp, row["branch"]))
                   for lp in cands]
            if min(dks) >= crystal.DELTA_K_TOL:
                errs.append(f"ring centre {row} |dk| = {min(dks):.3e}")
                if len(errs) > 5:
                    break
    if centres == 0:
        errs.append("no ring centres")
    return errs, centres


def check_summary(job) -> list:
    from spdclab import crystal

    e = job.expect
    crys = crystal.load_crystal(e["species"])
    cut = crystal.CrystalCut(e["cut"][0], e["cut"][1], crys.reference_cut.length_mm)
    pump = crystal.solve_waves(crys.sellmeier, cut.direction(), e["pump_nm"])
    down = crystal.solve_waves(crys.sellmeier, cut.direction(), 2.0 * e["pump_nm"])
    rep = _load(job.outputs["report"])
    want = {"pump_fast": pump.n_fast, "down_fast": down.n_fast, "down_slow": down.n_slow}
    errs = [f"index {k} {rep['indices'][k]!r} != {v!r}" for k, v in want.items()
            if not _close(rep["indices"][k], v, rel=1e-12)]
    if "unavailable" in rep.get("noncollinear", {"unavailable": "missing"}):
        errs.append("no non-collinear arms at a cut that has them")
    return errs


def check_curve(job) -> tuple:
    """(errors, samples, azimuths) for a ``crystal curve --format json`` report."""
    from spdclab import crystal

    e = job.expect
    crys = crystal.load_crystal(e["species"])
    rep = _load(job.outputs["report"])
    lam = e["pump_nm"]
    errs = []
    for s in rep["samples"]:
        st = math.sin(s["theta_rad"])
        d = np.array([st * math.cos(s["phi_rad"]), st * math.sin(s["phi_rad"]),
                      math.cos(s["theta_rad"])])
        pump = crystal.solve_waves(crys.sellmeier, d, lam)
        down = crystal.solve_waves(crys.sellmeier, d, 2.0 * lam)
        dk = 2.0 * math.pi / (lam * 1e-3) * (pump.n_fast - 0.5 * (down.n_fast + down.n_slow))
        if abs(dk) >= crystal.DELTA_K_TOL:
            errs.append(f"curve sample phi={s['phi_rad']:.4f} |dk| = {abs(dk):.3e}")
    azimuths = np.arange(e["phi_start"], e["phi_stop"] + 1e-9, e["phi_step"]).size
    if not rep["samples"]:
        errs.append("empty curve")
    return errs, len(rep["samples"]), int(azimuths)


def check_spectrum(job) -> list:
    width = _load(job.outputs["report"]).get(job.expect["arm"])
    return [] if isinstance(width, float) and math.isfinite(width) and width > 0 else [
        f"{job.expect['arm']} width {width!r} not finite and positive"]


def check_cut_search(job) -> list:
    from spdclab import crystal

    e = job.expect
    rep = _load(job.outputs["report"])
    crys = crystal.load_crystal(e["species"])
    cut = crystal.CrystalCut(rep["theta_rad"], rep["phi_rad"], rep["length_mm"])
    arms = crystal.noncollinear_arms(crys, cut, e["pump_nm"], n_psi=12)
    om = 0.5 * (arms.opening_i + arms.opening_j)
    n = crystal.solve_waves(crys.sellmeier, arms.dir_i, 2.0 * e["pump_nm"]).n_fast
    got = math.degrees(math.asin(min(1.0, n * math.sin(om))))
    return [] if abs(got - e["half_angle"]) < CUT_TOL_DEG else [
        f"cut gives {got:.6f} deg, asked {e['half_angle']:.6f}"]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    return _load(REFERENCE_FILE) if REFERENCE_FILE.is_file() else {}


def check_simulate(job, scratch: Path, reference: dict | None) -> tuple:
    """(errors, events written) for a ``simulate`` count file and its report."""
    from spdclab import cli

    counts = _load(job.outputs["counts"])
    rep = _load(job.outputs["report"])
    errs = []
    data = cli.dataset_from_dict(counts)             # raises SchemaError if malformed
    if counts.get("pulses_per_setting") != job.expect["pulses"]:
        errs.append("pulses_per_setting")
    if counts.get("seed") != job.expect["seed"]:
        errs.append("seed")
    events = rep["diagnostics"]["events_per_setting"]
    for s in data.settings:
        if sum(s.histogram.values()) != events.get(s.setting):
            errs.append(f"{s.setting}: histogram sum != events_per_setting")
        if any(len(o) != data.n for o in s.histogram):
            errs.append(f"{s.setting}: outcome of wrong length")
    if job.expect["analyze"]:
        out = scratch / (Path(job.outputs["counts"]).stem + ".analyze.json")
        if cli.main(["analyze", str(job.outputs["counts"]), "--out", str(out)]) != 0:
            errs.append("analyze rejected the simulated count file")
    if reference is not None:
        want = reference.get(job.expect["reference_key"])
        if want is not None:
            for setting, ref in want.items():
                got = events.get(setting, 0)
                if abs(got - ref) > POISSON_SIGMAS * math.sqrt(got + ref + 1.0):
                    errs.append(f"{setting}: {got} events, reference {ref} "
                                f"(> {POISSON_SIGMAS} sigma)")
    return errs, int(sum(events.values()))
