"""Seeded inputs and job lists for the three benchmark workloads.

A workload is a sequence of rounds.  Each round is a fixed list of job kinds
whose parameters are drawn from ``(seed, round)``, so the same seed always
gives the same files and command lines, and every round costs about the same.
Each job is one fresh process: ``python -m spdclab.cli ...`` for commands the
CLI offers, or ``bench/api_job.py`` for API-only jobs, so import cost counts
as users pay it.  The program sees only the generated files.

Why these workloads:

* ``analysis`` - count files (full histograms and aggregated totals, n in
  {4, 6, 8, 10}, per-setting totals 1e2..1e6), trial ledgers, rate-ratio
  inputs and reference-regime ``simulate``.  Start-up and import dominate, so
  it exercises ``cli``, ``witness`` and ``hyptest`` while the ring solver and
  the contaminated-pulse trace do no work.
* ``crystal_design`` - cuts within 0.003 rad of the shipped BBO and BiBO
  reference cuts, pump 385-395 nm.  Bound by the wave solver and root-finds;
  filtered rings (1440 root-finds) and monochromatic rings (96) run the same
  code with 15x different work.
* ``bright_mc`` - bright five-source configurations (p 0.15-0.3, g 0.5 or 2,
  xi 0.65-1).  Pulse budgets are sized per config so each command runs the
  same expected number of contaminated pulses; the contaminated share spans
  about 0.3 to 0.9.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("analysis", "crystal_design", "bright_mc")

#: rounds generated at set-up; a run never needs more
MAX_ROUNDS = 12

#: shipped reference cuts (theta, phi) in rad; seeded cuts stay within
#: CUT_JITTER of them, which keeps both rings and both arms
REFERENCE_CUTS = {"bbo": (0.7667, 0.0), "bibo": (1.944, 0.962)}
CUT_JITTER = 0.003
SPECIES = ("bbo", "bibo")

#: p-value regimes the count files and ledgers are drawn from
ROLES = ("noninformative", "gaussian", "tail")

#: expected contaminated candidate pulses per setting in a bright_mc job
CONTAMINATED_PER_SETTING = 6000

REFERENCE_CONFIG = "src/spdclab/data/reference_tenfold_config.json"


@dataclass
class Job:
    """One process the benchmark starts, plus what its checker needs."""

    job_id: str
    kind: str
    argv: list                 # after the interpreter; "cli" jobs start with "-m"
    outputs: dict              # name -> path of files the job writes
    expect: dict = field(default_factory=dict)


def _cli(*args) -> list:
    return ["-m", "spdclab.cli", *[str(a) for a in args]]


def _api(*args) -> list:
    return ["bench/api_job.py", *[str(a) for a in args]]


def _rng(seed: int, workload: str, round_idx: int) -> np.random.Generator:
    tag = WORKLOADS.index(workload)
    return np.random.default_rng([seed, tag, round_idx])


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def make_rounds(workload: str, seed: int, workdir: Path,
                n_rounds: int = MAX_ROUNDS) -> list:
    """Write every input file under ``workdir`` and return the rounds' job lists."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    build = {"analysis": _analysis_round, "crystal_design": _crystal_round,
             "bright_mc": _bright_round}[workload]
    rounds = []
    for r in range(n_rounds):
        rdir = workdir / f"r{r}"
        rdir.mkdir(parents=True, exist_ok=True)
        rounds.append(build(_rng(seed, workload, r), r, rdir))
    return rounds


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _outcomes(n: int) -> list:
    return ["".join("V" if (i >> (n - 1 - b)) & 1 else "H" for b in range(n))
            for i in range(2**n)]


def s_total(n: int, n_z: int, n_k) -> float:
    """sqrt(1/(16 N_z) + sum_k 1/(4 n^2 N_k)), the bound's trial spread."""
    return math.sqrt(1.0 / (16.0 * n_z) + sum(1.0 / (4.0 * n * n * c) for c in n_k))


def _target_fidelity(rng, role: str, n: int, n_z: int, n_k) -> float:
    """Fidelity whose p-value argument x falls in the role's regime.

    The Gaussian branch holds for x below about 1.9 and the tail branch above
    it; targets keep clear of the crossover so integer rounding of counts
    cannot move a job to the other branch.
    """
    if role == "noninformative":
        return float(rng.uniform(0.30, 0.47))
    s = s_total(n, n_z, n_k)
    x_max = (0.97 - 0.5) / s
    if role == "gaussian":
        x = rng.uniform(0.4, min(1.4, x_max))
    else:
        x = rng.uniform(2.8, min(30.0, x_max))
    return 0.5 + x * s


def _aggregates(rng, n: int, role: str) -> tuple:
    """Per-setting aggregates with totals 1e2..1e6 and a role-specific fidelity."""
    base = 10.0 ** rng.uniform(2.0, 6.0)
    totals = np.maximum(100, np.round(base * rng.uniform(0.8, 1.2, n + 1))).astype(int)
    n_z, n_k = int(totals[0]), [int(c) for c in totals[1:]]
    f = _target_fidelity(rng, role, n, n_z, n_k)
    # split F = P/2 + v/2 into population fraction P and visibility v
    lo, hi = max(0.0, 2.0 * f - 1.0), min(1.0, 2.0 * f)
    pop = rng.uniform(max(lo, 0.5 * (lo + hi) - 0.2), min(hi, 0.5 * (lo + hi) + 0.2))
    vis = 2.0 * f - pop
    n_sig = int(round(pop * n_z))
    n_h = int(rng.binomial(n_sig, 0.5))
    z = {"n_all_h": n_h, "n_all_v": n_sig - n_h, "n_rest": n_z - n_sig}
    ms = []
    for k, total in enumerate(n_k):
        e_k = (-1) ** k * vis
        n_plus = int(round(total * (1.0 + e_k) / 2.0))
        ms.append({"n_plus": n_plus, "n_minus": total - n_plus})
    return z, ms


def _histograms(rng, n: int, z: dict, ms: list) -> tuple:
    labels = _outcomes(n)
    rest = labels[1:-1]
    z_hist = {labels[0]: z["n_all_h"], labels[-1]: z["n_all_v"]}
    for o, c in zip(rest, rng.multinomial(z["n_rest"], np.full(len(rest), 1.0 / len(rest)))):
        z_hist[o] = z_hist.get(o, 0) + int(c)
    even = [o for o in labels if o.count("V") % 2 == 0]
    odd = [o for o in labels if o.count("V") % 2 == 1]
    m_hists = []
    for agg in ms:
        h = {}
        for group, total in ((even, agg["n_plus"]), (odd, agg["n_minus"])):
            for o, c in zip(group, rng.multinomial(total, np.full(len(group), 1.0 / len(group)))):
                if c:
                    h[o] = int(c)
        m_hists.append(h)
    z_hist = {o: c for o, c in z_hist.items() if c}
    return z_hist, m_hists


def _analysis_round(rng, r: int, rdir: Path) -> list:
    """Eight jobs.  Every round holds all four n, both forms and all three
    p-value regimes; forms, regimes and plot output rotate with the round."""
    jobs = []
    for i, n in enumerate((4, 6, 8, 10)):
        form = ("histogram", "aggregated")[(i + r) % 2]
        role = ROLES[(i + r) % 3]
        z, ms = _aggregates(rng, n, role)
        settings = []
        if form == "histogram":
            z_hist, m_hists = _histograms(rng, n, z, ms)
            settings.append({"setting": "Z", "histogram": z_hist})
            settings += [{"setting": f"M{k}", "histogram": h} for k, h in enumerate(m_hists)]
        else:
            settings.append({"setting": "Z", "aggregated": z})
            settings += [{"setting": f"M{k}", "aggregated": a} for k, a in enumerate(ms)]
        name = f"counts_n{n}_{form}"
        path = rdir / f"{name}.json"
        write_json(path, {"schema_version": 1, "kind": "count_dataset", "n": n,
                           "provenance": "simulated", "notes": "benchmark input",
                           "settings": settings})
        out = {"report": rdir / f"{name}.report.json"}
        args = ["analyze", path, "--out", out["report"]]
        if (i + r) % 3 == 0:
            out["plots"] = rdir / f"{name}.plots"
            args += ["--plot-data", out["plots"]]
        jobs.append(Job(f"r{r}.analyze.{name}", "analyze", _cli(*args), out,
                        {"n": n, "z": z, "m": ms}))
    for i in range(2):
        role = ROLES[(2 * r + i) % 3]
        n = (4, 6, 8, 10)[(2 * i + r) % 4]
        z, ms = _aggregates(rng, n, role)
        n_z = sum(z.values())
        n_k = [a["n_plus"] + a["n_minus"] for a in ms]
        f_exp = _target_fidelity(rng, role, n, n_z, n_k)
        path = rdir / f"ledger{i}.json"
        ledger = {"schema_version": 1, "kind": "trial_ledger", "n": n, "n_z": n_z,
                  "n_k": n_k, "f_exp": f_exp, "f_0": 0.5}
        write_json(path, ledger)
        out = {"report": rdir / f"ledger{i}.report.json"}
        jobs.append(Job(f"r{r}.pvalue.{i}", "pvalue",
                        _cli("pvalue", path, "--out", out["report"]), out,
                        {"ledger": ledger}))
    if r % 2:
        out = {"report": rdir / "rate_ratio_shipped.json"}
        jobs.append(Job(f"r{r}.rate_ratio.shipped", "rate_ratio",
                        _cli("crystal", "rate-ratio", "--out", out["report"]), out,
                        {"inputs": None, "a": "bibo_0p6mm", "b": "bbo_2mm"}))
    else:
        jobs.append(_seeded_rate_ratio(rng, r, rdir))
    # reference-regime Monte Carlo: 1e9..1e10 pulses, the binomial-only path
    pulses = int(10.0 ** rng.uniform(9.0, 10.0))
    sim_seed = int(rng.integers(0, 2**31))
    out = {"counts": rdir / "ref_sim.counts.json", "report": rdir / "ref_sim.report.json"}
    jobs.append(Job(f"r{r}.simulate.ref", "simulate",
                    _cli("simulate", REFERENCE_CONFIG, "--pulses", pulses,
                         "--seed", sim_seed, "--out", out["counts"],
                         "--report", out["report"]), out,
                    {"pulses": pulses, "seed": sim_seed, "analyze": False}))
    return jobs


def _seeded_rate_ratio(rng, r: int, rdir: Path) -> Job:
    inputs = {"kind": "pair_rate_inputs", "configurations": {}}
    for label in ("a", "b"):
        n_s = rng.uniform(1.5, 1.9)
        inputs["configurations"][label] = {
            "d_eff_pm_v": rng.uniform(0.5, 3.0), "length_mm": rng.uniform(0.3, 3.0),
            "n_pump": rng.uniform(1.5, 1.9), "n_signal": n_s,
            "n_idler": n_s + rng.uniform(0.02, 0.15),
            "delta_walkoff": rng.uniform(0.1, 1.0), "omega": rng.uniform(0.5, 2.0)}
    path = rdir / "rate_inputs.json"
    write_json(path, inputs)
    out = {"report": rdir / "rate_ratio.json"}
    return Job(f"r{r}.rate_ratio.seeded", "rate_ratio",
               _cli("crystal", "rate-ratio", "--inputs", path, "--a", "a", "--b", "b",
                    "--out", out["report"]), out,
               {"inputs": inputs["configurations"], "a": "a", "b": "b"})


# ---------------------------------------------------------------------------
# crystal_design
# ---------------------------------------------------------------------------

def _seeded_cut(rng, species: str) -> tuple:
    theta0, phi0 = REFERENCE_CUTS[species]
    theta = theta0 + rng.uniform(-CUT_JITTER, CUT_JITTER)
    phi = phi0 + (rng.uniform(0.0, CUT_JITTER) if phi0 == 0.0
                  else rng.uniform(-CUT_JITTER, CUT_JITTER))
    return float(theta), float(phi)


def _crystal_round(rng, r: int, rdir: Path) -> list:
    """Six jobs; species alternate by job and by round, so two rounds cover
    every kind on both crystals."""
    jobs = []
    sp = lambda j: SPECIES[(j + r) % 2]
    params = {}
    for species in SPECIES:
        theta, phi = _seeded_cut(rng, species)
        params[species] = {"cut": (theta, phi), "pump_nm": float(rng.uniform(385.0, 395.0)),
                           "pump_fwhm": float(rng.uniform(1.5, 3.0)),
                           "filter_fwhm": float(rng.uniform(2.0, 4.0))}

    def cut_args(p):
        return ["--species", p["species"], "--cut", repr(p["cut"][0]), repr(p["cut"][1]),
                "--pump-nm", repr(p["pump_nm"])]

    for species in SPECIES:
        params[species]["species"] = species

    p = params[sp(0)]
    out = {"csv": rdir / "rings.csv"}
    jobs.append(Job(f"r{r}.rings.{p['species']}", "rings",
                    _cli("crystal", "rings", *cut_args(p), "--pump-fwhm", repr(p["pump_fwhm"]),
                         "--filter-fwhm", repr(p["filter_fwhm"]), "--out", out["csv"]),
                    out, dict(p)))
    p = params[sp(1)]
    out = {"csv": rdir / "rings_mono.csv"}
    jobs.append(Job(f"r{r}.rings_mono.{p['species']}", "rings_mono",
                    _cli("crystal", "rings", *cut_args(p), "--pump-fwhm", "0",
                         "--filter-fwhm", "0", "--out", out["csv"]),
                    out, dict(p, pump_fwhm=0.0, filter_fwhm=0.0)))
    p = params[sp(2)]
    out = {"report": rdir / "summary.json"}
    jobs.append(Job(f"r{r}.summary.{p['species']}", "summary",
                    _cli("crystal", "summary", *cut_args(p), "--out", out["report"]),
                    out, dict(p)))
    p = params[sp(3)]
    branch = ("upper", "lower")[(r // 2) % 2]
    phi_start = float(rng.uniform(0.0, 30.0))
    phi_stop = phi_start + float(rng.uniform(40.0, 60.0))
    phi_step = float(rng.uniform(1.0, 2.0))
    out = {"report": rdir / "curve.json"}
    jobs.append(Job(f"r{r}.curve.{p['species']}.{branch}", "curve",
                    _cli("crystal", "curve", "--species", p["species"], "--pump-nm",
                         repr(p["pump_nm"]), "--branch", branch,
                         "--phi-start", repr(phi_start), "--phi-stop", repr(phi_stop),
                         "--phi-step", repr(phi_step), "--format", "json",
                         "--out", out["report"]),
                    out, dict(p, branch=branch, phi_start=phi_start, phi_stop=phi_stop,
                              phi_step=phi_step)))
    p = params[sp(4)]
    arm = ("signal", "idler")[r % 2]
    out = {"report": rdir / "spectrum.json"}
    jobs.append(Job(f"r{r}.spectrum.{p['species']}.{arm}", "spectrum",
                    _api("spectrum", *cut_args(p), "--pump-fwhm", repr(p["pump_fwhm"]),
                         "--arm", arm, "--out", out["report"]),
                    out, dict(p, arm=arm)))
    p = params[sp(5)]
    half_angle = float(rng.uniform(2.2, 3.8))
    length_mm = float(rng.uniform(0.5, 2.5))
    out = {"report": rdir / "cut.json"}
    jobs.append(Job(f"r{r}.cut_search.{p['species']}", "cut_search",
                    _api("cut-search", "--species", p["species"], "--pump-nm",
                         repr(p["pump_nm"]), "--half-angle", repr(half_angle),
                         "--phi", repr(p["cut"][1]), "--length-mm", repr(length_mm),
                         "--out", out["report"]),
                    out, dict(p, half_angle=half_angle, length_mm=length_mm)))
    return jobs


# ---------------------------------------------------------------------------
# bright_mc
# ---------------------------------------------------------------------------

def bright_config(p: float, g: float, xi: float, overlap: float, dark: float,
                  seed: int) -> dict:
    """experiment_config record for five identical bright sources on the default chain."""
    src = {"pair_prob": p, "xi_signal": xi, "xi_idler": xi, "theta_state": math.pi / 4,
           "rotated": False, "double_pair_factor": g}
    return {"schema_version": 1, "kind": "experiment_config", "rep_rate_hz": 76.0e6,
            "seed": seed, "sources": [dict(src) for _ in range(5)],
            "interference": {"mode_overlap": [overlap]},
            "detector": {"dark_count_prob": dark},
            "network": {"pbs_links": [[2, 3], [3, 5], [5, 7], [7, 9]]},
            "provenance": {"origin": "benchmark input"}}


def candidate_stats(config: dict) -> tuple:
    """(P(every source emits), P(some source emitted two pairs | every source emits))."""
    p_all, p_clean = 1.0, 1.0
    for s in config["sources"]:
        p, g = s["pair_prob"], s["double_pair_factor"]
        w0, w1, w2 = 1.0, p, g * p * p
        p_all *= (w1 + w2) / (w0 + w1 + w2)
        p_clean *= w1 / (w1 + w2)
    return p_all, 1.0 - p_clean


def _bright_round(rng, r: int, rdir: Path) -> list:
    """Two jobs, g = 0.5 and g = 2; dark counts on one of them, alternating.

    Cost grows with p and xi, so the two jobs take mirrored points of their
    ranges (u and 1 - u), which keeps every round's cost close to the same
    across seeds; odd rounds swap which g gets which point.
    """
    jobs = []
    u_p, u_xi = rng.uniform(0.0, 1.0, 2)
    for i, g in enumerate((0.5, 2.0)):
        mirror = (i + r) % 2
        p = 0.15 + 0.15 * float(abs(mirror - u_p))
        xi = 0.65 + 0.35 * float(abs(mirror - u_xi))
        overlap = float(rng.uniform(0.7, 1.0))
        dark = float(rng.uniform(1e-4, 1e-2)) if (i + r) % 2 else 0.0
        sim_seed = int(rng.integers(0, 2**31))
        config = bright_config(p, g, xi, overlap, dark, sim_seed)
        p_all, share = candidate_stats(config)
        pulses = int(CONTAMINATED_PER_SETTING / (p_all * share))
        path = rdir / f"bright{i}.config.json"
        write_json(path, config)
        out = {"counts": rdir / f"bright{i}.counts.json",
               "report": rdir / f"bright{i}.report.json"}
        jobs.append(Job(f"r{r}.simulate.bright{i}", "simulate",
                        _cli("simulate", path, "--pulses", pulses, "--out", out["counts"],
                             "--report", out["report"]), out,
                        {"pulses": pulses, "seed": sim_seed, "analyze": True,
                         "reference_key": f"r{r}.bright{i}"}))
    return jobs
