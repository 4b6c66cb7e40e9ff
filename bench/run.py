"""Seeded end-to-end and per-layer benchmark for spdclab.

Run from the root of a source checkout (the program is taken from ``src``):

    python3 bench/run.py --workload analysis --seed 1 --seconds 36 --trace 0

Workloads are described in ``workloads.py``.  The load is a closed loop with
one client: jobs run one at a time, each in a fresh interpreter, so import
cost counts as users pay it.  Jobs come in rounds of fixed composition; the
run starts a new round while the time already spent plus the last round's
duration fits in ``--seconds`` (at least one round).  Every job's output is
checked (``checks.py``); a job that exits non-zero or fails a check counts as
failed.

Job times are also divided by a calibration job (``calibrate.py``, no spdclab
code) run between jobs, giving ``cal`` units that do not move when a shared
machine slows down for a while; the gated times are in those units.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each round
twice, untraced and then under ``traced_job.py``, and reports the per-layer
metrics plus the tracing overhead between the two.  The last line of stdout
is one JSON object; the lines above it are for people.  A full record of the
run (machine, every job's time and every failure) is written to
``.bench_runs/`` in the checkout; ``compare.py`` reads those records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
#: metric names and units; run.py reports exactly the metrics listed there
SPEC_FILE = BENCH_DIR.parent / "BENCHMARK.json"
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 5
#: the seed whose bright_mc counts are pinned in reference_counts.json
DEFAULT_SEED = 1
RUNS_DIR = ".bench_runs"

#: job seconds between two calibration jobs
CAL_EVERY_S = 4.0
#: median duration of calibrate.py on the 2-core Xeon where the bounds were set
CAL_REFERENCE_S = 0.65


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def machine_record(checkout: Path) -> dict:
    from importlib import metadata

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    try:
        # the ceiling keeps git from reporting a repository that encloses the checkout
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(checkout.parent))
                              ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        head = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), **versions,
            "git_head": head, "loadavg_start": _read("/proc/loadavg").strip()}


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

class Runner:
    """Starts one job process at a time and times it to its exit."""

    def __init__(self, checkout: Path, logdir: Path):
        self.checkout = checkout
        self.logdir = logdir
        self.env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def run(self, argv: list, log_name: str) -> dict:
        log = self.logdir / f"{log_name}.log"
        with open(log, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.checkout, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode,
                "log": str(log)}

    def job(self, job, traced: bool, spans_dir: Path) -> dict:
        argv = job.argv
        tag = ("T." if traced else "U.") + job.job_id
        if traced:
            spans = spans_dir / f"{job.job_id}.json"
            argv = [str(BENCH_DIR / "traced_job.py"), "--job-id", job.job_id,
                    "--spans", str(spans), "--", *argv]
        out = self.run(argv, tag)
        out.update(job_id=job.job_id, kind=job.kind, traced=traced)
        return out


def check_job(job, rec: dict, checkout: Path, scratch: Path, reference) -> None:
    """Fill rec['errors'] (empty when the output is right) and job-specific counts."""
    errs = []
    if rec["rc"] != 0:
        tail = Path(rec["log"]).read_text(errors="replace")[-400:]
        rec["errors"] = [f"exit status {rec['rc']}: {tail}"]
        return
    try:
        if job.kind == "analyze":
            errs = checks.check_analyze(job)
        elif job.kind == "pvalue":
            errs = checks.check_pvalue(job)
        elif job.kind == "rate_ratio":
            errs = checks.check_rate_ratio(job, checkout)
        elif job.kind == "simulate":
            errs, rec["events"] = checks.check_simulate(job, scratch, reference)
        elif job.kind in ("rings", "rings_mono"):
            errs, rec["centres"] = checks.check_rings(job)
        elif job.kind == "summary":
            errs = checks.check_summary(job)
        elif job.kind == "curve":
            errs, rec["samples"], rec["azimuths"] = checks.check_curve(job)
        elif job.kind == "spectrum":
            errs = checks.check_spectrum(job)
        elif job.kind == "cut_search":
            errs = checks.check_cut_search(job)
        else:
            errs = [f"no check for job kind {job.kind!r}"]
    except Exception as exc:            # a malformed output is a failed job, not a crash
        errs = [f"check raised {type(exc).__name__}: {exc}"]
    rec["errors"] = errs


# ---------------------------------------------------------------------------
# set-up, rounds, metrics
# ---------------------------------------------------------------------------

def calibrate(runner: Runner) -> float:
    return runner.run([str(BENCH_DIR / "calibrate.py")], "cal")["wall_s"]


def setup(workload: str, seed: int, workdir: Path, runner: Runner) -> tuple:
    """Generate inputs and make one warm-up CLI call, SETUP_REPEATS times,
    each followed by an untimed calibration; (rounds, [(seconds, cal)])."""
    times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if workdir.exists():
            shutil.rmtree(workdir)
        (workdir / "logs").mkdir(parents=True)
        rounds = workloads.make_rounds(workload, seed, workdir / "inputs")
        warm = runner.run(["-m", "spdclab.cli", "--version"], f"warmup{i}")
        if warm["rc"] != 0:
            raise RuntimeError(f"warm-up call failed: {Path(warm['log']).read_text()}")
        times.append((time.perf_counter() - t0, calibrate(runner)))
    return rounds, times


def tail_percentile(values: list) -> tuple:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    xs = sorted(values)
    i = len(xs) - 11
    if i < 0:
        return xs[-1], 100.0
    return xs[i], 100.0 * i / (len(xs) - 1)


def end_to_end(records: list, n_rounds: int, setup_times: list) -> tuple:
    """(gated metrics, record-only metrics) from untraced jobs.

    Times in ``cal`` units are job wall times divided by the calibration job
    run next to them; they are what the gate compares, because the speed of a
    machine shared with other tenants can drift by tens of percent within
    minutes.  Seconds are recorded too.
    """
    walls = [r["wall_s"] for r in records]
    rels = [r["wall_s"] / r["cal_s"] for r in records]
    # rounds share one composition, so a round's cost is the job total over
    # the rounds run; geometric means, not medians, for single jobs: with a
    # few jobs of very different kinds the median jumps between kinds
    # setup_s keeps the unit the gate requires: set-up time in cal units,
    # scaled back to seconds at the calibration job's reference duration
    gated = {"setup_s": CAL_REFERENCE_S * _median([t / c for t, c in setup_times]),
             "wall_cal": sum(rels) / n_rounds,
             "job_cal.geomean": statistics.geometric_mean(rels),
             "peak_rss_mb": max(r["rss_mb"] for r in records)}
    tail, pct = tail_percentile(walls)
    extra = {"setup_raw_s": _median([t for t, _ in setup_times]),
             "wall_s": sum(walls) / n_rounds,
             "job_s.geomean": statistics.geometric_mean(walls),
             "job_s.median": _median(walls), "job_s.tail": tail,
             "job_s.tail_percentile": pct,
             "cal_s": _median([r["cal_s"] for r in records]),
             "failed_ratio": sum(1 for r in records if r["errors"]) / len(records)}
    for kind in sorted({r["kind"] for r in records}):
        extra[f"{kind}_s"] = _median([r["wall_s"] for r in records if r["kind"] == kind])
        extra[f"{kind}_cal"] = _median([r["wall_s"] / r["cal_s"] for r in records
                                        if r["kind"] == kind])
    sims = [r for r in records if r["kind"] == "simulate"]
    if sims:
        extra["events_per_s"] = (sum(r.get("events", 0) for r in sims)
                                 / sum(r["wall_s"] for r in sims))
    return gated, extra


def run_pass(jobs, runner: Runner, spans_dir: Path, traced: bool) -> list:
    """Run one round's jobs with a calibration job before the first job, after
    the last, and after every CAL_EVERY_S of job time; each job gets the mean
    of the two calibrations around it as ``cal_s``."""
    recs, segment, cal_walls = [], [], [calibrate(runner)]
    for i, job in enumerate(jobs):
        rec = runner.job(job, traced, spans_dir)
        recs.append(rec)
        segment.append(rec)
        if i == len(jobs) - 1 or sum(r["wall_s"] for r in segment) >= CAL_EVERY_S:
            cal_walls.append(calibrate(runner))
            for r in segment:
                r["cal_s"] = 0.5 * (cal_walls[-2] + cal_walls[-1])
            segment = []
    return recs


def run_rounds(rounds, seconds: float, trace: bool, runner: Runner, workdir: Path,
               checkout: Path, reference) -> tuple:
    """Rounds until the next one would not fit in ``seconds``; (records, rounds run)."""
    spans_dir = workdir / "spans"
    spans_dir.mkdir(exist_ok=True)
    records, n_rounds = [], 0
    t_start = time.perf_counter()
    for r, jobs in enumerate(rounds):
        t_round = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            for job, rec in zip(jobs, run_pass(jobs, runner, spans_dir, traced)):
                rec["round"] = r
                check_job(job, rec, checkout, workdir, reference)
                records.append(rec)
        n_rounds += 1
        now = time.perf_counter()
        if (now - t_start) + (now - t_round) > seconds:
            break
    return records, n_rounds


def importtime(runner: Runner) -> list:
    out = []
    for i in range(IMPORTTIME_REPEATS):
        rec = runner.run(["-X", "importtime", "-c", "import spdclab.cli"], f"importtime{i}")
        out.append(tracing.parse_importtime(Path(rec["log"]).read_text()))
    return out


# --- per-layer -------------------------------------------------------------

def _dur(span) -> float:
    return span["end"] - span["start"]


def _hot(span, name: str, field: int) -> float:
    return span["hot"].get(name, [0, 0.0, 0, 0])[field]


def load_spans(spans_dir: Path, kinds: dict) -> list:
    """Every traced job's dump, tagged with the job's kind."""
    dumps = []
    for path in sorted(spans_dir.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        d["kind"] = kinds.get(d["job"], "probe")
        dumps.append(d)
    return dumps


def _spans(dumps, name, kinds=None, top_level=False) -> list:
    out = []
    for d in dumps:
        if kinds is not None and d["kind"] not in kinds:
            continue
        for s in d["spans"]:
            if s["name"] == name and (not top_level or s["parent"] is None):
                out.append(s)
    return out


def _per_job_sum(dumps, prefix: str) -> list:
    return [sum(_dur(s) for s in d["spans"] if s["name"].startswith(prefix))
            for d in dumps if d["cli"]]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: job-id prefix of the first round's jobs (see workloads.make_rounds)
FIRST_ROUND = "r0."


def per_layer(dumps: list, imports: list, overhead_pct: float) -> dict:
    m = {}
    for key, mod, scale in (("cli.import_s", "spdclab.cli", 1e-6),
                            ("cli.import.crystal_ms", "spdclab.crystal", 1e-3),
                            ("cli.import.scipy_optimize_ms", "scipy.optimize", 1e-3),
                            ("cli.import.scipy_special_ms", "scipy.special", 1e-3)):
        m[key] = _median([imp.get(mod, 0) * scale for imp in imports])
    m["cli.parse_ms"] = 1e3 * _median(_per_job_sum(dumps, "cli.parse"))
    m["cli.serialize_ms"] = 1e3 * _median(_per_job_sum(dumps, "cli.serialize"))
    m["cli.report_ms"] = 1e3 * _median([_dur(s) - s["child_s"]
                                        for s in _spans(dumps, "cli.report")])
    m["witness.estimate_us"] = 1e6 * _median([_dur(s) for s in _spans(dumps, "witness.estimate")])
    m["hyptest.bound_us"] = 1e6 * _median([_dur(s) for s in _spans(dumps, "hyptest.bound")])
    m["qstate.fuse_ms"] = 1e3 * _median([_dur(s) for s in _spans(dumps, "qstate.fuse")])

    mc = _spans(dumps, "simulator.mc")
    mc_time = sum(_dur(s) for s in mc)
    candidates = sum(s["candidates"] for s in mc)
    m["simulator.mc_s"] = _median([_dur(s) for s in mc])
    m["simulator.candidates_per_s"] = _ratio(candidates, mc_time)
    m["simulator.yield"] = _ratio(sum(s["events"] for s in mc), candidates)
    m["simulator.contaminated_share"] = _median([s["contaminated_share"] for s in mc])
    clean = _spans(dumps, "simulator.sample_clean")
    m["simulator.clean_events_per_s"] = _ratio(sum(s["events"] for s in clean),
                                               sum(_dur(s) for s in clean))

    totals = {}
    for d in dumps:
        for name, acc in d["totals"].items():
            t = totals.setdefault(name, [0, 0.0, 0, 0])
            for i in range(4):
                t[i] += acc[i]
    sw = totals.get("crystal.solve_waves", [0, 0.0, 0, 0])
    ib = totals.get("crystal.index_batch", [0, 0.0, 0, 0])
    m["crystal.solve_waves_per_s"] = _ratio(sw[0], sw[1])
    m["crystal.index_batch_dirs_per_s"] = _ratio(ib[2], ib[1])
    rings = _spans(dumps, "crystal.rings", kinds={"rings"}) or \
        _spans(dumps, "crystal.rings", kinds={"probe"})
    roots = sum(_hot(s, "crystal.ring_root", 0) for s in rings)
    m["crystal.rings_s"] = _median([_dur(s) for s in rings])
    m["crystal.ring_roots_per_s"] = _ratio(roots, sum(_dur(s) for s in rings))
    # counts and hit ratios from the first round only (or the probe), which
    # every run has, so that they repeat exactly for a seed
    first = [s for s in rings if s["job"].startswith(FIRST_ROUND)] or rings
    first_roots = sum(_hot(s, "crystal.ring_root", 0) for s in first)
    m["crystal.solve_waves_calls"] = _median([_hot(s, "crystal.solve_waves", 0) for s in first])
    m["crystal.index_batch_calls"] = _median([_hot(s, "crystal.index_batch", 0) for s in first])
    m["crystal.solve_waves_per_root"] = _ratio(
        sum(_hot(s, "crystal.solve_waves", 0) for s in first), first_roots)
    m["crystal.ring_hit_ratio"] = _ratio(sum(_hot(s, "crystal.ring_root", 3) for s in first),
                                         first_roots)
    # arm searches nested in a cut search use a coarser azimuth grid
    arms = []
    for d in dumps:
        by_id = {s["id"]: s for s in d["spans"]}
        for s in d["spans"]:
            if s["name"] == "crystal.arms" and not any(
                    by_id[a]["name"] == "crystal.cut_search" for a in _ancestors(s, by_id)):
                arms.append(s)
    m["crystal.arms_s"] = _median([_dur(s) for s in arms])
    curves = _spans(dumps, "crystal.curve", top_level=True)
    m["crystal.curve_s"] = _median([_dur(s) for s in curves])
    first = [s for s in curves if s["job"].startswith(FIRST_ROUND)] or curves
    m["crystal.curve_hit_ratio"] = _ratio(sum(s["samples"] for s in first),
                                          sum(s["azimuths"] for s in first))
    m["crystal.spectrum_s"] = _median([_dur(s) for s in _spans(dumps, "crystal.spectrum",
                                                               top_level=True)])
    m["crystal.cut_search_s"] = _median([_dur(s) for s in _spans(dumps, "crystal.cut_search")])
    m["trace.overhead_pct"] = overhead_pct
    return m


def _ancestors(span, by_id):
    while span["parent"] is not None:
        span = by_id[span["parent"]]
        yield span["id"]


#: probe layer -> span whose absence from a workload's traced jobs triggers it
PROBES = {"witness": "witness.estimate", "crystal": "crystal.rings", "mc": "simulator.mc",
          "clean": "simulator.sample_clean"}


def run_probes(dumps, runner: Runner, workdir: Path, seed: int) -> tuple:
    """Layers the workload's jobs never call are timed by one probe process;
    (layers probed, the probe's job record or None)."""
    present = {s["name"] for d in dumps for s in d["spans"]}
    layers = [layer for layer, span in PROBES.items() if span not in present]
    if not layers:
        return [], None
    config = workdir / "probe_config.json"
    workloads.write_json(config, workloads.bright_config(0.2, 2.0, 0.8, 0.9, 0.0, seed))
    probe = workloads.Job("probe", "probe",
                          [str(BENCH_DIR / "api_job.py"), "probe", "--layers",
                           ",".join(layers), "--config", str(config), "--seed", str(seed),
                           "--out", str(workdir / "probe.json")], {})
    rec = runner.job(probe, True, workdir / "spans")
    rec["errors"] = [] if rec["rc"] == 0 else [
        f"exit status {rec['rc']}: {Path(rec['log']).read_text(errors='replace')[-400:]}"]
    return layers, rec


def tracing_overhead(records: list) -> float:
    """Traced over untraced time of the same jobs, both in cal units, in percent."""
    untraced = {r["job_id"]: r["wall_s"] / r["cal_s"] for r in records if not r["traced"]}
    pairs = [(untraced[r["job_id"]], r["wall_s"] / r["cal_s"]) for r in records
             if r["traced"] and r["job_id"] in untraced]
    return 100.0 * (sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1.0)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("analysis", "crystal_design", "bright_mc"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    checkout = Path.cwd()
    if not (checkout / "src" / "spdclab" / "cli.py").is_file():
        print("bench/run.py: no spdclab source at ./src/spdclab; run it from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, str(checkout / "src"))
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    runs_dir = checkout / RUNS_DIR
    workdir = runs_dir / f"{name}.work"
    machine = machine_record(checkout)
    runner = Runner(checkout, workdir / "logs")
    reference = None
    if args.workload == "bright_mc" and args.seed == DEFAULT_SEED:
        reference = checks.load_reference()
    rounds, setup_times = setup(args.workload, args.seed, workdir, runner)
    records, n_rounds = run_rounds(rounds, args.seconds, bool(args.trace), runner,
                                   workdir, checkout, reference)
    gated, extra = end_to_end([r for r in records if not r["traced"]], n_rounds, setup_times)
    layers, probed = {}, []
    if args.trace:
        kinds = {job.job_id: job.kind for jobs in rounds for job in jobs}
        probed, probe_rec = run_probes(load_spans(workdir / "spans", kinds), runner,
                                       workdir, args.seed)
        if probe_rec is not None:
            records.append(probe_rec)
        layers = per_layer(load_spans(workdir / "spans", kinds), importtime(runner),
                           tracing_overhead(records))
    machine["loadavg_end"] = _read("/proc/loadavg").strip()
    failures = {("T." if r["traced"] else "U.") + r["job_id"]: r["errors"]
                for r in records if r["errors"]}
    attempted, failed = len(records), len(failures)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "end_to_end": gated,
              "record_only": extra, "per_layer": layers, "probed_layers": probed,
              "setup_times": setup_times, "rounds": n_rounds,
              "jobs": [{k: r[k] for k in r if k != "log"} for r in records],
              "failures": failures, "attempted": attempted, "failed": failed}
    (runs_dir / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n",
                                           encoding="utf-8")
    if not failures:
        shutil.rmtree(workdir)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {n_rounds}  jobs {attempted}  failed {failed}")
    print(f"machine  {machine['cpu_model']}  nproc {machine['nproc']}  "
          f"python {machine['python']}  numpy {machine['numpy']}  scipy {machine['scipy']}  "
          f"load {machine['loadavg_start']} -> {machine['loadavg_end']}")
    for job_id, errs in failures.items():
        print(f"FAILED {job_id}: {'; '.join(errs)[:500]}")
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    values = layers if args.trace else gated
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace and probed:
        print(f"layers no job of this workload calls, timed by a probe: {', '.join(probed)}")
    if not args.trace:
        for k, v in extra.items():
            print(f"  {k:<24} {v:.6g}")
    for k, v in metrics.items():
        print(f"  {k:<32} {v['value']:.6g} {v['unit']}")
    print(f"record   {RUNS_DIR}/{name}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
