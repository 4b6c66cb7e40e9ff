"""Record the bright_mc counts of the default seed for the statistical check.

    python3 bench/make_reference.py

Runs every bright_mc simulate job of the default seed through the CLI and
writes each job's events per setting to ``bench/reference_counts.json``.
``checks.check_simulate`` then requires later runs of that seed to stay
within ``POISSON_SIGMAS`` of these counts.  Rerun it only when the workload's
inputs change, never to make a changed simulator pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import run
import workloads


def main() -> int:
    checkout = Path.cwd()
    workdir = checkout / run.RUNS_DIR / "reference.work"
    if workdir.exists():
        shutil.rmtree(workdir)
    rounds = workloads.make_rounds("bright_mc", run.DEFAULT_SEED, workdir)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    reference = {}
    for jobs in rounds:
        for job in jobs:
            subprocess.run([sys.executable, *job.argv], cwd=checkout, env=env, check=True,
                           stdout=subprocess.DEVNULL)
            with open(job.outputs["report"], encoding="utf-8") as fh:
                events = json.load(fh)["diagnostics"]["events_per_setting"]
            reference[job.expect["reference_key"]] = events
            print(job.job_id, sum(events.values()), flush=True)
    checks.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
