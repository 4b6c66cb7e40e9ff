"""Run one benchmark job in-process with spans around spdclab's public functions.

    python bench/traced_job.py --job-id ID --spans OUT.json -- -m spdclab.cli analyze ...
    python bench/traced_job.py --job-id ID --spans OUT.json -- bench/api_job.py spectrum ...

The command after ``--`` is what the untraced run passes to the interpreter.
Spans stay in memory and are written to ``--spans`` when the job ends; the
exit status is the job's own.
"""

from __future__ import annotations

import argparse
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(prog="traced_job")
    parser.add_argument("--job-id", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    t0 = time.perf_counter()
    import spdclab.cli
    import spdclab.crystal
    import spdclab.simulator  # noqa: F401  (install needs every traced module loaded)
    import_s = time.perf_counter() - t0

    import tracing

    tracer = tracing.Tracer(args.job_id)
    tracing.install(tracer)
    is_cli = command[:2] == ["-m", "spdclab.cli"]
    if is_cli:
        entry, argv = spdclab.cli.main, command[2:]
    else:
        import api_job

        entry, argv = api_job.main, command[1:]
    try:
        rc = entry(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    tracer.dump(args.spans, {"rc": rc, "import_s": import_s, "cli": is_cli})
    return rc


if __name__ == "__main__":
    sys.exit(main())
