"""In-memory spans and counters around spdclab's public functions.

Used only by the traced run (``traced_job.py``).  ``install`` replaces each
listed function, in every loaded ``spdclab`` module that binds it, with a
wrapper; the program itself is not changed.  Coarse functions record one span
each (name, start, end, parent, job id).  Hot functions such as
``solve_waves`` are called tens of thousands of times per job, so they only
add their call count and time to every open span; a span's self time is its
duration minus its child spans and hot calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

#: span name -> (module, attribute); the name's prefix is the layer
SPANS = {
    "cli.parse.args": ("spdclab.cli", "build_parser"),
    "cli.parse.read": ("spdclab.cli", "_read_json"),
    "cli.parse.counts": ("spdclab.cli", "dataset_from_dict"),
    "cli.parse.ledger": ("spdclab.cli", "ledger_from_dict"),
    "cli.parse.config": ("spdclab.simulator", "config_from_dict"),
    "cli.report": ("spdclab.cli", "build_report"),
    "cli.serialize.json": ("spdclab.cli", "_dump_json"),
    "cli.serialize.text": ("spdclab.cli", "_write_text"),
    "cli.serialize.counts": ("spdclab.cli", "dataset_to_dict"),
    "cli.serialize.plots": ("spdclab.cli", "_plot_data_files"),
    "witness.estimate": ("spdclab.witness", "estimate_fidelity"),
    "hyptest.bound": ("spdclab.hyptest", "p_value_bound"),
    "qstate.fuse": ("spdclab.qstate", "fuse_and_postselect"),
    "simulator.mc": ("spdclab.simulator", "run_monte_carlo"),
    "simulator.sample_clean": ("spdclab.simulator", "sample_postselected"),
    "crystal.rings": ("spdclab.crystal.phasematch", "spdc_rings"),
    "crystal.arms": ("spdclab.crystal.phasematch", "noncollinear_arms"),
    "crystal.curve": ("spdclab.crystal.phasematch", "phase_match_collinear"),
    "crystal.spectrum": ("spdclab.crystal.phasematch", "spectral_fwhm"),
    "crystal.cut_search": ("spdclab.crystal.phasematch", "cut_for_arm_opening"),
}

#: counted, not spanned
HOT = {
    "crystal.solve_waves": ("spdclab.crystal.optics", "solve_waves"),
    "crystal.index_batch": ("spdclab.crystal.optics", "index_batch"),
    "crystal.ring_root": ("spdclab.crystal.phasematch", "ring_opening_angle"),
}


class Tracer:
    """Spans and counters of one traced job, written out once at the end."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans = []
        self.stack = []
        self.totals = {}          # hot name -> [calls, seconds, items, hits]
        self.hot_depth = 0        # hot calls nested in hot calls are not child time twice

    def _enter(self, name: str, info: dict) -> dict:
        span = {"name": name, "job": self.job_id,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "id": len(self.spans), "start": time.perf_counter(), "end": None,
                "child_s": 0.0, "hot": {}, **info}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _exit(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1]["child_s"] += span["end"] - span["start"]

    def span(self, name: str, fn, post=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(name, {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if post is not None:
                span.update(post(args, kwargs, result))
            return result
        return wrapper

    def hot(self, name: str, fn, items=None, hit=None):
        tot = self.totals.setdefault(name, [0, 0.0, 0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            self.hot_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self.hot_depth -= 1
            dt = time.perf_counter() - t0
            n_items = items(args) if items else 1
            n_hit = int(hit(result)) if hit else 0
            for acc in (tot, *(s["hot"].setdefault(name, [0, 0.0, 0, 0]) for s in self.stack)):
                acc[0] += 1
                acc[1] += dt
                acc[2] += n_items
                acc[3] += n_hit
            if self.stack and self.hot_depth == 0:
                self.stack[-1]["child_s"] += dt
            return result
        return wrapper

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": self.job_id, "spans": self.spans, "totals": self.totals,
                       **extra}, fh)


def _rebind(original, wrapper) -> int:
    """Point every spdclab module attribute bound to ``original`` at ``wrapper``."""
    n = 0
    for name, mod in list(sys.modules.items()):
        if not (name == "spdclab" or name.startswith("spdclab.")) or mod is None:
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapper)
                n += 1
    return n


def _mc_post(args, kwargs, result):
    config = args[0]
    diag = result.diagnostics
    share_clean = 1.0
    for s in config.sources:
        w = s.pair_number_probs()
        share_clean *= w[1] / (w[1] + w[2])
    return {"candidates": int(sum(diag["candidates_per_setting"].values())),
            "events": int(sum(diag["events_per_setting"].values())),
            "contaminated_share": 1.0 - share_clean}


def _curve_post(args, kwargs, result):
    grid = kwargs.get("phi_grid", args[2] if len(args) > 2 else None)
    n_grid = 91 if grid is None else int(np.atleast_1d(grid).size)
    return {"samples": len(result), "azimuths": n_grid}


def _sample_post(args, kwargs, result):
    return {"events": int(np.size(result))}


POST = {"simulator.mc": _mc_post, "crystal.curve": _curve_post,
        "simulator.sample_clean": _sample_post}


def install(tracer: Tracer) -> None:
    """Wrap every listed function; modules must already be imported."""
    for name, (modname, attr) in SPANS.items():
        original = getattr(sys.modules[modname], attr)
        _rebind(original, tracer.span(name, original, POST.get(name)))
    for name, (modname, attr) in HOT.items():
        original = getattr(sys.modules[modname], attr)
        if name == "crystal.index_batch":
            wrapper = tracer.hot(name, original, items=lambda a: int(np.shape(a[1])[0]))
        elif name == "crystal.ring_root":
            wrapper = tracer.hot(name, original, hit=lambda res: res is not None)
        else:
            wrapper = tracer.hot(name, original)
        _rebind(original, wrapper)


def parse_importtime(stderr: str) -> dict:
    """module -> cumulative import microseconds from ``python -X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue                                   # the header line
        out[parts[2].strip()] = cumulative
    return out
