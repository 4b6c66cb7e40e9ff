"""Property tests for the JSON loaders behind the CLI's exit-code contract.

A malformed count file, ledger, configuration or rate-input file must end
in exit 2, 3 or 4 (or 0 when the mutation left the record valid), never
in a traceback.  Each example takes a valid record and replaces or deletes
one field at any depth with arbitrary JSON, non-finite numbers included.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from spdclab.cli import dataset_from_dict, dataset_to_dict, main
from spdclab.witness import CountDataset, SettingCounts, m_setting

CONTRACT = {0, 2, 3, 4}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)

COUNT_FILE = {
    "kind": "count_dataset", "n": 2, "provenance": "simulated",
    "settings": [
        {"setting": "Z", "histogram": {"HH": 7, "VV": 5, "HV": 1}},
        {"setting": "M0", "aggregated": {"n_plus": 9, "n_minus": 2}},
        {"setting": "M1", "histogram": {"HH": 1, "HV": 6, "VV": 1}, "hours": 2.5},
    ],
}
LEDGER = {"kind": "trial_ledger", "n": 2, "n_z": 14, "n_k": [11, 9],
          "f_exp": 0.61, "f_0": 0.5}
CONFIG = {
    "kind": "experiment_config", "rep_rate_hz": 76e6, "seed": 5,
    "sources": [{"pair_prob": 0.3, "xi_signal": 0.9, "xi_idler": 0.8,
                 "theta_state": 0.7, "rotated": i >= 3,
                 "double_pair_factor": 2.0} for i in range(5)],
    "interference": {"mode_overlap": [0.9]},
    "detector": {"dark_count_prob": 0.01},
    "network": {"pbs_links": [[2, 3], [3, 5], [5, 7], [7, 9]]},
    "provenance": {"note": "fuzz base"},
}
RATE_INPUTS = {
    "kind": "pair_rate_inputs",
    "configurations": {
        "a": {"d_eff_pm_v": 1.9, "length_mm": 0.6, "n_pump": 1.84,
              "n_signal": 1.78, "n_idler": 1.9, "delta_walkoff": 0.3, "omega": 1.4},
        "b": {"d_eff_pm_v": 1.2, "length_mm": 2.0, "n_pump": 1.63,
              "n_signal": 1.6, "n_idler": 1.66},
    },
}


def _paths(doc, prefix=()):
    """Every (container path, key) pair in a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix, key
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, base):
    doc = json.loads(json.dumps(base))
    paths = [((), None)] + list(_paths(doc))
    prefix, key = draw(st.sampled_from(paths))
    if key is None:
        return draw(json_values)
    parent = doc
    for step in prefix:
        parent = parent[step]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(json_values)
    return doc


def _exit_code(doc, argv_of):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")   # NaN/Infinity included
        return main(argv_of(str(path), str(Path(tmp) / "out.json")))


fuzz = settings(max_examples=40, deadline=None)


@fuzz
@given(mutated(COUNT_FILE))
def test_count_file_exit_codes(doc):
    assert _exit_code(doc, lambda p, out: ["analyze", p, "--out", out]) in CONTRACT


@fuzz
@given(mutated(LEDGER))
def test_ledger_exit_codes(doc):
    assert _exit_code(doc, lambda p, out: ["pvalue", p, "--out", out]) in CONTRACT


@fuzz
@given(mutated(CONFIG))
def test_config_exit_codes(doc):
    assert _exit_code(doc, lambda p, out: [
        "simulate", p, "--pulses", "100000", "--settings", "Z,M1", "--out", out,
    ]) in CONTRACT


@fuzz
@given(mutated(RATE_INPUTS))
def test_rate_inputs_exit_codes(doc):
    assert _exit_code(doc, lambda p, out: [
        "crystal", "rate-ratio", "--inputs", p, "--a", "a", "--b", "b", "--out", out,
    ]) in CONTRACT


counts = st.integers(min_value=0, max_value=10**6)


@st.composite
def datasets(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    outcomes = st.text(alphabet="HV", min_size=n, max_size=n)
    settings_ = []
    for name in ["Z"] + [m_setting(k) for k in range(n)]:
        keys = (["n_all_h", "n_all_v", "n_rest"] if name == "Z"
                else ["n_plus", "n_minus"])
        if draw(st.booleans()):
            settings_.append(SettingCounts(
                setting=name, histogram=draw(st.dictionaries(outcomes, counts, max_size=4)),
                hours=draw(st.none() | st.floats(min_value=0.0, max_value=1e4))))
        else:
            settings_.append(SettingCounts(
                setting=name, aggregated={k: draw(counts) for k in keys}))
    return CountDataset(n=n, settings=tuple(draw(st.permutations(settings_))))


@settings(max_examples=50, deadline=None)
@given(datasets())
def test_dataset_roundtrip(data):
    raw = json.loads(json.dumps(dataset_to_dict(data, "simulated")))
    assert dataset_from_dict(raw) == data
