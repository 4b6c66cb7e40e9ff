"""The records of ``simulator`` and ``qstate`` on ``_record._Record``, the
package's one record mechanism: the constructors, fields and behaviour of the
frozen dataclasses they replaced, and ``_replace`` copies that run every check
again."""

import copy
import inspect
import pickle

import numpy as np
import pytest

from spdclab.errors import TopologyError
from spdclab.qstate import FusionNetwork, GlobalOperator, PairSource, PureState
from spdclab.simulator import (
    DetectorModel,
    ExperimentConfig,
    InterferenceModel,
    SimResult,
    SourceModel,
    config_to_dict,
    reference_config,
)
from spdclab.witness import CountDataset, SettingCounts

from record_checks import check_record

#: each record's constructor parameters, as the dataclass declared its fields;
#: ExperimentConfig's None defaults stand for a DetectorModel() and an empty dict
PARAMS = {
    SourceModel: "pair_prob, xi_signal, xi_idler, theta_state=0.7853981633974483, "
                 "rotated=False, double_pair_factor=2.0",
    InterferenceModel: "mode_overlap=(1.0,)",
    DetectorModel: "dark_count_prob=0.0",
    ExperimentConfig: "sources, interference, pbs_links=((2, 3), (3, 5), (5, 7), (7, 9)), "
                      "rep_rate_hz=76000000.0, detector=None, seed=0, provenance=None",
    SimResult: "counts, pulses_per_setting, rates, diagnostics",
    PureState: "amps",
    GlobalOperator: "n, terms",
    PairSource: "theta_state=0.7853981633974483, rotated=False",
    FusionNetwork: "sources, pbs_links=((2, 3), (3, 5), (5, 7), (7, 9))",
}

SOURCE = {"pair_prob": 0.2, "xi_signal": 0.8, "xi_idler": 0.7, "theta_state": 0.7,
          "rotated": True, "double_pair_factor": 1.5}
CONFIG = {"sources": (SourceModel(**SOURCE), SourceModel(0.1, 0.9, 0.9)),
          "interference": InterferenceModel((0.9,)), "pbs_links": ((2, 3),),
          "rep_rate_hz": 1e6, "detector": DetectorModel(0.01), "seed": 3,
          "provenance": {"origin": "test"}}
COUNTS = CountDataset(1, (SettingCounts("Z", histogram={"H": 3}),
                          SettingCounts("M0", histogram={"H": 1, "V": 2})))
RESULT = {"counts": COUNTS, "pulses_per_setting": 100, "rates": {"r": 1.0},
          "diagnostics": {"d": 2}}
# nested lists, not arrays, so that == between copies compares values
TERMS = ((0.5, ([[1, 0], [0, 1]], [[0, 1], [1, 0]])), (0.25, ([[0, 1], [1, 0]], [[1, 0], [0, 1]])))
PAIRS = (PairSource(0.3), PairSource(0.4, True))

#: record -> (kwargs, other values for some fields); every record but PureState,
#: whose array field makes == elementwise, as on the dataclass
CASES = {
    SourceModel: (SOURCE, {"xi_idler": 0.6}),
    InterferenceModel: ({"mode_overlap": (0.9, 0.8)}, {"mode_overlap": (0.5,)}),
    DetectorModel: ({"dark_count_prob": 0.01}, {"dark_count_prob": 0.0}),
    ExperimentConfig: (CONFIG, {"seed": 4}),
    SimResult: (RESULT, {"pulses_per_setting": 200}),
    GlobalOperator: ({"n": 2, "terms": TERMS}, {"terms": TERMS[:1]}),
    PairSource: ({"theta_state": 0.3, "rotated": True}, {"rotated": False}),
    FusionNetwork: ({"sources": PAIRS, "pbs_links": ((2, 3),)}, {"pbs_links": ((3, 2),)}),
}


def _name(record) -> str:
    return record.__name__


@pytest.mark.parametrize("record", list(PARAMS), ids=_name)
def test_constructor_and_fields(record):
    signature = inspect.signature(record)
    shown = ", ".join(str(p.replace(annotation=inspect.Parameter.empty))
                      for p in signature.parameters.values())
    assert shown == PARAMS[record]
    assert record._fields == tuple(signature.parameters)


@pytest.mark.parametrize("record", list(CASES), ids=_name)
def test_record_contract(record):
    kwargs, changed = CASES[record]
    check_record(record, tuple(kwargs.values()), kwargs, changed)
    with pytest.raises(TypeError, match="not_a_field"):
        record(**kwargs)._replace(not_a_field=1)


def test_pure_state_contract():
    """``PureState`` keeps its amplitudes as a complex array and is read-only."""
    amps = np.array([0.6, 0.0, 0.0, 0.8], dtype=complex)
    state = PureState(amps)
    assert PureState(amps=amps).amps is state.amps is amps
    assert state._asdict() == {"amps": amps}
    assert repr(state).startswith("PureState(amps=array(")
    with pytest.raises(AttributeError):
        state.amps = amps
    with pytest.raises(AttributeError):
        del state.amps
    for clone in (copy.copy(state), pickle.loads(pickle.dumps(state)),
                  state._replace()):
        assert type(clone) is PureState and np.array_equal(clone.amps, amps)
    flipped = state._replace(amps=amps[::-1])
    assert np.array_equal(flipped.amps, amps[::-1]) and flipped.n_modes == 2
    for kwargs in ({"amps": amps, "not_a_field": 1}, {}):
        with pytest.raises(TypeError):
            PureState(**kwargs)


_NET = FusionNetwork(PAIRS, ((2, 3),))
_SOURCE = SourceModel(0.2, 0.8, 0.8)


@pytest.mark.parametrize("record,changes,error,message", [
    (reference_config(), {"seed": -1}, ValueError, "seed must be a non-negative integer"),
    (reference_config(), {"seed": 1.5}, ValueError, "seed must be a non-negative integer"),
    (reference_config(), {"pbs_links": ((2, 3), (3, 5), (5, 7))}, TopologyError,
     "chain must fuse one signal photon per source"),
    (reference_config(), {"interference": InterferenceModel((0.9, 0.8))}, ValueError,
     "need 1 or 4 overlap values"),
    (reference_config(), {"rep_rate_hz": 0.0}, ValueError,
     "rep_rate_hz must be positive and finite"),
    (reference_config(), {"sources": reference_config().sources * 2}, ValueError,
     "at most 6 sources (12 modes) can be simulated, got 10"),
    (_SOURCE, {"xi_signal": 1.5}, ValueError, "xi_signal must lie in [0, 1]"),
    (_SOURCE, {"theta_state": float("nan")}, ValueError, "theta_state must be a finite number"),
    (_SOURCE, {"rotated": 1}, ValueError, "rotated must be true or false, got 1"),
    (_SOURCE, {"pair_prob": 1.0}, ValueError, "pair_prob must lie in [0, 1)"),
    (InterferenceModel(), {"mode_overlap": (1.5,)}, ValueError,
     "mode_overlap values must be numbers in [0, 1]"),
    (DetectorModel(), {"dark_count_prob": 1.0}, ValueError, "dark_count_prob must lie in [0, 1)"),
    (_NET, {"pbs_links": ((2, 2),)}, TopologyError,
     "PBS links [[2, 2]] do not form a chain; fusion supports simple PBS chains only"),
    (_NET, {"pbs_links": ((2, 7),)}, TopologyError, "link (2,7) references unknown modes"),
    (_NET, {"pbs_links": ((2, True),)}, TopologyError, "link modes must be integers, got True"),
    (PureState(np.array([1.0, 0.0])), {"amps": np.ones(3) / np.sqrt(3)}, ValueError,
     "amplitude vector length must be a power of 2, got (3,)"),
    (GlobalOperator(1, ()), {"terms": ((1.0, ()),)}, ValueError,
     "every term needs one local factor per mode"),
], ids=lambda v: type(v).__name__ if not isinstance(v, (dict, str, type)) else None)
def test_replace_runs_the_checks_again(record, changes, error, message):
    """A ``_replace`` copy is built through ``__init__``: the same checks, with
    the same messages, as a record built with those values."""
    with pytest.raises(error) as exc:
        record._replace(**changes)
    assert str(exc.value) == message


def test_replace_normalizes_like_the_constructor():
    cfg = reference_config()
    links = [[5, 7], [2, 3], [3, 5], [9, 7]]
    assert cfg._replace(pbs_links=links).pbs_links == ExperimentConfig(
        **{**cfg._asdict(), "pbs_links": links}).pbs_links == ((5, 7), (2, 3), (3, 5), (9, 7))
    assert cfg._replace(seed=8) == reference_config(seed=8)
    assert InterferenceModel()._replace(mode_overlap=0.5).mode_overlap == (0.5,)
    # derived slots are rebuilt, and take no part in _asdict
    z = SettingCounts("Z", histogram={"HH": 2, "HV": 1})
    assert z._replace(histogram={"VV": 4}).aggregates() == {"n_all_h": 0, "n_all_v": 4,
                                                            "n_rest": 0}
    assert list(z._asdict()) == ["setting", "histogram", "aggregated", "hours"]


def test_config_none_defaults_build_fresh_values():
    sources, interference = CONFIG["sources"], CONFIG["interference"]
    a = ExperimentConfig(sources, interference, ((2, 3),))
    b = ExperimentConfig(sources, interference, ((2, 3),), detector=None, provenance=None)
    assert a == b and a.detector == DetectorModel() and a.provenance == {}
    assert a.provenance is not b.provenance


#: ``config_to_dict(reference_config())``, as the frozen dataclasses wrote it
REFERENCE_CONFIG_DICT = {
    "schema_version": 1, "kind": "experiment_config", "rep_rate_hz": 76000000.0, "seed": 7,
    "sources": [
        {"pair_prob": 0.050273041707883215, "xi_signal": 0.373, "xi_idler": 0.373,
         "theta_state": 0.7330382858376184, "rotated": False, "double_pair_factor": 2.0},
        {"pair_prob": 0.04983424293740179, "xi_signal": 0.39, "xi_idler": 0.39,
         "theta_state": 0.7330382858376184, "rotated": False, "double_pair_factor": 2.0},
        {"pair_prob": 0.049869052356513024, "xi_signal": 0.37, "xi_idler": 0.37,
         "theta_state": 0.7330382858376184, "rotated": False, "double_pair_factor": 2.0},
        {"pair_prob": 0.04533108130995951, "xi_signal": 0.38, "xi_idler": 0.38,
         "theta_state": 0.7330382858376184, "rotated": True, "double_pair_factor": 2.0},
        {"pair_prob": 0.04453209401850429, "xi_signal": 0.368, "xi_idler": 0.368,
         "theta_state": 0.7330382858376184, "rotated": True, "double_pair_factor": 2.0},
    ],
    "interference": {"mode_overlap": [0.8455767262643882]},
    "detector": {"dark_count_prob": 0.0},
    "network": {"pbs_links": [[2, 3], [3, 5], [5, 7], [7, 9]]},
    "provenance": {
        "twofold_per_source_hz": "published filtered twofold coincidence rates",
        "xi": "published per-source heralded efficiencies (filtered)",
        "theta_state": "published pair-state angle 7*pi/30 for the non-collinear type-II cut",
        "rotated": "published 90-degree rotation of the last two pairs",
        "mode_overlap": "solved from the published 71.5% interference visibility "
                        "(overlap^2 model)",
        "rep_rate_hz": "ASSUMPTION: not published; 76 MHz standard oscillator, "
                       "consistent with the published ~0.5 tenfold counts/hour",
        "double_pair_factor": "model default g=2 (thermal bunching); not published",
        "dark_count_prob": "idealized to 0",
    },
}


def test_config_to_dict_pinned():
    written = config_to_dict(reference_config())
    assert written == REFERENCE_CONFIG_DICT
    # key order too, which the JSON bytes follow
    assert list(written) == list(REFERENCE_CONFIG_DICT)
    assert [list(s) for s in written["sources"]] == [list(SOURCE)] * 5
