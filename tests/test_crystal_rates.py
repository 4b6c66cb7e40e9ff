import json
from importlib import resources

import numpy as np
import pytest

from record_checks import check_record
from spdclab.crystal import pair_state_angle
from spdclab.rates import RateInputs, load_rate_inputs, relative_pair_rate

SEVEN_PI_30 = 7 * np.pi / 30


@pytest.fixture(scope="module")
def shipped_inputs():
    return load_rate_inputs()


class TestRelativePairRate:
    def test_shipped_configuration_reproduces_reference_ratio(self, shipped_inputs):
        ratio = relative_pair_rate(shipped_inputs["bibo_0p6mm"],
                                   shipped_inputs["bbo_2mm"])
        assert abs(ratio - 0.424) < 1e-12

    def test_identical_inputs_give_unity(self, shipped_inputs):
        a = shipped_inputs["bbo_2mm"]
        assert abs(relative_pair_rate(a, a) - 1.0) < 1e-12

    def test_reciprocity(self, shipped_inputs):
        rng = np.random.default_rng(21)
        pool = list(shipped_inputs.values())
        for _ in range(20):
            n_s = rng.uniform(1.4, 1.9)
            pool.append(RateInputs(
                label="rand", d_eff_pm_v=rng.uniform(0.5, 3.0),
                length_mm=rng.uniform(0.2, 4.0), n_pump=rng.uniform(1.5, 2.2),
                n_signal=n_s, n_idler=n_s + rng.uniform(0.01, 0.3),
                omega=rng.uniform(0.5, 2.0),
            ))
        for a in pool:
            for b in pool:
                prod = relative_pair_rate(a, b) * relative_pair_rate(b, a)
                assert abs(prod - 1.0) < 1e-12

    def test_linear_in_length(self, shipped_inputs):
        a = shipped_inputs["bibo_0p6mm"]
        b = shipped_inputs["bbo_2mm"]
        doubled = RateInputs(a.label, a.d_eff_pm_v, 2 * a.length_mm, a.n_pump,
                             a.n_signal, a.n_idler, a.delta_walkoff, a.omega)
        assert abs(relative_pair_rate(doubled, b)
                   - 2 * relative_pair_rate(a, b)) < 1e-12

    def test_same_species_rate_proportional_to_length(self, shipped_inputs):
        # same-crystal comparison reduces to the length ratio exactly
        a = shipped_inputs["bbo_2mm"]
        shorter = RateInputs(a.label, a.d_eff_pm_v, 1.0, a.n_pump,
                             a.n_signal, a.n_idler, a.delta_walkoff, a.omega)
        assert abs(relative_pair_rate(shorter, a) - 0.5) < 1e-12

    def test_singular_when_indices_degenerate(self):
        # n_idler == n_signal zero-divides the rate; n_idler < n_signal makes it negative
        for n_idler in (1.7, 1.65):
            with pytest.raises(ValueError, match="n_idler must exceed n_signal"):
                RateInputs("degenerate", 1.0, 1.0, 1.6, 1.7, n_idler)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            RateInputs("bad", 1.0, 1.0, 0.9, 1.6, 1.7)
        with pytest.raises(ValueError):
            RateInputs("bad", -1.0, 1.0, 1.6, 1.6, 1.7)

    def test_record_semantics(self):
        check_record(RateInputs, ("x", 2.0, 0.6, 1.9, 1.8, 1.85),
                     {"label": "x", "d_eff_pm_v": 2.0, "length_mm": 0.6, "n_pump": 1.9,
                      "n_signal": 1.8, "n_idler": 1.85, "delta_walkoff": 0.0,
                      "omega": 1.0},
                     {"omega": 1.2})

    def test_record_without_kind_is_read(self, tmp_path, shipped_inputs):
        raw = json.loads(resources.files("spdclab.data")
                         .joinpath("pair_rate_inputs.json").read_text())
        del raw["kind"]
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps(raw))
        assert load_rate_inputs(str(path)) == shipped_inputs


class TestPairStateAngle:
    def test_published_arm_values(self):
        angle = pair_state_angle(1.84, 2.02)
        assert abs(angle - 0.7388) < 5e-4
        assert abs(angle - SEVEN_PI_30) / SEVEN_PI_30 < 0.01

    def test_balanced_inputs(self):
        assert abs(pair_state_angle(1.3, 1.3) - np.pi / 4) < 1e-12

    def test_degenerate_input(self):
        assert pair_state_angle(0.0, 1.7) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pair_state_angle(-0.1, 1.0)
