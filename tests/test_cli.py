import argparse
import ast
import gc
import hashlib
import importlib
import inspect
import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys
import typing
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import spdclab
from spdclab import cli, crystal, fileio, numpy_commands, qstate, simulator, witness
from spdclab.cli import (
    EXIT_INSUFFICIENT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_SCHEMA,
    dataset_from_dict,
    main,
)


def shipped_path(tmp_path, name):
    src = resources.files("spdclab.data").joinpath(name)
    dst = tmp_path / name
    shutil.copy(str(src), dst)
    return dst


@pytest.fixture()
def recon_file(tmp_path):
    return shipped_path(tmp_path, "tenfold_run_reconstruction.counts.json")


@pytest.fixture()
def ledger_file(tmp_path):
    return shipped_path(tmp_path, "tenfold_trial_ledger.json")


@pytest.fixture()
def config_file(tmp_path):
    return shipped_path(tmp_path, "reference_tenfold_config.json")


class TestAnalyze:
    def test_reference_reconstruction_report(self, recon_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", str(recon_file), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert abs(report["fidelity"]["value"] - 0.606) < 0.002
        assert 0.025 <= report["fidelity"]["sigma"] <= 0.033
        assert report["verdict"]["genuine_multipartite"] is True
        assert report["verdict"]["sigmas_above_threshold"] >= 3.5
        assert 3.3e-3 <= report["pvalue"]["bound"] <= 4.0e-3
        assert abs(report["diagnostics"]["signal_to_noise"] - 3.36) < 0.01
        assert report["inputs_digest"] == \
            "sha256:" + hashlib.sha256(recon_file.read_bytes()).hexdigest()

    def test_report_reproducible_modulo_timestamp(self, recon_file, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["analyze", str(recon_file), "--out", str(out1)])
        main(["analyze", str(recon_file), "--out", str(out2)])
        r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        r1.pop("generated_at")
        r2.pop("generated_at")
        assert r1 == r2

    def test_near_ideal_dataset(self, tmp_path):
        n = 10
        settings = [{"setting": "Z",
                     "aggregated": {"n_all_h": 499, "n_all_v": 500, "n_rest": 1}}]
        for k in range(n):
            plus, minus = (999, 1) if k % 2 == 0 else (1, 999)
            settings.append({"setting": f"M{k}",
                             "aggregated": {"n_plus": plus, "n_minus": minus}})
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({
            "schema_version": 1, "kind": "count_dataset", "n": n,
            "provenance": "simulated", "settings": settings,
        }))
        out = tmp_path / "report.json"
        assert main(["analyze", str(path), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["fidelity"]["value"] > 0.99
        assert report["verdict"]["genuine_multipartite"] is True

    def test_zero_variance_dataset(self, tmp_path):
        """One-sided M_k counts and no Z rest counts give sigma = 0: the report
        holds no distance in sigmas, and F > f_0 alone is the verdict."""
        settings = [{"setting": "Z", "aggregated": {"n_all_h": 6, "n_all_v": 4, "n_rest": 0}}]
        settings += [{"setting": f"M{k}", "aggregated": {"n_plus": 5 * (1 - k % 2),
                                                         "n_minus": 5 * (k % 2)}}
                     for k in range(4)]
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"kind": "count_dataset", "n": 4, "settings": settings}))
        out = tmp_path / "report.json"
        assert main(["analyze", str(path), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["fidelity"]["value"] == 1.0 and report["fidelity"]["sigma"] == 0.0
        assert report["verdict"] == {"threshold": 0.5, "sigmas_above_threshold": None,
                                     "genuine_multipartite": True}

    def test_uniform_noise_dataset(self, tmp_path):
        n = 10
        labels = qstate.basis_labels(n)
        hist = {lab: 1 for lab in labels}
        settings = [{"setting": "Z", "histogram": hist}]
        settings += [{"setting": f"M{k}", "histogram": hist} for k in range(n)]
        path = tmp_path / "noise.json"
        path.write_text(json.dumps({
            "schema_version": 1, "kind": "count_dataset", "n": n,
            "provenance": "simulated", "settings": settings,
        }))
        out = tmp_path / "report.json"
        assert main(["analyze", str(path), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert abs(report["fidelity"]["value"] - 1 / 1024) < 1e-9
        assert report["verdict"]["genuine_multipartite"] is False
        assert report["pvalue"]["bound"] == 1.0
        assert report["pvalue"]["informative"] is False

    def test_plot_data_emission(self, recon_file, tmp_path):
        plot_dir = tmp_path / "plots"
        assert main(["analyze", str(recon_file), "--out",
                     str(tmp_path / "r.json"), "--plot-data", str(plot_dir)]) == EXIT_OK
        pops = (plot_dir / "z_populations.csv").read_text().strip().split("\n")
        assert pops[0] == "outcome,count"
        corr = (plot_dir / "mk_expectations.csv").read_text().strip().split("\n")
        assert corr[0] == "k,expectation,sigma"
        assert len(corr) == 11

    def test_plot_rows_are_witness_correlations(self, recon_file, tmp_path):
        plot_dir = tmp_path / "plots"
        assert main(["analyze", str(recon_file), "--plot-data", str(plot_dir)]) == EXIT_OK
        data = dataset_from_dict(json.loads(recon_file.read_text()))
        rows = (plot_dir / "mk_expectations.csv").read_text().strip().split("\n")[1:]
        for k, row in enumerate(rows):
            e_k, var = data.m(k).correlation()
            assert e_k == data.correlations()[k]
            assert row == f"{k},{e_k:.6f},{np.sqrt(var):.6f}"

    def test_plot_populations_from_histograms(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 4
        labels = qstate.basis_labels(n)
        histograms = [{o: int(c) for o, c in zip(labels, rng.integers(0, 9, 2**n)) if c}
                      for _ in range(n + 1)]
        raw = cli.dataset_to_dict(witness.CountDataset(n=n, settings=tuple(
            witness.SettingCounts(name, histogram=h)
            for name, h in zip(witness.setting_names(n), histograms))), "simulated")
        z_hist = raw["settings"][0]["histogram"]
        raw["settings"][0]["histogram"] = dict(reversed(z_hist.items()))
        path, plot_dir = tmp_path / "hist.json", tmp_path / "plots"
        path.write_text(json.dumps(raw))
        assert main(["analyze", str(path), "--plot-data", str(plot_dir)]) == EXIT_OK
        assert (plot_dir / "z_populations.csv").read_text().split("\n") == [
            "outcome,count", *(f"{o},{c}" for o, c in sorted(histograms[0].items())), ""]

    @pytest.mark.parametrize("n,seed", [(2, 1), (5, 2), (10, 3)])
    def test_histogram_and_aggregated_forms_report_alike(self, tmp_path, n, seed):
        rng = np.random.default_rng(seed)
        labels = qstate.basis_labels(n)
        histograms = [{o: int(c) for o, c in zip(labels, rng.integers(0, 40, 2**n)) if c}
                      for _ in range(n + 1)]
        hist_data = witness.CountDataset(n=n, settings=tuple(
            witness.SettingCounts(name, histogram=h)
            for name, h in zip(witness.setting_names(n), histograms)))
        agg_data = witness.CountDataset(n=n, settings=tuple(
            witness.SettingCounts(s.setting, aggregated=s.aggregates())
            for s in hist_data.settings))
        reports = []
        for form, data in (("histogram", hist_data), ("aggregated", agg_data)):
            path, out = tmp_path / f"{form}.json", tmp_path / f"{form}.report.json"
            path.write_text(json.dumps(cli.dataset_to_dict(data, "simulated")))
            assert main(["analyze", str(path), "--out", str(out)]) == EXIT_OK
            report = json.loads(out.read_text())
            reports.append({key: report[key]
                            for key in ("fidelity", "verdict", "pvalue", "diagnostics")})
        assert reports[0] == reports[1]

    def test_schema_violation_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "kind": "count_dataset", "n": 2, "provenance": "simulated",
            "settings": [{"setting": "Z",
                          "aggregated": {"n_all_h": 1, "n_all_v": 1, "n_rest": 0}}],
        }))
        assert main(["analyze", str(path)]) == EXIT_SCHEMA
        assert "schema error" in capsys.readouterr().err

    def test_negative_count_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "kind": "count_dataset", "n": 1, "provenance": "simulated",
            "settings": [
                {"setting": "Z", "aggregated": {"n_all_h": -2, "n_all_v": 1, "n_rest": 0}},
                {"setting": "M0", "aggregated": {"n_plus": 1, "n_minus": 1}},
            ],
        }))
        assert main(["analyze", str(path)]) == EXIT_SCHEMA

    def test_insufficient_data_exit_code(self, tmp_path):
        path = tmp_path / "thin.json"
        path.write_text(json.dumps({
            "kind": "count_dataset", "n": 1, "provenance": "experimental",
            "settings": [
                {"setting": "Z", "aggregated": {"n_all_h": 5, "n_all_v": 5, "n_rest": 0}},
                {"setting": "M0", "aggregated": {"n_plus": 0, "n_minus": 0}},
            ],
        }))
        assert main(["analyze", str(path)]) == EXIT_INSUFFICIENT

    def test_missing_file(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.json")]) == EXIT_SCHEMA

    def test_not_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{broken")
        assert main(["analyze", str(path)]) == EXIT_SCHEMA

    @staticmethod
    def _histogram_file(tmp_path, z_histogram):
        path = tmp_path / "counts.json"
        settings = [{"setting": "Z", "histogram": z_histogram}]
        settings += [{"setting": f"M{k}", "aggregated": {"n_plus": 9, "n_minus": 1}}
                     for k in range(3)]
        path.write_text(json.dumps({"kind": "count_dataset", "n": 3,
                                    "provenance": "simulated", "settings": settings}))
        return path

    def test_outcome_of_wrong_length_exit_code(self, tmp_path):
        path = self._histogram_file(tmp_path, {"HHH": 5, "VVV": 5, "H": 2})
        assert main(["analyze", str(path)]) == EXIT_SCHEMA

    def test_boolean_count_exit_code(self, tmp_path):
        path = self._histogram_file(tmp_path, {"HHH": 5, "VVV": True})
        assert main(["analyze", str(path)]) == EXIT_SCHEMA

    def test_non_ascii_digit_setting_exit_code(self, tmp_path):
        path = self._histogram_file(tmp_path, {"HHH": 5, "VVV": 5})
        raw = json.loads(path.read_text())
        raw["settings"][-1]["setting"] = "M\u00b2"   # a digit to str.isdigit, not to int()
        path.write_text(json.dumps(raw))
        assert main(["analyze", str(path)]) == EXIT_SCHEMA

    @pytest.mark.parametrize("n", [1.9, True])
    def test_non_integer_mode_count_exit_code(self, tmp_path, n):
        # read as int(n) == 1, these settings would make a valid file
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({
            "kind": "count_dataset", "n": n, "provenance": "simulated",
            "settings": [
                {"setting": "Z", "aggregated": {"n_all_h": 5, "n_all_v": 5, "n_rest": 1}},
                {"setting": "M0", "aggregated": {"n_plus": 9, "n_minus": 1}},
            ],
        }))
        assert main(["analyze", str(path)]) == EXIT_SCHEMA

    def test_zero_mode_count_exit_code(self, tmp_path, capsys):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({
            "kind": "count_dataset", "n": 0, "provenance": "simulated",
            "settings": [{"setting": "Z",
                          "aggregated": {"n_all_h": 5, "n_all_v": 5, "n_rest": 1}}],
        }))
        assert main(["analyze", str(path)]) == EXIT_SCHEMA
        assert "n must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("hours", ["x", True, -1.0, float("inf")])
    def test_bad_hours_exit_code(self, recon_file, capsys, hours):
        raw = json.loads(recon_file.read_text())
        raw["settings"][1]["hours"] = hours
        recon_file.write_text(json.dumps(raw))
        assert main(["analyze", str(recon_file)]) == EXIT_SCHEMA
        assert "hours" in capsys.readouterr().err

    def test_unknown_setting_key_exit_code(self, recon_file, capsys):
        raw = json.loads(recon_file.read_text())
        raw["settings"][0]["hour"] = 1.0        # not a SettingCounts field
        recon_file.write_text(json.dumps(raw))
        assert main(["analyze", str(recon_file)]) == EXIT_SCHEMA
        assert "'hour'" in capsys.readouterr().err

    @pytest.mark.parametrize("f0", ["-1", "1.5"])
    def test_null_fidelity_outside_unit_interval_exit_code(self, recon_file, tmp_path,
                                                           capsys, f0):
        out = tmp_path / "report.json"
        assert main(["analyze", str(recon_file), "--f0", f0, "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("schema error: f_0 ") and "[0, 1]" in err
        assert err.count("\n") == 1 and not out.exists()

    def test_unknown_top_level_key_exit_code(self, recon_file, capsys):
        raw = json.loads(recon_file.read_text())
        raw["note"] = "typo for notes"          # neither metadata nor a CountDataset field
        recon_file.write_text(json.dumps(raw))
        assert main(["analyze", str(recon_file)]) == EXIT_SCHEMA
        assert "'note'" in capsys.readouterr().err


class TestSimulate:
    def _small_config(self, tmp_path, pulses_scale=1.0):
        # inflated brightness so a tiny pulse budget yields events
        raw = {
            "schema_version": 1, "kind": "experiment_config",
            "rep_rate_hz": 76e6, "seed": 5,
            "sources": [
                {"pair_prob": 0.3, "xi_signal": 1.0, "xi_idler": 1.0,
                 "theta_state": np.pi / 4, "rotated": False,
                 "double_pair_factor": 0.0}
            ] * 5,
            "interference": {"mode_overlap": [1.0]},
            "detector": {"dark_count_prob": 0.0},
            "network": {"pbs_links": [[2, 3], [3, 5], [5, 7], [7, 9]]},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return path

    def test_deterministic_output_bytes(self, tmp_path):
        cfg = self._small_config(tmp_path)
        out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
        args = ["simulate", str(cfg), "--pulses", "500000", "--settings", "Z,M0"]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_roundtrip_and_provenance(self, tmp_path):
        cfg = self._small_config(tmp_path)
        out = tmp_path / "counts.json"
        report = tmp_path / "report.json"
        assert main(["simulate", str(cfg), "--pulses", "500000",
                     "--out", str(out), "--report", str(report)]) == EXIT_OK
        raw = json.loads(out.read_text())
        assert raw["provenance"] == "simulated"
        data = dataset_from_dict(raw)
        assert data.n == 10
        # written file re-parses to an identical payload
        rewritten = cli.dataset_to_dict(
            data, provenance="simulated", notes=raw["notes"],
            extra={"config_digest": raw["config_digest"], "seed": raw["seed"],
                   "pulses_per_setting": raw["pulses_per_setting"]})
        assert rewritten == raw
        rep = json.loads(report.read_text())
        assert "tenfold_per_hour_model" in rep["rates"]

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self._small_config(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["simulate", str(cfg), "--pulses", "500000", "--settings", "Z",
              "--out", str(out1)])
        main(["simulate", str(cfg), "--pulses", "500000", "--settings", "Z",
              "--seed", "99", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    @pytest.mark.parametrize("record,key,value", [
        (("sources", 0), "pair_prob", True), (("sources", 0), "xi_signal", True),
        (("sources", 0), "xi_idler", True), (("sources", 0), "theta_state", True),
        (("sources", 0), "double_pair_factor", True), (("sources", 0), "rotated", "false"),
        ((), "rep_rate_hz", True), ((), "seed", True),
        (("interference",), "mode_overlap", [True]), (("detector",), "dark_count_prob", False),
    ])
    def test_boolean_for_number_exit_code(self, tmp_path, capsys, record, key, value):
        # JSON true is not 1.0, and "false" is not false
        cfg = self._small_config(tmp_path)
        raw = json.loads(cfg.read_text())
        target = raw
        for step in record:
            target = target[step]
        target[key] = value
        cfg.write_text(json.dumps(raw))
        out, report = tmp_path / "counts.json", tmp_path / "report.json"
        assert main(["simulate", str(cfg), "--pulses", "500000", "--settings", "Z",
                     "--out", str(out), "--report", str(report)]) == EXIT_SCHEMA
        assert key in capsys.readouterr().err
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("settings", ["M42", "X", "Z,M0,Z", "M01", "M10", "Z,"])
    def test_bad_settings_rejected_before_simulation(self, tmp_path, monkeypatch,
                                                     settings):
        def fail(*args, **kwargs):
            raise AssertionError("simulated before validating the settings")

        monkeypatch.setattr(simulator, "run_monte_carlo", fail)
        cfg = self._small_config(tmp_path)
        assert main(["simulate", str(cfg), "--pulses", "1000000000000",
                     "--settings", settings]) == EXIT_SCHEMA

    @pytest.mark.parametrize("pulses", ["0", "-5"])
    def test_non_positive_pulses_rejected_before_simulation(self, tmp_path, monkeypatch,
                                                            capsys, pulses):
        def fail(*args, **kwargs):
            raise AssertionError("read the config before validating --pulses")

        monkeypatch.setattr(simulator, "config_from_dict", fail)
        cfg = self._small_config(tmp_path)
        assert main(["simulate", str(cfg), "--pulses", pulses, "--settings", "Z"]) \
            == EXIT_SCHEMA
        assert capsys.readouterr().err == (
            f"schema error: --pulses must be a positive integer, got {pulses}\n")

    def test_too_many_sources_rejected_at_load(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("simulated more modes than a dense state holds")

        monkeypatch.setattr(simulator, "run_monte_carlo", fail)
        cfg = self._small_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["sources"] = raw["sources"][:1] * 7
        raw["network"]["pbs_links"] = [[2, 3], [3, 5], [5, 7], [7, 9], [9, 11], [11, 13]]
        cfg.write_text(json.dumps(raw))
        assert main(["simulate", str(cfg), "--pulses", "1000"]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "at most 6 sources (12 modes)" in err and err.count("\n") == 1

    def test_pulse_count_beyond_int64_exit_code(self, tmp_path, capsys):
        cfg = self._small_config(tmp_path)
        assert main(["simulate", str(cfg), "--pulses", str(2**63),
                     "--settings", "Z"]) == EXIT_NUMERIC
        assert "pulses" in capsys.readouterr().err

    def test_overflowing_report_writes_no_counts(self, tmp_path, capsys):
        """A repetition rate of 1e308 is accepted, but the model's tenfold rate
        overflows to inf, which no JSON may hold: exit 4, and neither file is
        left behind."""
        cfg = self._small_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["rep_rate_hz"] = 1e308
        raw["sources"] = raw["sources"][:2]
        raw["network"]["pbs_links"] = [[2, 3]]
        cfg.write_text(json.dumps(raw))
        out, report = tmp_path / "counts.json", tmp_path / "report.json"
        assert main(["simulate", str(cfg), "--pulses", "1000", "--out", str(out),
                     "--report", str(report)]) == EXIT_NUMERIC
        assert "not JSON compliant" in capsys.readouterr().err
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("mode", [2.9, True])
    def test_non_integer_link_mode_exit_code(self, tmp_path, mode):
        # read as int(mode), each of these links would make a simulable chain
        cfg = self._small_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["network"]["pbs_links"][0][0] = mode
        cfg.write_text(json.dumps(raw))
        assert main(["simulate", str(cfg), "--pulses", "1000", "--settings", "Z"]) \
            == EXIT_SCHEMA

    @pytest.mark.parametrize("theta,code", [(1e-161, EXIT_NUMERIC), (1e-150, EXIT_OK)])
    def test_subnormal_success_exit_code(self, tmp_path, capsys, theta, code):
        """Two sources at theta, one rotated, fuse into A|HHHH> + B|VVVV> with
        A = B = sin(theta) cos(theta): success 2 theta^2 is subnormal at 1e-161
        (about 2e-322, exit 4) and still normal at 1e-150 (2e-300, which runs)."""
        cfg = self._small_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["sources"] = [dict(raw["sources"][0], theta_state=theta, rotated=rotated)
                          for rotated in (False, True)]
        raw["network"]["pbs_links"] = [[2, 3]]
        cfg.write_text(json.dumps(raw))
        report = tmp_path / "report.json"
        assert main(["simulate", str(cfg), "--pulses", "1000000", "--settings", "Z",
                     "--report", str(report)]) == code
        if code == EXIT_OK:
            success = json.loads(report.read_text())["rates"]["postselection_success_prob"]
            assert success == pytest.approx(2 * theta**2, rel=1e-12)
        else:
            assert "below the normal floating-point range" in capsys.readouterr().err
            assert not report.exists()

    def test_report_diagnostics_are_witness_statistics(self, tmp_path):
        cfg = self._small_config(tmp_path)
        raw = json.loads(cfg.read_text())
        # lossy arms and double pairs, so every Z category is populated
        raw["sources"] = [dict(src, xi_signal=0.8, xi_idler=0.8, double_pair_factor=2.0)
                          for src in raw["sources"]]
        cfg.write_text(json.dumps(raw))
        out, report = tmp_path / "counts.json", tmp_path / "report.json"
        assert main(["simulate", str(cfg), "--pulses", "100000000",
                     "--out", str(out), "--report", str(report)]) == EXIT_OK
        diag = json.loads(report.read_text())["diagnostics"]
        data = dataset_from_dict(json.loads(out.read_text()))
        z = data.z().aggregates()
        assert min(z.values()) > 0
        assert diag["z_basis"] == {
            "population_fraction": witness.population_stats(data.z()).population_fraction,
            "all_h": z["n_all_h"], "all_v": z["n_all_v"], "rest": z["n_rest"]}
        corr = data.correlations()
        assert diag["correlations"] == {f"M{k}": corr[k] for k in range(data.n)}
        assert diag["mean_coherence_visibility"] == \
            cli.build_report(data, "0" * 64)["diagnostics"]["mean_coherence_visibility"]

    def test_negative_seed_rejected_before_simulation(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("simulated before validating the seed")

        monkeypatch.setattr(simulator, "run_monte_carlo", fail)
        cfg = self._small_config(tmp_path)
        assert main(["simulate", str(cfg), "--pulses", "1000", "--settings", "Z",
                     "--seed", "-1"]) == EXIT_SCHEMA
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("record,key", [
        (("sources", 0), "double_pair_factr"),
        (("detector",), "dark_count"),
        (("interference",), "overlap"),
        ((), "rep_rate"),
        (("network",), "pbs_link"),
    ])
    def test_unknown_record_key_rejected_before_simulation(
            self, config_file, monkeypatch, capsys, record, key):
        def fail(*args, **kwargs):
            raise AssertionError("simulated a config with an unknown key")

        monkeypatch.setattr(simulator, "run_monte_carlo", fail)
        raw = json.loads(config_file.read_text())
        target = raw
        for step in record:
            target = target[step]
        target[key] = 0.1
        config_file.write_text(json.dumps(raw))
        assert main(["simulate", str(config_file), "--pulses", "1000"]) == EXIT_SCHEMA
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("links,overlap,cause", [
        ([[2, 3], [2, 5], [2, 7], [2, 9]], [1.0], "simple PBS chains"),
        ([[2, 3], [3, 5], [5, 7]], [1.0], "one signal photon per source"),
        ([], [1.0], "at least one link"),
        ([[2, 3], [3, 5], [5, 7], [7, 9]], [0.9, 0.8], "1 or 4 overlap values"),
    ])
    def test_unsimulable_topology_rejected_before_simulation(
            self, tmp_path, monkeypatch, capsys, links, overlap, cause):
        def fail(*args, **kwargs):
            raise AssertionError("simulated a config the model cannot describe")

        monkeypatch.setattr(simulator, "run_monte_carlo", fail)
        cfg = self._small_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["network"]["pbs_links"] = links
        raw["interference"]["mode_overlap"] = overlap
        cfg.write_text(json.dumps(raw))
        assert main(["simulate", str(cfg), "--pulses", "1000"]) == EXIT_SCHEMA
        assert cause in capsys.readouterr().err

    def test_links_in_any_listed_order(self, config_file, tmp_path):
        def settings(path):
            out = tmp_path / f"{path.stem}.counts.json"
            assert main(["simulate", str(path), "--pulses", "1000000000000000",
                         "--out", str(out)]) == EXIT_OK
            return json.loads(out.read_text())["settings"]

        raw = json.loads(config_file.read_text())
        raw["network"]["pbs_links"] = [[5, 7], [2, 3], [3, 5], [7, 9]]
        reordered = tmp_path / "reordered.json"
        reordered.write_text(json.dumps(raw))
        assert settings(reordered) == settings(config_file)

    def test_seed_override_keeps_the_config_links(self, tmp_path):
        # replacing the seed must not reset a non-default chain to the default.
        # The two chains must give different counts for that to show: at 1e8
        # pulses the Z outcomes that the chain through mode 1 makes likelier
        # expect 155 events under it and 26 under the default chain, 9.5 sigma
        # apart, so the counts differ by the model, not by a chance of the draw
        cfg = self._small_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["sources"] = [dict(src, xi_signal=0.8, xi_idler=0.7, double_pair_factor=2.0)
                          for src in raw["sources"]]

        def counts(name, links, **fields):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**raw, "network": {"pbs_links": links}, **fields}))
            out = tmp_path / f"{name}.counts.json"
            assert main(["simulate", str(path), "--pulses", "100000000", "--settings", "Z",
                         "--out", str(out)] + (["--seed", "3"] if not fields else [])) \
                == EXIT_OK
            return json.loads(out.read_text())["settings"]

        chain = [[1, 3], [3, 5], [5, 7], [7, 9]]
        overridden = counts("override", chain)
        assert overridden == counts("in_file", chain, seed=3)
        assert overridden != counts("default_chain", raw["network"]["pbs_links"], seed=3)

    def test_bad_config_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "experiment_config", "sources": []}))
        assert main(["simulate", str(path), "--pulses", "10"]) == EXIT_SCHEMA

    #: SHA-256 of the counts and report ``simulate`` writes; a refactor keeps them,
    #: and only a stated change of the physics model or of the seeded draw may
    #: update them
    PINNED_DIGESTS = {
        "reference": ("7e6729b87954786f0d0b1eb6b628f191afa229b20c07d8194c9bae8cff03640c",
                      "24d93dee2990b34584da1faa333ffb3c445a2a06472fa5741af1570f812be33b"),
        "bright": ("49c721f3f3f13f1f207af6bf8353de41228bf13db7288ae994aa380de470adf8",
                   "814ef5ce281da64784a87ea39e406d5a5d0f7904ca79521d685e7ebbafaaaa48"),
    }

    @pytest.mark.parametrize("case", ["reference", "bright"])
    def test_output_bytes_pinned(self, config_file, tmp_path, case):
        """The shipped reference config at 1e12 pulses, and five bright sources with
        double pairs, losses and dark counts at about 6000 contaminated candidates
        per setting, write exactly the pinned bytes."""
        if case == "reference":
            path, pulses, extra = config_file, "1000000000000", ["--seed", "7"]
        else:
            src = {"pair_prob": 0.22, "xi_signal": 0.8, "xi_idler": 0.8,
                   "theta_state": math.pi / 4, "rotated": False, "double_pair_factor": 2.0}
            raw = {"schema_version": 1, "kind": "experiment_config", "rep_rate_hz": 76.0e6,
                   "seed": 20241, "sources": [dict(src) for _ in range(5)],
                   "interference": {"mode_overlap": [0.85]},
                   "detector": {"dark_count_prob": 0.003},
                   "network": {"pbs_links": [[2, 3], [3, 5], [5, 7], [7, 9]]},
                   "provenance": {"origin": "test input"}}
            path, pulses, extra = tmp_path / "bright.json", "8878187", []
            path.write_text(json.dumps(raw, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        out, report = tmp_path / "counts.json", tmp_path / "report.json"
        assert main(["simulate", str(path), "--pulses", pulses, *extra,
                     "--out", str(out), "--report", str(report)]) == EXIT_OK
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, report))
        assert digests == self.PINNED_DIGESTS[case]


class TestCrystalCommands:
    def test_summary_reference_values(self, tmp_path):
        out = tmp_path / "summary.json"
        assert main(["crystal", "summary", "--species", "bibo",
                     "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        d_pair = sorted((payload["noncollinear"]["d_eff_fs_pm_v"],
                         payload["noncollinear"]["d_eff_sf_pm_v"]))
        assert abs(d_pair[0] - 1.84) / 1.84 < 0.10
        assert abs(d_pair[1] - 2.02) / 2.02 < 0.10
        w = payload["walkoff_rad"]
        assert abs(w["pump_fast"] - 0.020) / 0.020 < 0.15
        assert abs(w["pump_slow"] - 0.063) / 0.063 < 0.15
        assert abs(w["pump_quadrature"] - 0.066) / 0.066 < 0.15

    def test_summary_custom_cut(self, tmp_path):
        out = tmp_path / "summary.json"
        assert main(["crystal", "summary", "--species", "bbo",
                     "--cut", "0.7533", "0.0", "--length-mm", "2.0",
                     "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert abs(payload["d_eff_collinear_pm_v"] - 1.15) / 1.15 < 0.10

    def test_summary_at_a_cut_without_arms(self, tmp_path):
        bibo = crystal.load_crystal("bibo")
        (coll,) = crystal.phase_match_collinear(bibo, phi_grid=np.radians([55.0]))
        cut = crystal.CrystalCut(coll.theta + 0.05, coll.phi, bibo.reference_cut.length_mm)
        out = tmp_path / "summary.json"
        assert main(["crystal", "summary", "--species", "bibo", "--cut", repr(cut.theta),
                     repr(cut.phi), "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert list(payload["noncollinear"]) == ["unavailable"]
        pump, down = (crystal.solve_waves(bibo.sellmeier, cut.direction(), lam)
                      for lam in (390.0, 780.0))
        assert payload["indices"] == {"pump_fast": pump.n_fast, "down_fast": down.n_fast,
                                      "down_slow": down.n_slow}

    @staticmethod
    def _assert_json_rows_match_csv(rows, csv_text):
        """The same rows in the same order, keyed by the CSV header, equal at its precision."""
        header, *lines = csv_text.strip().split("\n")
        names = header.split(",")
        assert len(rows) == len(lines) > 0
        for row, line in zip(rows, lines):
            assert sorted(row) == sorted(names)
            for name, text in zip(names, line.split(",")):
                if isinstance(row[name], str):
                    assert row[name] == text
                    continue
                mantissa, exponent, _ = text.partition("e")
                spec = f".{len(mantissa.partition('.')[2])}{'e' if exponent else 'f'}"
                assert format(row[name], spec) == text, name

    @pytest.mark.parametrize("branch", ["upper", "lower"])
    def test_curve_json_rows_match_csv(self, tmp_path, branch):
        argv = ["crystal", "curve", "--species", "bibo", "--branch", branch,
                "--phi-step", "5"]
        csv, js = tmp_path / "curve.csv", tmp_path / "curve.json"
        assert main([*argv, "--out", str(csv)]) == EXIT_OK
        assert main([*argv, "--format", "json", "--out", str(js)]) == EXIT_OK
        payload = json.loads(js.read_text())
        assert (payload["species"], payload["branch"]) == ("BiBO", branch)
        self._assert_json_rows_match_csv(payload["samples"], csv.read_text())

    @pytest.mark.parametrize("species,widths", [
        ("bibo", []), ("bbo", ["--pump-fwhm", "0", "--filter-fwhm", "0"])],
        ids=["bibo_filtered", "bbo_mono"])
    def test_rings_json_rows_match_csv(self, tmp_path, species, widths):
        argv = ["crystal", "rings", "--species", species, *widths]
        csv, js = tmp_path / "rings.csv", tmp_path / "rings.json"
        assert main([*argv, "--out", str(csv)]) == EXIT_OK
        assert main([*argv, "--format", "json", "--out", str(js)]) == EXIT_OK
        payload = json.loads(js.read_text())
        assert payload["species"] == crystal.load_crystal(species).sellmeier.species
        self._assert_json_rows_match_csv(payload["points"], csv.read_text())

    def test_summary_solves_each_wave_once(self, tmp_path, monkeypatch):
        # the arms' pump (reused as the cut's pump), the two arms' and the cut's down wave
        original = crystal.solve_waves
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("spdclab") \
                    and getattr(module, "solve_waves", None) is original:
                monkeypatch.setattr(module, "solve_waves", counted)
        assert main(["crystal", "summary", "--species", "bibo",
                     "--out", str(tmp_path / "summary.json")]) == EXIT_OK
        assert len(calls) == 4

    def test_curve_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["crystal", "curve", "--species", "bibo",
                     "--phi-step", "5", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("phi_rad,theta_rad,d_eff_pm_v")
        assert len(lines) > 5
        for row in lines[1:]:
            assert abs(float(row.split(",")[-1])) < 1e-6  # delta-k residual

    def test_rings_csv_export(self, tmp_path):
        bibo = crystal.load_crystal("bibo")
        out = tmp_path / "rings.csv"
        assert main(["crystal", "rings", "--species", "bibo", "--pump-fwhm", "0",
                     "--filter-fwhm", "0", "--out", str(out)]) == EXIT_OK
        header, *rows = out.read_text().strip().split("\n")
        assert header == "kx,ky,wavelength_nm,weight,branch"
        cloud = crystal.spdc_rings(bibo, bibo.reference_cut, pump_fwhm_nm=0.0,
                                   filter_fwhm_nm=0.0)
        assert len(rows) == cloud.kx.size
        assert {row.rsplit(",", 1)[1] for row in rows} == {"fast", "slow"}

    def test_rings_csv_and_divergence(self, tmp_path):
        out_bbo = tmp_path / "bbo.csv"
        out_bibo = tmp_path / "bibo.csv"
        assert main(["crystal", "rings", "--species", "bbo",
                     "--out", str(out_bbo)]) == EXIT_OK
        assert main(["crystal", "rings", "--species", "bibo",
                     "--out", str(out_bibo)]) == EXIT_OK

        def spread(path):
            # ring thickness: radial extent within azimuthal bins, averaged
            rows = [line.split(",") for line in
                    path.read_text().strip().split("\n")[1:]]
            pts = np.array([(float(r[0]), float(r[1])) for r in rows
                            if r[4] == "fast"])
            radii = np.hypot(pts[:, 0], pts[:, 1])
            angles = np.arctan2(pts[:, 1], pts[:, 0])
            widths = []
            for lo in np.arange(-np.pi, np.pi, np.pi / 4):
                mask = (angles >= lo) & (angles < lo + np.pi / 4)
                if np.count_nonzero(mask) > 1:
                    widths.append(radii[mask].max() - radii[mask].min())
            return np.mean(widths)

        assert spread(out_bibo) > spread(out_bbo)

    def test_rate_ratio_reference(self, tmp_path):
        out = tmp_path / "ratio.json"
        assert main(["crystal", "rate-ratio", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert abs(payload["rate_ratio"] - 0.424) < 1e-9

    def test_rate_ratio_inputs_missing_keys_exit_code(self, tmp_path, capsys):
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps({"configurations": {
            "a": {"d_eff_pm_v": 3.0, "length_mm": 1.0},
            "b": {"d_eff_pm_v": 2.0, "length_mm": 2.0, "n_pump": 1.6,
                  "n_signal": 1.6, "n_idler": 1.7},
        }}))
        assert main(["crystal", "rate-ratio", "--inputs", str(path),
                     "--a", "a", "--b", "b"]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "schema error" in err and "configuration 'a'" in err

    @pytest.mark.parametrize("config", ["bibo_0p6mm", "bbo_2mm"], ids=["a", "b"])
    @pytest.mark.parametrize("case", ["n_pump_below_1", "n_idler_equal", "n_idler_inverted"])
    def test_rate_ratio_inputs_out_of_range_exit_code(self, tmp_path, capsys, case, config):
        inputs = json.loads(resources.files("spdclab.data")
                            .joinpath("pair_rate_inputs.json").read_text())
        rec = inputs["configurations"][config]
        field, value = {"n_pump_below_1": ("n_pump", 0.9),
                        "n_idler_equal": ("n_idler", rec["n_signal"]),
                        "n_idler_inverted": ("n_idler", rec["n_signal"] - 0.05)}[case]
        rec[field] = value
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps(inputs))
        out = tmp_path / "ratio.json"
        assert main(["crystal", "rate-ratio", "--inputs", str(path),
                     "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert field in err and f"configuration {config!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["summary", "rings"])
    @pytest.mark.parametrize("length", ["nan", "inf", "-inf", "0"])
    def test_bad_length_rejected_before_work(self, tmp_path, monkeypatch, command, length):
        def fail(*args, **kwargs):
            raise AssertionError("computed before validating --length-mm")

        for name in ("solve_waves", "spdc_rings"):
            monkeypatch.setattr(crystal, name, fail)
        out = tmp_path / "out"
        assert main(["crystal", command, "--species", "bbo", f"--length-mm={length}",
                     "--out", str(out)]) == EXIT_SCHEMA
        assert not out.exists()

    @pytest.mark.parametrize("command", ["summary", "rings"])
    @pytest.mark.parametrize("cut", [("nan", "0"), ("0.75", "7"), ("4", "0")])
    def test_bad_cut_rejected_before_work(self, tmp_path, monkeypatch, command, cut):
        def fail(*args, **kwargs):
            raise AssertionError("computed before validating --cut")

        for name in ("solve_waves", "spdc_rings"):
            monkeypatch.setattr(crystal, name, fail)
        out = tmp_path / "out"
        assert main(["crystal", command, "--species", "bbo", "--cut", *cut,
                     "--out", str(out)]) == EXIT_SCHEMA
        assert not out.exists()

    @pytest.mark.parametrize("phi_args", [
        ["--phi-step", "0"], ["--phi-step", "-1"], ["--phi-step", "nan"],
        ["--phi-step", "inf"], ["--phi-start", "nan"], ["--phi-stop", "inf"],
        ["--phi-start", "50", "--phi-stop", "10"],
        # more azimuths than the cap, or an infinite count
        ["--phi-step", "1e-9"], ["--phi-step", "5e-324"], ["--phi-step", "0.009"],
    ])
    def test_bad_phi_grid_rejected_before_work(self, tmp_path, monkeypatch, capsys,
                                               phi_args):
        def fail(*args, **kwargs):
            raise AssertionError("computed before validating the phi grid")

        monkeypatch.setattr(crystal, "phase_match_collinear", fail)
        out = tmp_path / "curve.csv"
        assert main(["crystal", "curve", "--species", "bbo", *phi_args,
                     "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("schema error: --phi-") and err.count("\n") == 1
        assert not out.exists()

    def test_equal_phi_endpoints_give_one_sample(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["crystal", "curve", "--species", "bbo", "--branch", "lower",
                     "--phi-start", "30", "--phi-stop", "30", "--out", str(out)]) == EXIT_OK
        header, *rows = out.read_text().strip().split("\n")
        assert len(rows) == 1 and rows[0].startswith(f"{np.radians(30.0):.6f},")

    @pytest.mark.parametrize("flag", ["--pump-fwhm", "--filter-fwhm"])
    @pytest.mark.parametrize("width", ["-1", "nan", "inf"])
    def test_bad_spectral_width_rejected_before_work(self, tmp_path, monkeypatch,
                                                     flag, width):
        def fail(*args, **kwargs):
            raise AssertionError("computed before validating the spectral widths")

        monkeypatch.setattr(crystal, "spdc_rings", fail)
        out = tmp_path / "rings.csv"
        assert main(["crystal", "rings", "--species", "bbo", f"{flag}={width}",
                     "--out", str(out)]) == EXIT_SCHEMA
        assert not out.exists()

    @pytest.mark.parametrize("command", ["summary", "curve", "rings"])
    @pytest.mark.parametrize("pump", ["nan", "inf", "0", "-5"])
    def test_bad_pump_wavelength_rejected_before_work(self, tmp_path, monkeypatch, capsys,
                                                      command, pump):
        def fail(*args, **kwargs):
            raise AssertionError("computed before validating --pump-nm")

        for name in ("load_crystal", "solve_waves", "phase_match_collinear", "spdc_rings"):
            monkeypatch.setattr(crystal, name, fail)
        out = tmp_path / "out"
        assert main(["crystal", command, "--species", "bbo", f"--pump-nm={pump}",
                     "--out", str(out)]) == EXIT_SCHEMA
        assert "--pump-nm" in capsys.readouterr().err
        assert not out.exists()

    def test_rate_ratio_inputs_unknown_key_exit_code(self, tmp_path, capsys):
        inputs = json.loads(resources.files("spdclab.data")
                            .joinpath("pair_rate_inputs.json").read_text())
        rec = inputs["configurations"]["bibo_0p6mm"]
        rec["omegaa"] = rec.pop("omega")
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps(inputs))
        assert main(["crystal", "rate-ratio", "--inputs", str(path)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "'omegaa'" in err and "configuration 'bibo_0p6mm'" in err

    @pytest.mark.parametrize("field,value", [
        ("d_eff_pm_v", float("nan")), ("length_mm", float("inf")),
        ("n_idler", float("nan")), ("omega", float("inf")),
        ("delta_walkoff", float("nan")),
        # JSON true is not a number either
        *((field, True) for field in ("d_eff_pm_v", "length_mm", "n_pump", "n_signal",
                                      "n_idler", "delta_walkoff", "omega")),
    ])
    def test_rate_ratio_inputs_non_finite_exit_code(self, tmp_path, capsys, field, value):
        inputs = json.loads(resources.files("spdclab.data")
                            .joinpath("pair_rate_inputs.json").read_text())
        inputs["configurations"]["bibo_0p6mm"][field] = value
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps(inputs))               # NaN / Infinity literals
        out = tmp_path / "ratio.json"
        assert main(["crystal", "rate-ratio", "--inputs", str(path),
                     "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert field in err and "configuration 'bibo_0p6mm'" in err
        assert not out.exists()

    def test_out_of_range_wavelength_is_numeric_failure(self, capsys):
        """A wavelength outside the Sellmeier range exits 4.  So does a spectral width
        so wide that a sampled wavelength rounds to 0 nm, or a signal sample that
        equals a pump sample (an infinite idler): the samples are checked before
        numpy divides by them, so the run warns of nothing and stderr is one line."""
        assert main(["crystal", "summary", "--species", "bbo",
                     "--cut", "0.75", "0.0", "--pump-nm", "150"]) == EXIT_NUMERIC
        cases = [(species, [flag, "1e300"]) for species in ("bbo", "bibo")
                 for flag in ("--pump-fwhm", "--filter-fwhm")]
        cases.append(("bibo", ["--pump-nm", "300", "--filter-fwhm", "353.22"]))
        for species, widths in cases:
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["crystal", "rings", "--species", species,
                             *widths]) == EXIT_NUMERIC, (species, widths)
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("numerical failure: ") and err.count("\n") == 1
            assert "outside the Sellmeier validity range" in err


class TestPvalue:
    def test_reference_ledger(self, ledger_file, tmp_path):
        out = tmp_path / "p.json"
        assert main(["pvalue", str(ledger_file), "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert 3.3e-3 <= payload["bound"] <= 4.0e-3
        assert abs(payload["normalized_trial_spread"] - 0.0329) < 0.0003
        assert payload["inputs_digest"] == \
            "sha256:" + hashlib.sha256(ledger_file.read_bytes()).hexdigest()

    def test_null_fidelity_outside_unit_interval_exit_code(self, ledger_file, tmp_path,
                                                           capsys):
        raw = json.loads(ledger_file.read_text())
        raw["f_0"] = 2
        ledger_file.write_text(json.dumps(raw))
        out = tmp_path / "p.json"
        assert main(["pvalue", str(ledger_file), "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("schema error: malformed ledger: f_0 ") and "[0, 1]" in err
        assert err.count("\n") == 1 and not out.exists()

    def test_threshold_fidelity(self, tmp_path):
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps({
            "kind": "trial_ledger", "n": 10, "n_z": 144,
            "n_k": [53, 34, 46, 35, 41, 59, 33, 34, 32, 36], "f_exp": 0.5,
        }))
        out = tmp_path / "p.json"
        assert main(["pvalue", str(path), "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["bound"] == 1.0 and payload["informative"] is False

    def test_hundredfold_counts(self, tmp_path):
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps({
            "kind": "trial_ledger", "n": 10, "n_z": 14400,
            "n_k": [c * 100 for c in (53, 34, 46, 35, 41, 59, 33, 34, 32, 36)],
            "f_exp": 0.606,
        }))
        out = tmp_path / "p.json"
        assert main(["pvalue", str(path), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["bound"] < 1e-20

    def test_nan_fidelity_exit_code(self, tmp_path, capsys):
        path = tmp_path / "ledger.json"
        path.write_text('{"kind": "trial_ledger", "n": 2, "n_z": 10, '
                        '"n_k": [5, 5], "f_exp": NaN}')
        assert main(["pvalue", str(path)]) == EXIT_SCHEMA
        assert "NaN" not in capsys.readouterr().out

    @pytest.mark.parametrize("counts", [
        {"n_z": 10.9}, {"n_k": [True, 5.7]}, {"n": 2.0}])
    def test_non_integer_counts_exit_code(self, tmp_path, counts):
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps({"kind": "trial_ledger", "n": 2, "n_z": 10,
                                    "n_k": [5, 5], "f_exp": 0.6, **counts}))
        assert main(["pvalue", str(path)]) == EXIT_SCHEMA

    @pytest.mark.parametrize("fields", [
        {"f_exp": "0.606"}, {"f_exp": True}, {"f_0": "0.5"}, {"f0": 0.4}])
    def test_non_numeric_or_unknown_fidelity_exit_code(self, ledger_file, fields):
        raw = json.loads(ledger_file.read_text())
        raw.update(fields)
        ledger_file.write_text(json.dumps(raw))
        assert main(["pvalue", str(ledger_file)]) == EXIT_SCHEMA

    def test_zero_mode_count_exit_code(self, tmp_path, capsys):
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps({"kind": "trial_ledger", "n": 0, "n_z": 10,
                                    "n_k": [], "f_exp": 0.6}))
        assert main(["pvalue", str(path)]) == EXIT_SCHEMA
        assert "n must be at least 1" in capsys.readouterr().err

    def test_malformed_ledger(self, tmp_path):
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps({"kind": "trial_ledger", "n": 10}))
        assert main(["pvalue", str(path)]) == EXIT_SCHEMA


def _python(*args, timeout=60, preexec_fn=None, cwd=None):
    """A fresh interpreter on this checkout's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True,
                          text=True, timeout=timeout, preexec_fn=preexec_fn, cwd=cwd)


def _run_python(*args):
    """The last line a fresh interpreter prints, after it exits 0."""
    proc = _python(*args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().split("\n")[-1]


@pytest.mark.parametrize("case", ["analyze --out", "analyze --plot-data",
                                  "simulate --report", "pvalue --out", "crystal curve --out"])
def test_failed_write_exit_code(recon_file, ledger_file, config_file, tmp_path, case):
    """A file that cannot be written is a one-line exit 2, not a traceback."""
    missing = tmp_path / "missing" / "out"
    regular = tmp_path / "regular"
    regular.write_text("")
    argv = {
        "analyze --out": ["analyze", recon_file, "--out", missing],
        "analyze --plot-data": ["analyze", recon_file, "--plot-data", regular / "plots"],
        "simulate --report": ["simulate", config_file, "--pulses", "1000000000",
                              "--out", tmp_path / "counts.json", "--report", missing],
        "pvalue --out": ["pvalue", ledger_file, "--out", missing],
        "crystal curve --out": ["crystal", "curve", "--species", "bbo",
                                "--phi-stop", "0", "--out", missing],
    }[case]
    proc = _python("-m", "spdclab.cli", *argv)
    assert proc.returncode == EXIT_SCHEMA
    assert proc.stderr.startswith("schema error: cannot write ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command,name,kind", [
    ("analyze", "tenfold_trial_ledger.json", "count_dataset"),
    ("pvalue", "tenfold_run_reconstruction.counts.json", "trial_ledger"),
    ("simulate", "tenfold_run_reconstruction.counts.json", "experiment_config"),
])
def test_record_of_the_wrong_kind_exit_code(tmp_path, capsys, command, name, kind):
    extra = ["--pulses", "10"] if command == "simulate" else []
    out = tmp_path / "out.json"
    assert main([command, str(shipped_path(tmp_path, name)), *extra,
                 "--out", str(out)]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("schema error: not a") and f" {kind} record: kind=" in err
    assert err.count("\n") == 1 and not out.exists()


def _limit_address_space():
    import resource     # POSIX only

    limit = 512 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_huge_n_with_few_settings_exit_code(tmp_path):
    """The number of settings is checked before the n + 1 setting names are
    built, so n = 1e9 with one setting is a prompt exit 2 under a 512 MiB
    address-space limit, not a MemoryError traceback."""
    path = tmp_path / "huge_n.json"
    path.write_text(json.dumps({
        "kind": "count_dataset", "n": 10**9,
        "settings": [{"setting": "Z",
                      "aggregated": {"n_all_h": 1, "n_all_v": 1, "n_rest": 0}}],
    }))
    proc = _python("-m", "spdclab.cli", "analyze", path, timeout=20,
                   preexec_fn=_limit_address_space)
    assert proc.returncode == EXIT_SCHEMA
    assert proc.stderr == ("schema error: a dataset with n = 1000000000 must have "
                           "1000000001 settings, got 1\n")
    assert proc.stdout == ""


def test_wrong_setting_names_keep_their_message(tmp_path, capsys):
    path = tmp_path / "names.json"
    path.write_text(json.dumps({
        "kind": "count_dataset", "n": 1,
        "settings": [{"setting": "M1", "aggregated": {"n_plus": 1, "n_minus": 1}},
                     {"setting": "M0", "aggregated": {"n_plus": 1, "n_minus": 1}}],
    }))
    assert main(["analyze", str(path)]) == EXIT_SCHEMA
    assert capsys.readouterr().err == (
        "schema error: dataset must contain settings ['Z', 'M0'] exactly once, "
        "got ['M1', 'M0']\n")


def test_rate_inputs_of_the_wrong_kind_exit_code(tmp_path, capsys):
    out = tmp_path / "ratio.json"
    assert main(["crystal", "rate-ratio", "--inputs",
                 str(shipped_path(tmp_path, "tenfold_trial_ledger.json")),
                 "--out", str(out)]) == EXIT_SCHEMA
    assert capsys.readouterr().err == (
        "schema error: not a pair_rate_inputs record: kind='trial_ledger'\n")
    assert not out.exists()


@pytest.mark.parametrize("record,value", [("sources[0]", 1), ("interference", [1.0]),
                                          ("detector", "text")])
def test_non_object_config_record_exit_code(config_file, tmp_path, capsys, record, value):
    raw = json.loads(config_file.read_text())
    if record == "sources[0]":
        raw["sources"][0] = value
    else:
        raw[record] = value
    config_file.write_text(json.dumps(raw))
    out = tmp_path / "counts.json"
    assert main(["simulate", str(config_file), "--pulses", "10",
                 "--out", str(out)]) == EXIT_SCHEMA
    assert capsys.readouterr().err == (
        f"schema error: experiment config record {record} must be a JSON object\n")
    assert not out.exists()


@pytest.mark.parametrize("argv,doc,message", [
    ("analyze {}", [1, 2], "count file must contain a JSON object"),
    ("pvalue {}", "text", "ledger file must contain a JSON object"),
    ("simulate {} --pulses 10", [1, 2], "config file must contain a JSON object"),
    ("simulate {} --pulses 10", "text", "config file must contain a JSON object"),
    ("crystal rate-ratio --inputs {}", [1, 2], "rate inputs file must contain a JSON object"),
    ("crystal rate-ratio --inputs {}", "text", "rate inputs file must contain a JSON object"),
    ("crystal rate-ratio --inputs {}", {"configurations": [1, 2]},
     "rate inputs 'configurations' must be a JSON object"),
    ("crystal rate-ratio --inputs {}", {"configurations": {"bbo_2mm": "text"}},
     "rate inputs configuration 'bbo_2mm' must be a JSON object"),
], ids=["analyze_list", "pvalue_string", "simulate_list", "simulate_string", "rate_list",
        "rate_string", "rate_configurations_list", "rate_record_string"])
def test_non_object_record_exit_code(tmp_path, capsys, argv, doc, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert main([arg.format(path) for arg in argv.split()]) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"schema error: {message}\n"


@pytest.mark.parametrize("case", ["simulate --report", "analyze --plot-data", "analyze --out"])
def test_unwritable_output_refused_before_work(recon_file, config_file, tmp_path, capsys, case):
    """An output that cannot be written is an exit 2 before any output is written."""
    regular = tmp_path / "regular"
    regular.write_text("")
    first, missing = tmp_path / "first.json", tmp_path / "missing" / "r.json"
    argv = {
        "simulate --report": ["simulate", str(config_file), "--pulses", "1000000000",
                              "--out", str(first), "--report", str(missing)],
        "analyze --plot-data": ["analyze", str(recon_file), "--out", str(first),
                                "--plot-data", str(regular / "plots")],
        "analyze --out": ["analyze", str(recon_file), "--out", str(tmp_path),
                          "--plot-data", str(tmp_path / "plots")],
    }[case]
    assert main(argv) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("schema error: cannot write ") and err.count("\n") == 1
    assert not first.exists() and not (tmp_path / "plots").exists()


def test_cli_import_loads_no_scipy():
    """Every command runs on numpy alone; scipy is only a test dependency."""
    assert _run_python(
        "-c", "import sys, spdclab.cli, spdclab.crystal, spdclab.simulator; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))") == "[]"


#: calls cli.main like the ``spdclab`` entry point, then lists the heavy modules loaded
_COUNT_PATH_DRIVER = """
import sys
from spdclab import cli
counts, ledger, rate_inputs, out = sys.argv[1:]
assert cli.main(["analyze", counts, "--out", out + "/report.json",
                 "--plot-data", out + "/plots"]) == 0
assert cli.main(["pvalue", ledger, "--out", out + "/pvalue.json"]) == 0
assert cli.main(["crystal", "rate-ratio", "--out", out + "/ratio.json"]) == 0
assert cli.main(["crystal", "rate-ratio", "--inputs", rate_inputs,
                 "--a", "bbo_2mm", "--b", "bibo_0p6mm", "--out", out + "/inverse.json"]) == 0
try:
    cli.main(["--version"])
except SystemExit as exc:
    assert exc.code == 0
print(sorted(m for m in ("numpy", "spdclab.crystal", "spdclab.simulator",
                         "dataclasses", "inspect")
             if m in sys.modules))
"""


def test_count_path_imports_no_numpy(recon_file, ledger_file, tmp_path):
    """``analyze``, ``pvalue``, ``crystal rate-ratio`` and ``--version`` run on the
    standard library alone, without ``dataclasses`` and the ``inspect`` it imports."""
    rate_inputs = shipped_path(tmp_path, "pair_rate_inputs.json")
    assert _run_python("-c", _COUNT_PATH_DRIVER, recon_file, ledger_file, rate_inputs,
                       tmp_path) == "[]"
    assert (tmp_path / "plots" / "mk_expectations.csv").is_file()
    ratio = json.loads((tmp_path / "ratio.json").read_text())["rate_ratio"]
    inverse = json.loads((tmp_path / "inverse.json").read_text())["rate_ratio"]
    assert abs(ratio - 0.424) < 1e-12 and abs(ratio * inverse - 1.0) < 1e-12


def _imported_modules(stderr: str) -> set:
    """Every module a ``python -X importtime`` run lists."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:") and line.count("|") == 2}


@pytest.fixture(scope="module")
def imported_by(tmp_path_factory):
    """The modules a ``python -X importtime -m spdclab.cli`` run of a command
    lists, one process per command for all the tests that read them."""
    runs = {}

    def imported(command):
        if command not in runs:
            workdir = tmp_path_factory.mktemp("importtime")
            argv = {"crystal summary": ["crystal", "summary", "--species", "bibo"],
                    "simulate": ["simulate",
                                 shipped_path(workdir, "reference_tenfold_config.json"),
                                 "--pulses", "1000000000", "--seed", "3",
                                 "--report", workdir / "report.json"]}[command]
            proc = _python("-X", "importtime", "-m", "spdclab.cli", *argv,
                           "--out", workdir / "out.json")
            assert proc.returncode == 0, proc.stderr
            runs[command] = _imported_modules(proc.stderr)
        return runs[command]
    return imported


@pytest.mark.parametrize("command", ["crystal summary", "simulate"])
def test_main_module_is_compiled_once(imported_by, command):
    """Under ``python -m spdclab.cli`` the module runs as ``__main__``; the split-off
    modules never import ``spdclab.cli``, which would compile and run it again.
    ``simulate``'s handler is in ``cli`` itself, so it loads neither
    ``numpy_commands`` nor numpy."""
    modules = imported_by(command)
    assert "spdclab.fileio" in modules
    assert "spdclab.cli" not in modules
    on_numpy = {m for m in modules
                if m == "spdclab.numpy_commands" or m.partition(".")[0] == "numpy"}
    if command == "simulate":
        assert on_numpy == set()
    else:
        assert {"spdclab.numpy_commands", "numpy"} <= on_numpy


def test_crystal_path_imports_no_dataclasses(imported_by):
    """The crystal records are ``_record._Record`` classes, so a crystal command
    never loads ``dataclasses``."""
    modules = imported_by("crystal summary")
    assert "spdclab.crystal.phasematch" in modules
    assert "dataclasses" not in modules


def test_simulate_path_imports_no_dataclasses(imported_by):
    """The simulator's and qstate's records are ``_record._Record`` classes, so
    ``simulate`` never loads ``dataclasses``."""
    modules = imported_by("simulate")
    assert {"spdclab.simulator", "spdclab.qstate"} <= modules
    assert "dataclasses" not in modules


def test_no_module_imports_dataclasses():
    """``_record._Record`` is the package's one record mechanism."""
    package = Path(spdclab.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(str(name).partition(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.relative_to(package)}:{node.lineno}")
    assert found == []


def _numpy_import_scopes(node, scope=None):
    """The scope of every numpy import under ``node``: None for the module body,
    else the name of the innermost function around it."""
    for child in ast.iter_child_nodes(node):
        names = ([a.name for a in child.names] if isinstance(child, ast.Import)
                 else [child.module] if isinstance(child, ast.ImportFrom) else [])
        if any(str(name).partition(".")[0] == "numpy" for name in names):
            yield scope
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _numpy_import_scopes(child, child.name if inner else scope)


def test_numpy_is_imported_only_where_it_runs():
    """The module boundary is the numpy boundary: ``numpy_commands`` and the crystal
    modules import numpy at their top; elsewhere only ``qstate``'s dense-state
    functions and ``hyptest.simulate_null_exceedance`` import it, when called."""
    package = Path(spdclab.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        where = path.relative_to(package).as_posix()
        for scope in _numpy_import_scopes(ast.parse(path.read_text(encoding="utf-8"))):
            if where == "numpy_commands.py" or where.startswith("crystal/"):
                allowed = scope is None
            elif where == "qstate.py":
                allowed = scope is not None
            else:
                allowed = where == "hyptest.py" and scope == "simulate_null_exceedance"
            if not allowed:
                found.append(f"{where}:{scope}")
    assert found == []


def test_crystal_import_loads_no_witness():
    """The crystal records take ``_Record`` from ``spdclab._record``, so importing
    ``spdclab.crystal`` loads no fidelity code."""
    assert _run_python("-c", "import sys, spdclab.crystal; "
                       "print('spdclab.witness' in sys.modules)") == "False"


def test_json_is_parsed_only_in_fileio():
    """Every JSON file is read by ``fileio._read_json``, shipped data included, so
    no other module, nor any demo, calls ``json.load`` or ``json.loads``."""
    package = Path(cli.__file__).parent
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    calls = []
    for path in sorted(set(package.rglob("*.py")) - {package / "fileio.py"}) + demos:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            called = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in ("load", "loads")
                      and isinstance(node.func.value, ast.Name) and node.func.value.id == "json")
            imported = (isinstance(node, ast.ImportFrom) and node.module == "json"
                        and {a.name for a in node.names} & {"load", "loads"})
            if called or imported:
                calls.append(f"{path.parent.name}/{path.name}:{node.lineno}")
    assert calls == []


def test_crystal_exports_what_its_callers_read():
    """``spdclab.crystal`` exports exactly the names that code outside the unit tests
    reads from it; unit tests import every other name from its defining module."""
    root = Path(__file__).resolve().parents[1]
    package = Path(cli.__file__).parent
    callers = [p for p in package.rglob("*.py") if package / "crystal" not in p.parents]
    callers += [*sorted(root.glob("bench/*.py")), *sorted(root.glob("demos/*.py")),
                root / "tests" / "test_acceptance.py", root / "tests" / "conftest.py"]
    read = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "crystal"):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module in ("spdclab.crystal", "crystal"):
                read.update(alias.name for alias in node.names)
    submodules = {m.name for m in pkgutil.iter_modules(crystal.__path__)}
    assert read - submodules == set(crystal.__all__)
    public = {name for name in vars(crystal) if not name.startswith("_")}
    assert public - submodules == set(crystal.__all__)


def _defined_functions(module) -> list:
    """The functions and methods (static, class and property ones too) defined in ``module``."""
    found = []
    for obj in vars(module).values():
        members = vars(obj).values() if inspect.isclass(obj) else [obj]
        for fn in members:
            fn = fn.fget if isinstance(fn, property) else getattr(fn, "__func__", fn)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                found.append(fn)
    return found


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.walk_packages(
    spdclab.__path__, "spdclab.")))
def test_annotations_resolve(name):
    """Every annotation names something bound in its module, so ``get_type_hints`` works."""
    for fn in _defined_functions(importlib.import_module(name)):
        typing.get_type_hints(fn)


#: runs one command like the ``spdclab`` entry point, then lists the modules it
#: should not need
_ONE_COMMAND_DRIVER = """
import json, sys
from spdclab import cli
try:
    rc = cli.main(json.loads(sys.argv[1]))
except SystemExit as exc:
    rc = exc.code
assert rc == 0, rc
print(json.dumps([m for m in ("spdclab.numpy_commands", "spdclab.simulator", "hashlib",
                              "datetime") if m in sys.modules]))
"""


@pytest.mark.parametrize("command", ["analyze", "pvalue", "rate-ratio", "--version"])
def test_count_path_loads_only_what_it_runs(recon_file, ledger_file, tmp_path, command):
    """The count-path commands never load the numpy handlers or the simulator;
    they take the input digest from the builtin ``_sha256`` where it exists
    (Python 3.11), so not ``hashlib``; and only ``analyze`` stamps a time, so
    only it loads ``datetime``."""
    argv = {"analyze": ["analyze", str(recon_file), "--plot-data", str(tmp_path / "plots")],
            "pvalue": ["pvalue", str(ledger_file)],
            "rate-ratio": ["crystal", "rate-ratio"],
            "--version": ["--version"]}[command]
    if command != "--version":
        argv += ["--out", str(tmp_path / "out.json")]
    loaded = set(json.loads(_run_python("-c", _ONE_COMMAND_DRIVER, json.dumps(argv))))
    expected = {"datetime"} if command == "analyze" else set()
    if sys.version_info < (3, 12):
        assert "hashlib" not in loaded
    assert loaded - {"hashlib"} == expected


def test_simulate_loads_no_numpy(imported_by):
    """``simulate`` runs on the standard library: ``-X importtime`` lists the
    simulator and ``qstate`` among the modules it imports, and no numpy."""
    imported = imported_by("simulate")
    assert {"spdclab.simulator", "spdclab.qstate", "spdclab.sampling"} <= imported
    assert not {m for m in imported if m.partition(".")[0] == "numpy"}


def _leaf_parsers(parser, prefix=()):
    """(argv prefix, parser) of every subcommand that has no subcommands."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield prefix, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, (*prefix, name))


def test_every_subcommand_help_and_handler(capsys):
    """``--help`` exits 0 at every level, and every handler the parser names exists:
    those deferred to ``numpy_commands``, the three numpy crystal commands, are
    looked up there by name."""
    leaves = dict(_leaf_parsers(cli.build_parser()))
    prefixes = {()} | {leaf[:i] for leaf in leaves for i in range(1, len(leaf) + 1)}
    for prefix in sorted(prefixes):
        with pytest.raises(SystemExit) as exc:
            main([*prefix, "--help"])
        assert exc.value.code == 0, prefix
        assert capsys.readouterr().out.startswith("usage: spdclab")
    deferred = set()
    for prefix, parser in leaves.items():
        func = parser.get_default("func")
        assert callable(func), prefix
        if hasattr(func, "deferred"):
            assert callable(getattr(numpy_commands, func.deferred)), prefix
            deferred.add(func.deferred)
    assert deferred == {"cmd_crystal_summary", "cmd_crystal_curve", "cmd_crystal_rings"}
    assert len(leaves) == 7


# ---------------------------------------------------------------------------
# The process entry
# ---------------------------------------------------------------------------

#: argv of each way a command ends, with its exit code; ``{name}`` is an input
#: file in the shared input directory, and outputs are written to the working one
_ENTRY_PATHS = {
    "analyze": (EXIT_OK, ["analyze", "{counts}", "--out", "analysis.json",
                          "--plot-data", "plots"]),
    "pvalue": (EXIT_OK, ["pvalue", "{ledger}"]),
    "simulate": (EXIT_OK, ["simulate", "{config}", "--pulses", "1000000000", "--seed", "3",
                           "--out", "counts.json", "--report", "report.json"]),
    "crystal summary": (EXIT_OK, ["crystal", "summary", "--species", "bibo"]),
    "schema error": (EXIT_SCHEMA, ["analyze", "{bad}", "--out", "analysis.json"]),
    "insufficient data": (EXIT_INSUFFICIENT, ["analyze", "{thin}", "--out", "analysis.json"]),
    "numerical failure": (EXIT_NUMERIC, ["crystal", "summary", "--species", "bbo",
                                         "--cut", "0.75", "0.0", "--pump-nm", "150"]),
    "usage error": (EXIT_SCHEMA, ["analyze", "--f0"]),
    "--version": (EXIT_OK, ["--version"]),
    "--help": (EXIT_OK, ["--help"]),
}


@pytest.fixture(scope="module")
def entry_inputs(tmp_path_factory):
    """The input files the entry paths read, by name."""
    inputs = tmp_path_factory.mktemp("entry_inputs")
    paths = {"counts": shipped_path(inputs, "tenfold_run_reconstruction.counts.json"),
             "ledger": shipped_path(inputs, "tenfold_trial_ledger.json"),
             "config": shipped_path(inputs, "reference_tenfold_config.json"),
             "bad": inputs / "bad.json", "thin": inputs / "thin.json"}
    paths["bad"].write_text(json.dumps({
        "kind": "count_dataset", "n": 2, "provenance": "simulated",
        "settings": [{"setting": "Z",
                      "aggregated": {"n_all_h": 1, "n_all_v": 1, "n_rest": 0}}]}))
    paths["thin"].write_text(json.dumps({
        "kind": "count_dataset", "n": 1, "provenance": "experimental",
        "settings": [
            {"setting": "Z", "aggregated": {"n_all_h": 5, "n_all_v": 5, "n_rest": 0}},
            {"setting": "M0", "aggregated": {"n_plus": 0, "n_minus": 0}}]}))
    return {name: str(path) for name, path in paths.items()}


def _entry_argv(path: str, inputs: dict) -> tuple:
    code, argv = _ENTRY_PATHS[path]
    return code, [arg.format(**inputs) for arg in argv]


def _written_files(directory: Path) -> dict:
    """Every file under ``directory`` by relative path; the ``analyze`` report
    without its timestamp."""
    files = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            blob = path.read_bytes()
            if path.name == "analysis.json":
                report = json.loads(blob)
                del report["generated_at"]
                blob = json.dumps(report, sort_keys=True)
            files[str(path.relative_to(directory))] = blob
    return files


@pytest.mark.parametrize("path", list(_ENTRY_PATHS))
def test_module_run_matches_main(entry_inputs, tmp_path, monkeypatch, capsys, path):
    """``python -m spdclab.cli`` exits as in-process ``main`` returns or raises, and
    writes the same stdout, stderr and files, on every way a command ends."""
    code, argv = _entry_argv(path, entry_inputs)
    (tmp_path / "main").mkdir()
    (tmp_path / "module").mkdir()
    monkeypatch.chdir(tmp_path / "main")
    try:
        returned = main(argv)
    except SystemExit as exc:
        returned = exc.code
    out, err = capsys.readouterr()
    proc = _python("-m", "spdclab.cli", *argv, cwd=tmp_path / "module")
    assert returned == proc.returncode == code, proc.stderr
    assert (proc.stdout, proc.stderr) == (out, err)
    written = _written_files(tmp_path / "main")
    assert _written_files(tmp_path / "module") == written
    assert bool(written) == (path in ("analyze", "simulate"))


#: registers an atexit hook that writes ``gc.get_freeze_count()`` to the file named
#: by its first argument, then runs ``spdclab.cli`` as ``__main__`` on the rest
_ATEXIT_DRIVER = """
import atexit, gc, runpy, sys

def hook(path=sys.argv.pop(1)):
    with open(path, "w") as fh:
        fh.write(str(gc.get_freeze_count()))

atexit.register(hook)
runpy.run_module("spdclab.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("path", list(_ENTRY_PATHS))
def test_process_exit_runs_atexit_on_a_frozen_heap(entry_inputs, tmp_path, path):
    """However a command ends (a returned code, or argparse's ``SystemExit``), the
    module entry freezes the heap before shutdown, so the interpreter's final
    collections scan nothing, and the atexit handlers still run after it."""
    code, argv = _entry_argv(path, entry_inputs)
    hook_file = tmp_path / "freeze_count"
    proc = _python("-c", _ATEXIT_DRIVER, hook_file, *argv, cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert int(hook_file.read_text()) > 0


def test_main_freezes_nothing(entry_inputs, tmp_path, capsys):
    """In-process ``main``, as tests and benchmarks call it, leaves the freeze
    count alone on a returned code and on argparse's ``SystemExit``."""
    before = gc.get_freeze_count()
    for path in ("pvalue", "schema error", "numerical failure", "usage error", "--version"):
        code, argv = _entry_argv(path, entry_inputs)
        try:
            returned = main(argv)
        except SystemExit as exc:
            returned = exc.code
        assert returned == code, path
        assert gc.get_freeze_count() == before, path
    capsys.readouterr()


def test_installed_script_is_the_module_entry():
    """``[project.scripts] spdclab`` names the function that ``python -m
    spdclab.cli`` runs, so both ways of starting the CLI end alike."""
    tomllib = pytest.importorskip("tomllib")            # Python 3.11+
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["spdclab"]
    module, _, func = target.partition(":")
    blocks = [node.body for node in ast.parse(inspect.getsource(cli)).body
              if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert module == "spdclab.cli" and callable(getattr(cli, func))
    assert [ast.unparse(stmt) for stmt in blocks[0]] == [f"sys.exit({func}())"]


def _str_format_table(columns: tuple, rows) -> str:
    """A table written row by row with ``str.format``, the reference for ``_csv_text``."""
    line = ",".join(f"{{:{spec}}}" for _, spec in columns) + "\n"
    return ",".join(name for name, _ in columns) + "\n" + "".join(
        line.format(*row) for row in rows)


@pytest.mark.parametrize("columns", [
    numpy_commands.RING_COLUMNS, numpy_commands.CURVE_COLUMNS,
    cli.Z_POPULATION_COLUMNS, cli.MK_COLUMNS,
], ids=["rings", "curve", "z_populations", "mk_expectations"])
def test_tables_write_the_bytes_of_str_format(columns):
    """Every table in use writes the bytes ``str.format`` writes for each row:
    non-finite values, signed zeros, tiny and huge magnitudes, ints in float
    columns and numpy scalars included."""
    floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, -1e-300, 5e-324, 1e300,
              0.5, 2.5, 1.0000005, -123456.7890125, 3, -7, 0, 2**60, True,
              np.float64(0.1), np.float64(-2.5e10), np.float64("nan"), np.float64(-0.0)]
    others = ["fast", "slow", "HHVV", "all_H", "", 0, 17, 2**70, -3, 1.5, math.nan,
              -0.0, 1e-300, np.float64(0.25), np.int64(5)]
    pools = [others if spec == "" else floats for _, spec in columns]
    rows = [tuple(pool[(i + j) % len(pool)] for j, pool in enumerate(pools))
            for i in range(2 * len(floats) * len(others))]
    assert fileio._csv_text(columns, rows) == _str_format_table(columns, rows)
    assert fileio._csv_text(columns, []) == _str_format_table(columns, [])
