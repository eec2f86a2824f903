"""Command-line behavior: exit codes, artifact generation, idempotence, and
the defaults round trip between config parsing and the defaults module."""

import ast
import contextlib
import dataclasses
import inspect
import io
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from microagc import cli, defaults, simcore
from microagc.sysid import DiscreteModel, ExcitationSpec, load_model, save_model
from microagc.watermark import BaselineStats

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

MINIMAL = """\
schema_version = 1

[sim]
horizon_s = 0.5
seed = 11

[grid.1]
n_ibr = 2
n_load = 1
branch = 0 2 3.333
branch = 1 2 3.333
load_w = 5000.0
controller = optimal-z
q_weight = 10.0

[load_signal]
grid = 1
load_index = 0
kind = step
amplitude_w = 800.0
step_time_s = 0.1
"""


@pytest.fixture()
def minimal_cfg(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(MINIMAL)
    return cfg


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    """A detection_demo.cfg workspace after identify, calibrate and simulate."""
    work = tmp_path_factory.mktemp("demo") / "work"
    for command in ("identify", "calibrate", "simulate"):
        assert run([command, "--config", CONFIGS / "detection_demo.cfg", "--out", work,
                    "--quiet"]) == 0
    return work


class TestSimulate:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = run(["simulate", "--config", tmp_path / "nope.cfg", "--out", tmp_path])
        assert rc == cli.EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_artifacts_written_with_consistent_rows(self, minimal_cfg, tmp_path):
        out = tmp_path / "out"
        rc = run(["simulate", "--config", minimal_cfg, "--out", out, "--quiet"])
        assert rc == cli.EXIT_OK
        ts = (out / "timeseries.csv").read_text().splitlines()
        det = (out / "detector.csv").read_text().splitlines()
        assert (out / "summary.txt").exists()
        assert len(ts) == 1 + 100  # header + 0.5 s at 5 ms
        assert len(det) == len(ts)

    def test_fixed_seed_idempotent(self, minimal_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--config", minimal_cfg, "--out", out1,
                    "--seed", 99, "--quiet"]) == cli.EXIT_OK
        assert run(["simulate", "--config", minimal_cfg, "--out", out2,
                    "--seed", 99, "--quiet"]) == cli.EXIT_OK
        for name in ("timeseries.csv", "detector.csv", "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_bad_schema_version(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("schema_version = 9\n[sim]\nhorizon_s = 1.0\n")
        rc = run(["simulate", "--config", cfg, "--out", tmp_path])
        assert rc == cli.EXIT_USAGE

    def test_unknown_controller_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MINIMAL.replace("controller = optimal-z",
                                       "controller = fuzzy"))
        rc = run(["simulate", "--config", cfg, "--out", tmp_path])
        assert rc == cli.EXIT_USAGE

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda text: text[: text.index("[grid.2]")]
                     + text[text.index("[tie]"):], "exactly two grids", id="one-grid"),
        pytest.param(lambda text: text.replace("node_b = 2", "node_b = 7"),
                     "not a node of grid 2", id="node-b-outside"),
    ])
    def test_bad_tie_rejected_before_running(self, tmp_path, capsys, edit, message):
        cfg = tmp_path / "tie.cfg"
        cfg.write_text(edit((CONFIGS / "collaborative.cfg").read_text()))
        out = tmp_path / "out"
        rc = run(["simulate", "--config", cfg, "--out", out])
        assert rc == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (out / "timeseries.csv").exists()


class TestPipeline:
    def test_identify_calibrate_simulate_detect_chain(self, tmp_path):
        """The shipped detection fixture drives the whole chain."""
        work = tmp_path / "work"
        cfg = CONFIGS / "detection_demo.cfg"
        assert run(["identify", "--config", cfg, "--out", work, "--quiet"]) == 0
        assert (work / "model.txt").exists()
        assert (work / "order_report.txt").exists()
        assert (work / "sysid_records.csv").exists()
        assert run(["calibrate", "--config", cfg, "--out", work, "--quiet"]) == 0
        assert (work / "baseline.txt").exists()
        assert run(["simulate", "--config", cfg, "--out", work, "--quiet"]) == 0
        assert run(["detect", "--config", cfg, "--out", work, "--quiet"]) == 0
        telem = (work / "detector_replay.csv").read_text().splitlines()
        assert telem[0] == "t,xi1,xi2,eps1,eps2,flag"
        flags = np.array([int(line.split(",")[-1]) for line in telem[1:]])
        times = np.array([float(line.split(",")[0]) for line in telem[1:]])
        assert flags[times < 2.0].sum() == 0
        flagged = times[(times >= 2.0) & (flags == 1)]
        assert flagged.size and flagged[0] - 2.0 <= 0.05

    def test_identify_reports_eta_table(self, tmp_path):
        work = tmp_path / "w"
        cfg = CONFIGS / "detection_demo.cfg"
        assert run(["identify", "--config", cfg, "--out", work, "--quiet"]) == 0
        report = (work / "order_report.txt").read_text()
        assert "selected order" in report
        assert report.count("eta =") == 10

    def test_identify_from_corrupt_records(self, tmp_path, capsys):
        work = tmp_path / "w"
        work.mkdir()
        (work / "records.csv").write_text("time,u1,y1\n0.0,0.1,5\n0.005,bad,6\n")
        cfg = tmp_path / "id.cfg"
        cfg.write_text(MINIMAL + "\n[identify]\ngrid = 1\nrecords_file = records.csv\n")
        rc = run(["identify", "--config", cfg, "--out", work])
        assert rc == cli.EXIT_USAGE
        assert "line 3" in capsys.readouterr().err

    def test_identify_from_header_only_records(self, tmp_path, capsys):
        work = tmp_path / "w"
        work.mkdir()
        (work / "records.csv").write_text("time,u1,y1\n")
        cfg = tmp_path / "id.cfg"
        cfg.write_text(MINIMAL + "\n[identify]\ngrid = 1\nrecords_file = records.csv\n")
        rc = run(["identify", "--config", cfg, "--out", work])
        assert rc == cli.EXIT_NUMERIC
        assert "record too short: 0 samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command, old, new", [
        ("identify", "record_file = sysid_records.csv", "records_file = absent.csv"),
        ("detect", "trace_file = timeseries.csv", "trace_file = absent.csv"),
    ])
    def test_missing_csv_input_is_an_io_error(self, tmp_path, capsys, demo_run,
                                              command, old, new):
        work = tmp_path / "w"
        shutil.copytree(demo_run, work)
        cfg = tmp_path / "c.cfg"
        cfg.write_text((CONFIGS / "detection_demo.cfg").read_text().replace(old, new))
        rc = run([command, "--config", cfg, "--out", work])
        assert rc == cli.EXIT_IO
        assert "absent.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [
        ("beta = 0", "beta"),
        ("beta = nan", "beta"),
        ("beta = inf", "beta"),
        ("k0 = -5", "k0"),
        ("candidates = 0 -1", "candidates"),
        ("candidates = 4 4 0", "candidates"),
    ])
    def test_identify_rejects_bad_settings_before_running(self, tmp_path, capsys,
                                                          monkeypatch, line, key):
        def no_simulation(*args, **kwargs):
            raise AssertionError("identify simulated before checking its settings")

        monkeypatch.setattr("microagc.casestudy.identification_records", no_simulation)
        text = (CONFIGS / "detection_demo.cfg").read_text()
        old = next(s for s in text.splitlines() if s.startswith(f"{key} = "))
        cfg = tmp_path / "id.cfg"
        cfg.write_text(text.replace(old, line))
        work = tmp_path / "w"
        rc = run(["identify", "--config", cfg, "--out", work])
        assert rc == cli.EXIT_USAGE
        assert f"[identify] {key} must be" in capsys.readouterr().err
        assert not (work / "model.txt").exists()

    @pytest.mark.parametrize("line, key, message", [
        ("window = 0", "window", "must be >= 1, got 0"),
        ("window = -5", "window", "must be >= 1, got -5"),
        ("horizon_s = 0.25", "horizon_s", "must be at least window = 100 control periods"),
        ("margin = nan", "margin", "must be finite and > 0, got nan"),
        ("margin = -1", "margin", "must be finite and > 0, got -1.0"),
        ("margin = 0", "margin", "must be finite and > 0, got 0.0"),
        ("watermark_std = -0.012", "watermark_std", "must be finite and >= 0, got -0.012"),
    ])
    def test_calibrate_rejects_bad_settings_before_running(self, tmp_path, capsys,
                                                           monkeypatch, demo_run, line,
                                                           key, message):
        def no_simulation(*args, **kwargs):
            raise AssertionError("calibrate simulated before checking its settings")

        monkeypatch.setattr(cli, "run_scenario", no_simulation)
        text = (CONFIGS / "detection_demo.cfg").read_text()
        head, calibrate = text.split("[calibrate]")
        old = next(s for s in calibrate.splitlines() if s.startswith(f"{key} = "))
        text = head + "[calibrate]" + calibrate.replace(old, line)
        cfg = tmp_path / "cal.cfg"
        cfg.write_text(text)
        work = tmp_path / "w"
        work.mkdir()
        shutil.copy(demo_run / "model.txt", work)
        assert run(["calibrate", "--config", cfg, "--out", work]) == cli.EXIT_USAGE
        assert (f"{cfg}: line {_line(text, line)}: [calibrate] {key} {message}"
                in capsys.readouterr().err)
        assert not (work / "baseline.txt").exists()

    @pytest.mark.parametrize("edits, at, message", [
        ({"controller = optimal-z": "controller = slow-lqr",
          "control_period_s = 0.005": "control_period_s = 0.04"}, "controller = slow-lqr",
         "[grid.1] controller: slow_hold = 0.1 s is not a whole, non-negative number of "
         "0.04 s steps"),
        ({"integrator_step_s = 0.0005": "integrator_step_s = 0.002"},
         "control_period_s = 0.005", "[sim] control_period_s: control_period = 0.005 s is "
         "not a whole, non-negative number of 0.002 s steps"),
    ], ids=["grid-slow-hold", "sim-timing"])
    def test_calibrate_locates_its_run_rules_in_their_sections(
            self, tmp_path, capsys, monkeypatch, demo_run, edits, at, message):
        """The calibration run takes the grid from [grid.N] and the timing from
        [sim]; a rule of the run they break is reported there, before it runs.
        The model is the demo's at the file's control period, which it must match."""
        def no_simulation(*args, **kwargs):
            raise AssertionError("calibrate simulated before checking its run")

        monkeypatch.setattr(cli, "run_scenario", no_simulation)
        text = (CONFIGS / "detection_demo.cfg").read_text()
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = tmp_path / "cal.cfg"
        cfg.write_text(text)
        work = tmp_path / "w"
        work.mkdir()
        period = float(re.search(r"control_period_s = (\S+)", text)[1])
        save_model(dataclasses.replace(load_model(demo_run / "model.txt"), dt=period),
                   work / "model.txt")
        assert run(["calibrate", "--config", cfg, "--out", work]) == cli.EXIT_USAGE
        assert f"{cfg}: line {_line(text, at)}: {message}" in capsys.readouterr().err
        assert not (work / "baseline.txt").exists()

    @pytest.mark.parametrize("command, section, key, bad", [
        ("identify", "identify", "beta", "abc"),
        ("calibrate", "calibrate", "horizon_s", "ten"),
    ])
    def test_non_numeric_setting_names_file_line_section_and_key(
            self, tmp_path, capsys, monkeypatch, command, section, key, bad):
        def no_simulation(*args, **kwargs):
            raise AssertionError(f"{command} simulated before checking its settings")

        monkeypatch.setattr("microagc.casestudy.identification_records", no_simulation)
        monkeypatch.setattr(cli, "run_scenario", no_simulation)
        lines = (CONFIGS / "detection_demo.cfg").read_text().splitlines()
        start = lines.index(f"[{section}]")
        n = next(i for i in range(start, len(lines)) if lines[i].startswith(f"{key} = "))
        lines[n] = f"{key} = {bad}"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        rc = run([command, "--config", cfg, "--out", tmp_path / "w"])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{cfg}: line {n + 1}: [{section}] {key}: expected a number, got '{bad}'" in err

    def test_calibrate_rerun_identical_thresholds(self, tmp_path):
        w1, w2 = tmp_path / "w1", tmp_path / "w2"
        cfg = CONFIGS / "detection_demo.cfg"
        for w in (w1, w2):
            assert run(["identify", "--config", cfg, "--out", w, "--quiet"]) == 0
            assert run(["calibrate", "--config", cfg, "--out", w, "--quiet"]) == 0
        assert (w1 / "baseline.txt").read_bytes() == (w2 / "baseline.txt").read_bytes()

    def test_calibrate_rejects_zero_horizon(self, tmp_path, capsys):
        work = tmp_path / "w"
        work.mkdir()
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MINIMAL + "\n[calibrate]\ngrid = 1\nmodel_file = m.txt\n"
                       "horizon_s = 0.0\n")
        rc = run(["calibrate", "--config", cfg, "--out", work])
        assert rc == cli.EXIT_USAGE

    def test_detect_on_truncated_trace_notes_warmup(self, tmp_path, capsys):
        work = tmp_path / "work"
        cfg = CONFIGS / "detection_demo.cfg"
        assert run(["identify", "--config", cfg, "--out", work, "--quiet"]) == 0
        assert run(["calibrate", "--config", cfg, "--out", work, "--quiet"]) == 0
        assert run(["simulate", "--config", cfg, "--out", work, "--quiet"]) == 0
        ts = (work / "timeseries.csv").read_text().splitlines()
        (work / "timeseries.csv").write_text("\n".join(ts[:40]) + "\n")
        rc = run(["detect", "--config", cfg, "--out", work])
        assert rc == cli.EXIT_OK
        assert "warm-up" in capsys.readouterr().out

    def test_detect_on_header_only_trace_notes_warmup(self, tmp_path, capsys, demo_run):
        work = tmp_path / "w"
        shutil.copytree(demo_run, work)
        trace = work / "timeseries.csv"
        trace.write_text(trace.read_text().splitlines()[0] + "\n")
        rc = run(["detect", "--config", CONFIGS / "detection_demo.cfg", "--out", work])
        assert rc == cli.EXIT_OK
        assert "warm-up" in capsys.readouterr().out

    @pytest.mark.parametrize("cut", [200, 40])
    def test_detect_on_cut_trace_names_file_and_line(self, tmp_path, capsys, demo_run,
                                                     cut):
        work = tmp_path / "w"
        shutil.copytree(demo_run, work)
        trace = work / "timeseries.csv"
        text = trace.read_bytes()[:-cut].decode()
        trace.write_text(text)
        lines = text.splitlines()
        n_fields = len(lines[-1].split(","))
        assert n_fields < len(lines[0].split(",")) == 29
        rc = run(["detect", "--config", CONFIGS / "detection_demo.cfg", "--out", work])
        assert rc == cli.EXIT_USAGE
        assert (f"{trace}: line {len(lines)}: expected 29 fields, got {n_fields}"
                in capsys.readouterr().err)
        assert len(lines) == 801

    def test_detect_on_trace_cut_inside_last_field_names_file_and_line(
            self, tmp_path, capsys, demo_run):
        """Cutting 4 bytes leaves every field of the last row in place
        (`...,optima` for `...,optimal-z`); only the missing newline shows it."""
        work = tmp_path / "w"
        shutil.copytree(demo_run, work)
        trace = work / "timeseries.csv"
        text = trace.read_bytes()[:-4].decode()
        trace.write_text(text)
        lines = text.splitlines()
        assert len(lines[-1].split(",")) == len(lines[0].split(",")) == 29
        rc = run(["detect", "--config", CONFIGS / "detection_demo.cfg", "--out", work])
        assert rc == cli.EXIT_USAGE
        assert (f"{trace}: line 801: cut short (no newline)"
                in capsys.readouterr().err)


    @pytest.mark.parametrize("command, gid", [
        ("calibrate", 0), ("calibrate", 2), ("detect", 0), ("detect", 2),
    ])
    def test_stage_rejects_grid_out_of_range(self, tmp_path, capsys, command, gid):
        work = tmp_path / "w"
        work.mkdir()
        cfg = tmp_path / "c.cfg"
        trace = "trace_file = timeseries.csv\n" if command == "detect" else ""
        cfg.write_text(MINIMAL + f"\n[{command}]\ngrid = {gid}\nmodel_file = m.txt\n"
                       "baseline_file = b.txt\n" + trace)
        rc = run([command, "--config", cfg, "--out", work])
        assert rc == cli.EXIT_USAGE
        assert f"[{command}] references grid {gid} but it is not defined" in (
            capsys.readouterr().err)


def _set_line(index, text):
    def corrupt(lines):
        return lines[:index] + [text] + lines[index + 1 :]
    return corrupt


class TestCorruptDetectorFiles:
    """A model or baseline file that does not parse fails with exit 1 and a
    message naming the file and the line or block at fault."""

    CONFIG = MINIMAL.replace(
        "q_weight = 10.0\n",
        "q_weight = 10.0\nmodel_file = model.txt\nbaseline_file = baseline.txt\n",
    ) + ("\n[detect]\ngrid = 1\nmodel_file = model.txt\n"
         "baseline_file = baseline.txt\ntrace_file = timeseries.csv\n")

    @pytest.mark.parametrize("command", ["detect", "simulate"])
    @pytest.mark.parametrize("name, corrupt, expected", [
        pytest.param("baseline.txt", lambda lines: lines[:3], "missing [mu] block",
                     id="truncated-baseline"),
        pytest.param("baseline.txt", _set_line(1, "eps1 = x"), "line 2",
                     id="bad-threshold"),
        pytest.param("baseline.txt", _set_line(7, "0.0 1.0 7.0"),
                     "[sigma] block needs 2 x 2 values, got 5", id="oversized-sigma"),
        pytest.param("model.txt", _set_line(6, "0.5 x"), "line 7", id="bad-number"),
        pytest.param("model.txt", lambda lines: lines[:-1],
                     "[c] block needs 2 x 2 values, got 2", id="short-block"),
        pytest.param("model.txt", lambda lines: lines[1:],
                     "missing header key 'order'", id="missing-order"),
        pytest.param("baseline.txt", _set_line(0, "window = 0"),
                     "line 1: window must be >= 1, got 0", id="zero-window"),
        pytest.param("baseline.txt", _set_line(0, "window = -5"),
                     "line 1: window must be >= 1, got -5", id="negative-window"),
        pytest.param("baseline.txt", _set_line(0, "window = 100.7"),
                     "line 1: window: expected an integer, got '100.7'", id="real-window"),
        pytest.param("baseline.txt", _set_line(1, "eps1 = nan"),
                     "line 2: eps1 must be > 0, got nan", id="nan-eps1"),
        pytest.param("baseline.txt", _set_line(2, "eps2 = nan"),
                     "line 3: eps2 must be > 0, got nan", id="nan-eps2"),
        pytest.param("baseline.txt", _set_line(2, "eps2 = 0"),
                     "line 3: eps2 must be > 0, got 0.0", id="zero-eps2"),
        pytest.param("baseline.txt", lambda lines: lines[:1] + lines,
                     "line 2: window: repeated key", id="repeated-window"),
        pytest.param("baseline.txt", lambda lines: lines + lines[3:5],
                     "line 9: block [mu] appears twice", id="repeated-mu"),
        pytest.param("baseline.txt", lambda lines: ["margin = 2.0"] + lines,
                     "line 1: margin: unknown key", id="unknown-key"),
        pytest.param("baseline.txt", _set_line(6, "nan 0.0"),
                     "line 7: [sigma] must be finite, got nan", id="nan-sigma"),
        pytest.param("baseline.txt", _set_line(6, "1.0 2.5"),
                     "baseline covariance must be symmetric", id="asymmetric-sigma"),
        pytest.param("model.txt", _set_line(0, "order = 4.9"),
                     "line 1: order: expected an integer, got '4.9'", id="real-order"),
        pytest.param("model.txt", _set_line(1, "effective_order = -3"),
                     "line 2: effective_order must be >= 0, got -3",
                     id="negative-effective-order"),
        pytest.param("model.txt", _set_line(2, "dt = nan"),
                     "line 3: dt must be finite, got nan", id="nan-dt"),
        pytest.param("model.txt", _set_line(3, "n_inputs = 3.5"),
                     "line 4: n_inputs: expected an integer, got '3.5'", id="real-n-inputs"),
        pytest.param("model.txt", _set_line(4, "n_outputs = 0"),
                     "line 5: n_outputs must be >= 1, got 0", id="zero-n-outputs"),
    ])
    def test_reports_file_and_place(self, tmp_path, capsys, command, name, corrupt,
                                    expected):
        work = tmp_path / "w"
        work.mkdir()
        model = DiscreteModel(a_d=0.5 * np.eye(2), b_d=np.eye(2), c_d=np.eye(2),
                              dt=0.005, order=2)
        save_model(model, work / "model.txt")
        cli.save_baseline(BaselineStats(mu_star=np.zeros(2), sigma_star=np.eye(2), w=4,
                                        eps1=1.0, eps2=1.0), work / "baseline.txt")
        path = work / name
        path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
        cfg = tmp_path / "d.cfg"
        cfg.write_text(self.CONFIG)
        rc = run([command, "--config", cfg, "--out", work])
        assert rc == cli.EXIT_USAGE
        assert f"error: {path}: {expected}" in capsys.readouterr().err


class TestDetectorFilesFitTheGrid:
    """A model or baseline whose channel count does not fit its grid or its
    model exits 1 at its model_file or baseline_file line, before anything
    runs."""

    CONFIG = TestCorruptDetectorFiles.CONFIG + (
        "\n[calibrate]\ngrid = 1\nmodel_file = model.txt\n")

    @pytest.mark.parametrize("command, section, key, model_n, baseline_n, message", [
        ("simulate", "[grid.1]", "model_file", 3, 2,
         "the model has 3 inputs and 3 outputs, the grid 2 IBRs"),
        ("simulate", "[grid.1]", "baseline_file", 2, 3,
         "the baseline has 3 channels, the model 2 outputs"),
        ("calibrate", "[calibrate]", "model_file", 3, 2,
         "the model has 3 inputs and 3 outputs, the grid 2 IBRs"),
        ("detect", "[detect]", "baseline_file", 2, 3,
         "the baseline has 3 channels, the model 2 outputs"),
        ("detect", "[detect]", "model_file", 1, 1,
         "the model has 1 inputs and 1 outputs, the grid 2 IBRs"),
    ], ids=["simulate-model", "simulate-baseline", "calibrate-model", "detect-baseline",
            "detect-model"])
    def test_mismatch_names_its_line(self, tmp_path, capsys, command, section, key,
                                     model_n, baseline_n, message):
        work = tmp_path / "w"
        work.mkdir()
        eye = np.eye(model_n)
        save_model(DiscreteModel(a_d=0.5 * eye, b_d=eye, c_d=eye, dt=0.005, order=model_n),
                   work / "model.txt")
        cli.save_baseline(BaselineStats(mu_star=np.zeros(baseline_n),
                                        sigma_star=np.eye(baseline_n), w=4),
                          work / "baseline.txt")
        cfg = tmp_path / "d.cfg"
        cfg.write_text(self.CONFIG)
        lines = self.CONFIG.splitlines()
        start = lines.index(section)
        line = next(i for i in range(start, len(lines)) if lines[i].startswith(key)) + 1
        assert run([command, "--config", cfg, "--out", work]) == cli.EXIT_USAGE
        assert (f"error: {cfg}: line {line}: {section} {key}: {message}"
                in capsys.readouterr().err)
        assert sorted(p.name for p in work.iterdir()) == ["baseline.txt", "model.txt"]

    @pytest.mark.parametrize("command, section", [
        ("simulate", "[grid.1]"), ("calibrate", "[calibrate]"), ("detect", "[detect]")])
    @pytest.mark.parametrize("dt", [0.01, 0.005 * (1 + 2e-9)])
    def test_model_at_another_period_names_its_line(self, tmp_path, capsys, command,
                                                    section, dt):
        """A model identified at another sample time than the run's 5 ms
        control period exits 1 at its model_file line, before anything runs,
        whether it is 10 ms (identified at control_period_s = 0.01) or off by
        more than 1e-9 relative."""
        work = tmp_path / "w"
        work.mkdir()
        save_model(DiscreteModel(a_d=0.5 * np.eye(2), b_d=np.eye(2), c_d=np.eye(2),
                                 dt=dt, order=2), work / "model.txt")
        cli.save_baseline(BaselineStats(mu_star=np.zeros(2), sigma_star=np.eye(2), w=4),
                          work / "baseline.txt")
        cfg = tmp_path / "d.cfg"
        cfg.write_text(self.CONFIG)
        lines = self.CONFIG.splitlines()
        start = lines.index(section)
        line = next(i for i in range(start, len(lines)) if lines[i].startswith("model_file"))
        assert run([command, "--config", cfg, "--out", work]) == cli.EXIT_USAGE
        assert (f"error: {cfg}: line {line + 1}: {section} model_file: the model's "
                f"dt = {dt:.6g} s is not the control period 0.005 s"
                in capsys.readouterr().err)
        assert sorted(p.name for p in work.iterdir()) == ["baseline.txt", "model.txt"]

    def test_model_within_rounding_of_the_period_runs(self, tmp_path):
        """The period check has whole_steps's 1e-9 relative tolerance."""
        work = tmp_path / "w"
        work.mkdir()
        save_model(DiscreteModel(a_d=0.5 * np.eye(2), b_d=np.eye(2), c_d=np.eye(2),
                                 dt=0.005 * (1 + 1e-12), order=2), work / "model.txt")
        cli.save_baseline(BaselineStats(mu_star=np.zeros(2), sigma_star=np.eye(2), w=4),
                          work / "baseline.txt")
        cfg = tmp_path / "d.cfg"
        cfg.write_text(self.CONFIG)
        assert run(["simulate", "--config", cfg, "--out", work, "--quiet"]) == cli.EXIT_OK

    @pytest.mark.parametrize("command, section", [
        ("simulate", "[grid.1]"), ("calibrate", "[calibrate]"), ("detect", "[detect]")])
    @pytest.mark.parametrize("radius", [1.02, 1.0 + 2e-9])
    def test_unstable_model_names_its_line(self, tmp_path, capsys, command, section, radius):
        """A model whose [a] block has spectral radius >= 1 + 1e-9 exits 1 at
        its model_file line, before anything runs: the detector would read
        its growing free response as an attack."""
        work = tmp_path / "w"
        work.mkdir()
        save_model(DiscreteModel(a_d=np.diag([0.5, radius]), b_d=np.eye(2), c_d=np.eye(2),
                                 dt=0.005, order=2), work / "model.txt")
        cli.save_baseline(BaselineStats(mu_star=np.zeros(2), sigma_star=np.eye(2), w=4),
                          work / "baseline.txt")
        cfg = tmp_path / "d.cfg"
        cfg.write_text(self.CONFIG)
        lines = self.CONFIG.splitlines()
        start = lines.index(section)
        line = next(i for i in range(start, len(lines)) if lines[i].startswith("model_file"))
        assert run([command, "--config", cfg, "--out", work]) == cli.EXIT_USAGE
        assert (f"error: {cfg}: line {line + 1}: {section} model_file: the model's [a] "
                f"block is unstable (spectral radius {radius:.6g})"
                in capsys.readouterr().err)
        assert sorted(p.name for p in work.iterdir()) == ["baseline.txt", "model.txt"]


class TestDefaultsRoundTrip:
    def test_config_defaults_match_defaults_module(self, minimal_cfg):
        sections = cli.parse_config(minimal_cfg)
        sc = cli.build_scenario(sections, minimal_cfg.parent)
        assert sc.control_period == defaults.CONTROL_PERIOD
        assert sc.integrator_step == defaults.INTEGRATOR_STEP
        grid = sc.grids[0]
        assert grid.ibrs[0].omega_c == defaults.OMEGA_C
        assert grid.ibrs[0].m_p == defaults.M_P
        assert np.all(grid.network.v_star == defaults.V_STAR)
        r = grid.weights.r
        assert np.all(r == defaults.LQR_R_DIAG)

    def test_excitation_defaults_round_trip(self, tmp_path):
        cfg = tmp_path / "id.cfg"
        cfg.write_text(MINIMAL + "\n[identify]\ngrid = 1\n")
        sections = cli.parse_config(cfg)
        spec = cli._first_section(sections, "identify").build(ExcitationSpec)
        assert spec.beta == defaults.SYSID_BETA
        assert spec.k0 == defaults.SYSID_K0
        assert spec.dt == defaults.CONTROL_PERIOD
        assert spec.dt_prime == defaults.SYSID_DT_PRIME


def _line(text, line):
    """The number of the first line of text that reads line."""
    return text.splitlines().index(line) + 1


def _rejects(tmp_path, capsys, text, expected, command="simulate"):
    """command on a config of text exits 1 naming `file: expected`, and leaves
    no output directory behind."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == cli.EXIT_USAGE
    assert f"{cfg}: {expected}" in capsys.readouterr().err
    assert not out.exists()


def test_steady_state_of_a_horizon_without_a_tail_instant(tmp_path):
    """At horizon_s = 0.48 and control_period_s = 0.04 the last control instant,
    0.44 s, precedes 0.95 horizon: the steady-state value is |domega| there,
    not the nan of an empty window."""
    text = (CONFIGS / "regulation_pulses.cfg").read_text().replace(
        "horizon_s = 10.0", "horizon_s = 0.48").replace(
        "control_period_s = 0.005", "control_period_s = 0.04")
    cfg, out = tmp_path / "c.cfg", tmp_path / "out"
    cfg.write_text(text)
    assert run(["simulate", "--config", cfg, "--out", out, "--quiet"]) == cli.EXIT_OK
    steady = re.findall(r"steady_abs_domega_rad_s = (\S+)",
                        (out / "summary.txt").read_text())
    _, data = cli.read_table(out / "timeseries.csv",
                             ["t"] + [f"mg1_domega_{i}" for i in (1, 2, 3)])
    assert data[-1, 0] == pytest.approx(0.44)
    assert steady == [f"{abs(v):.6g}" for v in data[-1, 1:]]
    assert all(math.isfinite(float(v)) for v in steady)


def test_run_log_names_round_trip_through_the_csv(tmp_path):
    """The case-study two-grid run written by to_csv has the header
    ["t", *ts.columns], and _load_trace reads grid 2's commands, watermarks and
    received powers back from it to the file's 9 significant digits."""
    from microagc import casestudy as cs

    step = simcore.LoadSignalSpec(kind="step", amplitude=900.0, load_index=0, step_time=0.1)
    sc = simcore.Scenario(grids=(cs.grid1_spec(load_signals=[cs.pulse_load_signal()]),
                                 cs.grid2_spec(load_signals=[step])),
                          tie=cs.default_tie(), horizon=0.5, seed=3)
    ts = simcore.run_scenario(sc)
    path = tmp_path / "timeseries.csv"
    ts.to_csv(path)
    assert cli.read_table(path, [])[0] == ["t", *ts.columns]
    t, *rows = cli._load_trace(path, 1, 2)
    nine = np.vectorize(lambda v: float(f"{v:.9g}"))
    assert np.array_equal(t, nine(ts.time))
    for got, name in zip(rows, ("dws", "wm", "pg_rx")):
        assert got.shape == ts.grids[1][name].shape and np.any(got) == (name != "wm")
        assert np.array_equal(got, nine(ts.grids[1][name])), name


def test_rejected_simulate_removes_the_directories_it_made(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL.replace("controller = optimal-z", "controller = fuzzy"))
    (tmp_path / "kept").mkdir()
    for out in (tmp_path / "a" / "b" / "c", tmp_path / "kept" / "d"):
        assert run(["simulate", "--config", cfg, "--out", out]) == cli.EXIT_USAGE
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "kept"]
    assert list((tmp_path / "kept").iterdir()) == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_diverged_simulate_exits_2_and_removes_the_directories_it_made(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text((CONFIGS / "regulation_pulses.cfg").read_text().replace(
        "amplitude_w = 1904.4", "amplitude_w = 1e308"))
    out = tmp_path / "o" / "deeper"
    assert run(["simulate", "--config", cfg, "--out", out]) == cli.EXIT_NUMERIC
    assert re.search(r"^error: the run diverged at t=\d+\.\d{4}s: mg1_\w+_\d = (nan|-?inf)$",
                     capsys.readouterr().err, re.M)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_diverged_detector_statistics_exit_2(tmp_path, capsys, monkeypatch, demo_run):
    """With a stable model whose first [c] entry (of the chain's model.txt) is
    set to 1e300, simulate exits 2 at the first step and column whose value is
    not finite, a detector statistic here, and writes nothing; detect's replay
    of the nominal trace through that model exits 2 at the same step and
    statistic. The run with the check off is the oracle."""
    cfg = CONFIGS / "detection_demo.cfg"
    work = tmp_path / "w"
    shutil.copytree(demo_run, work)
    lines = (work / "model.txt").read_text().splitlines()
    row = lines.index("[c]") + 1
    lines[row] = " ".join(["1e300"] + lines[row].split()[1:])
    (work / "model.txt").write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    out.mkdir()
    for name in ("model.txt", "baseline.txt"):
        shutil.copy(work / name, out / name)

    assert run(["simulate", "--config", cfg, "--out", out, "--quiet"]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["baseline.txt", "model.txt"]
    monkeypatch.setattr(simcore, "check_finite", lambda *args: None)
    ts = simcore.run_scenario(cli.build_scenario(cli.parse_config(cfg), out))
    names = [f"mg1_{name}_{i + 1}" for name, per_ibr, _ in simcore._LOG if per_ibr
             for i in range(3)] + ["mg1_xi1", "mg1_xi2"]
    bad = np.column_stack([~np.isfinite(ts.columns[c]) for c in names])
    k = np.flatnonzero(bad.any(axis=1))[0]
    col = names[np.flatnonzero(bad[k])[0]]
    value = ts.columns[col][k]
    assert col in ("mg1_xi1", "mg1_xi2")
    assert f"error: the run diverged at t={ts.time[k]:.4f}s: {col} = {value}\n" in err

    assert run(["detect", "--config", cfg, "--out", work, "--quiet"]) == cli.EXIT_NUMERIC
    assert (f"error: the replay diverged at t={ts.time[k]:.4f}s: {col[4:]} = {value}\n"
            in capsys.readouterr().err)
    assert not (work / "detector_replay.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_diverged_linear_run_exits_2_as_the_stepped_run(tmp_path, capsys, monkeypatch):
    """A 1.7e308 W load step on an optimal-z grid, a run the closed-loop recursion
    would take, drives its commands out of range: simulate exits 2 with the
    stepped loop's message, naming the same step and column, and writes nothing."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL.replace("amplitude_w = 800.0", "amplitude_w = 1.7e308"))
    errors = []
    for linear in (simcore._run_linear, lambda world, loads: False):
        monkeypatch.setattr(simcore, "_run_linear", linear)
        out = tmp_path / f"o{len(errors)}"
        assert run(["simulate", "--config", cfg, "--out", out, "--quiet"]) == cli.EXIT_NUMERIC
        assert not out.exists()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "error: the run diverged at t=0.3900s: mg1_pg_1 = -inf\n" in errors[0]


def _simulate_with_threads(tmp_path, config: Path, threads: str) -> Path:
    """The output directory of simulate on config run with `threads` OpenBLAS threads."""
    out = tmp_path / threads
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", "import sys; from microagc.cli import main; "
                    "sys.exit(main())", "simulate", "--config", str(config), "--out", str(out),
                    "--quiet"], env=env, check=True)
    return out


def test_simulate_does_not_depend_on_the_blas_thread_count(tmp_path):
    """simulate on regulation_pulses.cfg, a closed-loop recursion, writes the
    same timeseries.csv, byte for byte, with one OpenBLAS thread and with two."""
    written = [(_simulate_with_threads(tmp_path, CONFIGS / "regulation_pulses.cfg", threads)
                / "timeseries.csv").read_bytes() for threads in ("1", "2")]
    assert written[0] == written[1]


def test_identify_does_not_depend_on_the_blas_thread_count(tmp_path):
    """identify on detection_demo.cfg writes the same order_report.txt and
    model.txt, byte for byte, with one OpenBLAS thread and with two."""
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        subprocess.run([sys.executable, "-c", "import sys; from microagc.cli import main; "
                        "sys.exit(main())", "identify", "--config",
                        str(CONFIGS / "detection_demo.cfg"), "--out", str(out), "--quiet"],
                       env=env, check=True)
        written.append([(out / name).read_bytes() for name in ("order_report.txt", "model.txt")])
    assert written[0] == written[1]


def test_identify_samples_at_the_control_period(tmp_path, capsys):
    """identify excites and samples the grid at [sim] control_period_s: at 10 ms
    its model has dt = 0.01, which a 5 ms simulate rejects at its model_file line."""
    demo = (CONFIGS / "detection_demo.cfg").read_text()
    slow = tmp_path / "slow.cfg"
    slow.write_text(demo.replace("control_period_s = 0.005", "control_period_s = 0.01")
                    .replace("k0 = 4000", "k0 = 400")
                    .replace("candidates = 1 2 3 4 5 6 7 8 9 10", "candidates = 2"))
    work = tmp_path / "w"
    assert run(["identify", "--config", slow, "--out", work, "--quiet"]) == cli.EXIT_OK
    assert load_model(work / "model.txt").dt == 0.01
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(demo)
    assert run(["simulate", "--config", cfg, "--out", work]) == cli.EXIT_USAGE
    assert (f"{cfg}: line {_line(demo, 'model_file = model.txt')}: [grid.1] model_file: "
            "the model's dt = 0.01 s is not the control period 0.005 s"
            in capsys.readouterr().err)


def test_rejected_identify_removes_the_directories_it_made(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text((CONFIGS / "detection_demo.cfg").read_text().replace(
        "load_w = 6348.0 7935.0", "load_w = 6348.0e6 7935.0e6"))
    out = tmp_path / "o" / "deeper"
    assert run(["identify", "--config", cfg, "--out", out]) == cli.EXIT_NUMERIC
    assert "error: operating point did not converge" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


@pytest.mark.parametrize("command", cli.CONFIG_COMMANDS)
def test_command_missing_an_input_removes_the_directories_it_made(tmp_path, capsys,
                                                                  command):
    """Each config command exits 3 on an input file its --out does not hold (the
    model, or identify's records_file) and leaves no directory it made."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text((CONFIGS / "detection_demo.cfg").read_text().replace(
        "[identify]\n", "[identify]\nrecords_file = records.csv\n"))
    (tmp_path / "kept").mkdir()
    for out in (tmp_path / "a" / "b", tmp_path / "kept" / "c"):
        assert run([command, "--config", cfg, "--out", out]) == cli.EXIT_IO
        assert "error: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "kept"]
    assert list((tmp_path / "kept").iterdir()) == []


@pytest.mark.parametrize("command, seed_line", [
    ("simulate", "seed = 77"), ("identify", "seed = 17")])
def test_seed_option_writes_what_the_config_seed_writes(tmp_path, demo_run, command,
                                                        seed_line):
    """--seed 3 writes byte for byte what the config with its [sim] (simulate)
    or [identify] (identify) seed set to 3 writes, and not what the unseeded
    config writes."""
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text((CONFIGS / "detection_demo.cfg").read_text().replace(seed_line,
                                                                        "seed = 3"))
    outputs = []
    for name, argv in (("option", [CONFIGS / "detection_demo.cfg", "--seed", 3]),
                       ("config", [cfg])):
        work = tmp_path / name
        shutil.copytree(demo_run, work)
        assert run([command, "--config", *argv, "--out", work, "--quiet"]) == cli.EXIT_OK
        outputs.append({p.name: p.read_bytes() for p in work.iterdir()})
    assert outputs[0] == outputs[1]
    assert outputs[0] != {p.name: p.read_bytes() for p in demo_run.iterdir()}


class TestDomains:
    """A value outside its key's domain in cli.SECTIONS exits 1 at the key's
    own line, before anything runs or is written."""

    DEMO = (CONFIGS / "detection_demo.cfg").read_text()
    ATTACK = "\n[attack]\nkind = noise-injection\nstart_s = 0.2\nend_s = 0.3\n"

    @pytest.mark.parametrize("text, old, new, message, command", [
        (MINIMAL, "amplitude_w = 800.0", "amplitude_w = nan",
         "[load_signal] amplitude_w must be finite, got nan", "simulate"),
        (MINIMAL, "step_time_s = 0.1", "step_time_s = 0.1\nwidth_s = -0.1",
         "[load_signal] width_s must be finite and > 0, got -0.1", "simulate"),
        (MINIMAL, "branch = 0 2 3.333", "branch = 0 2 -3",
         "[grid.1] branch: expected 'from to admittance [theta]', admittance > 0",
         "simulate"),
        (MINIMAL, "branch = 0 2 3.333", "branch = 0 2 nan",
         "[grid.1] branch must be finite, got nan", "simulate"),
        (MINIMAL, "q_weight = 10.0", "q_weight = 10.0\nomega_c = nan",
         "[grid.1] omega_c must be finite and > 0, got nan", "simulate"),
        (MINIMAL, "q_weight = 10.0", "q_weight = 10.0\nm_p = nan",
         "[grid.1] m_p must be finite and > 0, got nan", "simulate"),
        (MINIMAL, "q_weight = 10.0", "q_weight = nan",
         "[grid.1] q_weight must be finite and > 0, got nan", "simulate"),
        (MINIMAL, "q_weight = 10.0", "q_weight = 10.0\nr_weight = nan",
         "[grid.1] r_weight must be finite and > 0, got nan", "simulate"),
        (MINIMAL, "q_weight = 10.0", "q_weight = 10.0\nv_star = nan",
         "[grid.1] v_star must be finite and > 0, got nan", "simulate"),
        (MINIMAL, "load_w = 5000.0", "load_w = nan",
         "[grid.1] load_w must be finite, got nan", "simulate"),
        (MINIMAL + ATTACK, "seed = 11", "seed = -3",
         "[sim] seed must be >= 0, got -3", "simulate"),
        (DEMO, "seed = 17", "seed = -1",
         "[identify] seed must be >= 0, got -1", "identify"),
        (DEMO, "dt_prime_s = 0.05", "dt_prime_s = nan",
         "[identify] dt_prime_s must be finite and > 0, got nan", "identify"),
        (MINIMAL, "schema_version = 1", "schema_version = 9",
         "[] schema_version must be 1, got 9", "simulate"),
    ], ids=["amplitude_w", "width_s", "branch-admittance",
            "branch-nan", "omega_c", "m_p", "q_weight", "r_weight", "v_star", "load_w",
            "sim-seed", "identify-seed", "dt_prime_s", "schema_version"])
    def test_value_outside_its_domain(self, tmp_path, capsys, text, old, new, message,
                                      command):
        text = text.replace(old, new, 1)
        line = new.splitlines()[-1]
        _rejects(tmp_path, capsys, text, f"line {_line(text, line)}: {message}", command)

    @pytest.mark.parametrize("section, line", [
        ("[grid.1]", "u_max = 0.5"), ("[grid.1]", "pi_kp = 0.3"), ("[grid.1]", "pi_ki = 3.0"),
        ("[grid.1]", "sensor_tau_s = 0.05"), ("[grid.1]", "slow_hold_s = 0.2"),
        ("[identify]", "dt_s = 0.01")],
        ids=["u_max", "pi_kp", "pi_ki", "sensor_tau_s", "slow_hold_s", "identify-dt_s"])
    def test_loop_constants_are_no_keys(self, tmp_path, capsys, section, line):
        """The PI gains, the sensor lag, the slow-lqr hold and the command limit
        are fixed, and identify samples at [sim] control_period_s."""
        text = self.DEMO.replace(f"\n{section}\n", f"\n{section}\n{line}\n")
        command = "identify" if section == "[identify]" else "simulate"
        _rejects(tmp_path, capsys, text, f"line {_line(text, line)}: {section} "
                 f"{line.split(' = ')[0]}: unknown key", command)

    def test_missing_schema_version_names_line_one(self, tmp_path, capsys):
        _rejects(tmp_path, capsys, MINIMAL.replace("schema_version = 1\n", ""),
                 "line 1: [] schema_version: missing required key")


def _exits_cleanly(argv, usage: str) -> int:
    """argv's exit code, once it is shown to keep the fuzzers' contract: main
    raises nothing, and it exits 0, for simulate with every value in
    summary.txt finite, or 1 with an error matching the regex usage, or 2 with
    an error line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = run(argv)
    if rc == cli.EXIT_USAGE:
        assert re.search(usage, err.getvalue(), re.M), err.getvalue()
    elif rc == cli.EXIT_OK and argv[0] == "simulate":
        values = re.findall(r"= (\S+)", (Path(argv[argv.index("--out") + 1]) / "summary.txt").read_text())
        assert all(math.isfinite(float(v)) for v in values if v != "none"), values
    elif rc != cli.EXIT_OK:
        assert rc == cli.EXIT_NUMERIC, err.getvalue()
        assert re.search("^error: ", err.getvalue(), re.M)
    return rc


@st.composite
def _mutant(draw, text: str) -> str:
    """text with one mutation: a key line dropped, a line repeated, a value set
    to nan, inf, -1, 0, 1e308 or text, or a section header renamed."""
    lines = text.splitlines()
    keys = [i for i, line in enumerate(lines) if "=" in line.split("#")[0]]
    headers = [i for i, line in enumerate(lines) if line.startswith("[")]
    kind = draw(st.sampled_from(["drop", "repeat", "value", "header"]))
    i = draw(st.sampled_from({"header": headers, "repeat": keys + headers}.get(kind, keys)))
    if kind == "drop":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    elif kind == "value":
        value = draw(st.sampled_from(["nan", "inf", "-1", "0", "1e308", "abc"]))
        lines[i] = f"{lines[i].split('=')[0].strip()} = {value}"
    else:
        lines[i] = "[{}]".format(draw(st.sampled_from(
            ["sim", "grid.1", "grid.2", "grid.3", "load_signal", "attack", "event", "tie",
             "identify", "calibrate", "detect", "bogus"])))
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow of the 1e308 mutants
@pytest.mark.parametrize("name, command, examples", [
    ("regulation_pulses.cfg", "simulate", 60),
    ("collaborative.cfg", "simulate", 60),
    ("detection_demo.cfg", "identify", 30),
])
def test_mutated_config_exits_cleanly(name, command, examples):
    """A mutant of a shipped config raises nothing out of main: it exits 0,
    for simulate with every value in summary.txt finite, or 1 naming
    `file: line N` with no --out directory left behind, or 2 with an error
    line."""

    text = (CONFIGS / name).read_text()

    @settings(max_examples=examples, derandomize=True, deadline=None, database=None)
    @given(text=_mutant(text))
    @example(text=re.sub(r"amplitude_w = \S+", "amplitude_w = 1e308", text))  # diverges
    def check(text):
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "c.cfg", Path(tmp) / "o" / "out"
            cfg.write_text(text)
            rc = _exits_cleanly([command, "--config", cfg, "--out", out, "--quiet"],
                                rf"^error: {re.escape(str(cfg))}: line \d+: ")
            assert rc != cli.EXIT_USAGE or not out.parent.exists()

    check()


@st.composite
def _block_mutant(draw, text: str) -> str:
    """A model or baseline file's text with one mutation: a line dropped or
    repeated, or a header value or one number of a block row set to nan, inf,
    -1, 0, 2.5, 1e308 or text."""
    lines = text.splitlines()
    kind = draw(st.sampled_from(["drop", "repeat", "value"]))
    values = [i for i, line in enumerate(lines) if not line.startswith("[")]
    i = draw(st.sampled_from(values if kind == "value" else range(len(lines))))
    if kind == "drop":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    else:
        value = draw(st.sampled_from(["nan", "inf", "-1", "0", "2.5", "1e308", "abc"]))
        if "=" in lines[i]:
            lines[i] = f"{lines[i].split('=')[0].strip()} = {value}"
        else:
            cells = lines[i].split()
            cells[draw(st.integers(0, len(cells) - 1))] = value
            lines[i] = " ".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow of the 1e308 mutants
def test_mutated_detector_files_exit_cleanly(demo_run):
    """simulate and then detect, on the detection_demo.cfg chain with a mutant
    of its model.txt or baseline.txt, keep the fuzzers' contract
    (_exits_cleanly), an exit 1 naming the mutated file, or, for a model that
    reads but is unstable, its model_file line."""
    files = {name: (demo_run / name).read_text() for name in ("baseline.txt", "model.txt")}
    mutants = st.sampled_from(sorted(files)).flatmap(
        lambda name: _block_mutant(files[name]).map(lambda text: (name, text)))
    baseline = files["baseline.txt"]
    cfg = CONFIGS / "detection_demo.cfg"

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(mutant=mutants)
    @example(mutant=("baseline.txt", re.sub(r"window = \S+", "window = 0", baseline)))
    @example(mutant=("baseline.txt", re.sub(r"eps1 = \S+", "eps1 = nan", baseline)))
    def check(mutant):
        name, text = mutant
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            for kept in ("model.txt", "baseline.txt", "timeseries.csv"):
                shutil.copy(demo_run / kept, out / kept)
            (out / name).write_text(text)
            usage = rf"^error: {re.escape(str(out / name))}: "
            if name == "model.txt":
                usage += (rf"|^error: {re.escape(str(cfg))}: line \d+: \[(grid\.1|detect)\] "
                          r"model_file: the model's (\[a\] block is unstable|dt = \S+ s "
                          r"is not the control period)")
            for command in ("simulate", "detect"):
                _exits_cleanly([command, "--config", cfg, "--out", out, "--quiet"], usage)

    check()


class TestScenarioFileRejections:
    """A scenario file that does not parse exits 1 before anything runs or is
    written, with a message naming the file and the line."""

    @pytest.mark.parametrize("command", ["simulate", "identify", "calibrate", "detect"])
    def test_unknown_key(self, tmp_path, capsys, command):
        text = MINIMAL.replace("seed = 11\n", "seed = 11\nhorizon = 2.0\n")
        n = _line(text, "horizon = 2.0")
        _rejects(tmp_path, capsys, text, f"line {n}: [sim] horizon: unknown key", command)

    @pytest.mark.parametrize("header", ["[simulation]", "[event.1]", "[]"])
    def test_unknown_section(self, tmp_path, capsys, header):
        text = MINIMAL + f"\n{header}\nhorizon_s = 1.0\n"
        _rejects(tmp_path, capsys, text,
                 f"line {_line(text, header)}: unknown section {header}")

    def test_repeated_scalar_key(self, tmp_path, capsys):
        text = MINIMAL.replace("q_weight = 10.0\n", "q_weight = 10.0\nq_weight = 5.0\n")
        first = _line(text, "q_weight = 10.0")
        _rejects(tmp_path, capsys, text, f"line {first + 1}: [grid.1] q_weight: "
                 f"repeated key (first at line {first})")

    def test_repeated_section(self, tmp_path, capsys):
        text = MINIMAL + "\n[sim]\nseed = 3\n"
        n = len(MINIMAL.splitlines()) + 2
        _rejects(tmp_path, capsys, text, f"line {n}: section [sim] appears twice")

    @pytest.mark.parametrize("line, key, header", [
        ("horizon_s = 0.5", "horizon_s", "[sim]"),
        ("n_load = 1", "n_load", "[grid.1]"),
        ("kind = step", "kind", "[load_signal]"),
    ])
    def test_missing_key_names_the_header_line(self, tmp_path, capsys, line, key, header):
        text = MINIMAL.replace(line + "\n", "")
        _rejects(tmp_path, capsys, text,
                 f"line {_line(text, header)}: {header} {key}: missing required key")

    @pytest.mark.parametrize("old, new, message", [
        ("load_w = 5000.0", "load_w = 5000.0 100.0", "load_w: 2 loads for 1 load nodes"),
        ("q_weight = 10.0", "q_weight = 10.0 1 1", "q_weight: needs 1 or 2 values, got 3"),
        ("branch = 1 2 3.333", "branch = 1 2",
         "branch: expected 'from to admittance [theta]'"),
        ("seed = 11", "seed = 11.5", "seed: expected an integer, got '11.5'"),
        ("branch = 0 2 3.333", "branch = 0.7 2 3.333",
         "branch: endpoints must be integers >= 0, got 0.7 2"),
        ("branch = 1 2 3.333", "branch = 1 -2 3.333",
         "branch: endpoints must be integers >= 0, got 1 -2"),
        ("n_ibr = 2", "n_ibr = 0", "n_ibr must be >= 1, got 0"),
        ("n_load = 1", "n_load = -1", "n_load must be >= 0, got -1"),
    ])
    def test_bad_value_names_its_line(self, tmp_path, capsys, old, new, message):
        text = MINIMAL.replace(old, new)
        section = "[sim]" if old.startswith("seed") else "[grid.1]"
        _rejects(tmp_path, capsys, text, f"line {_line(text, new)}: {section} {message}")

    @pytest.mark.parametrize("value", ["-0.5", "nan", "inf"])
    def test_watermark_std_is_finite_and_non_negative(self, tmp_path, capsys, value):
        line = f"watermark_std = {value}"
        text = MINIMAL.replace("q_weight = 10.0\n", f"q_weight = 10.0\n{line}\n")
        _rejects(tmp_path, capsys, text, f"line {_line(text, line)}: [grid.1] "
                 f"watermark_std must be finite and >= 0, got {float(value)}")

    def test_zero_watermark_std_is_valid(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MINIMAL.replace("q_weight = 10.0\n",
                                       "q_weight = 10.0\nwatermark_std = 0\n"))
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 0

    def test_detector_needs_both_files(self, tmp_path, capsys):
        text = MINIMAL.replace("q_weight = 10.0\n", "q_weight = 10.0\nmodel_file = m.txt\n")
        _rejects(tmp_path, capsys, text, f"line {_line(text, '[grid.1]')}: [grid.1] "
                 "a detector needs model_file and baseline_file")


class TestGridNumbering:
    """[grid.N] headers are exactly [grid.1] to [grid.G], each once."""

    COLLABORATIVE = (CONFIGS / "collaborative.cfg").read_text()

    def test_gap_in_numbering(self, tmp_path, capsys):
        # with [grid.3] as the second grid, `grid = 3` must not select it
        text = self.COLLABORATIVE.replace("[grid.2]", "[grid.3]").replace(
            "[load_signal]\ngrid = 1", "[load_signal]\ngrid = 3")
        _rejects(tmp_path, capsys, text, f"line {_line(text, '[grid.3]')}: [grid.3]: "
                 "grids are numbered [grid.1] to [grid.2], each once")

    def test_repeated_grid(self, tmp_path, capsys):
        text = self.COLLABORATIVE
        block = text[text.index("[grid.2]") : text.index("[tie]")]
        text = text.replace("[tie]", block + "[tie]")
        second = text.splitlines().index("[grid.2]", _line(text, "[grid.2]")) + 1
        _rejects(tmp_path, capsys, text, f"line {second}: section [grid.2] appears twice")

    def test_non_numeric_grid(self, tmp_path, capsys):
        text = MINIMAL.replace("[grid.1]", "[grid.x]")
        _rejects(tmp_path, capsys, text, f"line {_line(text, '[grid.x]')}: [grid.x]: "
                 "grids are numbered [grid.1] to [grid.1], each once")


OBSERVER_CONTROLLER = MINIMAL.replace("controller = optimal-z", "controller = observer")
OBSERVER_EVENT = MINIMAL + "\n[event]\ntime_s = 0.1\naction = observer_on\n"


class TestLibraryChecks:
    """A value the library rejects exits 1 before anything runs or is written,
    with the location of the section that feeds it."""

    COLLABORATIVE = (CONFIGS / "collaborative.cfg").read_text()

    @pytest.mark.parametrize("text, at, message, command", [
        (MINIMAL.replace("seed = 11", "seed = 11\nauto_response = always"), "[sim]",
         "[sim]: unknown auto response 'always'", "simulate"),
        (MINIMAL.replace("controller = optimal-z", "controller = fuzzy"), "[grid.1]",
         "[grid.1]: unknown controller 'fuzzy'", "simulate"),
        (MINIMAL.replace("kind = step", "kind = ramp"), "[load_signal]",
         "[load_signal]: unknown load signal kind 'ramp'", "simulate"),
        (MINIMAL + "\n[attack]\nkind = noise-injection\nstart_s = 0.3\nend_s = 0.2\n",
         "[attack]", "[attack]: attack start must precede end", "simulate"),
        (MINIMAL + "\n[attack]\nkind = noise-injection\nstart_s = 0.2\nend_s = 0.3\n"
         "noise_std_w = -800.0\n", "noise_std_w = -800.0",
         "[attack] noise_std_w must be finite and >= 0, got -800.0", "simulate"),
        (MINIMAL + "\n[attack]\nkind = noise-injection\nstart_s = 0.2\nend_s = 0.3\n"
         "noise_std_w = nan\n", "noise_std_w = nan",
         "[attack] noise_std_w must be finite and >= 0, got nan", "simulate"),
        (MINIMAL + "\n[event]\ntime_s = 0.1\naction = explode\n", "[event]",
         "[event]: unknown event action 'explode'", "simulate"),
        (MINIMAL + "\n[identify]\ndt_prime_s = 0.001\n", "dt_prime_s = 0.001",
         "[identify] dt_prime_s: pulse width dt_prime = 0.001 s must exceed the control "
         "period 0.005 s", "identify"),
        (MINIMAL.replace("q_weight = 10.0", "q_weight = 10.0\nomega_c = -1"), "omega_c = -1",
         "[grid.1] omega_c must be finite and > 0, got -1.0", "simulate"),
        (MINIMAL.replace("branch = 1 2 3.333", "branch = 1 5 3.333"), "[grid.1]",
         "[grid.1]: invalid branch endpoints (1, 5) for 3 nodes", "simulate"),
        (OBSERVER_CONTROLLER, "controller = observer", "[grid.1] controller: the observer "
         "controller needs a detector (model_file and baseline_file)", "simulate"),
        (OBSERVER_EVENT, "action = observer_on", "[event] action: grid 1 has no detector "
         "(model_file and baseline_file)", "simulate"),
        (COLLABORATIVE.replace("node_a = 4", "node_a = 9"), "node_a = 9",
         "[tie] node_a: tie endpoint 9 is not a node of grid 1", "simulate"),
        (MINIMAL + "\n[tie]\nnode_a = 2\nnode_b = 0\n", "[tie]",
         "[tie]: a tie needs exactly two grids, scenario has 1", "simulate"),
        (COLLABORATIVE + "\n[attack]\nkind = noise-injection\nstart_s = 0.2\nend_s = 0.3\n"
         "channels = 0 7\n", "channels = 0 7",
         "[attack] channels: attack channel 7 is out of range: grid 1 has 3 IBRs", "simulate"),
        (MINIMAL + "\n[attack]\nkind = noise-injection\nstart_s = 0.2\nend_s = 0.3\n"
         "channels = 0 0\n", "channels = 0 0",
         "[attack] channels: attack channels (0, 0) repeat a channel", "simulate"),
        (MINIMAL + "\n[attack]\nkind = noise-injection\nstart_s = 0.2\n"
         "end_s = 0.2000000000002\n", "[attack]",
         "[attack]: attack window rounds to zero control steps", "simulate"),
        (MINIMAL + "\n[attack]\nkind = replay\nstart_s = 0.3\nend_s = 0.4\n"
         "replay_from_s = 0.1\nreplay_to_s = 0.1000000000001\n", "[attack]",
         "[attack]: replay source window rounds to zero control steps", "simulate"),
    ], ids=["sim", "grid", "load_signal", "attack", "attack-negative-noise",
            "attack-nan-noise", "event", "identify", "ibr", "network", "observer-controller",
            "observer-event", "tie-node", "tie-one-grid", "attack-channel",
            "attack-repeated-channel", "attack-zero-steps", "replay-source-zero-steps"])
    def test_dataclass_check_names_its_section(self, tmp_path, capsys, text, at,
                                               message, command):
        """At the section's header; at the key's own line where the key's
        domain already rejects the value (the attack noise and IBR cases),
        where it asks for a detector the grid lacks (the observer cases) or
        where the record names its field (the identify case)."""
        _rejects(tmp_path, capsys, text, f"line {_line(text, at)}: {message}", command)

    @pytest.mark.parametrize("controller, at", [
        ("optimal-z", None),
        ("slow-lqr", "controller = slow-lqr"),
    ], ids=["optimal-z", "slow-lqr"])
    def test_slow_hold_is_checked_only_on_slow_lqr_grids(self, tmp_path, capsys,
                                                          controller, at):
        """The fixed 0.1 s hold is no whole number of 0.04 s control periods.
        Only the slow-lqr law reads it, so only a slow-lqr grid exits 1, at its
        controller line."""
        text = MINIMAL.replace("horizon_s = 0.5", "horizon_s = 2.0\ncontrol_period_s = 0.04")
        text = text.replace("controller = optimal-z", f"controller = {controller}")
        if at is None:
            cfg = tmp_path / "c.cfg"
            cfg.write_text(text)
            assert run(["simulate", "--config", cfg, "--out", tmp_path / "o", "--quiet"]) == 0
            return
        _rejects(tmp_path, capsys, text, f"line {_line(text, at)}: [grid.1] "
                 f"{at.split(' = ')[0]}: slow_hold = 0.1 s is not a whole, non-negative "
                 "number of 0.04 s steps")

    def test_identify_and_calibrate_take_an_observer_grid_without_a_detector(self, tmp_path):
        """identify builds the grid alone and calibrate its own run, whose grid
        carries the detector it calibrates, so the file's observer grid and
        observer_on event, which simulate rejects without a detector, do not
        stop them, nor does an [attack] that only simulate runs."""
        text = OBSERVER_EVENT.replace("controller = optimal-z", "controller = observer")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text + "\n[attack]\nkind = noise-injection\nstart_s = 0.2\n"
                       "end_s = 0.3\nchannels = 7\n"
                       "\n[identify]\ngrid = 1\nk0 = 400\ncandidates = 2\n"
                       "\n[calibrate]\ngrid = 1\nmodel_file = model.txt\nhorizon_s = 1.0\n")
        out = tmp_path / "o"
        for command in ("identify", "calibrate"):
            assert run([command, "--config", cfg, "--out", out, "--quiet"]) == 0
        assert cli.load_baseline(out / "baseline.txt").eps2 < math.inf
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "s"]) == cli.EXIT_USAGE

    def test_load_signal_on_undefined_grid(self, tmp_path, capsys):
        text = MINIMAL.replace("[load_signal]\ngrid = 1", "[load_signal]\ngrid = 2")
        _rejects(tmp_path, capsys, text, f"line {_line(text, 'grid = 2')}: [load_signal] "
                 "references grid 2 but it is not defined")

    @pytest.mark.parametrize("section, gid", [
        ("[event]\ntime_s = 0.1\naction = controller_off\ngrid = 2\n", 2),
        ("[attack]\ngrid = 4\nkind = noise-injection\nstart_s = 0.2\nend_s = 0.3\n", 4),
    ], ids=["event", "attack"])
    def test_event_or_attack_on_undefined_grid(self, tmp_path, capsys, section, gid):
        text = MINIMAL + "\n" + section
        header = section.splitlines()[0]
        _rejects(tmp_path, capsys, text, f"line {_line(text, f'grid = {gid}')}: {header} "
                 f"grid: {header[1:-1]} targets unknown grid {gid}")

    @pytest.mark.parametrize("old, new, at, field", [
        ("\ntime_s = 0.5\n", "\ntime_s = 0.5003\n", "time_s = 0.5003",
         "[event] time_s: time = 0.5003"),
        ("horizon_s = 8.0", "horizon_s = 1.0025", "horizon_s = 1.0025",
         "[sim] horizon_s: horizon = 1.0025"),
        ("[tie]", "[attack]\nkind = noise-injection\nstart_s = 0.2\nend_s = 0.3001\n\n[tie]",
         "end_s = 0.3001", "[attack] end_s: end = 0.3001"),
    ], ids=["event", "horizon", "attack"])
    def test_time_between_control_instants(self, tmp_path, capsys, old, new, at, field):
        text = self.COLLABORATIVE.replace(old, new)
        _rejects(tmp_path, capsys, text, f"line {_line(text, at)}: {field} s "
                 "is not a whole, non-negative number of 0.005 s steps")

    @pytest.mark.parametrize("section, at, field", [
        ("[event]\ntime_s = 5.0\naction = controller_off\n", "time_s = 5.0",
         "[event] time_s: time = 5.0"),
        ("[event]\ntime_s = 0.5\naction = controller_off\n", "time_s = 0.5",
         "[event] time_s: time = 0.5"),
        ("[attack]\nkind = noise-injection\nstart_s = 2.0\nend_s = 2.5\n", "start_s = 2.0",
         "[attack] start_s: start = 2.0"),
        ("[event]\ntime_s = 0.4999999999995\naction = controller_off\n",
         "time_s = 0.4999999999995", "[event] time_s: time = 0.4999999999995"),
    ], ids=["event-past", "event-at", "attack-past", "event-rounds-to-horizon"])
    def test_time_at_or_past_the_horizon(self, tmp_path, capsys, section, at, field):
        """An event or attack that would never happen in the 0.5 s run exits 1
        at its line, not 0 with the event unfired or the attack unrun."""
        text = MINIMAL + "\n" + section
        _rejects(tmp_path, capsys, text, f"line {_line(text, at)}: {field} s is not "
                 "before the horizon, 0.5 s")

    def test_build_scenario_leaves_the_scenario_rules_to_scenario(self):
        """Scenario is the one place its rules are checked: build_scenario
        converts no time or hold to steps, runs no record's check itself and
        checks no grid number of [event] or [attack]."""
        called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                  for node in ast.walk(ast.parse(inspect.getsource(cli.build_scenario)))
                  if isinstance(node, ast.Call)}
        assert not called & {"whole_steps", "hold_steps", "before_horizon", "check",
                             "_named_grid"}
        assert not hasattr(simcore, "before_horizon")

    def test_config_commands_leave_the_shared_steps_to_main(self):
        """main parses the config, applies --seed, makes --out and returns the
        exit code: no config command does any of these, and build_scenario
        takes no seed."""
        for name in cli.CONFIG_COMMANDS:
            tree = ast.parse(inspect.getsource(getattr(cli, "cmd_" + name)))
            called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                      for node in ast.walk(tree) if isinstance(node, ast.Call)}
            assert not called & {"parse_config", "_output_dir", "Path", "mkdir"}, name
            assert not [node for node in ast.walk(tree)
                        if isinstance(node, ast.Return) and node.value is not None], name
        assert list(inspect.signature(cli.build_scenario).parameters) == [
            "sections", "base_dir"]

    def test_attack_may_end_past_the_horizon(self, tmp_path):
        """end_s past horizon_s is valid: the attack is cut at the horizon."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MINIMAL + "\n[attack]\nkind = noise-injection\nstart_s = 0.2\n"
                       "end_s = 2.0\nnoise_std_w = 100.0\n")
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o", "--quiet"]) == 0
        assert "attack noise-injection at 0.2s" in (tmp_path / "o" / "summary.txt").read_text()

    def test_pulse_width_between_samples(self, tmp_path, capsys):
        """dt_prime_s = 0.0074, 1.48 samples of the 5 ms control period, exits 1
        at its line rather than run with one sample per level."""
        text = (CONFIGS / "detection_demo.cfg").read_text().replace(
            "dt_prime_s = 0.05", "dt_prime_s = 0.0074")
        _rejects(tmp_path, capsys, text, f"line {_line(text, 'dt_prime_s = 0.0074')}: "
                 "[identify] dt_prime_s: dt_prime = 0.0074 s is not a whole, "
                 "non-negative number of 0.005 s steps", "identify")

    def test_pulse_width_of_one_sample(self, tmp_path, capsys):
        """dt_prime_s = 0.005, one sample of the 5 ms control period, is no
        pulse: it exits 1 at its line, naming the control period."""
        text = (CONFIGS / "detection_demo.cfg").read_text().replace(
            "dt_prime_s = 0.05", "dt_prime_s = 0.005")
        _rejects(tmp_path, capsys, text, f"line {_line(text, 'dt_prime_s = 0.005')}: "
                 "[identify] dt_prime_s: pulse width dt_prime = 0.005 s must exceed "
                 "the control period 0.005 s", "identify")

    def test_calibration_horizon_between_control_instants(self, tmp_path, capsys,
                                                          demo_run):
        work = tmp_path / "w"
        shutil.copytree(demo_run, work)
        baseline = (work / "baseline.txt").read_bytes()
        cfg = tmp_path / "c.cfg"
        text = (CONFIGS / "detection_demo.cfg").read_text().replace(
            "horizon_s = 10.0", "horizon_s = 10.0025")
        cfg.write_text(text)
        assert run(["calibrate", "--config", cfg, "--out", work]) == cli.EXIT_USAGE
        assert (f"{cfg}: line {_line(text, 'horizon_s = 10.0025')}: [calibrate] horizon_s: "
                "horizon = 10.0025 s is not a whole" in capsys.readouterr().err)
        assert (work / "baseline.txt").read_bytes() == baseline


class TestKeyTables:
    def test_every_field_feeds_its_dataclass_or_is_read_by_hand(self, minimal_cfg):
        fields = set()
        for name, (cls, keys) in cli.SECTIONS.items():
            fed = {f.name for f in dataclasses.fields(cls)} if cls else set()
            section_fields = {spec[0] for spec in keys.values()}
            assert section_fields - fed - cli.HAND_READ == set(), name
            fields |= section_fields
        assert cli.HAND_READ <= fields
        sim = cli._first_section(cli.parse_config(minimal_cfg), "sim")
        with pytest.raises(KeyError):
            sim.value("seed")  # a Scenario field, not read by hand

    def test_readme_lists_every_key(self):
        """One README row per key, its domain column the key's SECTIONS domain."""
        rows = re.findall(r"^\| `\[([a-z_]+)(?:\.N)?\]` \| `(\w+)` \| [^|]+ \| ([^|]+) \|",
                          (ROOT / "README.md").read_text(), re.M)
        domains = {(name, key): spec[1] for name, (_, keys) in cli.SECTIONS.items()
                   if name for key, spec in keys.items()}
        assert len(rows) == len({row[:2] for row in rows})
        assert {row[:2] for row in rows} == set(domains)
        nouns = {str: "text", float: "number", int: "integer", cli.GRID[0]: "grid number"}
        for name, key, cell in rows:
            kind, _, rule = domains[name, key]
            assert cell == (f"{nouns[kind]}, {rule}" if rule else nouns[kind]), (name, key)


class TestMisc:
    def test_one_parser_serves_every_main_call_of_a_process(self, monkeypatch, tmp_path,
                                                            minimal_cfg):
        """Two main calls with different subcommands build the parser once and
        dispatch through the module's current cmd_* bindings."""
        built, ran = [], []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "cmd_simulate", lambda sections, out, args: ran.append(args))
        try:
            assert run(["simulate", "--config", minimal_cfg, "--out", tmp_path,
                        "--quiet"]) == cli.EXIT_OK
            assert run(["plot", "--out", tmp_path / "none", "--quiet"]) == cli.EXIT_USAGE
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert [(a.command, a.config) for a in ran] == [("simulate", str(minimal_cfg))]

    @pytest.mark.parametrize("argv, message", [
        (["simulate"], "the following arguments are required: --config"),
        (["identify", "--config", CONFIGS / "detection_demo.cfg", "--seed", "abc"],
         "argument --seed: expected an integer, got 'abc'"),
        (["identify", "--config", CONFIGS / "detection_demo.cfg", "--seed", "-3"],
         "argument --seed: must be >= 0, got -3"),
        (["fly"], "argument command: invalid choice: 'fly'"),
        (["calibrate", "--config", CONFIGS / "detection_demo.cfg", "--seed", "3"],
         "unrecognized arguments: --seed 3"),
        (["detect", "--config", CONFIGS / "detection_demo.cfg", "--seed", "3"],
         "unrecognized arguments: --seed 3"),
        (["plot", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["version", "--seed", "3"], "unrecognized arguments: --seed 3"),
    ], ids=["missing-config", "seed-not-integer", "seed-negative", "unknown-command",
            "seed-on-calibrate", "seed-on-detect", "seed-on-plot", "seed-on-version"])
    def test_usage_error_exits_1_naming_the_argument(self, tmp_path, capsys, argv,
                                                     message):
        out = tmp_path / "out"
        assert run([*argv, "--out", out]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_version(self, capsys):
        assert run(["version"]) == cli.EXIT_OK
        assert "microagc" in capsys.readouterr().out

    def test_plot_requires_simulation(self, tmp_path, capsys):
        rc = run(["plot", "--out", tmp_path])
        assert rc == cli.EXIT_USAGE

    def test_plot_emits_gnuplot_script(self, minimal_cfg, tmp_path):
        out = tmp_path / "out"
        run(["simulate", "--config", minimal_cfg, "--out", out, "--quiet"])
        assert run(["plot", "--out", out, "--quiet"]) == cli.EXIT_OK
        script = (out / "plots.gp").read_text()
        assert "timeseries.csv" in script and "plot " in script
