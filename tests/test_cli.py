"""Command-line behavior: exit codes, artifact generation, idempotence, and
the defaults round trip between config parsing and the defaults module."""

import dataclasses
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from microagc import cli, defaults
from microagc.sysid import DiscreteModel, ExcitationSpec, save_model
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
    ])
    def test_reports_file_and_place(self, tmp_path, capsys, command, name, corrupt,
                                    expected):
        work = tmp_path / "w"
        work.mkdir()
        model = DiscreteModel(a_d=0.5 * np.eye(2), b_d=np.eye(2), c_d=np.eye(2),
                              dt=0.005, order=2)
        save_model(model, work / "model.txt")
        cli.save_baseline(BaselineStats(mu_star=np.zeros(2), sigma_star=np.eye(2), w=4),
                          1.0, 1.0, work / "baseline.txt")
        path = work / name
        path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
        cfg = tmp_path / "d.cfg"
        cfg.write_text(self.CONFIG)
        rc = run([command, "--config", cfg, "--out", work])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert str(path) in err and expected in err


class TestDefaultsRoundTrip:
    def test_config_defaults_match_defaults_module(self, minimal_cfg):
        sections = cli.parse_config(minimal_cfg)
        sc = cli.build_scenario(sections, minimal_cfg.parent)
        assert sc.control_period == defaults.CONTROL_PERIOD
        assert sc.integrator_step == defaults.INTEGRATOR_STEP
        grid = sc.grids[0]
        assert grid.ibrs[0].omega_c == defaults.OMEGA_C
        assert grid.ibrs[0].m_p == defaults.M_P
        assert grid.pi_kp == defaults.PI_KP
        assert grid.pi_ki == defaults.PI_KI
        assert grid.sensor_tau == defaults.SENSOR_LAG_TAU
        assert grid.slow_hold == defaults.SLOW_LQR_HOLD
        assert grid.u_max == defaults.COMMAND_LIMIT
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


def test_rejected_simulate_removes_the_directories_it_made(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL.replace("controller = optimal-z", "controller = fuzzy"))
    (tmp_path / "kept").mkdir()
    for out in (tmp_path / "a" / "b" / "c", tmp_path / "kept" / "d"):
        assert run(["simulate", "--config", cfg, "--out", out]) == cli.EXIT_USAGE
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "kept"]
    assert list((tmp_path / "kept").iterdir()) == []


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
        ("load_w = 5000.0", "load_w = 5000.0 100.0", "load_w: needs 1 values, got 2"),
        ("q_weight = 10.0", "q_weight = 10.0 1 1", "q_weight: needs 1 or 2 values, got 3"),
        ("branch = 1 2 3.333", "branch = 1 2",
         "branch: expected 'from to admittance [theta]'"),
        ("seed = 11", "seed = 11.5", "seed: expected an integer, got '11.5'"),
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

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_u_max_is_finite_and_positive(self, tmp_path, capsys, value):
        line = f"u_max = {value}"
        text = MINIMAL.replace("q_weight = 10.0\n", f"q_weight = 10.0\n{line}\n")
        _rejects(tmp_path, capsys, text, f"line {_line(text, line)}: [grid.1] "
                 f"u_max must be finite and > 0, got {float(value)}")

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


class TestLibraryChecks:
    """A value the library rejects exits 1 before anything runs or is written,
    with the location of the section that feeds it."""

    COLLABORATIVE = (CONFIGS / "collaborative.cfg").read_text()

    @pytest.mark.parametrize("text, header, message, command", [
        (MINIMAL.replace("seed = 11", "seed = 11\nauto_response = always"), "[sim]",
         "unknown auto response 'always'", "simulate"),
        (MINIMAL.replace("controller = optimal-z", "controller = fuzzy"), "[grid.1]",
         "unknown controller 'fuzzy'", "simulate"),
        (MINIMAL.replace("kind = step", "kind = ramp"), "[load_signal]",
         "unknown load signal kind 'ramp'", "simulate"),
        (MINIMAL + "\n[attack]\nkind = noise-injection\nstart_s = 0.3\nend_s = 0.2\n",
         "[attack]", "attack start must precede end", "simulate"),
        (MINIMAL + "\n[attack]\nkind = noise-injection\nstart_s = 0.2\nend_s = 0.3\n"
         "noise_std_w = -800.0\n", "[attack]", "noise_std must be finite and >= 0, got -800.0",
         "simulate"),
        (MINIMAL + "\n[attack]\nkind = noise-injection\nstart_s = 0.2\nend_s = 0.3\n"
         "noise_std_w = nan\n", "[attack]", "noise_std must be finite and >= 0, got nan",
         "simulate"),
        (MINIMAL + "\n[event]\ntime_s = 0.1\naction = explode\n", "[event]",
         "unknown event action 'explode'", "simulate"),
        (MINIMAL + "\n[identify]\ndt_prime_s = 0.001\n", "[identify]",
         "pulse width dt_prime must exceed the sample time dt", "identify"),
        (MINIMAL.replace("q_weight = 10.0", "q_weight = 10.0\nomega_c = -1"), "[grid.1]",
         "filter cutoff must be positive, got -1.0", "simulate"),
        (MINIMAL.replace("branch = 1 2 3.333", "branch = 1 5 3.333"), "[grid.1]",
         "invalid branch endpoints (1, 5) for 3 nodes", "simulate"),
    ], ids=["sim", "grid", "load_signal", "attack", "attack-negative-noise",
            "attack-nan-noise", "event", "identify", "ibr", "network"])
    def test_dataclass_check_names_its_section(self, tmp_path, capsys, text, header,
                                               message, command):
        _rejects(tmp_path, capsys, text, f"line {_line(text, header)}: {header}: {message}",
                 command)

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
                 f"references grid {gid} but it is not defined")

    @pytest.mark.parametrize("old, new, field", [
        ("\ntime_s = 0.5\n", "\ntime_s = 0.5003\n", "events[0].time = 0.5003"),
        ("horizon_s = 8.0", "horizon_s = 1.0025", "horizon = 1.0025"),
    ], ids=["event", "horizon"])
    def test_time_between_control_instants(self, tmp_path, capsys, old, new, field):
        text = self.COLLABORATIVE.replace(old, new)
        _rejects(tmp_path, capsys, text, f"line {_line(text, '[sim]')}: [sim]: {field} s "
                 "is not a whole, non-negative number of 0.005 s steps")

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
        rows = re.findall(r"^\| `\[([a-z_]+)(?:\.N)?\]` \| `(\w+)` \|",
                          (ROOT / "README.md").read_text(), re.M)
        assert len(rows) == len(set(rows))
        assert set(rows) == {(name, key) for name, (_, keys) in cli.SECTIONS.items()
                             if name for key in keys}


class TestMisc:
    def test_one_parser_serves_every_main_call_of_a_process(self, monkeypatch, tmp_path,
                                                            minimal_cfg):
        """Two main calls with different subcommands build the parser once and
        dispatch through the module's current cmd_* bindings."""
        built, ran = [], []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "cmd_simulate", lambda args: ran.append(args) or 0)
        try:
            assert run(["simulate", "--config", minimal_cfg, "--out", tmp_path,
                        "--quiet"]) == cli.EXIT_OK
            assert run(["plot", "--out", tmp_path / "none", "--quiet"]) == cli.EXIT_USAGE
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert [(a.command, a.config) for a in ran] == [("simulate", str(minimal_cfg))]

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
