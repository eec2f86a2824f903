"""Command-line behavior: exit codes, artifact generation, idempotence, and
the defaults round trip between config parsing and the defaults module."""

from pathlib import Path

import numpy as np
import pytest

from microagc import cli, defaults
from microagc.sysid import DiscreteModel, save_model
from microagc.watermark import BaselineStats

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
        assert rc == cli.EXIT_NUMERIC
        assert "line 3" in capsys.readouterr().err

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


    @pytest.mark.parametrize("command, gid", [
        ("calibrate", 0), ("calibrate", 2), ("detect", 0), ("detect", 2),
    ])
    def test_stage_rejects_grid_out_of_range(self, tmp_path, capsys, command, gid):
        work = tmp_path / "w"
        work.mkdir()
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MINIMAL + f"\n[{command}]\ngrid = {gid}\nmodel_file = m.txt\n"
                       "baseline_file = b.txt\ntrace_file = timeseries.csv\n")
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
        assert grid.ibrs[0].omega_nom == defaults.OMEGA_NOM
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
        sec = cli._find_sections(sections, "identify")[0]
        assert float(sec.get("beta", defaults.SYSID_BETA)) == defaults.SYSID_BETA
        assert int(sec.get("k0", defaults.SYSID_K0)) == defaults.SYSID_K0


class TestMisc:
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
