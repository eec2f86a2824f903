"""The cell comparison of bench/drift.py: differing cells are counted once
each and the largest relative difference is reported, and for a CSV the
largest difference relative to its column's peak."""

import importlib.util
import math
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))  # drift imports its neighbour pairs
_SPEC = importlib.util.spec_from_file_location("drift", BENCH / "drift.py")
drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(drift)


def test_identical_texts_have_no_differing_cells():
    text = "t,x,mode\n0,1.5,on\n0.005,-0,off\n"
    assert drift.cell_diff(text, text) == (0, 0.0)


def test_counts_cells_and_reports_the_largest_relative_difference():
    base = "t,x,y\n0,1.00000000,200\n0.005,4,nan\nd = 4: eta = 2.5e-07 W/sample\n"
    change = "t,x,y\n0,1.00000001,200\n0.005,4,nan\nd = 4: eta = 2.50000002e-07 W/sample\n"
    count, worst = drift.cell_diff(base, change)
    assert count == 2
    assert math.isclose(worst, 1e-8, rel_tol=1e-6)


def test_spelling_of_an_equal_number_counts_with_zero_difference():
    assert drift.cell_diff("0,-0\n", "0,0\n") == (1, 0.0)


def test_words_and_missing_cells_count_as_infinite():
    assert drift.cell_diff("mg1_ctrl\noptimal-z\n", "mg1_ctrl\noff\n") == (1, math.inf)
    assert drift.cell_diff("1,2,3\n", "1,2\n") == (1, math.inf)
    assert drift.cell_diff("1\n2\n", "1\n") == (1, math.inf)


def test_slow_lqr_pick_is_the_nine_regulate_jobs_of_that_controller():
    sys.path.insert(0, str(BENCH.parent / "perfbench"))
    import workload

    single = workload.library("regulate")["single"]
    picked = drift.controller_jobs(single, "slow-lqr")
    assert len(picked) == 9
    assert all("\ncontroller = slow-lqr\n" in job.config for job in picked)
    others = [job for job in single if job not in picked]
    assert not any("slow-lqr" in job.config for job in others)


def test_attack_pick_is_the_first_job_of_each_attacked_detect_stratum():
    sys.path.insert(0, str(BENCH.parent / "perfbench"))
    import workload

    strata = workload.library("detect")
    picked = drift.first_jobs(strata, drift.ATTACK_STRATA)
    assert [job.key for job in picked] == [
        "detect-noise-00", "detect-replay-one-00", "detect-replay-all-00"]
    assert [job.commands for job in picked] == [("simulate", "detect")] * 3
    assert "\nkind = noise-injection\n" in picked[0].config
    assert all("\nkind = replay\n" in job.config for job in picked[1:])
    assert "\nchannels = 0 1 2\n" in picked[2].config
    assert drift.first_jobs({"a": [1, 2], "b": [3]}, ("b", "a")) == [3, 1]


def test_regulate_pick_adds_the_first_optimal_z_decentralized_pi_and_tie_jobs():
    sys.path.insert(0, str(BENCH.parent / "perfbench"))
    import workload

    strata = workload.library("regulate")
    picked = drift.regulate_picks(strata)
    assert picked[:9] == drift.controller_jobs(strata["single"], "slow-lqr")
    first = {law: next(j for j in strata["single"] if f"\ncontroller = {law}\n" in j.config)
             for law in ("optimal-z", "decentralized", "pi")}
    assert picked[9:] == [first["optimal-z"], first["decentralized"], first["pi"],
                          strata["tie"][0]]
    assert "\naction = tie_close\n" in picked[-1].config


def test_auto_response_runs_are_the_first_replay_all_job_with_the_response_set():
    sys.path.insert(0, str(BENCH.parent / "perfbench"))
    import workload

    replay = workload.library("detect")["replay-all"][0]
    tie = workload.library("regulate")["tie"][0]
    observer = drift.auto_response(replay, "observer")
    collab = drift.auto_response(replay, "collaborative", tie)
    assert (observer.key, collab.key) == ("auto-observer", "auto-collaborative")
    assert observer.commands == collab.commands == replay.commands
    assert observer.config == replay.config.replace(
        "\n[sim]\n", "\n[sim]\nauto_response = observer\n")
    assert collab.config.startswith(replay.config.replace(
        "\n[sim]\n", "\n[sim]\nauto_response = collaborative\n"))
    added = collab.config.split("\n\n")[len(replay.config.split("\n\n")):]
    assert [block.splitlines()[0] for block in added] == ["[grid.2]", "[tie]"]
    assert all(block.strip() in tie.config for block in added)
    assert "\n[event]\n" not in collab.config  # the flag, not a script, closes the tie


def test_observer_grid_response_sets_only_the_controller_and_the_response():
    sys.path.insert(0, str(BENCH.parent / "perfbench"))
    import workload

    replay = workload.library("detect")["replay-all"][0]
    run = drift.observer_grid_response(replay)
    assert run.key == "auto-observer-grid"
    assert run.commands == replay.commands
    assert "\ncontroller = optimal-z\n" in replay.config
    assert run.config == drift.auto_response(replay, "observer").config.replace(
        "\ncontroller = optimal-z\n", "\ncontroller = observer\n")
    assert "\n[event]\n" not in run.config  # the flag, not a script, engages the law


def test_benchmark_jobs_end_with_the_first_nominal_detect_job(tmp_path):
    """The late-flag job and then the nominal job come after the attacked and
    auto-response runs, whose output directories keep their names."""
    names = [name for name, _ in drift.render_benchmark_jobs(tmp_path)]
    assert names[names.index("model"):] == [
        "model", "job000-detect-noise-00", "job001-detect-replay-one-00",
        "job002-detect-replay-all-00", "job003-auto-observer", "job004-auto-collaborative",
        "job005-auto-observer-grid", "job006-detect-noise-05", "job007-detect-nominal-00"]
    assert "\n[attack]\n" not in (tmp_path / "detect" / "job007-detect-nominal-00.cfg").read_text()


def test_late_flag_job_first_flags_after_its_attack_window(tmp_path):
    """LATE_FLAG is the first job, in ATTACK_STRATA order, whose first flag on
    the benchmark's detect model falls after its attack window ends, so in
    the tail the closed-loop recursion fills; the jobs before it flag inside
    their windows or not at all."""
    sys.path.insert(0, str(BENCH.parent / "perfbench"))
    import workload
    from microagc import cli

    (tmp_path / workload.SETUP_CONFIG).write_text(workload.setup_config(), encoding="utf-8")
    for cmd in ("identify", "calibrate"):
        assert cli.main([cmd, "--config", str(tmp_path / workload.SETUP_CONFIG),
                         "--out", str(tmp_path / workload.MODEL_DIR), "--quiet"]) == 0
    strata = workload.library("detect")
    late = drift.late_flag_job(strata)
    jobs = [job for name in drift.ATTACK_STRATA for job in strata[name]]
    for job in jobs[:jobs.index(late) + 1]:
        cfg = tmp_path / f"{job.key}.cfg"
        cfg.write_text(job.config, encoding="utf-8")
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / job.key),
                         "--quiet"]) == 0
        rows = (tmp_path / job.key / "detector.csv").read_text().splitlines()
        flag = rows[0].split(",").index("mg1_flag")
        flagged = [float(row.split(",")[0]) for row in rows[1:] if row.split(",")[flag] != "0"]
        end = float(re.search(r"\nend_s = (\S+)\n", job.config).group(1))
        assert (job is late) == bool(flagged and flagged[0] >= end), job.key
    assert late.key == drift.LATE_FLAG


def test_saturating_run_sets_only_the_load_amplitude(tmp_path):
    """The saturating run is collaborative.cfg at SATURATING_W, which drives
    grid 2's commands to the command limit after the tie close."""
    from microagc import cli, defaults

    name, [argv] = drift.saturating_run(tmp_path)
    assert cli.main([*argv, "--out", str(tmp_path / name), "--quiet"]) == 0
    rows = (tmp_path / name / "timeseries.csv").read_text().splitlines()
    header = rows[0].split(",")
    grid2 = [j for j, col in enumerate(header) if col.startswith("mg2_dws_")]
    assert max(abs(float(row.split(",")[j])) for row in rows[1:] for j in grid2) == (
        defaults.COMMAND_LIMIT)
    assert name == "simulate-collaborative-saturating"
    values = {kind: [sec.values for sec in secs]
              for kind, secs in cli.parse_config(argv[2]).items()}
    shipped = {kind: [sec.values for sec in secs] for kind, secs in
               cli.parse_config(drift.ROOT / "configs" / "collaborative.cfg").items()}
    shipped["load_signal"][0]["amplitude"] = float(drift.SATURATING_W)
    assert values == shipped


def test_zero_watermark_chain_zeroes_only_the_grid_watermark(tmp_path):
    from microagc import cli

    name, commands = drift.zero_watermark_chain(tmp_path)
    assert name == "chain-zero-watermark"
    assert [argv[0] for argv in commands] == list(drift.CHAIN)
    values = {kind: [sec.values for sec in secs]
              for kind, secs in cli.parse_config(commands[0][2]).items()}
    demo = {kind: [sec.values for sec in secs] for kind, secs in
            cli.parse_config(drift.ROOT / "configs" / "detection_demo.cfg").items()}
    assert values["calibrate"][0]["watermark_std"] == 0.012
    demo["grid"][0]["watermark_std"] = 0.0
    assert values == demo


def test_observer_chain_sets_only_the_grid_controller(tmp_path):
    from microagc import cli

    name, commands = drift.observer_chain(tmp_path)
    assert name == "chain-observer"
    assert [argv[0] for argv in commands] == list(drift.CHAIN)
    values = {kind: [sec.values for sec in secs]
              for kind, secs in cli.parse_config(commands[0][2]).items()}
    demo = {kind: [sec.values for sec in secs] for kind, secs in
            cli.parse_config(drift.ROOT / "configs" / "detection_demo.cfg").items()}
    demo["grid"][0]["controller"] = "observer"
    assert values == demo


def test_scheduled_observer_chain_adds_only_the_observer_event(tmp_path):
    from microagc import cli

    name, commands = drift.scheduled_observer_chain(tmp_path)
    assert name == "chain-scheduled-observer"
    assert [argv[0] for argv in commands] == list(drift.CHAIN)
    values = {kind: [sec.values for sec in secs]
              for kind, secs in cli.parse_config(commands[0][2]).items()}
    demo = {kind: [sec.values for sec in secs] for kind, secs in
            cli.parse_config(drift.ROOT / "configs" / "detection_demo.cfg").items()}
    assert demo["event"] == []
    demo["event"] = [{"grid": 0, "time": 2.1, "action": "observer_on"}]
    assert values == demo


def test_train_command_writes_the_trained_detector_of_an_acceptance_fixture(tmp_path):
    from microagc import casestudy as cs, cli, defaults
    from microagc.lqr import CostWeights
    from microagc.sysid import load_model

    rc, _, _ = drift.run_cli(BENCH.parent, tmp_path, ["train", "6", "quiet", "--out", "q"])
    assert rc == 0
    grid = cs.grid1_spec(weights=CostWeights.uniform(3, q=defaults.SCENARIO_Q_DIAG))
    det, _ = cs.trained_detector(grid, calibration_signals=(), seed=6)
    model = load_model(tmp_path / "q" / "model.txt")
    baseline = cli.load_baseline(tmp_path / "q" / "baseline.txt")
    assert (model.order, baseline.eps1, baseline.eps2, baseline.w) == (
        det.model.order, det.baseline.eps1, det.baseline.eps2, 100)
    for name in ("a_d", "b_d", "c_d"):
        assert (getattr(model, name) == getattr(det.model, name)).all()
    assert (baseline.mu_star == det.baseline.mu_star).all()
    assert baseline.trace == det.baseline.trace


def test_study_command_writes_the_two_grid_case_study_run(tmp_path):
    from microagc import casestudy as cs
    from microagc.simcore import run_scenario

    scenario = drift.study_scenario()
    assert [g.network.n_ibr for g in scenario.grids] == [3, 2]
    assert scenario.tie == cs.default_tie()
    assert [(ev.time, ev.action) for ev in scenario.events] == [
        (0.5, "controller_off"), (1.0, "tie_close")]
    assert ("study-two-grid", [["study"]]) in drift.jobs(BENCH.parent, [])
    rc, _, _ = drift.run_cli(BENCH.parent, tmp_path, ["study", "--out", "s"])
    assert rc == 0
    run_scenario(scenario).to_csv(tmp_path / "direct.csv")
    written = (tmp_path / "s" / "timeseries.csv").read_bytes()
    assert written == (tmp_path / "direct.csv").read_bytes()
    assert (tmp_path / "s" / "summary.txt").read_text().startswith("run summary\n")


def test_peak_relative_difference_tells_round_off_from_a_real_change():
    """A near-zero cell that changes sign at the round-off floor reads a
    relative difference above 1, but under 1e-12 of its column's peak."""
    base = "t,x,y\n0,1e-13,5\n0.005,1.0,5\n"
    change = "t,x,y\n0,-1e-13,5\n0.005,1.0,5\n"
    count, worst = drift.cell_diff(base, change)
    assert count == 1 and worst > 1.0
    assert drift.peak_diff(base, change) < 1e-12
    assert math.isclose(drift.peak_diff(base, change), 2e-13, rel_tol=1e-9)
    assert math.isclose(drift.peak_diff("x\n1\n-4\n", "x\n2\n-4\n"), 0.25)
    assert drift.peak_diff(base, base) == 0.0
    assert drift.peak_diff("x\n1\n", "x\nnan\n") == math.inf
    assert drift.peak_diff("x,y\n1,2\n", "x\n1\n") == math.inf
    assert drift._describe(base, change, csv=True) == (
        "1 cells differ, max rel diff 2, max peak-rel diff 2e-13")


def test_stderr_compares_the_program_lines_and_not_python_warnings():
    """main's error line and the package loggers' lines are kept; a Python
    warning, which names a source path and line, and its source line are not."""
    program = ("INFO microagc.simcore: grid 1: detector retired after topology change\n"
               "WARNING microagc.lqr: projected closed loop A - B1 K T is not stable\n"
               "error: the run diverged at t=0.5400s: mg1_pg_2 = inf\n")
    warning = ("/tree/src/microagc/simcore.py:812: RuntimeWarning: overflow encountered\n"
               "  m[x] += hold @ c_u\n")
    assert drift.program_stderr(warning + program) == program
    first, *rest = program.splitlines(keepends=True)
    assert drift.program_stderr(first + warning + "".join(rest)) == program
    assert drift.program_stderr("INFO numpy.x: y\nerror:no space\n") == ""


def test_diverging_runs_set_only_the_load_amplitude(tmp_path):
    from microagc import cli

    runs = drift.diverging_runs(tmp_path)
    assert [name for name, _ in runs] == [
        "simulate-regulation_pulses-diverging", "simulate-collaborative-diverging"]
    for stem, (_, [argv]) in zip(drift.DIVERGING, runs):
        assert argv[:2] == ["simulate", "--config"]
        values = {kind: [sec.values for sec in secs]
                  for kind, secs in cli.parse_config(argv[2]).items()}
        shipped = {kind: [sec.values for sec in secs] for kind, secs in
                   cli.parse_config(drift.ROOT / "configs" / f"{stem}.cfg").items()}
        assert [sig["amplitude"] for sig in shipped["load_signal"]] == [1904.4]
        shipped["load_signal"][0]["amplitude"] = 1.7e308
        assert values == shipped
