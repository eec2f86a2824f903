"""Tests of the benchmark itself: the workload generator, the traced call
sites, and the metric names and units against BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workload as wl  # noqa: E402
from spans import Tracer, call_sites  # noqa: E402

WORKLOADS = tuple(wl.PATTERNS)

# Call sites each workload is meant to go through.
EXERCISED = {
    "regulate": (
        "cli.cmd_simulate", "cli.parse_config", "cli.build_scenario",
        "cli.run_scenario", "cli.write_detector_csv", "cli.summarize",
        "simcore.ZohStepper.step", "simcore.TimeSeries.to_csv", "simcore.load_vector",
        "simcore.load_signal", "simcore.z_update", "simcore.lqr_gain",
        "simcore.solve_operating_point", "simcore.assemble_plant",
        "simcore.close_tie_line", "simcore.measure_power",
    ),
    "train": (
        "cli.cmd_identify", "cli.cmd_calibrate", "cli.select_order",
        "casestudy.identification_records", "casestudy.generate_excitation",
        "sysid.identify", "sysid.predict", "cli.save_records", "cli.save_model",
        "cli.load_model", "cli.run_scenario", "cli.calibrate_baseline",
        "cli.calibrate_thresholds", "watermark.predict_step", "simcore.dw_step",
    ),
    "detect": (
        "cli.cmd_simulate", "cli.cmd_detect", "cli.load_model", "cli.load_baseline",
        "cli.dw_step", "simcore.dw_step", "watermark.predict_step",
        "simcore.apply_attack", "cli.write_detector_csv", "simcore.TimeSeries.to_csv",
    ),
}
# Layers a workload is meant to bypass: no call may reach them.
BYPASSED = {
    "regulate": ("sysid.", "watermark."),
    "detect": ("sysid.identify", "sysid.select_order", "casestudy.identification_records"),
}


def _jobs_covering(name: str) -> list[int]:
    """Indices into the seed-1 job list: the first job of every stratum."""
    seen, picked = set(), []
    for i, job in enumerate(wl.job_list(name, 1)):
        if job.stratum not in seen:
            seen.add(job.stratum)
            picked.append(i)
    return picked


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic(tmp_path, name):
    first = wl.write_configs(wl.job_list(name, 7), tmp_path / "a")
    again = wl.write_configs(wl.job_list(name, 7), tmp_path / "b")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in again]
    assert [p.name for p in first] == [p.name for p in again]
    other = [j.key for j in wl.job_list(name, 8)]
    assert other != [j.key for j in wl.job_list(name, 7)]
    assert sorted(other) == sorted(j.key for j in wl.job_list(name, 7))


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_block_has_the_same_mix(name):
    pattern = wl.PATTERNS[name]
    strata = [j.stratum for j in wl.job_list(name, 3)]
    assert strata == list(pattern) * wl.LIBRARY_BLOCKS[name]


def test_every_library_job_has_a_reference():
    refs = checks.load_references()
    for name in WORKLOADS:
        keys = {j.key for stratum in wl.library(name).values() for j in stratum}
        assert keys == set(refs[name])
    assert refs["detect-setup"]["d_star"] == checks.EXPECTED_ORDER


@pytest.fixture(scope="module")
def traced_sites(tmp_path_factory):
    """Site call counts per workload over one job of every stratum."""
    refs = checks.load_references()
    counts = {}
    for name in WORKLOADS:
        root = tmp_path_factory.mktemp(name)
        _, _, jobs, cfgs, client, problems = run.set_up(name, 1, root, refs)
        assert problems == []
        tracer = Tracer()
        for i in _jobs_covering(name):
            result = client.run(jobs[i], cfgs[i], tracer=tracer, job_id=jobs[i].key)
            assert result.ok, result.problems
        counts[name] = tracer.site_calls
    return counts


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_goes_through_its_call_sites(traced_sites, name):
    sites = traced_sites[name]
    missing = [s for s in EXERCISED[name] if sites.get(s, 0) == 0]
    assert missing == []


@pytest.mark.parametrize("name", sorted(BYPASSED))
def test_workload_bypasses_its_layers(traced_sites, name):
    bypassed = [site for _, _, fn, site in call_sites() if fn.startswith(BYPASSED[name])]
    assert bypassed
    assert {s: traced_sites[name][s] for s in bypassed if traced_sites[name].get(s)} == {}


def test_tracer_restores_the_program():
    from microagc import cli, simcore

    originals = (cli.dw_step, simcore.dw_step, simcore.ZohStepper.step)
    tracer = Tracer()
    tracer.install()
    assert cli.dw_step is not originals[0]
    tracer.uninstall()
    assert (cli.dw_step, simcore.dw_step, simcore.ZohStepper.step) == originals


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("trace, section, table", [
    (0, "end_to_end", run.END_TO_END),
    (1, "per_layer", run.PER_LAYER),
])
def test_printed_metrics_match_benchmark_json(tmp_path, capsys, trace, section, table):
    assert _declared(section) == table
    args = Namespace(workload="regulate", seed=1, seconds=0.1, trace=trace)
    result = run.run(args, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _declared(section)
    json.dumps(result)
    assert not (tmp_path / f"run-{os.getpid()}").exists()
