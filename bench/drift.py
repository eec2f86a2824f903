"""Output drift of this checkout against a base commit.

    python3 bench/drift.py --base HEAD~1

Exports the committed files of the base commit with `pairs.export`, then runs
the same commands in the base copy and in this checkout, each side in its own
scratch directory with relative output paths so that printed lines compare:

  - `simulate` on each shipped config in `configs/` (`detection_demo.cfg`
    alone has no model to load yet, so that run compares exit code 3);
  - the `configs/detection_demo.cfg` chain identify -> calibrate -> simulate
    -> detect in one workspace, again with `[grid.1] watermark_std = 0`,
    whose draws must stay +0.0 (a `wm` cell of `-0` would differ), and again
    with `[grid.1] controller = observer`, whose calibration run carries the
    open detector that the observer law runs from, and again with an `[event]`
    that engages grid 1's observer law at 2.1 s (the scheduled handover; the
    auto-response runs below take the flag-fired one);
  - `simulate` on the nine `slow-lqr` jobs of the benchmark's regulate
    library, rendered from `perfbench/workload.py` into the scratch directory.
    Their saturated limit cycle is chaotic, so a last-bit change in the plant
    advance grows to O(1) differences within 20 s, where the shipped configs
    show it, if at all, in the last written digits;
  - `simulate` on the first regulate library job of each law in
    REGULATE_LAWS (`optimal-z`, `decentralized` and `pi`, the laws whose
    runs are one closed-loop recursion) and the first `tie` job (controller
    off, then tie close);
  - the benchmark's detect model, trained by identify -> calibrate on the
    workload's `setup_config()` into `model/`, then simulate -> detect on the
    first library job of the `noise`, `replay-one` and `replay-all` detect
    strata, so that noise and replay attacks are compared too;
  - the same on two auto-response runs built from the first `replay-all` job:
    with `auto_response = observer`, and with the first tie job's grid 2 and
    tie added and `auto_response = collaborative`, so that the flag engages
    the observer law in one and closes the tie in the other;
  - the library's training pipeline, `casestudy.trained_detector`, as the
    acceptance suite's two detector fixtures call it (TRAINED), its model and
    baseline written by `save_model` and `save_baseline`;
  - one library run of the case-study two-grid system (`study_scenario`:
    `casestudy.grid1_spec` and `grid2_spec` joined by `default_tie`, grid 1
    switched off and then the tie closed by events), written with `to_csv`
    and `summarize`, so that the study grids and the tie close are compared
    as the library builds them, not only as the CLI does;
  - `simulate` on the shipped configs of DIVERGING with their load step's
    `amplitude_w` set to 1.7e308, so that the run diverges, exits 2 and
    names the step and column in its error line. The `regulation_pulses`
    run is one the closed-loop recursion hands back to the stepped loop;
    in the `collaborative` run both grids go non-finite at the tie close.

For every command it prints whether the exit code, the stdout lines and the
program's own stderr lines are identical: `main`'s `error: ...` lines and the
package loggers' `LEVEL microagc.<module>: ...` lines. Python warnings are
left out, since they carry the source path and line of each tree. A stderr
that differs is printed, both sides. Then for every output file it prints
either "identical" or the number of differing cells and their largest
relative difference. Cells are the fields of a line split on commas and
whitespace; a cell that differs and is not a number on both sides, and a
cell present on one side only, counts as an infinite relative difference. For a CSV file it also prints the largest
peak-relative difference, |a - b| / max |column| over both sides, which tells
a round-off change of a near-zero cell (a large relative difference) from a
real one. Exits 0 when everything is identical, 1 when anything drifted.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from pairs import ROOT, export, git

BENCH = Path(__file__).resolve().parent

CHAIN = ("identify", "calibrate", "simulate", "detect")
# the acceptance fixtures of casestudy.trained_detector: (output, seed, loads)
TRAINED = (("trained-pulsed", 5, "pulse"), ("trained-quiet", 6, "quiet"))
# library commands run from the tree's sources, by name: "train SEED LOADS --out DIR"
# calls train_detector, "study --out DIR" calls study_run
_LIBRARY = {
    "train": "import sys, drift; drift.train_detector(sys.argv[5], int(sys.argv[2]), "
             "sys.argv[3])",
    "study": "import sys, drift; drift.study_run(sys.argv[3])",
}
ATTACK_STRATA = ("noise", "replay-one", "replay-all")  # detect strata compared
REGULATE_LAWS = ("optimal-z", "decentralized", "pi")  # first regulate job of each compared
DIVERGING = ("regulation_pulses", "collaborative")  # shipped configs run to divergence
_CELL_SEP = re.compile(r"[,\s]+")
_PROGRAM_LINE = re.compile(r"error: |[A-Z]+ microagc[\w.]*: ")  # main's and the loggers'


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def cell_diff(a: str, b: str) -> tuple[int, float]:
    """(differing cells, largest relative difference) between two texts."""
    count, worst = 0, 0.0
    for line_a, line_b in itertools.zip_longest(a.splitlines(), b.splitlines(),
                                                fillvalue=""):
        if line_a == line_b:
            continue
        cells = itertools.zip_longest(_CELL_SEP.split(line_a.strip()),
                                      _CELL_SEP.split(line_b.strip()))
        for x, y in cells:
            if x == y:
                continue
            count += 1
            fx, fy = _number(x or ""), _number(y or "")
            if fx is None or fy is None:
                worst = float("inf")
            elif fx != fy:
                worst = max(worst, abs(fx - fy) / max(abs(fx), abs(fy)))
    return count, worst


def peak_diff(a: str, b: str) -> float:
    """The largest per-column |a - b| / max |column| between two CSV texts, the
    peak over the finite numbers of the column on both sides; a cell that
    differs and is not a number on both sides, or is NaN on one, counts as inf."""
    peak, diff = {}, {}
    for line_a, line_b in itertools.zip_longest(a.splitlines(), b.splitlines(),
                                                fillvalue=""):
        for j, (x, y) in enumerate(itertools.zip_longest(line_a.split(","),
                                                         line_b.split(","))):
            fx, fy = _number(x or ""), _number(y or "")
            for f in (fx, fy):
                if f is not None and math.isfinite(f):
                    peak[j] = max(peak.get(j, 0.0), abs(f))
            if x != y:
                d = math.inf if fx is None or fy is None else abs(fx - fy)
                diff[j] = max(diff.get(j, 0.0), math.inf if math.isnan(d) else d)
    return max((d / peak[j] if 0.0 < d < math.inf else d for j, d in diff.items()),
               default=0.0)


def _describe(a: str, b: str, csv: bool = False) -> str:
    if a == b:
        return "identical"
    count, worst = cell_diff(a, b)
    peak = f", max peak-rel diff {peak_diff(a, b):.3g}" if csv else ""
    return f"{count} cells differ, max rel diff {worst:.3g}{peak}"


def program_stderr(text: str) -> str:
    """The lines of a stderr text that the program writes: main's `error: ...`
    and the package loggers' `LEVEL microagc.<module>: ...`."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if _PROGRAM_LINE.match(line))


def run_cli(tree: Path, cwd: Path, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and program_stderr of one CLI command, or of a
    _LIBRARY command, run from tree's sources."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(BENCH)]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    head = ["-c", _LIBRARY[argv[0]]] if argv[0] in _LIBRARY else ["-m", "microagc.cli"]
    proc = subprocess.run([sys.executable, *head, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, program_stderr(proc.stderr)


def train_detector(out, seed: int, loads: str) -> None:
    """casestudy.trained_detector on the acceptance suite's study grid with
    seed, calibrated under the pulsating load ("pulse") or frozen loads
    ("quiet"); its model and baseline are written into out."""
    from microagc import casestudy, cli, defaults, sysid
    from microagc.lqr import CostWeights

    grid = casestudy.grid1_spec(weights=CostWeights.uniform(3, q=defaults.SCENARIO_Q_DIAG))
    signals = [casestudy.pulse_load_signal()] if loads == "pulse" else []
    det, _ = casestudy.trained_detector(grid, calibration_signals=signals, seed=seed)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    sysid.save_model(det.model, out / "model.txt")
    cli.save_baseline(det.baseline, out / "baseline.txt")


def study_scenario():
    """The case-study system as the library builds it: grid 1 (optimal-z, pulse
    load) and grid 2 (optimal-z) joined by the default tie; grid 1's controller
    goes off at 0.5 s and the tie closes at 1 s."""
    from microagc import casestudy, defaults
    from microagc.lqr import CostWeights
    from microagc.simcore import Event, Scenario

    grids = (casestudy.grid1_spec(weights=CostWeights.uniform(3, q=defaults.SCENARIO_Q_DIAG),
                                  load_signals=[casestudy.pulse_load_signal()]),
             casestudy.grid2_spec(weights=CostWeights.uniform(2, q=defaults.SCENARIO_Q_DIAG)))
    return Scenario(grids=grids, horizon=2.0, tie=casestudy.default_tie(), seed=3,
                    events=(Event(0.5, "controller_off", 0), Event(1.0, "tie_close")))


def study_run(out) -> None:
    """study_scenario's run, its timeseries.csv and summary.txt written into out."""
    from microagc.simcore import run_scenario, summarize

    scenario = study_scenario()
    ts = run_scenario(scenario)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    ts.to_csv(out / "timeseries.csv")
    (out / "summary.txt").write_text(summarize(ts, scenario), encoding="utf-8")


def demo_chain(directory: Path, name: str, edit) -> tuple[str, list[list[str]]]:
    """(output directory chain-<name>, commands) of the detection_demo chain
    whose config text is edit(text), its config written into directory."""
    text = (ROOT / "configs" / "detection_demo.cfg").read_text(encoding="utf-8")
    cfg = directory / f"detection_demo_{name}.cfg"
    cfg.parent.mkdir(parents=True, exist_ok=True)
    cfg.write_text(edit(text), encoding="utf-8")
    return f"chain-{name}", [[cmd, "--config", str(cfg)] for cmd in CHAIN]


def grid1_chain(directory: Path, key: str, value: str,
                name: str) -> tuple[str, list[list[str]]]:
    """The detection_demo chain with `key = value` in its [grid.1] section."""
    def edit(text: str) -> str:
        grid = text.index("\n[grid.1]\n")
        end = text.index("\n[", grid + 1)
        section = re.sub(rf"\n{key} = \S+", f"\n{key} = {value}", text[grid:end])
        return text[:grid] + section + text[end:]

    return demo_chain(directory, name, edit)


def zero_watermark_chain(directory: Path) -> tuple[str, list[list[str]]]:
    """The chain with grid 1's watermark_std set to 0; calibration keeps its
    own [calibrate] watermark."""
    return grid1_chain(directory, "watermark_std", "0", "zero-watermark")


def observer_chain(directory: Path) -> tuple[str, list[list[str]]]:
    """The chain with grid 1's controller set to observer: identify and
    calibrate take the grid without its detector files."""
    return grid1_chain(directory, "controller", "observer", "observer")


def scheduled_observer_chain(directory: Path) -> tuple[str, list[list[str]]]:
    """The chain with an [event] that engages grid 1's observer law at 2.1 s,
    inside the demo's attack: the scheduled handover, which copies the detector
    state and then advances it once (the flag-fired one copies it advanced)."""
    return demo_chain(directory, "scheduled-observer", lambda text: text + (
        "\n[event]\ngrid = 1\ntime_s = 2.1\naction = observer_on\n"))


def diverging_runs(directory: Path) -> list[tuple[str, list[list[str]]]]:
    """(output directory, commands) of simulate on each DIVERGING config with
    every amplitude_w set to 1.7e308, its config written into directory."""
    out = []
    for stem in DIVERGING:
        text = (ROOT / "configs" / f"{stem}.cfg").read_text(encoding="utf-8")
        cfg = directory / f"{stem}_diverging.cfg"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(re.sub(r"\namplitude_w = \S+", "\namplitude_w = 1.7e308", text),
                       encoding="utf-8")
        out.append((f"simulate-{stem}-diverging", [["simulate", "--config", str(cfg)]]))
    return out


def controller_jobs(jobs, controller: str) -> list:
    """The benchmark jobs whose config sets `controller = <controller>`."""
    return [job for job in jobs if f"\ncontroller = {controller}\n" in job.config]


def first_jobs(strata: dict, names) -> list:
    """The first library job of each named stratum, in the order of names."""
    return [strata[name][0] for name in names]


def regulate_picks(strata: dict) -> list:
    """The nine slow-lqr jobs, the first job of each law in REGULATE_LAWS, and
    the first tie job of the regulate library."""
    single = strata["single"]
    return (controller_jobs(single, "slow-lqr")
            + [controller_jobs(single, law)[0] for law in REGULATE_LAWS]
            + first_jobs(strata, ("tie",)))


def auto_response(job, mode: str, tie_job=None):
    """job with `auto_response = mode` in its [sim] section, keyed auto-<mode>;
    with tie_job, also tie_job's [grid.2] and [tie] sections."""
    config = job.config.replace("\n[sim]\n", f"\n[sim]\nauto_response = {mode}\n", 1)
    if tie_job is not None:
        config += "".join("\n" + block.rstrip("\n") + "\n"
                          for block in tie_job.config.split("\n\n")
                          if block.startswith(("[grid.2]", "[tie]")))
    return replace(job, key=f"auto-{mode}", config=config)


def render_benchmark_jobs(directory: Path) -> list[tuple[str, list[list[str]]]]:
    """(output directory, commands) of the compared benchmark jobs, their
    configs written into directory: the regulate picks, the detect model's
    training, the first detect job of each attack stratum, then the two
    auto-response runs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workload

    regulate = workload.library("regulate")
    out = [(f"simulate-{cfg.stem}", [["simulate", "--config", str(cfg)]])
           for cfg in workload.write_configs(regulate_picks(regulate),
                                             directory / "regulate")]
    setup = directory / workload.SETUP_CONFIG
    setup.write_text(workload.setup_config(), encoding="utf-8")
    out.append((workload.MODEL_DIR,  # the detect configs read ../model/
                [[cmd, "--config", str(setup)] for cmd in ("identify", "calibrate")]))
    attacked = first_jobs(workload.library("detect"), ATTACK_STRATA)
    attacked += [auto_response(attacked[-1], "observer"),
                 auto_response(attacked[-1], "collaborative", regulate["tie"][0])]
    cfgs = workload.write_configs(attacked, directory / "detect")
    out += [(cfg.stem, [[cmd, "--config", str(cfg)] for cmd in job.commands])
            for job, cfg in zip(attacked, cfgs)]
    return out


def jobs(tree: Path, extra: list) -> list[tuple[str, list[list[str]]]]:
    """(output directory, commands) of every compared run: the shipped
    configs of tree, the detection_demo chain, the TRAINED detectors, the
    two-grid study run, then the extra runs."""
    out = [(f"simulate-{cfg.stem}", [["simulate", "--config", str(cfg)]])
           for cfg in sorted((tree / "configs").glob("*.cfg"))]
    demo = str(tree / "configs" / "detection_demo.cfg")
    out.append(("chain-detection_demo", [[cmd, "--config", demo] for cmd in CHAIN]))
    out += [(name, [["train", str(seed), loads]]) for name, seed, loads in TRAINED]
    out.append(("study-two-grid", [["study"]]))
    return out + extra


def run_side(tree: Path, work: Path, extra: list) -> dict:
    """Per job: the (exit code, stdout, stderr) of each command, and the output
    files."""
    results = {}
    for name, commands in jobs(tree, extra):
        calls = [run_cli(tree, work, [*argv, "--out", name]) for argv in commands]
        files = {p.name: p.read_text(encoding="utf-8")
                 for p in sorted((work / name).glob("*")) if p.is_file()}
        results[name] = (commands, calls, files)
    return results


def report(base: dict, change: dict) -> tuple[list[str], bool]:
    """Report lines, and whether every exit code, stdout, stderr and file is
    identical."""
    lines, same = [], True
    for name in base:
        commands, base_calls, base_files = base[name]
        _, change_calls, change_files = change[name]
        lines.append(name)
        for argv, (rc_b, out_b, err_b), (rc_c, out_c, err_c) in zip(
                commands, base_calls, change_calls):
            same = same and rc_b == rc_c and out_b == out_c and err_b == err_c
            code = "identical" if rc_b == rc_c else f"{rc_b} -> {rc_c}"
            lines.append(f"  {argv[0]}: exit code {code} ({rc_c}); "
                         f"stdout {_describe(out_b, out_c)}; stderr {_describe(err_b, err_c)}")
            if err_b != err_c:
                lines += [f"    {side} stderr: {line}" for side, err in
                          (("base", err_b), ("change", err_c)) for line in err.splitlines()]
        for fname in sorted(set(base_files) | set(change_files)):
            if fname not in change_files or fname not in base_files:
                same = False
                side = "base" if fname in base_files else "change"
                lines.append(f"  {fname}: only in {side}")
            else:
                same = same and base_files[fname] == change_files[fname]
                lines.append(f"  {fname}: " + _describe(base_files[fname], change_files[fname],
                                                         fname.endswith(".csv")))
    return lines, same


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="commit to compare against")
    args = p.parse_args(argv)
    base_commit = git("rev-parse", args.base)
    work = Path(tempfile.mkdtemp())
    try:
        export(base_commit, work / "tree")
        extra = [zero_watermark_chain(work / "cfg"), observer_chain(work / "cfg"),
                 scheduled_observer_chain(work / "cfg"), *render_benchmark_jobs(work / "cfg"),
                 *diverging_runs(work / "cfg")]
        sides = {}
        for side, tree in (("base", work / "tree"), ("change", ROOT)):
            (work / side).mkdir()
            sides[side] = run_side(tree, work / side, extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines, same = report(sides["base"], sides["change"])
    print(f"base {base_commit} vs this checkout")
    print("\n".join(lines))
    print("all outputs identical" if same else "drift found")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
