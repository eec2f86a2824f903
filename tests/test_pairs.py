"""The paired-run summary of bench/pairs.py: win counts, ties, the bound
check, the gain rule, the per-layer medians and merge of the traced runs, and
the copy of the checkout that the change side runs from."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "bench" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

METRICS = [
    {"name": "job_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def runs(base_ms, change_ms):
    def side(ms):
        return {"metrics": {"job_ms_p50": {"value": ms}, "jobs_per_s": {"value": 1e3 / ms}}}
    return [{"base": side(b), "change": side(c)} for b, c in zip(base_ms, change_ms)]


def test_gain_needs_nine_tenths_of_ten_pairs_and_a_shift_beyond_the_spread():
    base = [100.0 + i for i in range(10)]
    change = [60.0] * 9 + [base[9]]          # nine wins, one tie
    out = pairs.summarize(runs(base, change), METRICS)
    p50 = out["job_ms_p50"]
    assert (p50["change_wins"], p50["ties"], p50["pairs"]) == (9, 1, 10)
    assert p50["gain"] and not p50["worse_than_bound"]
    assert p50["base"]["median"] == pytest.approx(104.5)
    assert out["jobs_per_s"]["change_wins"] == 9 and out["jobs_per_s"]["gain"]

    assert not pairs.summarize(runs(base[:3], change[:3]), METRICS)["job_ms_p50"]["gain"]
    eight = change[:8] + base[8:]
    assert not pairs.summarize(runs(base, eight), METRICS)["job_ms_p50"]["gain"]


def test_worse_than_bound_follows_the_metric_direction():
    out = pairs.summarize(runs([100.0] * 4, [130.0] * 4), METRICS)
    assert out["job_ms_p50"]["worse_than_bound"]
    assert out["job_ms_p50"]["median_change_rel"] == pytest.approx(0.3)
    assert not out["jobs_per_s"]["worse_than_bound"]  # 1/1.3: 23 % fewer jobs
    assert not pairs.summarize(runs([100.0] * 4, [70.0] * 4), METRICS)[
        "job_ms_p50"]["worse_than_bound"]


def test_per_layer_table_merges_both_sides_by_name():
    base = {"sysid.predict.calls": {"value": 21.0, "unit": "count"},
            "sysid.select_order.ms": {"value": 0.0, "unit": "ms"},
            "old.metric": {"value": 3.0, "unit": "us"}}
    change = {"sysid.predict.calls": {"value": 11.0, "unit": "count"},
              "sysid.select_order.ms": {"value": 5.0, "unit": "ms"},
              "new.metric": {"value": 2.0, "unit": "ms"}}
    out = pairs.per_layer_table(base, change)
    assert list(out) == sorted(out) and len(out) == 4
    assert out["sysid.predict.calls"] == {
        "unit": "count", "base": 21.0, "change": 11.0,
        "change_rel": pytest.approx(-10.0 / 21.0)}
    assert out["sysid.select_order.ms"]["change_rel"] is None   # base reads 0
    assert out["old.metric"] == {"unit": "us", "base": 3.0, "change": None,
                                 "change_rel": None}
    assert out["new.metric"] == {"unit": "ms", "base": None, "change": 2.0,
                                 "change_rel": None}


def test_per_layer_values_are_medians_over_the_traced_runs():
    def traced(**values):
        return {"metrics": {k: {"value": v, "unit": "us"} for k, v in values.items()}}

    runs3 = [traced(a=3.0, b=10.0), traced(a=1.0), traced(a=2.0, b=30.0)]
    assert pairs.median_metrics(runs3) == {"a": {"value": 2.0, "unit": "us"},
                                           "b": {"value": 20.0, "unit": "us"}}
    assert pairs.TRACED_RUNS == 3


def test_snapshot_copies_the_tracked_files_as_they_are_on_disk(tmp_path):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git[:3] + ["init", "-q"], check=True)
    for name, text in {"src/kept.py": "old\n", "src/edited.py": "old\n",
                       "gone.txt": "old\n"}.items():
        (repo / name).write_text(text)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "start"], check=True)
    (repo / "src" / "edited.py").write_text("uncommitted\n")
    (repo / "src" / "staged.py").write_text("new\n")
    subprocess.run(git + ["add", "src/staged.py"], check=True)
    (repo / "untracked.txt").write_text("scratch\n")
    (repo / "gone.txt").unlink()

    pairs.snapshot(repo, tmp_path / "copy")
    copied = {p.relative_to(tmp_path / "copy").as_posix(): p.read_text()
              for p in (tmp_path / "copy").rglob("*") if p.is_file()}
    assert copied == {"src/kept.py": "old\n", "src/edited.py": "uncommitted\n",
                      "src/staged.py": "new\n"}
