"""bench/unrun.py: the tracer its child processes install, the merge of their
hit files, and the never-run lines of a module."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "unrun", Path(__file__).resolve().parent.parent / "bench" / "unrun.py")
unrun = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(unrun)

MODULE = """\
def used(x):
    if x:
        return 1
    raise ValueError("never")


def unused():
    return [i for i in
            range(2)]
"""


def test_never_run_lines_of_a_traced_module(tmp_path):
    """A process traced under src runs used(1): the raise and unused's body
    are the lines never run; the def lines ran at import."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(MODULE)
    env, out = unrun.traced_env(tmp_path, src)
    env["PYTHONPATH"] += os.pathsep + str(src)
    subprocess.run([sys.executable, "-c", "import mod; mod.used(1)"], env=env, check=True)
    hits = unrun.merged_hits(out)
    assert set(hits) == {str(src / "mod.py")}
    assert unrun.never_run(src / "mod.py", hits[str(src / "mod.py")]) == [4, 8, 9]
    assert unrun.never_run(src / "mod.py", {1, 2, 3, 4, 7, 8, 9}) == []
