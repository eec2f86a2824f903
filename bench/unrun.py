"""The src lines that the Tier-1 suite never executes.

    python3 bench/unrun.py

Runs `python -m pytest -q -p no:cacheprovider tests perfbench` in a child
process. A sitecustomize at the head of the child's PYTHONPATH installs
sys.settrace and threading.settrace for frames under src/microagc, so every
Python process that the tests start with that PYTHONPATH (the CLI tests'
subprocesses) is traced too; each process writes the lines it ran to one file
per pid when it exits. The hits are merged, a module's executable lines are
those of its compiled code objects (co_lines), and the never-run lines of each
module are printed. The exit code is pytest's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "microagc"
PYTEST = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests", "perfbench"]

# the traced process's sitecustomize; _SRC and _OUT are filled in by traced_env
SITECUSTOMIZE = """\
import atexit, json, os, sys, threading
_SRC, _OUT, _hits = {src!r}, {out!r}, {{}}


def _line(frame, event, arg):
    if event == "line":
        _hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    if frame.f_code.co_filename.startswith(_SRC):
        return _line(frame, "line", arg)  # a call counts its def line
    return None


@atexit.register
def _dump():
    with open(os.path.join(_OUT, f"{{os.getpid()}}.json"), "w") as fh:
        json.dump({{name: sorted(lines) for name, lines in _hits.items()}}, fh)


sys.settrace(_call)
threading.settrace(_call)
"""


def traced_env(tmp: Path, src: Path) -> tuple[dict, Path]:
    """The environment of a process traced under src, and the directory that
    receives its hit files; both live in tmp."""
    site, out = tmp / "site", tmp / "hits"
    site.mkdir()
    out.mkdir()
    (site / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(src=str(src) + os.sep, out=str(out)), encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(site), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path), out


def merged_hits(out: Path) -> dict[str, set[int]]:
    """The lines run per file, over every process's hit file in out."""
    hits: dict[str, set[int]] = {}
    for path in out.glob("*.json"):
        for name, lines in json.loads(path.read_text(encoding="utf-8")).items():
            hits.setdefault(name, set()).update(lines)
    return hits


def never_run(path: Path, hits: set[int]) -> list[int]:
    """The executable lines of the module at path, those of its code objects
    and every nested one, that hits leaves out."""
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for *_, line in code.co_lines() if line)  # 0: the module's start
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return sorted(lines - hits)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        env, out = traced_env(Path(tmp), SRC)
        rc = subprocess.run([sys.executable, *PYTEST], cwd=ROOT, env=env).returncode
        hits = merged_hits(out)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = never_run(path, hits.get(str(path), set()))
        total += len(lines)
        if lines:
            print(f"{path.relative_to(ROOT)}: {len(lines)}: {' '.join(map(str, lines))}")
    print(f"never run: {total} lines")
    return rc


if __name__ == "__main__":
    sys.exit(main())
