"""Every demo and the README quick start run against the current API.

Each demo runs in a temporary directory, because demo 03 writes its sweep
CSV to the working directory.  Demo 03 evaluates about 1 300 P(tau) values
at Lambda = 5 and is the slowest, about 3 s.
"""

import contextlib
import io
import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", ["01_relativistic_regimes.py",
                                  "02_box_revival_dynamics.py",
                                  "03_violation_window.py",
                                  "04_free_expansion_asymptotics.py"])
def test_demo_runs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue()


def test_readme_quick_start_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.DOTALL)
    assert block is not None, "README has no python block"
    exec(compile(block.group(1), "README.md quick start", "exec"), {})
