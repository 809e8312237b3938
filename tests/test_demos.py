"""Demos 01, 02 and 04 run to completion against the current API.

Demo 03 is left out: it sweeps whole violation windows and takes about
half a minute.
"""

import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_relativistic_regimes.py",
                                  "02_box_revival_dynamics.py",
                                  "04_free_expansion_asymptotics.py"])
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue()
