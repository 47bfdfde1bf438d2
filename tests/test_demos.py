"""Smoke test: every script in demos/ runs to completion on the current API."""

import pathlib
import runpy
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(script, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # figures are optional; keep the run free of plotting and of files in demos/
    monkeypatch.setitem(sys.modules, "matplotlib", None)
    runpy.run_path(str(script), run_name="__main__")
