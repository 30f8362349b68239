"""The demo scripts run to completion and print what they promise."""

import logging
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.fixture
def run_demo(capsys):
    logger = logging.getLogger("akmnet.selection")
    level = logger.level

    def run(name):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
        return capsys.readouterr().out

    yield run
    logger.setLevel(level)


def test_selection_walkthrough(run_demo):
    out = run_demo("selection_walkthrough.py")
    assert "=== random 8-frame clip ===" in out
    assert "selected 1/5: (1,)   (fallback)" in out
    assert "routing audits: 1 new pass(es), 0 violation(s) total" in out


def test_quickstart_overfit(run_demo):
    out = run_demo("quickstart_overfit.py")
    epochs = [line for line in out.splitlines() if line.startswith("epoch")]
    assert epochs and epochs[-1].endswith("train acc 1.00")
    overlaps = [line for line in out.splitlines() if "overlap" in line]
    assert len(overlaps) == 8
