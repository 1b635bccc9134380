"""Smoke-run every example script end to end.

The examples are the documentation users copy from, so each must run
clean; the VGG-16 walkthrough, the heaviest, takes a few seconds.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_quickstart_example():
    out = _run("quickstart.py")
    assert "OOC conv engine" in out
    assert "productivity" in out
    assert "slowest component bound" in out
    # one run builds the library and counts its offline cost
    assert "offline component build" in out
    assert "offline component build 0.00 s" not in out


def test_custom_cnn_example():
    out = _run("custom_cnn.py")
    assert "reuses" in out            # checkpoint reuse detected
    assert "accelerator:" in out


def test_lenet_example():
    out = _run("lenet_accelerator.py")
    assert "LeNet-5 performance exploration" in out
    assert "our work (stitched)" in out
    assert "offline component build" in out
    assert "offline component build 0.00 s" not in out


def test_vgg16_example():
    out = _run("vgg16_accelerator.py")
    assert "our work (stitched+piped)" in out
    assert "ratio vs baseline" in out


def test_design_space_exploration_example():
    out = _run("design_space_exploration.py")
    assert "objective trade-off" in out
    # the library build runs the sweep for each of LeNet-5's six components
    assert "explored library: 6 checkpoints" in out
    assert "floorplan (cf. paper Fig. 8):" in out
    assert "  A = comp0_conv1 (" in out   # the floorplan legend
