"""scripts/oscillation_scan.py imports the package by its public names, so
a renamed or removed name breaks it without failing any library test.  It
runs here once, at a small size, in a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_oscillation_scan_runs():
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "oscillation_scan.py"), "--y", "2", "--n-max", "5"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["y", "bound", "max", "rho", "min", "rho", "fill"]
    assert len(rows) == 1 and rows[0].split()[0] == "2"
