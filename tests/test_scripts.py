"""scripts/oscillation_scan.py imports the package by its public names, so
a renamed or removed name breaks it without failing any library test.  It
runs here once, at a small size, in a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_oscillation_scan_runs():
    # y = 1e300 has theta_3 ~ 1e-36, which the direct sum alone could not
    # resolve: the scan stopped on theta-unresolved
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "oscillation_scan.py"),
            *("--y", "2", "1e300", "--n-max", "5"),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["y", "bound", "max", "rho", "min", "rho", "fill"]
    assert [row.split()[0] for row in rows] == ["2", "1e300"]
