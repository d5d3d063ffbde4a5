"""``setup.py`` declares the distribution's metadata itself."""

import subprocess
import sys
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_setup_py_reports_name_and_package_version():
    completed = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["repro", "1.0.0"]
    assert repro.__version__ == "1.0.0"
