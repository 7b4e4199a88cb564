"""Packaging metadata: ``setup.py`` and ``repro.__version__`` agree.

``setup.py`` reads the version out of ``src/repro/__init__.py``, so the
package has one version string; this pins that the two never drift.
"""

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_setup_py_reports_the_package_version(tmp_path):
    completed = subprocess.run(
        [sys.executable, str(ROOT / "setup.py"), "--version"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
    )
    assert completed.stdout.strip().splitlines()[-1] == repro.__version__
