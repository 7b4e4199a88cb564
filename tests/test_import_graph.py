"""What ``import repro`` pulls in.

``scipy.stats`` alone adds ~0.7 s to every cold start, and the library
needs only four ``scipy.special`` kernels from it.  These checks run a
fresh interpreter so that a stray ``from scipy import stats`` (or an
eager ``scipy.optimize``) anywhere on the import or smoke-run path fails
here instead of silently slowing every CLI run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_SRC = str(Path(repro.__file__).resolve().parent.parent)
_HEAVY = ("scipy.stats", "scipy.optimize")


def _loaded_after(code: str) -> list:
    """Run ``code`` in a fresh interpreter; return the heavy SciPy
    modules present in its ``sys.modules`` afterwards."""
    probe = (
        f"{code}\n"
        "import json, sys\n"
        f"print(json.dumps([m for m in {_HEAVY!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_import_and_smoke_run_skip_scipy_stats_and_optimize():
    loaded = _loaded_after(
        "import repro\n"
        "from repro.api import Session\n"
        "Session()\n"
        "Session().run('smoke', seed=0)\n"
    )
    assert loaded == []


def test_fit_weibull_is_the_path_that_loads_scipy_optimize():
    loaded = _loaded_after(
        "import repro\n"
        "from repro.stats.fitting import fit_weibull\n"
        "fit = fit_weibull([0.7, 1.0, 1.9, 2.4, 3.5, 5.0])\n"
        "assert 0.02 < fit.distribution.shape < 50.0, fit\n"
    )
    assert loaded == ["scipy.optimize"]
