"""What ``import repro`` pulls in.

``scipy.stats`` alone adds ~0.7 s to every cold start, and the library
needs only four ``scipy.special`` kernels from it.  ``networkx`` is not
a dependency at all: the network layer keeps its own insertion-ordered
adjacency, one BFS and one topological sort, and loading networkx's
~285 modules cost every cold start ~0.1 s.  These checks run a fresh
interpreter so that a stray ``from scipy import stats``, an eager
``scipy.optimize`` or an ``import networkx`` anywhere on the import or
smoke-run path fails here instead of silently slowing every CLI run.
One of them blocks ``import networkx`` outright, so the library is
shown to work with networkx uninstalled, not only to load it late.
Petri nets (``repro.petri``) are a modelling substrate no facade path
uses, so they stay off the import and smoke-run path too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_SRC = str(Path(repro.__file__).resolve().parent.parent)
_HEAVY = ("scipy.stats", "scipy.optimize")
_SMOKE_RUN = (
    "import repro\n"
    "from repro.api import Session\n"
    "Session()\n"
    "Session().run('smoke', seed=0)\n"
)


#: Makes every ``import networkx`` in the probe fail as if it were not
#: installed.
_BLOCK_NETWORKX = """
import importlib.abc, sys

class _NoNetworkx(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "networkx" or name.startswith("networkx."):
            raise ImportError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, _NoNetworkx())
"""


def _modules_after(code: str) -> list:
    """Run ``code`` in a fresh interpreter; return the names in its
    ``sys.modules`` afterwards."""
    probe = (
        f"{code}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(sys.modules)))\n"
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


def _loaded_after(code: str) -> list:
    """The heavy SciPy modules present after ``code`` runs."""
    modules = _modules_after(code)
    return [m for m in _HEAVY if m in modules]


def test_import_and_smoke_run_skip_scipy_stats_and_optimize():
    assert _loaded_after(_SMOKE_RUN) == []


def test_fit_weibull_is_the_path_that_loads_scipy_optimize():
    loaded = _loaded_after(
        "import repro\n"
        "from repro.stats.fitting import fit_weibull\n"
        "fit = fit_weibull([0.7, 1.0, 1.9, 2.4, 3.5, 5.0])\n"
        "assert 0.02 < fit.distribution.shape < 50.0, fit\n"
    )
    assert loaded == ["scipy.optimize"]


def test_import_and_smoke_run_skip_networkx():
    modules = _modules_after(_SMOKE_RUN)
    assert [m for m in modules if m.split(".")[0] == "networkx"] == []


def test_import_and_smoke_run_skip_petri():
    modules = _modules_after(_SMOKE_RUN)
    assert [m for m in modules if m.split(".")[:2] == ["repro", "petri"]] == []


def test_library_works_with_networkx_blocked():
    modules = _modules_after(
        _BLOCK_NETWORKX
        + "try:\n"
        "    import networkx\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('networkx was not blocked')\n"
        "import repro\n"
        "from repro.api import Session\n"
        "from repro.attacks.profiles import stuxnet_like\n"
        "from repro.bayes.attackgraph import attack_graph_from_topology\n"
        "from repro.core.modeling import bayesian_attack_graph_for\n"
        "from repro.diversity.catalog import default_catalog\n"
        "from repro.scada.topologies import scope_cooling_topology\n"
        "result = Session().run('smoke', seed=0)\n"
        "assert result.records, result\n"
        "network = scope_cooling_topology()\n"
        "bag = bayesian_attack_graph_for(\n"
        "    network, default_catalog(), stuxnet_like()\n"
        ")\n"
        "assert 0.0 < bag.compromise_probability('plc_0') < 1.0\n"
        "graph = attack_graph_from_topology(\n"
        "    [('corp', 'hmi', 0.5), ('hmi', 'plc', 0.6)], {'corp': 1.0}\n"
        ")\n"
        "assert graph.hosts == ['corp', 'hmi', 'plc'], graph.hosts\n"
        "path = network.shortest_zone_path('office_0', 'plc_0')\n"
        "assert path[0] == 'office_0' and path[-1] == 'plc_0', path\n"
    )
    assert "repro.core.modeling" in modules
    assert "networkx" not in modules
