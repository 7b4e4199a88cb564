"""CLI-level tests: the lint gate catches each seeded defect class.

The acceptance contract: seeding a defect into a scratch file makes
``python -m repro.analysis`` exit non-zero naming the expected rule,
``--update-baseline`` then accepts it, and the committed repository
baseline keeps the real tree green (the repo-clean meta-test).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import main as analysis_main
from repro.scenarios.cli import main as scenarios_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def write(tmp_path: Path, name: str, source: str) -> str:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return str(path)


class TestDefectClasses:
    def test_unseeded_default_rng_fails_with_det001(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "defect.py",
            """
            import numpy as np
            rng = np.random.default_rng()
            """,
        )
        assert analysis_main([path]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_wall_clock_in_exec_path_fails_with_det004(
        self, tmp_path, capsys
    ):
        path = write(
            tmp_path,
            "defect.py",
            """
            import time
            def simulate(rng):
                start = time.time()
                return start
            """,
        )
        assert analysis_main([path]) == 1
        assert "DET004" in capsys.readouterr().out

    def test_lambda_to_process_backend_fails_with_pickle001(
        self, tmp_path, capsys
    ):
        path = write(
            tmp_path,
            "defect.py",
            """
            def launch(runner, items):
                return runner.map(lambda x: x + 1, items)
            """,
        )
        assert analysis_main([path]) == 1
        assert "PICKLE001" in capsys.readouterr().out

    def test_bad_catalog_key_fails_with_spec002(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "catalogs/bad.json",
            '{"name": "x", "topology": "scope_cooling", "bogus": 1}',
        )
        assert analysis_main([path]) == 1
        assert "SPEC002" in capsys.readouterr().out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "clean.py",
            """
            import numpy as np
            def simulate(seed):
                rng = np.random.default_rng(seed)
                return rng.random()
            """,
        )
        assert analysis_main([path]) == 0
        assert "0 finding(s)" in capsys.readouterr().out


class TestBaselineWorkflow:
    def test_update_baseline_then_green(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        write(
            tmp_path,
            "defect.py",
            """
            import numpy as np
            rng = np.random.default_rng()
            """,
        )
        baseline = str(tmp_path / "baseline.json")
        assert analysis_main(
            ["--update-baseline", "--baseline", baseline, "defect.py"]
        ) == 0
        capsys.readouterr()
        assert analysis_main(
            ["--baseline", baseline, "defect.py"]
        ) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_stale_entries_reported(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(
            tmp_path,
            "defect.py",
            "import numpy as np\nrng = np.random.default_rng()\n",
        )
        baseline = str(tmp_path / "baseline.json")
        analysis_main(
            ["--update-baseline", "--baseline", baseline, "defect.py"]
        )
        write(
            tmp_path,
            "defect.py",
            "import numpy as np\nrng = np.random.default_rng(7)\n",
        )
        capsys.readouterr()
        assert analysis_main(["--baseline", baseline, "defect.py"]) == 1
        out = capsys.readouterr().out
        assert "stale" in out and "--update-baseline" in out
        # Entries for files outside the scanned paths are not stale.
        write(tmp_path, "clean.py", "x = 1\n")
        assert analysis_main(["--baseline", baseline, "clean.py"]) == 0

    def test_unreadable_baseline_is_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "clean.py", "x = 1\n")
        bad = write(tmp_path, "baseline.json", "not json")
        assert analysis_main(["--baseline", bad, path]) == 2


class TestOutputFormats:
    def test_json_format(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "defect.py",
            "import numpy as np\nrng = np.random.default_rng()\n",
        )
        assert analysis_main(["--format", "json", path]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_scanned"] == 1
        assert [f["rule"] for f in payload["findings"]] == ["DET001"]
        assert payload["findings"][0]["fingerprint"]

    def test_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "SEED002", "RACE001", "PICKLE001",
                        "SPEC004", "PARSE001"):
            assert rule_id in out

    def test_no_paths_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # no src/ or examples/ here
        assert analysis_main([]) == 2


class TestScenariosLint:
    def test_broken_catalog_fails(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "broken.json",
            '{"name": "x", "topology": "nope", "replications": 0}',
        )
        assert scenarios_main(["lint", path]) == 1
        out = capsys.readouterr().out
        assert "SPEC003" in out and "SPEC004" in out

    def test_catalog_dir_flag(self, tmp_path, capsys):
        write(tmp_path, "ok.json", '{"name": "x"}')
        assert scenarios_main(["lint", "--catalog", str(tmp_path)]) == 0

    def test_nothing_to_lint_is_usage_error(self, capsys):
        assert scenarios_main(["lint"]) == 2

    def test_shipped_example_catalogs_are_clean(self, capsys):
        catalog_dir = REPO_ROOT / "examples" / "catalogs"
        assert scenarios_main(["lint", "--catalog", str(catalog_dir)]) == 0


class TestRepoClean:
    def test_repository_is_clean_against_committed_baseline(self):
        """The acceptance meta-test: the real tree lints green."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.analysis",
                "--baseline", "analysis-baseline.json",
                "src", "examples",
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr
