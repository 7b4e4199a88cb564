"""Setuptools build script (the repository's only packaging metadata).

A plain ``setup.py`` keeps editable installs working in offline
environments whose setuptools predates PEP 660 support (older
toolchains fall back to the legacy ``setup.py develop`` path).  The
version is read from ``src/repro/__init__.py`` with a regular
expression, without importing the package, so ``repro.__version__`` is
its single source.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def read_version() -> str:
    """``__version__`` as written in ``src/repro/__init__.py``."""
    init = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
    match = re.search(
        r'^__version__\s*=\s*["\']([^"\']+)["\']',
        init.read_text(encoding="utf-8"),
        re.MULTILINE,
    )
    if match is None:
        raise RuntimeError(f"no __version__ assignment in {init}")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    description=(
        "Diversity-based security evaluation for monitoring and control "
        "(SCADA) systems - reproduction of Cotroneo, Pecchia, Russo (DSN 2013)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
