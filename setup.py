"""Packaging metadata for the ``repro`` distribution (the SCPM reproduction).

The metadata lives here, in ``setup()``; the project has no
``pyproject.toml``.  ``python setup.py develop`` gives an editable install
where building a wheel is not possible.  The version is read from
``src/repro/__init__.py`` without importing the package, so this file
runs before the dependencies are installed.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

HERE = Path(__file__).resolve().parent


def read_version() -> str:
    """The ``__version__`` string declared in ``src/repro/__init__.py``."""
    source = (HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8")
    match = re.search(r'^__version__ = "([^"]+)"', source, re.MULTILINE)
    if match is None:
        raise RuntimeError("no __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    description=(
        "Structural Correlation Pattern Mining (SCPM) for large attributed graphs"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy", "networkx"],
    entry_points={"console_scripts": ["scpm = repro.cli.main:main"]},
)
