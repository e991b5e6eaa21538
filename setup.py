"""Package metadata.

Kept in ``setup.py`` (not ``pyproject.toml``) because the offline
reproduction environment lacks the ``wheel`` package PEP 660 editable
installs require; this form lets ``pip install -e .`` fall back to
``setup.py develop``.  ``py.typed`` ships so downstream users can
type-check against the :mod:`repro.api` surface (PEP 561).
"""

import pathlib
import re

from setuptools import find_packages, setup

_HERE = pathlib.Path(__file__).parent
# Single source of truth for the version: repro.__version__.
_VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (_HERE / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "Reproduction of Eich & Moerkotte, 'Dynamic programming: The next "
        "step' (ICDE 2015): eager aggregation in a DP query optimizer, with "
        "a PlannerSession serving facade, plan cache and batch driver."
    ),
    long_description=(_HERE / "README.md").read_text(),
    long_description_content_type="text/markdown",
    author="repro contributors",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    # planning is stdlib-only; executing on columns needs numpy
    extras_require={"exec": ["numpy"]},
    classifiers=[
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Database",
        "Typing :: Typed",
    ],
    zip_safe=False,
)
