"""Packaging for the CAT rowhammer-mitigation reproduction (ISCA 2018).

``pip install -e .`` installs the ``repro`` package from ``src/`` and
the runtime dependency (numpy).  Test/lint tooling comes from the
``test``/``dev`` extras; CI uses the fully-pinned
``requirements-dev.txt`` for reproducible runs.
"""

from pathlib import Path

from setuptools import find_packages, setup

TEST_REQUIRES = [
    "pytest>=9,<10",
    "pytest-benchmark>=5.2,<6",
    "hypothesis>=6.130,<7",
]


def read_version() -> str:
    """The single-sourced version from ``src/repro/_version.py``."""
    scope: dict = {}
    exec(
        (Path(__file__).parent / "src" / "repro" / "_version.py").read_text(
            encoding="utf-8"
        ),
        scope,
    )
    return scope["__version__"]


setup(
    name="repro-drcat",
    version=read_version(),
    description=(
        "Reproduction of the ISCA 2018 CAT/DRCAT rowhammer-mitigation "
        "study: simulation engines, figure benches, golden-figure "
        "regression gating"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The batched engine compiles this C kernel on first use.
    package_data={"repro.sim": ["kernel.c"]},
    python_requires=">=3.10",
    install_requires=["numpy>=2.1,<3"],
    extras_require={
        "test": TEST_REQUIRES,
        "dev": TEST_REQUIRES + ["ruff>=0.12,<1"],
    },
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
