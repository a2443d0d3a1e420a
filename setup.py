"""Packaging for the ``repro`` library (src/ layout).

The package lives under ``src/repro``; this file declares that layout
explicitly so ``pip install .`` and editable installs resolve it without a
``pyproject.toml`` (the image this project targets ships only the classic
setuptools toolchain).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

HERE = Path(__file__).parent


def read_version() -> str:
    """The single-source version from ``src/repro/__init__.py``."""
    text = (HERE / "src" / "repro" / "__init__.py").read_text()
    match = re.search(r'^__version__ = "([^"]+)"', text, re.MULTILINE)
    if match is None:
        raise RuntimeError("could not find __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro-icdcs15-multipath-detection",
    version=read_version(),
    description=(
        "Reproduction of 'On Multipath Link Characterization and Adaptation "
        "for Device-free Human Detection' (Zhou et al., ICDCS 2015)"
    ),
    long_description=(HERE / "README.md").read_text() if (HERE / "README.md").exists() else "",
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro": ["py.typed"]},
    include_package_data=True,
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy", 'tomli; python_version<"3.11"'],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
        "Typing :: Typed",
    ],
)
