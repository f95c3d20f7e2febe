"""Setuptools shim.

The offline environment lacks the ``wheel`` package, so PEP 660
editable installs are unavailable; this setup.py lets
``pip install -e .`` fall back to the legacy ``setup.py develop`` path.
Metadata mirrors pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "SpKAdd: parallel algorithms for adding a collection of sparse "
        "matrices (reproduction of arXiv:2112.10223)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The fast backend compiles its kernel from this source on first use.
    package_data={"repro.kernels": ["native.c"]},
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
