"""Legacy setup shim.

The offline environment lacks the ``wheel`` package, so PEP 517 editable
installs fail; this file lets ``pip install -e .`` fall back to the
classic ``setup.py develop`` path.  All metadata lives in pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Scoped Buffered Persistency Model for GPUs' "
        "(ASPLOS 2023)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
