"""Setuptools entry point.

The offline environment ships setuptools without the ``wheel`` package, so
PEP 660 editable installs (``pip install -e .``) cannot build the editable
wheel.  Keeping the metadata here (rather than in a ``pyproject.toml``)
lets both of these work:

* ``pip install -e .`` (pip falls back to the legacy develop path), and
* ``python setup.py develop`` directly.

Installing exposes the ablation suite as the ``repro-experiments``
console command (equivalent to ``python -m repro.experiments.runner``).
"""

from setuptools import find_packages, setup

setup(
    name="repro-dcfsr",
    version="1.0.0",
    description=(
        "Energy-efficient flow scheduling and routing with hard deadlines "
        "in data center networks (ICDCS 2014 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy", "networkx"],
    extras_require={
        # Compiled kernel tier (repro.kernels): a numba JIT backend for
        # the EDF sweep.  Everything runs without it (pure-Python
        # fallback); install with `pip install .[kernels]`.
        "kernels": ["numba"],
    },
    entry_points={
        "console_scripts": [
            "repro-experiments=repro.experiments.runner:main",
        ],
    },
)
