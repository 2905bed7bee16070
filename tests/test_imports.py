"""Import-cost pins for the packages every replay process loads."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout.strip()


def test_replay_packages_leave_scipy_optimize_unloaded():
    """``repro.service`` reaches ``repro.analysis`` through the
    experiments package, and no module under ``repro`` may pull in
    :mod:`scipy.optimize` (about 17 MiB per process): its only users are
    the scipy oracles in ``tests/oracles/convex.py``."""
    code = (
        "import sys\n"
        "import repro.service, repro.experiments\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    assert _run(code) == "False"


def test_no_module_defines_an_oracle_or_loads_scipy_optimize():
    """Every module under ``repro``, imported: none defines a public
    ``*_reference`` or ``*Reference`` name (oracles live in
    ``tests/oracles/``, production engines in ``src/``), and together
    they still leave :mod:`scipy.optimize` unloaded."""
    code = (
        "import importlib, inspect, pkgutil, sys\n"
        "import repro\n"
        "oracles = []\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    module = importlib.import_module(info.name)\n"
        "    for name, value in vars(module).items():\n"
        "        if name.startswith('_'):\n"
        "            continue\n"
        "        if not name.endswith(('_reference', 'Reference')):\n"
        "            continue\n"
        "        imported = (\n"
        "            inspect.isfunction(value) or inspect.isclass(value)\n"
        "        ) and value.__module__ != info.name\n"
        "        if not imported:\n"
        "            oracles.append(info.name + '.' + name)\n"
        "print(sorted(oracles))\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    oracles, scipy_optimize = _run(code).splitlines()
    assert oracles == "[]"
    assert scipy_optimize == "False"
