"""Import-cost pins for the packages every replay process loads."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_solver_modules_leave_the_frank_wolfe_engine_unloaded():
    """``repro.core`` and ``repro.routing`` re-export lazily, so
    Most-Critical-First and the fast router load neither the
    Frank–Wolfe engine nor :mod:`scipy.sparse`."""
    code = (
        "import sys\n"
        "import repro.core.dcfs, repro.routing.fastpath\n"
        "heavy = ('repro.routing.mcflow', 'scipy.sparse')\n"
        "print([name for name in heavy if name in sys.modules])\n"
    )
    assert _run(code) == "[]"


def test_lazy_package_names_resolve():
    """Every name in the lazy packages' ``__all__`` imports; an unknown
    name raises ``AttributeError``, so a submodule of the same name is
    still imported by ``from package import name``."""
    import repro.core
    import repro.routing

    for package in (repro.core, repro.routing):
        for name in package.__all__:
            assert getattr(package, name).__name__ == name
        with pytest.raises(AttributeError):
            package.no_such_name
    from repro.core import dcfs
    from repro.routing import mcflow

    assert dcfs.__name__ == "repro.core.dcfs"
    assert mcflow.__name__ == "repro.routing.mcflow"


def test_one_service_class_snapshots_and_no_engine_name_is_bound():
    """Every module under ``repro``, walked as the oracle-name guard walks
    them: only ``ReplayService`` defines ``snapshot`` or ``restore`` (or
    a ``snapshot_state``/``restore_state`` codec), and no module binds
    the name ``ShardedReplayEngine``.  The payload is the service,
    pickled, so no other class keeps a codec of its own state, and no
    second service class or alias stands in front of it."""
    code = (
        "import importlib, inspect, pkgutil\n"
        "import repro\n"
        "names = {'snapshot', 'restore', 'snapshot_state', 'restore_state'}\n"
        "codecs, bound = set(), []\n"
        "modules = ['repro'] + [\n"
        "    info.name\n"
        "    for info in pkgutil.walk_packages(repro.__path__, 'repro.')\n"
        "]\n"
        "for name in modules:\n"
        "    module = importlib.import_module(name)\n"
        "    if 'ShardedReplayEngine' in vars(module):\n"
        "        bound.append(name)\n"
        "    for value in vars(module).values():\n"
        "        if inspect.isclass(value) and names & set(vars(value)):\n"
        "            codecs.add(value.__module__ + '.' + value.__qualname__)\n"
        "print(sorted(codecs), bound)\n"
    )
    assert _run(code) == "['repro.service.sharded.ReplayService'] []"
