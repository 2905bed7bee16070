"""Import-cost pins for the packages every replay process loads."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_replay_packages_leave_scipy_optimize_unloaded():
    """``repro.service`` reaches ``repro.analysis`` through the
    experiments package; only the oracle module
    :mod:`repro.analysis.convex` may pull in :mod:`scipy.optimize`
    (about 17 MiB per process), so the packages a replay imports must
    not."""
    code = (
        "import sys\n"
        "import repro.service, repro.experiments\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
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
    assert done.stdout.strip() == "False"
