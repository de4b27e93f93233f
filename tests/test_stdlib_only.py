"""The package runs on the standard library alone.

Importing every public entry point must not pull numpy in: a
dependency that only some installs have would make outputs depend on
the install.
"""

import os
import subprocess
import sys
from pathlib import Path


def test_public_imports_leave_numpy_unloaded():
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "import repro, repro.api, repro.cli, repro.reliability, "
        "repro.workloads\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    assert out.strip() == "[]"
