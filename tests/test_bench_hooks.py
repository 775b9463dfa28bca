"""The traced benchmark launcher must still find every hook it patches.

``bench/launcher.py`` wraps named classes and functions of ``geolex``
from outside.  A refactor that renames or deletes one of them should
fail here, not only when the benchmark runs with ``--trace 1``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_launcher_installs_every_hook():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "bench"]))
    result = subprocess.run(
        [sys.executable, "-c", "import launcher; launcher._install(launcher.Tracer())"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
