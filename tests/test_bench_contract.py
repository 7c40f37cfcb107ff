"""The benchmark's tracer finds every package name it wraps.

``bench/layers.py`` looks up functions by name in the package's module
namespaces (``nd_matrix.same_side_entry``,
``solution_op.solution_diff_coefficient``, ``experiments.assemble`` and
others) and fails on a missing one, so removing or renaming such a name
breaks the traced benchmark runs.  The tracer is installed in a fresh
interpreter, since it patches the modules it wraps.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]
    )
    result = subprocess.run(
        [sys.executable, "-c", "import layers; layers.install('t')"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
