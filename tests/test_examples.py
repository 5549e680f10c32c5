"""Every script under ``examples/`` runs to completion.

Each example runs in a fresh interpreter, the way a reader runs it,
from a scratch directory and with the on-disk caches switched off, so
nothing outside the run is read or written.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_zero(script, tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO_ROOT / "src"),
        REPRO_ANNOTATION_CACHE="0",
        REPRO_RESULT_CACHE="0",
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
