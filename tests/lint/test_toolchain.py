"""Third-party toolchain gates: ruff and mypy, when the dev extra is in.

The container the tier-1 suite usually runs in does not ship ruff/mypy
(they are dev-extra, not runtime, dependencies), so these tests skip
cleanly when the tools are absent and enforce a clean run when present.
The configuration they exercise lives in ``pyproject.toml``.
"""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.skipif(
    shutil.which("ruff") is None, reason="ruff not installed (dev extra)"
)
def test_ruff_check_is_clean():
    proc = subprocess.run(
        ["ruff", "check", "src/repro", "tests"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(
    shutil.which("mypy") is None, reason="mypy not installed (dev extra)"
)
def test_mypy_is_clean():
    proc = subprocess.run(
        ["mypy", "--config-file", "pyproject.toml"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_py_typed_marker_ships():
    assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()
