"""Byte identity of every output of `scripts/output_digests.py`.

The committed digests were recorded with numpy 2.4.6 on Python 3.11,
x86-64 Linux; elsewhere a draw or a rounding may differ without any
change to the code, so the test skips there.
"""

import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_outputs_match_committed_digests():
    if (np.__version__ != "2.4.6" or sys.version_info[:2] != (3, 11)
            or platform.system() != "Linux"
            or platform.machine() != "x86_64"):
        pytest.skip("digests recorded with numpy 2.4.6, Python 3.11, "
                    "x86-64 Linux")
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digests.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    expected = (ROOT / "scripts" / "output_digests.txt").read_text()
    assert result.stdout == expected
