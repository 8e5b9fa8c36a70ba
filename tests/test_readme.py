"""The README's Python quick start runs as written against the package."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start \(Python\)\s+```python\n(.*?)```", text, re.S)
    assert block is not None, "README has no Python quick-start block"
    exec(compile(block.group(1), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    # the pair the block's comment promises: 98.148, 238.148 MHz at 60 G axial
    nu1_mhz, nu2_mhz = map(float, lines[0].split())
    assert nu1_mhz == pytest.approx(98.148, abs=1e-3)
    assert nu2_mhz == pytest.approx(238.148, abs=1e-3)
