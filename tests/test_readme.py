"""The README's library example runs and prints what it shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_typical_library_use_block_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"Typical library use:\n\n```python\n(.*?)```", text, re.S)
    assert block is not None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["x=[4,6>", "x=[1,3>", "2"]
