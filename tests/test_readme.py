"""The README's library example runs as written, and every name the
package exports resolves."""
import contextlib
import io
import re
from pathlib import Path

import closurekit

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1, "expected one python block under ## Library"
    return blocks[0]


def test_readme_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_block(), str(README), "exec"), {})
    assert out.getvalue().splitlines() == [
        "('x', 'y', 'T1_1')",
        "['x^2 - y*T1_1', 'x*T1_1 - y', 'T1_1^2 - x']",
    ]


def test_every_export_resolves():
    for name in closurekit.__all__:
        assert hasattr(closurekit, name), name
    assert len(set(closurekit.__all__)) == len(closurekit.__all__)
