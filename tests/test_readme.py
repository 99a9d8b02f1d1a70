"""The README's Python example must run as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.S)
    assert blocks, "README.md has no python block"
    for block in blocks:
        namespace = {}
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["T"].total.shape == namespace["omega"].shape
    assert namespace["f"].total.shape == namespace["omega"].shape
