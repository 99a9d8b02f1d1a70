"""The README's examples must run, or validate, as written against the package."""

import re
from pathlib import Path

import yaml

from photonstack import ScanSpec, build_stack

README = Path(__file__).resolve().parents[1] / "README.md"
CONFIGS = README.parent / "configs"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.S)
    assert blocks, "README.md has no python block"
    for block in blocks:
        namespace = {}
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["T"].total.shape == namespace["omega"].shape
    assert namespace["f"].total.shape == namespace["omega"].shape


def test_readme_yaml_examples_validate():
    """The stack example builds, and the scan-spec example (whose stack
    path names a bundled config) parses, through the package's own checks."""
    blocks = [yaml.safe_load(b) for b in re.findall(
        r"```yaml\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)]
    stacks = [b for b in blocks if "layers" in b]
    specs = [b for b in blocks if "stack" in b]
    assert stacks and specs, "README.md lost its stack or scan-spec example"
    for config in stacks:
        build_stack(config)
    for spec in specs:
        ScanSpec.from_mapping(spec, base_dir=CONFIGS)
