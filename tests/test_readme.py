"""The README's examples must run, or validate, as written against the package."""

import argparse
import re
from pathlib import Path

import yaml

import photonstack
from photonstack import ScanSpec, build_stack, cli

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


def test_readme_synopsis_lists_each_subcommands_options():
    """The command-line block names exactly the options that each
    subcommand's parser accepts (--help aside)."""
    block = re.search(r"## Command line\n+```\n(.*?)```", README.read_text(encoding="utf-8"),
                      flags=re.S).group(1)
    listed = {line.split()[1]: set(re.findall(r"--[\w-]+", line))
              for line in block.splitlines() if line.startswith("photonstack ")}
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    accepted = {name: {o for a in p._actions for o in a.option_strings if o.startswith("--")}
                - {"--help"} for name, p in subparsers.items()}
    assert len(listed) == 3 and listed == accepted


def test_readme_example_headers_quote_the_current_version():
    """A version quoted in an example header line (``photonstack X.Y.Z
    scan`` or ``balance``) is the package's own."""
    quoted = re.findall(r"photonstack\s+(\d+\.\d+\.\d+)\s+(?:scan|balance)\b",
                        README.read_text(encoding="utf-8"))
    assert quoted and set(quoted) == {photonstack.__version__}
