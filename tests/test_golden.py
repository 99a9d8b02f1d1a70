"""Byte-level pins of the bundled scan outputs and of the balance CLI.

The hashes are tied to the numpy/scipy build they were recorded with
(numpy 2.4.6, scipy 1.17.1, x86-64): another build may round the last
bit of an exp, expm1 or summation differently, which moves a 9-digit
CSV field now and then. On such a build a mismatch alone is no defect;
re-record the hashes from the parent commit before comparing.
"""

import hashlib
from pathlib import Path

import pytest

from photonstack import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# key: a bundled config name (a scan) or "balance" and a config name,
# followed by the extra CLI arguments of the run
SHA256 = {
    "cavity_field_map": "aae9a84378fb590bb0c145e2aa8976ebe3df5df07c2716a67c9789f67938619c",
    "passive_cavity_forces": "ea71688c6834c75a6c372756934a19437acb96ce4b9470345a89d6146b4734c3",
    # the fd-check line is part of the promise that --threads moves no byte
    "passive_cavity_forces --fd-check":
        "2ce82cf7ed2fe8deaa856977daa27749c1ad009e0f0185ee734be526e0d5a510",
    "passive_cavity_forces --fd-check --threads 2":
        "2ce82cf7ed2fe8deaa856977daa27749c1ad009e0f0185ee734be526e0d5a510",
    "transparent_slab_force": "8c523340499b9e3e8c5f67bcdc610a293250bb1b6a6ba7ebd1f05b5210cc05a4",
    "absorbing_slab_force": "bb410af58d88dd84e168dbbe30c7376063234234b9db921425a2e7d8eef02406",
    "balance passive_cavity": "2f8e26838059aef1b50cfec86ad1e88d79587e80e19d77413e2952634ec03c2f",
    "balance passive_cavity --slices 32":
        "c57ac863e7302e4800b9b754ccd70bfbab1b83730caf2326e8b03081fbe99936",
}


@pytest.mark.parametrize("name", sorted(SHA256))
def test_bundled_output_bytes(name, tmp_path, capsys):
    words = name.split()
    if words[0] == "balance":
        config, *extra = words[1:]
        assert cli.main(["balance", str(CONFIGS / f"{config}.yaml"), *extra]) == 0
        data = capsys.readouterr().out.encode("utf-8")
    else:
        config, *extra = words
        out = tmp_path / f"{config}.csv"
        argv = ["scan", str(CONFIGS / f"{config}.yaml"), "--output", str(out), *extra]
        assert cli.main(argv) == 0
        data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == SHA256[name]
