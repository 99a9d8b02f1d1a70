"""Byte-level pins of the bundled scan outputs and of the balance CLI.

The hashes are tied to the numpy build they were recorded with
(numpy 2.4.6, x86-64): another build may round the last
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
    "cavity_field_map": "badb3940a70b720a9aad5d8f76b2e6e7d91c2efaf35c40cba73e1af47bcf7917",
    "cavity_field_map --units si":
        "099ffbdd94a52fbd7ad84eeef252907a38da6868203262346a807ce9dbbbab82",
    "passive_cavity_forces": "4cd644a9593f7c98f03afed24bdd3b11c7f4a50ee6389c4d8535ac0b58f73338",
    # the fd-check line is part of the promise that --threads moves no byte
    "passive_cavity_forces --fd-check":
        "ad33824c9123337c625ee13446fc8a8becf12e0843dccbd112f1b5d42146eec4",
    "passive_cavity_forces --fd-check --threads 2":
        "ad33824c9123337c625ee13446fc8a8becf12e0843dccbd112f1b5d42146eec4",
    "transparent_slab_force": "f386e0395cbc8c64d1bc761ee195f9d0013dc9ee8814be9699dc0a4207b5856b",
    "absorbing_slab_force": "c049983c804bf03de7574fe231ce288b8bdbac1a4c9154e1bdd8bbe5fa9d4949",
    "balance passive_cavity": "38dcbf70f2f31fd7ea30e85df36a87759c7382d18877c47e06ed7077acd3c10b",
    "balance passive_cavity --slices 32":
        "0d4151ab9d39840fedab1d0797eb321ac84ea8a823a60f540516e513b51af248",
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
