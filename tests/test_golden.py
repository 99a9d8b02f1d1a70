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
    "cavity_field_map": "d73b2dbc09d2e08aea71ffcdfd84463185a3ff90c4b588f78ecb78b928989af4",
    "cavity_field_map --units si":
        "00c47cefa71f4ef129083055ee7d1c50aa4b8f62ab5d252636431c8f2a24daf2",
    "passive_cavity_forces": "c656bba56cecb85c6ef8306ce37976f7c0c42e210852e302a2fc858c3b8dde26",
    # the fd-check line is part of the promise that --threads moves no byte
    "passive_cavity_forces --fd-check":
        "5cf6200950ffd3aed55445386753b01f4c603783a1b2e0d27c10d812da48d879",
    "passive_cavity_forces --fd-check --threads 2":
        "5cf6200950ffd3aed55445386753b01f4c603783a1b2e0d27c10d812da48d879",
    "transparent_slab_force": "b6bb0dd63bddd1a3c80f4d0f745db7397faa23b112ccdb93a777958c1a85db26",
    "absorbing_slab_force": "4242d697bf78c748a1b19325d4c07d9dd17e374ea1cc7a93a462d9eac8fb86be",
    "balance passive_cavity": "91b6a58ef34c6e555871d559fe11cc69c00dfa99718beb9215c2274c96625343",
    "balance passive_cavity --slices 32":
        "1a7a2e6c59d7a5284a4dde184499c9fce2166925abef2a345ee02400223d07b9",
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
