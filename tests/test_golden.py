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
# followed by the extra CLI arguments of the run; value: the sha256 of the
# whole output and of its data section, everything after the leading "#"
# block. A change that moves only metadata leaves the second pin as it is.
SHA256 = {
    "cavity_field_map": (
        "5845e0599ad1fdb704927667aab4d686db032b39bd026d892d682a5e861512c8",
        "58484aeba8c635d8a2a227808bef9b8b1f83d910775ba1c89b4503325974576d"),
    "cavity_field_map --units si": (
        "78b460fcaba409cabe0e6f9c81dfe3adcd8bdd9759cebd8406a7b7729283bf55",
        "2cad684b05f088a1d33f716dbffd0bc47ee224a4ee76393c72fe7b15567f0bd8"),
    "passive_cavity_forces": (
        "d70c3742e799748500c61c82d9afa92a0f64b5895becba129302763dbb2ea2c2",
        "126cfe3b6bb2f21c9d30f7ec2b1a65d2a6586c61e4a876f05d35760f3a5aea5c"),
    "passive_cavity_forces --fd-check": (
        "3c5d7fca4919a0e09b11d4d544e267aeb5aaf10a47af834437c9ec655f62218e",
        "126cfe3b6bb2f21c9d30f7ec2b1a65d2a6586c61e4a876f05d35760f3a5aea5c"),
    "transparent_slab_force": (
        "868c6e0efdd0e7f6328c677c1995ae5271096254f0f009fe2b300617d0712091",
        "9ce6b766c70ce0d1d400d928bf7e464fffd02cfdcdc9f7ff475b36964d389935"),
    "absorbing_slab_force": (
        "11dc6dcf0f38ae146f4f5f8133ba1bed7a3eb083d1d79a5a0dc07d428ac90565",
        "fbcf963c1689b47af8812b71d085a12f6162c06c251c293865c63ea85588c739"),
    "balance passive_cavity": (
        "87fd37de4a9cd198f6bd9455d9277edb5abfdde22328ef876d435773c4681cdd",
        "1bc92c85cf54cebbc3fa4e6af577d32b12cde26a64c725eac2f15c22641b5758"),
    "balance passive_cavity --slices 32": (
        "85b1f8055e21ce172f3b0e988217ab60016248fd6230a200a512ba7497e9b21d",
        "173bd7e31e307ea5f5f1e6d526f1029ccba52ee16408f46a97de3ee0dc40eae8"),
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
    head = 0
    for line in data.splitlines(keepends=True):
        if not line.startswith(b"#"):
            break
        head += len(line)
    digests = (hashlib.sha256(data).hexdigest(), hashlib.sha256(data[head:]).hexdigest())
    assert digests == SHA256[name]
