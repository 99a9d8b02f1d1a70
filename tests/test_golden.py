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
        "0ef05dc4ab399d15ca9498045774b2a8b9ae35b6a00c84d17c76203999f80f01",
        "58484aeba8c635d8a2a227808bef9b8b1f83d910775ba1c89b4503325974576d"),
    "cavity_field_map --units si": (
        "5196c16f4516a3c01a01c6d1a1deb9c720154b4353229c42fc3da6c46716ea90",
        "2cad684b05f088a1d33f716dbffd0bc47ee224a4ee76393c72fe7b15567f0bd8"),
    "passive_cavity_forces": (
        "bcbe20ebf176c95aafe7b3a885daa82c603d77b8d5332a6690d64c49dd4182df",
        "aba357a5105b35e2378c18b919c15b9287b1bbe39e129e32b8e6bbd0def47f6f"),
    # the fd-check line is part of the promise that --threads moves no byte
    "passive_cavity_forces --fd-check": (
        "095eab7ab3aeb384d804b9600051cce32d6800e3c0e0ee9fa1c283b33cf60a93",
        "aba357a5105b35e2378c18b919c15b9287b1bbe39e129e32b8e6bbd0def47f6f"),
    "passive_cavity_forces --fd-check --threads 2": (
        "095eab7ab3aeb384d804b9600051cce32d6800e3c0e0ee9fa1c283b33cf60a93",
        "aba357a5105b35e2378c18b919c15b9287b1bbe39e129e32b8e6bbd0def47f6f"),
    "transparent_slab_force": (
        "c9bae56b5ff26e43aa158772430c18bbe338abb87669a49e81a912b073ab5c15",
        "9ce6b766c70ce0d1d400d928bf7e464fffd02cfdcdc9f7ff475b36964d389935"),
    "absorbing_slab_force": (
        "4032a8437edd4298738257397cf550107ab5e4de57da80ce57f61c418497a6a6",
        "a0224fc7ca51d4bbda7e4fb01b85fe18b6013cf74ce23564bbcfeed6e64820c1"),
    "balance passive_cavity": (
        "2e6fd46b44402ade2331942ef7eb8dd00cfbfb851dabcfe36315484d23c19e06",
        "ce749e6335f2323b9be6da68f6a02eca8afea7424c5020bcbabaede67191b173"),
    "balance passive_cavity --slices 32": (
        "a0005ec4e1cc8424a9d47c4b57825f8fc2ea2c275bc6df2e36b6881ed6e84844",
        "f690c330467388aa6cc45f74aa82183ab294d54941656cf828b1c5c81b23fe8e"),
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
