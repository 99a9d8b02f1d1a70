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
import yaml

from photonstack import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# key: a bundled config name (a scan) or "balance" and a config name,
# followed by the extra CLI arguments of the run, where a scan's KEY=VALUE
# words set keys of a copy of its spec; value: the sha256 of the
# whole output and of its data section, everything after the leading "#"
# block. A change that moves only metadata leaves the second pin as it is.
SHA256 = {
    "cavity_field_map": (
        "e53ec4708d62ec5d25700e47b77bd0b3d89c71dd7a3ce750b643c40ad8e6a0f1",
        "58484aeba8c635d8a2a227808bef9b8b1f83d910775ba1c89b4503325974576d"),
    "cavity_field_map units=si": (
        "ab28d1208728610940a7f52d1832ee019e75c07ec47568bd97294aacc9308b30",
        "2cad684b05f088a1d33f716dbffd0bc47ee224a4ee76393c72fe7b15567f0bd8"),
    "passive_cavity_forces": (
        "c510d3fe41d5e64deeb2da1f240365f6ce282ceb3832380f5f6582d446369435",
        "126cfe3b6bb2f21c9d30f7ec2b1a65d2a6586c61e4a876f05d35760f3a5aea5c"),
    "transparent_slab_force": (
        "5ba0e0cae1f53bf49dbe6f51c7ff70050d78260bf0610d9c16fb423312e08b71",
        "9ce6b766c70ce0d1d400d928bf7e464fffd02cfdcdc9f7ff475b36964d389935"),
    "absorbing_slab_force": (
        "0cd1ab98f6ff89c286f911f486c21eaaa25997bbc3221e87327d0388ee00a811",
        "fbcf963c1689b47af8812b71d085a12f6162c06c251c293865c63ea85588c739"),
    "balance passive_cavity": (
        "8990ad99214a1c102ebc93f5a4f2140deb2e2c3820339eb707bcf1e5ac134842",
        "1bc92c85cf54cebbc3fa4e6af577d32b12cde26a64c725eac2f15c22641b5758"),
    "balance passive_cavity --slices 32": (
        "9b533ef21fe80bb63782667434fc2eec7bfa937917932425dcf5c8f2ffe7ebbf",
        "173bd7e31e307ea5f5f1e6d526f1029ccba52ee16408f46a97de3ee0dc40eae8"),
}
# --output writes to the file the very bytes the balance prints
SHA256["balance passive_cavity --output"] = SHA256["balance passive_cavity"]
# --fd-check reports on the terminal and writes the file a plain run writes
SHA256["passive_cavity_forces --fd-check"] = SHA256["passive_cavity_forces"]


@pytest.mark.parametrize("name", sorted(SHA256))
def test_bundled_output_bytes(name, tmp_path, capsys):
    words = name.split()
    if words[0] == "balance":
        config, *extra = words[1:]
        out = tmp_path / f"{config}.csv"
        extra = [f"--output={out}" if word == "--output" else word for word in extra]
        assert cli.main(["balance", str(CONFIGS / f"{config}.yaml"), *extra]) == 0
        printed = capsys.readouterr().out
        if out.exists():
            assert printed == f"wrote {out}: 16 slice temperatures\n"
            data = out.read_bytes()
        else:
            data = printed.encode("utf-8")
    else:
        config, *extra = words
        out = tmp_path / f"{config}.csv"
        spec = CONFIGS / f"{config}.yaml"
        keys = dict(word.split("=") for word in extra if "=" in word)
        if keys:
            mapping = yaml.safe_load(spec.read_text(encoding="utf-8"))
            mapping.update(keys, stack=str(CONFIGS / mapping["stack"]))
            spec = tmp_path / spec.name
            spec.write_text(yaml.safe_dump(mapping), encoding="utf-8")
        argv = ["scan", str(spec), "--output", str(out), *(w for w in extra if "=" not in w)]
        assert cli.main(argv) == 0
        data = out.read_bytes()
    head = 0
    for line in data.splitlines(keepends=True):
        if not line.startswith(b"#"):
            break
        head += len(line)
    digests = (hashlib.sha256(data).hexdigest(), hashlib.sha256(data[head:]).hexdigest())
    assert digests == SHA256[name]
