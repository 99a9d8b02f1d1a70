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
        "11dc2c987b2e82fed0e556039245ba110719b804a6765565757ef351b11b54fc",
        "58484aeba8c635d8a2a227808bef9b8b1f83d910775ba1c89b4503325974576d"),
    "cavity_field_map units=si": (
        "d117d8673e0de57097bc54ec2c0253f7983e64113e0d89b11635ae87fcb84ee2",
        "2cad684b05f088a1d33f716dbffd0bc47ee224a4ee76393c72fe7b15567f0bd8"),
    "passive_cavity_forces": (
        "5b961130eef5357a60f271db76d7f52b1926173644289ca594d3fb2609f4b2d1",
        "126cfe3b6bb2f21c9d30f7ec2b1a65d2a6586c61e4a876f05d35760f3a5aea5c"),
    "transparent_slab_force": (
        "933496494446b59c5e2c274bf2aa47fdd7cd610409a7c32141bfcd14f2a1224e",
        "9ce6b766c70ce0d1d400d928bf7e464fffd02cfdcdc9f7ff475b36964d389935"),
    "absorbing_slab_force": (
        "8c092ab755e355fa816b585a46b518489f760cb03285bb885b866982fc11a438",
        "fbcf963c1689b47af8812b71d085a12f6162c06c251c293865c63ea85588c739"),
    "balance passive_cavity": (
        "3dcc5f04d3c6d162fdb73ee658db3ab19fb3732f6992bbec31d73f680ec88286",
        "1bc92c85cf54cebbc3fa4e6af577d32b12cde26a64c725eac2f15c22641b5758"),
    "balance passive_cavity --slices 32": (
        "034d0eadf11fb55c9abef5cad812ea30bd2f5ddac950eb8f2d5d7086868fff79",
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
