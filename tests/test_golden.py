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
        "2d2be9bb833f9a311c575f301afeea84682761ef4447bdb5435884eb356af58a",
        "58484aeba8c635d8a2a227808bef9b8b1f83d910775ba1c89b4503325974576d"),
    "cavity_field_map units=si": (
        "baec5e4dff03cbfcc692668e4e054c6a8845969fb998e4c87ee62722767cd2ec",
        "2cad684b05f088a1d33f716dbffd0bc47ee224a4ee76393c72fe7b15567f0bd8"),
    "passive_cavity_forces": (
        "867a49c916663f450f8a45f58c39228448bc87b4c250a520fce29478e5d47d88",
        "126cfe3b6bb2f21c9d30f7ec2b1a65d2a6586c61e4a876f05d35760f3a5aea5c"),
    "transparent_slab_force": (
        "0ce636522ec27160fb476ac8a4e480e19bb4d2c7c99d2441d5b495f60e05e280",
        "9ce6b766c70ce0d1d400d928bf7e464fffd02cfdcdc9f7ff475b36964d389935"),
    "absorbing_slab_force": (
        "6a899b1ecb3c4acc03d59ad300591b83e02bdc564b6a3009acad2e8740106961",
        "fbcf963c1689b47af8812b71d085a12f6162c06c251c293865c63ea85588c739"),
    "balance passive_cavity": (
        "865013071251f40f984ea85dd8b9ae5f5e88b8fd7536d92e653ee51300fc7293",
        "1bc92c85cf54cebbc3fa4e6af577d32b12cde26a64c725eac2f15c22641b5758"),
    "balance passive_cavity --slices 32": (
        "ccea05abb312dee40b183fba7e74bdb0d84be9b7caae24720bab3212df433ba3",
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
            assert printed == f"wrote {out}: 16 slice temperatures in 25 sweeps\n"
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
