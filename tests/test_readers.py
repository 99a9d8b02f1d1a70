"""The input contract: every file the package reads goes through one UTF-8
reader, every file it writes through one writer, and every malformed input
(file, mapping, number, temperature or count) gives a one-line ConfigError
that names it."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import photonstack
from photonstack import cli, scan, thermo
from photonstack.errors import ConfigError
from photonstack.scan import ScanSpec, read_scan_csv, run_scan
from photonstack.stack import TemperatureProfile, build_stack
from photonstack.thermo import solve_self_consistent

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(photonstack.__file__).resolve().parent
HUGE = 10**20  # above 2**63: numpy refuses it before allocating anything

CAVITY = {"layers": [
    {"thickness": "inf", "n": "1.5+0.3i", "temperature": 400.0},
    {"thickness": 10.0, "n": 1.0},
    {"thickness": "inf", "n": "2.5+0.5i", "temperature": 300.0},
]}


def _spec(**edits):
    spec = {
        "stack": CAVITY,
        "quantities": ["n_tot"],
        "positions": {"start": 2.0, "stop": 8.0, "count": 2},
        "energies": {"start": 0.1, "stop": 0.2, "count": 2},
        "output": "out.csv",
    }
    for key, value in edits.items():
        section, _, field = key.partition("__")
        if field:
            spec[section] = {**spec.get(section, {}), field: value}
        else:
            spec[section] = value
    return spec


def _write(path, text=None, data=None):
    if data is not None:
        path.write_bytes(data)
    else:
        path.write_text(text, encoding="utf-8")
    return path


# each case maps a scratch directory to a library call that must raise, or
# to the argv of a CLI run that must exit 1; then a fragment of the message
_CASES = {
    "from_metadata_undecodable": (
        lambda d: lambda: ScanSpec.from_metadata(_write(d / "x.csv", data=b"\xff\xfe#")),
        "cannot read photonstack output"),
    "from_metadata_nul_path": (
        lambda d: lambda: ScanSpec.from_metadata(d / "x\x00.csv"),
        "cannot read photonstack output"),
    "from_metadata_missing": (
        lambda d: lambda: ScanSpec.from_metadata(d / "missing.csv"),
        "cannot read photonstack output"),
    "from_metadata_deeply_nested": (
        lambda d: lambda: ScanSpec.from_metadata(
            _write(d / "x.csv", "# spec: " + "[" * 100000 + "]" * 100000 + "\nx_um\n")),
        "corrupt spec metadata"),
    "from_file_deeply_nested": (
        lambda d: lambda: ScanSpec.from_file(
            _write(d / "s.yaml", "stack: " + "[" * 3000 + "]" * 3000 + "\n")),
        "nested too deeply"),
    "load_stack_deeply_nested": (
        lambda d: lambda: photonstack.load_stack(
            _write(d / "c.yaml", "layers: " + "[" * 3000 + "]" * 3000 + "\n")),
        "nested too deeply"),
    "scan_deeply_nested": (
        lambda d: ["scan", str(_write(d / "s.yaml", "stack: " + "[" * 3000 + "]" * 3000 + "\n"))],
        "nested too deeply"),
    "from_metadata_huge_integer": (
        lambda d: lambda: ScanSpec.from_metadata(
            _write(d / "x.csv", "# spec: {\"units\": " + "1" * 5000 + "}\nx_um\n")),
        "corrupt spec metadata"),
    "read_scan_csv_undecodable": (
        lambda d: lambda: read_scan_csv(_write(d / "x.csv", data=b"\xff\xfe#")),
        "cannot read photonstack output"),
    "read_scan_csv_nul_path": (
        lambda d: lambda: read_scan_csv(d / "x\x00.csv"), "cannot read photonstack output"),
    "read_scan_csv_missing": (
        lambda d: lambda: read_scan_csv(d / "missing.csv"), "cannot read photonstack output"),
    "read_scan_csv_malformed_row": (
        lambda d: lambda: read_scan_csv(_write(d / "x.csv", "x_um,E_eV\n1,0.1\n2,abc\n")),
        "malformed data row"),
    "huge_energies_start": (
        lambda d: lambda: ScanSpec.from_mapping(_spec(energies__start=10**5000)),
        "energies: start"),
    "huge_balance_tolerance": (
        lambda d: lambda: ScanSpec.from_mapping(_spec(balance__tolerance_K=10**5000)),
        "balance tolerance_K"),
    "huge_library_tolerance": (
        lambda d: lambda: solve_self_consistent(build_stack(CAVITY), tolerance_K=10**5000),
        "balance tolerance_K"),
    **{f"uniform_{name}": (
        lambda d, t=t: lambda: TemperatureProfile.uniform(build_stack(CAVITY), t),
        "temperature must be a finite positive number")
       for name, t in [("string", "300"), ("none", None), ("bool", True),
                       ("inf", math.inf)]},
    **{f"threads_{name}": (
        lambda d, n=n: lambda: run_scan(ScanSpec.from_mapping(_spec()),
                                        output=d / "out.csv", threads=n),
        "threads must be the integer 1")
       for name, n in [("two", 2), ("float", 2.5), ("string", "2"), ("none", None)]},
    "positions_infinite_stop": (
        lambda d: lambda: ScanSpec.from_mapping(_spec(positions__stop=math.inf)),
        "positions: start and stop must be finite"),
    "energies_infinite_stop": (
        lambda d: lambda: ScanSpec.from_mapping(_spec(energies__stop=math.inf)),
        "energies: start and stop must be finite"),
    "scan_energies_overflowing_omega": (
        lambda d: ["scan", str(_write(d / "s.yaml", yaml.safe_dump(
            _spec(energies={"start": 0.1, "stop": 1.0e300, "count": 3}))))],
        "energies: stop 1e+300 eV"),
    "positions_overflowing_span": (
        lambda d: lambda: ScanSpec.from_mapping(
            _spec(positions={"start": -1.0e308, "stop": 1.0e308, "count": 3})),
        "positions: the span stop - start must be finite"),
    "positions_nan_single_point": (
        lambda d: lambda: ScanSpec.from_mapping(
            _spec(positions={"start": math.nan, "stop": math.nan, "count": 1})),
        "positions: start and stop must be finite"),
    "scan_huge_position_count": (
        lambda d: ["scan", str(_write(d / "s.yaml", yaml.safe_dump(
            _spec(positions__count=HUGE))))],
        "positions: count"),
    "scan_huge_balance_slices": (
        lambda d: ["scan", str(_write(d / "s.yaml", yaml.safe_dump(
            _spec(balance__slices=HUGE))))],
        "balance slices"),
    "balance_huge_slices": (
        lambda d: ["balance", str(ROOT / "configs" / "passive_cavity.yaml"),
                   "--slices", str(HUGE)],
        "balance slices"),
    # a bool is not a number
    "bool_balance_tolerance": (
        lambda d: lambda: ScanSpec.from_mapping(_spec(balance__tolerance_K=True)),
        "balance tolerance_K must be a number, not True"),
    "bool_positions_start": (
        lambda d: lambda: ScanSpec.from_mapping(_spec(positions__start=True)),
        "positions: start must be a number, not True"),
    # a malformed command line exits 1, not with argparse's usage and 2
    "balance_slices_not_an_integer": (
        lambda d: ["balance", str(ROOT / "configs" / "passive_cavity.yaml"),
                   "--slices", "abc"],
        "photonstack balance: argument --slices: invalid int value: 'abc'"),
    "scan_threads_removed": (
        lambda d: ["scan", str(_write(d / "s.yaml", yaml.safe_dump(_spec()))),
                   "--threads", "2"],
        "unrecognized arguments: --threads 2"),
    # a NUL in an output path is refused before any solve
    "spec_output_nul": (
        lambda d: lambda: ScanSpec.from_mapping(_spec(output="bad\x00.csv")),
        "output path must not contain a NUL character"),
    "scan_output_nul": (
        lambda d: ["scan", str(_write(d / "s.yaml", yaml.safe_dump(_spec()))),
                   "--output", str(d / "bad\x00.csv")],
        "output path must not contain a NUL character"),
    "balance_output_nul": (
        lambda d: ["balance", str(ROOT / "configs" / "passive_cavity.yaml"),
                   "--output", str(d / "bad\x00.csv")],
        "output path must not contain a NUL character"),
    "scan_unknown_units": (
        lambda d: ["scan", str(_write(d / "s.yaml", yaml.safe_dump(_spec()))),
                   "--units", "xx"],
        "unrecognized arguments: --units xx"),
}


@pytest.mark.parametrize("case", list(_CASES), ids=list(_CASES))
def test_malformed_input_gives_a_one_line_config_error(tmp_path, capsys, monkeypatch, case):
    def solve(*args, **kwargs):
        raise AssertionError("a malformed input reached a solver")

    for module in (cli, scan, thermo):
        monkeypatch.setattr(module, "solve_wave_basis", solve)
    make, fragment = _CASES[case]
    call = make(tmp_path)
    if isinstance(call, list):
        assert cli.main(call) == 1
        message = capsys.readouterr().err
        assert message.startswith("error: ") and message.count("\n") == 1
    else:
        with pytest.raises(ConfigError) as info:
            call()
        message = str(info.value)
        assert "\n" not in message
    assert fragment in message


def test_a_utf8_spec_reads_in_the_c_locale(tmp_path):
    """Specs are decoded as UTF-8 whatever the locale, as the package
    writes its own CSVs."""
    spec = _write(tmp_path / "s.yaml", "# positions in µm\n" + yaml.safe_dump(_spec()))
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHONIO"))}
    path = filter(None, [str(SRC.parent), env.get("PYTHONPATH")])
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run([sys.executable, "-m", "photonstack.cli", "scan", str(spec)],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "out.csv").exists()


# --- one reader -------------------------------------------------------------

_FILE_READS = {"read_text", "read_bytes", "loadtxt", "genfromtxt", "fromfile", "load"}
_YAML_PARSES = {"safe_load", "load_all", "safe_load_all", "full_load"}


def _opens_for_reading(call: ast.Call) -> bool:
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    return not (isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax"))


def _call_sites(wanted):
    """(module, function, call) for every call in the package for which
    ``wanted(name, call)`` holds, with the function that makes it."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owners[node] = fn.name  # walked outer first, so the innermost wins
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = (node.func.attr if isinstance(node.func, ast.Attribute)
                    else getattr(node.func, "id", ""))
            if wanted(name, node):
                sites.add((path.stem, owners.get(node, "<module>"), name))
    return sites


def test_one_function_reads_files():
    """Only ``stack._read_text`` reads a file, and only ``stack._read_yaml``
    parses YAML (the text ``_read_text`` returned), so every input shares
    one decoding and one error path."""
    def reads(name, call):
        return (name in _FILE_READS | _YAML_PARSES
                or name == "open" and _opens_for_reading(call))

    assert _call_sites(reads) == {("stack", "_read_text", "read_text"),
                                  ("stack", "_read_yaml", "safe_load")}


def test_only_stack_knows_the_profile_entry_format():
    """``LayerSlices`` is named only in ``stack`` (and re-exported by the
    package), so every other module reads a profile through its
    ``sources`` and ``edges``."""
    named = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # a Name's id, an Attribute's attr, an import alias's or a def's name
            if "LayerSlices" in {getattr(node, k, None) for k in ("id", "attr", "name")}:
                named.add(path.stem)
    assert named == {"stack", "__init__"}


def test_one_function_writes_files():
    """Only ``scan._write_file`` opens a file for writing, so the scan CSV
    and ``balance --output`` share one .part-and-rename write."""
    def writes(name, call):
        return (name in {"write_text", "write_bytes"}
                or name == "open" and not _opens_for_reading(call))

    assert _call_sites(writes) == {("scan", "_write_file", "open")}


def test_every_import_is_used():
    """Each name a module of the package imports is read in that module;
    ``__init__`` imports to re-export, so it is left out."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
