"""Command-line front end.

Subcommands:
  validate  check a stack config: structural invariants, index table
            ranges, then a single-frequency mode-density closure
            identity at representative points; exit 0 iff clean.
  scan      run a grid scan from a YAML spec and write its CSV.
  balance   run the self-consistent temperature solver alone and emit
            per-slice temperatures as CSV.

Exit codes: 0 success, 1 validation failure or a malformed command line,
2 solver non-convergence, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, ConvergenceError, PhotonStackError
from .greens import solve_wave_basis
from .scan import ScanSpec, _check_target, _write_file, run_scan
from .spectral import ldos_closure_residuals
from .stack import SELF_CONSISTENT, TabulatedIndex, load_stack
from .thermo import BALANCE_DEFAULTS, default_balance_grid, solve_self_consistent
from .units import MICRON, ev_from_omega, omega_from_ev

_CLOSURE_EV = 0.11
_CLOSURE_TOL = 1e-6
_OUTER_DEPTH = 2.0 * MICRON


def _validate(args) -> int:
    try:
        stack = load_stack(args.config)
    except ConfigError as exc:
        for problem in str(exc).split("; "):
            print(f"invalid: {problem}")
        return 1
    for j, layer in enumerate(stack.layers):
        if layer.lossy and not layer.has_assignment:
            print(f"warning: layer {j} is lossy but has no temperature; every "
                  "scan quantity except ldos_* and every balance solve will reject it")
    if any(layer.self_consistent for layer in stack.layers):
        try:  # a balance solve evaluates every index over its whole grid
            for layer in stack.layers:
                layer.index.at(default_balance_grid()[[0, -1]])
        except ConfigError as exc:
            print(f"invalid: {exc}")
            return 1

    tables = [layer.index.omega for layer in stack.layers
              if isinstance(layer.index, TabulatedIndex)]
    lo, hi = max([t[0] for t in tables], default=0.0), min([t[-1] for t in tables], default=np.inf)
    if lo > hi:
        print(f"invalid: the index tables share no photon energy (one starts at "
              f"{ev_from_omega(lo):g} eV, another ends at {ev_from_omega(hi):g} eV)")
        return 1
    omega = omega_from_ev(np.array([_CLOSURE_EV]))
    if not lo <= omega[0] <= hi:  # every index table must cover the closure energy
        omega = np.array([0.5 * (lo + hi)])
    basis = solve_wave_basis(stack, omega)
    lo, hi = stack.span
    points = [lo - _OUTER_DEPTH, hi + _OUTER_DEPTH]
    for j in range(1, len(stack.layers) - 1):
        a, b = stack.layer_bounds(j)
        points.append(0.5 * (a + b))
    clean = True
    for x in sorted(points):
        at = basis.at(x)
        worst = float(np.max(ldos_closure_residuals(at)))
        if not worst <= _CLOSURE_TOL:
            print(f"invalid: layer {at.layer}: greens-closure residual {worst:.2e} "
                  f"at x = {x / MICRON:g} um exceeds {_CLOSURE_TOL:g}")
            clean = False
    if clean:
        print(f"{args.config}: clean ({len(stack.layers)} layers, "
              f"closure checked at {len(points)} points)")
        return 0
    return 1


def _scan(args) -> int:
    spec = ScanSpec.from_file(args.spec)
    result = run_scan(spec, output=args.output, fd_check=args.fd_check)
    na, ne, nq = result.data.shape
    print(f"wrote {result.path}: {na * ne} rows "
          f"({result.axis_name} x E_eV = {na} x {ne}), "
          f"quantities: {', '.join(result.quantities)}")
    if result.fd_residual_max is not None:
        print(f"fd-check: max relative residual {result.fd_residual_max:.3e}, "
              f"{result.fd_unchecked} positions unchecked")
    return 0


def _balance(args) -> int:
    if args.output is not None:
        _check_target(args.output)
    stack = load_stack(args.config)
    if not any(layer.self_consistent for layer in stack.layers):
        raise ConfigError(f"{args.config} has no {SELF_CONSISTENT} layer to balance")
    result = solve_self_consistent(stack, slices=args.slices)
    lines = [
        f"# photonstack {__version__} balance",
        f"# slices: {args.slices}",
        f"# iterations: {result.iterations}",
        "x_um,T_K",
    ]
    for x, t in zip(result.slice_positions, result.temperatures):
        lines.append(f"{x / MICRON:.9g},{t:.9g}")
    text = "\n".join(lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        _write_file(args.output, [text.encode()])
        print(f"wrote {args.output}: {len(result.temperatures)} slice temperatures")
    return 0


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a ConfigError (exit 1), not argparse's
    usage block and exit 2, which belongs to the balance solver."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="photonstack",
        description="Photon-number statistics, temperatures, and forces "
                    "of the thermal field in layered structures.",
    )
    parser.add_argument("--version", action="version",
                        version=f"photonstack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a stack config")
    p.add_argument("config", help="stack YAML file")
    p.set_defaults(handler=_validate)

    p = sub.add_parser("scan", help="run a grid scan from a YAML spec")
    p.add_argument("spec", help="scan spec YAML file")
    p.add_argument("--output", help="override the spec's output path")
    p.add_argument("--fd-check", action="store_true",
                   help="cross-check force densities against finite differences")
    p.set_defaults(handler=_scan)

    p = sub.add_parser("balance", help="solve self-consistent temperatures")
    p.add_argument("config", help="stack YAML file")
    p.add_argument("--slices", type=int, default=BALANCE_DEFAULTS["slices"],
                   help="slices per self-consistent layer (default %(default)s)")
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(handler=_balance)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PhotonStackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; reduce grid counts or balance slices", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
