"""Command-line driver: convergence studies, qualitative runs and verification.

Subcommands: ``spatial``, ``temporal``, ``qualitative`` run the registered
benchmark problems and write CSV tables plus gnuplot scripts; ``verify``
runs the numerical property suites.  A ``--config`` file's ``key = value``
lines (``#`` comments; ``_`` in a key reads as ``-``) become flags placed
before the explicit ones, so one parse checks both and explicit flags win;
an empty value leaves a flag unset.  Unset flags keep the defaults of
``StudyConfig`` and ``LinearSolverConfig``.  The exit code is nonzero if any
run fails to converge or an input is rejected.
"""

from __future__ import annotations

import argparse
import sys

from .bench import PROBLEMS, StudyConfig, run_qualitative, run_spatial_study, run_temporal_study
from .remap1d import GeometryError
from .timeint import LinearSolverConfig, SolverError
from . import verify as verify_mod

_FLUX = {"uminus": "uminus_qplus", "uplus": "uplus_qminus"}
_SOLVER = {"solver": "method", "gmres_tol": "tol"}    # flag -> LinearSolverConfig field
_RUNS = {"spatial": run_spatial_study, "temporal": run_temporal_study,
         "qualitative": run_qualitative}


def _tokens(text: str) -> list:
    return [tok for tok in text.replace(" ", "").split(",") if tok]


def int_list(text: str) -> tuple:
    return tuple(int(tok) for tok in _tokens(text))


def float_list(text: str) -> tuple:
    return tuple(float(tok) for tok in _tokens(text))


def cut_list(text: str) -> tuple:
    cuts = tuple((axis, float(value)) for axis, value in (tok.split(":") for tok in _tokens(text)))
    if any(axis not in ("x", "y") for axis, _ in cuts):
        raise ValueError("cut axis must be 'x' or 'y'")
    return cuts


def _add_common(p: argparse.ArgumentParser, cfl) -> None:
    p.add_argument("--config", help="key=value file of flags; explicit flags win")
    p.add_argument("--problem", choices=PROBLEMS, default="ex31")
    p.add_argument("--k", type=int, choices=(0, 1, 2))
    p.add_argument("--tableau", choices=("be", "dirk2", "dirk3", "dirk4"))
    p.add_argument("--cfl", type=cfl,
                   help="comma list of CFL numbers" if cfl is float_list else "CFL number")
    p.add_argument("--meshes", type=int_list, help="comma list of cells per direction")
    p.add_argument("--eps", type=float, help="diffusion coefficient")
    p.add_argument("--flux", choices=tuple(_FLUX), help="solution-trace side of the fluxes")
    p.add_argument("--mode", choices=("quad", "qc"), help="upstream edge representation")
    p.add_argument("--gmres-tol", type=float,
                   help="relative stage residual threshold of the iterative solve (GMRES in the "
                        "mass inner product, run as MINRES)")
    p.add_argument("--solver", choices=("gmres", "direct"),
                   help="unpreconditioned GMRES (as MINRES in the mass inner product), or the "
                        "exact FFT block solve of the periodic stage systems")
    p.add_argument("--T", type=float, help="final time override")
    p.add_argument("--dt-dx", type=float, help="time step as a multiple of dx (overrides cfl)")
    p.add_argument("--out", help="output directory for CSV/plot files")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sldg", description="semi-Lagrangian DG convection-diffusion benchmark driver",
        exit_on_error=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def study(name: str, about: str, cfl) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=about, exit_on_error=False, allow_abbrev=False)
        _add_common(p, cfl)
        return p

    study("spatial", "mesh-refinement convergence table", float).add_argument(
        "--reference", type=int, help="reference mesh when no exact solution exists")
    study("temporal", "error against CFL on a fixed mesh", float_list).add_argument(
        "--cfl-ref", type=float, help="self-reference CFL when no exact solution exists")
    qp = study("qualitative", "snapshot, 1D cuts and mass history", float)
    qp.add_argument("--plot-points", type=int, help="sample points per direction")
    qp.add_argument("--cuts", type=cut_list, help="comma list of cuts, e.g. x:-1.0,y:1.0")

    sub.add_parser("verify", help="run the numerical property suites")
    return parser


def _config_flags(path: str) -> list:
    """The lines of a key=value file as ``--key=value`` flags."""
    flags = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (expected key=value): {raw.rstrip()}")
            key, val = (part.strip() for part in line.split("=", 1))
            if val:
                flags.append(f"--{key.replace('_', '-')}={val}")
    return flags


def _parse(argv: list) -> argparse.Namespace:
    """Parse ``argv``, with a ``--config`` file's flags placed right after
    the subcommand, so the explicit flags after them win."""
    parser = _parser()
    args, extra = parser.parse_known_args(argv)
    if getattr(args, "config", None):
        at = argv.index(args.command) + 1
        args, extra = parser.parse_known_args(argv[:at] + _config_flags(args.config) + argv[at:])
    if extra:
        raise ValueError(f"unrecognized arguments for {args.command}: {' '.join(extra)}")
    return args


def _study_config(args: argparse.Namespace) -> StudyConfig:
    """The given flags as a ``StudyConfig``; unset ones keep its defaults."""
    given = {key: val for key, val in vars(args).items()
             if val is not None and key not in ("command", "config")}
    solver = {_SOLVER[key]: given.pop(key) for key in _SOLVER if key in given}
    if "flux" in given:
        given["flux"] = _FLUX[given["flux"]]
    return StudyConfig(solver=LinearSolverConfig(**solver), **given)


def _print_rows(result) -> None:
    print("mesh        L1        order     L2        order     Linf      order   seconds")
    for r in result.rows:
        print(
            f"{r.label:>6}  {r.l1:10.3e} {r.l1_order if r.l1_order is not None else float('nan'):7.2f} "
            f"{r.l2:10.3e} {r.l2_order if r.l2_order is not None else float('nan'):7.2f} "
            f"{r.linf:10.3e} {r.linf_order if r.linf_order is not None else float('nan'):7.2f} "
            f"{r.seconds:8.2f}"
        )
    if result.slopes:
        print(f"fitted slopes: L1 {result.slopes['l1']:.2f}, L2 {result.slopes['l2']:.2f}")
    if result.files:
        for f in result.files:
            print(f"wrote {f}")


def main(argv: list | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if args.command == "verify":
            return 0 if verify_mod.run_all() else 1
        result = _RUNS[args.command](_study_config(args))
        if args.command == "qualitative":
            print(f"final time reached; max mass defect {result.rows[0].mass_defect:.3e}")
        _print_rows(result)
    except (argparse.ArgumentError, SolverError, GeometryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
