"""Command-line driver: convergence studies, qualitative runs and verification.

Subcommands: ``spatial``, ``temporal``, ``qualitative`` run the registered
benchmark problems and write CSV tables plus gnuplot scripts; ``verify``
runs the numerical property suites.  Any flag may also be supplied through a
plain key=value configuration file (one pair per line, ``#`` comments);
explicit command-line flags win over the file.  The exit code is nonzero if
any run fails to converge.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    PROBLEMS,
    StudyConfig,
    run_qualitative,
    run_spatial_study,
    run_temporal_study,
)
from .remap1d import GeometryError
from .timeint import LinearSolverConfig, SolverError
from . import verify as verify_mod

_FLUX = {"uminus": "uminus_qplus", "uplus": "uplus_qminus"}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value file supplying defaults for any flag")
    p.add_argument("--problem", choices=PROBLEMS)
    p.add_argument("--k", type=int, choices=(0, 1, 2))
    p.add_argument("--tableau", choices=("be", "dirk2", "dirk3", "dirk4"))
    p.add_argument("--cfl", help="CFL number, or comma list for temporal studies")
    p.add_argument("--meshes", help="comma list of cells per direction")
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


def _parse_list(text: str, cast) -> tuple:
    return tuple(cast(tok) for tok in text.replace(" ", "").split(",") if tok)


def _load_config(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (expected key=value): {raw.rstrip()}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


_DEFAULTS = {
    "problem": "ex31",
    "k": 2,
    "tableau": "dirk4",
    "cfl": "1.0",
    "meshes": "10,20,40,80,160",
    "eps": None,
    "flux": "uminus",
    "mode": "quad",
    "gmres_tol": 1e-12,
    "solver": "gmres",
    "T": None,
    "dt_dx": None,
    "out": None,
    "reference": None,
    "cfl_ref": None,
    "plot_points": 100,
    "cuts": "",
}

_CASTS = {
    "k": int,
    "eps": float,
    "gmres_tol": float,
    "T": float,
    "dt_dx": float,
    "reference": int,
    "cfl_ref": float,
    "plot_points": int,
}


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults, config file and explicit flags (flags win)."""
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        for key, val in _load_config(args.config).items():
            if key not in merged:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = _CASTS.get(key, str)(val) if val != "" else None
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _study_config(opts: dict, cfl) -> StudyConfig:
    cuts = ()
    if opts["cuts"]:
        parts = _parse_list(opts["cuts"], str)
        cuts = tuple((p.split(":")[0], float(p.split(":")[1])) for p in parts)
    return StudyConfig(
        problem=opts["problem"],
        k=int(opts["k"]),
        tableau=opts["tableau"],
        meshes=_parse_list(str(opts["meshes"]), int),
        cfl=cfl,
        eps=opts["eps"],
        flux=_FLUX[opts["flux"]] if opts["flux"] in _FLUX else opts["flux"],
        mode=opts["mode"],
        solver=LinearSolverConfig(opts["solver"], float(opts["gmres_tol"])),
        T=opts["T"],
        reference=opts["reference"],
        cfl_ref=opts["cfl_ref"],
        dt_dx=opts["dt_dx"],
        out=opts["out"],
        plot_points=int(opts["plot_points"]),
        cuts=cuts,
    )


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
    parser = argparse.ArgumentParser(
        prog="sldg",
        description="semi-Lagrangian DG convection-diffusion benchmark driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spatial", help="mesh-refinement convergence table")
    _add_common(sp)
    sp.add_argument("--reference", type=int, help="reference mesh when no exact solution exists")

    tp = sub.add_parser("temporal", help="error against CFL on a fixed mesh")
    _add_common(tp)
    tp.add_argument("--cfl-ref", type=float, help="self-reference CFL when no exact solution exists")

    qp = sub.add_parser("qualitative", help="snapshot, 1D cuts and mass history")
    _add_common(qp)
    qp.add_argument("--plot-points", type=int, help="sample points per direction")
    qp.add_argument("--cuts", help="comma list of cuts, e.g. x:-1.0,y:1.0")

    sub.add_parser("verify", help="run the numerical property suites")

    args = parser.parse_args(argv)
    if args.command == "verify":
        return 0 if verify_mod.run_all() else 1

    try:
        opts = _resolve(args)
        if args.command == "spatial":
            result = run_spatial_study(_study_config(opts, float(opts["cfl"])))
        elif args.command == "temporal":
            cfls = _parse_list(str(opts["cfl"]), float)
            result = run_temporal_study(_study_config(opts, cfls))
        else:
            result = run_qualitative(_study_config(opts, float(opts["cfl"])))
            print(f"final time reached; max mass defect {result.rows[0].mass_defect:.3e}")
        _print_rows(result)
    except (SolverError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
