"""
Command-line surface: fixed-point solves, density grids, projection
integrals, Monte Carlo validation, and the quadratic vector equation.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure.
All randomness flows from the explicit --seed flag.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .contour import ContourSpec, project_functional, write_projection_csv
from .empirical import FunctionalSpec, compare
from .equivalent import density_grid, stieltjes_g
from .fixedpoint import NonConvergenceError, SolverOptions, solve_lambda
from .model import EnsembleModel, ModelError, load_model
from .qve import QveProblem, qve_residual, solve_qve

log = logging.getLogger("covspectra")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


class UsageError(Exception):
    pass


def _setup_logging() -> None:
    level = os.environ.get("SPECTRA_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _parse(text: str, form: str, *types: type) -> list:
    """text's comma-separated fields converted by types; else a UsageError."""
    fields = text.split(",")
    try:
        if len(fields) == len(types):
            return [t(v) for t, v in zip(types, fields)]
    except ValueError:
        pass
    raise UsageError(f"expected {form}, got {text!r}")


def _parse_contour(text: str) -> ContourSpec:
    return ContourSpec(*_parse(text, "a,b,h,nodes for --contour", float, float, float, int))


def _solver_options(args: argparse.Namespace) -> SolverOptions:
    return SolverOptions(tol_ds=args.tol, max_iter=args.max_iter)


def _load_model(args: argparse.Namespace) -> EnsembleModel:
    model = load_model(args.model)
    for w in model.warnings:
        log.warning("model validation: %s", w)
    return model


def _functional_matrix(spec: str, model: EnsembleModel) -> np.ndarray:
    if spec == "identity":
        return np.eye(model.p)
    if spec == "ones":
        return np.ones((model.p, model.p))
    kind, colon, path = spec.partition(":")
    if not colon or kind not in ("file", "uuT"):
        raise UsageError(f"unknown functional spec {spec!r}")
    with open(path) as fh:
        A = np.asarray(json.load(fh), dtype=np.float64)
    if kind == "uuT":
        U = A[:, None] if A.ndim == 1 else A
        if U.shape[0] != model.p:
            raise UsageError(f"U must have {model.p} rows")
        A = U @ U.T
    if A.shape != (model.p, model.p):
        raise UsageError(f"functional matrix must be {model.p}x{model.p}")
    return A


def cmd_solve(args: argparse.Namespace) -> int:
    model = _load_model(args)
    z = complex(*_parse(args.z, "RE,IM for a complex value", float, float))
    res = solve_lambda(model, z, _solver_options(args))
    g = stieltjes_g(model, z, res.lam)
    out = {
        "z": [z.real, z.imag],
        "lambda": [[v.real, v.imag] for v in res.lam.values],
        "g": [g.real, g.imag],
        "iterations": res.iterations,
        "residual_ds": res.residual_ds,
        "contraction_estimate": res.contraction_estimate,
        "phi": res.phi,
    }
    json.dump(out, sys.stdout, indent=2)
    print()
    return EXIT_OK


def cmd_density(args: argparse.Namespace) -> int:
    model = _load_model(args)
    grid = density_grid(model, args.xlo, args.xhi, args.count, args.y,
                        _solver_options(args))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "density.csv")
    grid.write_csv(path)
    log.info("wrote %s", path)
    return EXIT_OK


def cmd_project(args: argparse.Namespace) -> int:
    model = _load_model(args)
    contour = _parse_contour(args.contour)
    A = _functional_matrix(args.functional, model)
    res = project_functional(model, A, contour, _solver_options(args))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "projection.csv")
    write_projection_csv(path, [(args.functional, contour, res)])
    log.info("wrote %s", path)
    print(f"{res.value:.12g}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    model = _load_model(args)
    functionals = []
    if args.functional:
        if not (args.contour and args.interval):
            raise UsageError("--functional needs --contour and --interval")
        form = "LO,HI with LO < HI for --interval"
        lo, hi = _parse(args.interval, form, float, float)
        if not lo < hi:
            raise UsageError(f"expected {form}, got {args.interval!r}")
        functionals.append(
            FunctionalSpec(
                name=args.functional,
                matrix=_functional_matrix(args.functional, model),
                contour=_parse_contour(args.contour),
                interval=(lo, hi),
            )
        )
    report = compare(
        model,
        trials=args.trials,
        seed=args.seed,
        bin_width=args.bin_width,
        functionals=functionals,
        y=args.y,
        opts=_solver_options(args),
        jobs=args.jobs,
    )
    report.write(args.out)
    log.info("wrote report to %s", args.out)
    return EXIT_OK


def cmd_qve(args: argparse.Namespace) -> int:
    try:
        with open(args.problem) as fh:
            doc = json.load(fh)
        prob = QveProblem(
            z=complex(doc["z"][0], doc["z"][1]),
            a=np.asarray(doc["a"], dtype=np.float64),
            S=np.asarray(doc["S"], dtype=np.float64),
        )
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise UsageError(f"cannot read QVE problem: {exc}") from exc
    m = solve_qve(prob, _solver_options(args))
    json.dump(
        {"m": [[v.real, v.imag] for v in m], "residual": qve_residual(prob, m)},
        sys.stdout,
        indent=2,
    )
    print()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covspectra",
        description="Deterministic-equivalent spectra of sample covariance matrices",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, func, model: bool = True,
                out: bool = False) -> argparse.ArgumentParser:
        # only the flags that func reads
        p = sub.add_parser(name, help=help)
        if model:
            p.add_argument("--model", required=True, help="model config JSON")
        if out:
            p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tol", type=float, default=1e-12)
        p.add_argument("--max-iter", type=int, default=50_000)
        p.set_defaults(func=func)
        return p

    p = command("solve", "solve the fixed point at one z", cmd_solve)
    p.add_argument("--z", required=True, help="RE,IM")

    p = command("density", "spectral density on a grid", cmd_density, out=True)
    p.add_argument("--xlo", type=float, required=True)
    p.add_argument("--xhi", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--y", type=float, default=1e-3)

    p = command("project", "contour projection of a functional", cmd_project, out=True)
    p.add_argument("--functional", required=True,
                   help="identity | ones | file:PATH | uuT:PATH")
    p.add_argument("--contour", required=True, help="a,b,h,nodes")

    p = command("validate", "Monte Carlo comparison report", cmd_validate, out=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--bin-width", type=float, default=0.5)
    p.add_argument("--y", type=float, default=1e-3)
    p.add_argument("--functional", default=None)
    p.add_argument("--contour", default=None)
    p.add_argument("--interval", default=None, help="LO,HI")

    p = command("qve", "solve a quadratic vector equation", cmd_qve, model=False)
    p.add_argument("problem", help="JSON file {z:[re,im], a:[...], S:[[...]]}")

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
