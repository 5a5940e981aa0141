"""The benchmark's workloads, built from the paper's models.

A workload is a set-up (model construction, timed as setup_s), an untimed
warm-up, and an ordered list of operations.  Every operation's output goes
through a check that raises CheckFailed when it is wrong.  The paper-model
constants are fixed; the seed drives every Monte Carlo draw and the QVE
profile, so one seed always gives the same inputs.

Expected values come from three places: closed forms and conservation laws
(eigenvalue counts, density mass, the semicircle), a central finite
difference of `solve_lambda`, and `reference.json`, which
`record_reference.py` wrote at the commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import covspectra as cs
from covspectra import cli


class CheckFailed(Exception):
    """An operation returned output that fails its check."""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[], object]
    warm_up: Callable[[object], None]
    ops: Callable[[object], list[Op]]


# -- paper models -------------------------------------------------------------

FIG1_P, FIG1_N = 80, 160
FIG1_BASE = np.r_[[8.0] * 20, [1.0] * 60]
ROTATED_OPTS = cs.SolverOptions(max_iter=500)  # 15x the slowest converging solve
Z_DERIVATIVE = 1 + 0.01j
FD_STEP = 1e-5

FIG2_P, FIG2_K, FIG2_N = 200, 10, 200
FIG2_CONTOUR = cs.ContourSpec(6.0, 45.0, 0.5, 32)
FIG2_PAPER_PROJECTION = 9.4009

QVE_N, QVE_BAND = 400, 100
QVE_XS = np.linspace(-2.2, 2.2, 41)
SEMICIRCLE_XS = np.linspace(-1.8, 1.8, 7)
QVE_Y = 1e-3


def fig1_diag_config() -> dict:
    return {"p": FIG1_P, "n": FIG1_N,
            "columns": [{"cov": {"kind": "diagonal", "entries": FIG1_BASE.tolist()},
                         "repeat": FIG1_N}]}


def fig1_rotated_model() -> cs.EnsembleModel:
    P = cs.random_orthogonal(FIG1_P, 314)
    columns = [cs.Column(cs.RotatedFamily(FIG1_BASE, P, i)) for i in range(FIG1_N)]
    return cs.EnsembleModel(FIG1_P, FIG1_N, columns)


def fig2_inputs() -> tuple[cs.EnsembleModel, np.ndarray]:
    """Ten classes of twenty columns, N(u_j, I); the model stores 200 means."""
    U = np.random.Generator(np.random.Philox(key=[7, 0])).standard_normal((FIG2_P, FIG2_K))
    Un = U / np.linalg.norm(U, axis=0)
    columns = [cs.Column(cs.ScaledIdentity(1.0), mean=U[:, i % FIG2_K]) for i in range(FIG2_N)]
    model = cs.EnsembleModel(FIG2_P, FIG2_N, columns, mean_norm_bound=1e9)
    return model, Un @ Un.T


def qve_problems(seed: int) -> tuple[list[cs.QveProblem], list[cs.QveProblem]]:
    """Banded profile with N=400 and a seeded permutation of fixed `a` values,
    so every seed's sweep costs about the same; then the scalar semicircle."""
    idx = np.arange(QVE_N)
    S = (np.abs(np.subtract.outer(idx, idx)) <= QVE_BAND) / (2.0 * QVE_BAND + 1.0)
    rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
    a = rng.permutation(np.linspace(-0.5, 0.5, QVE_N))
    banded = [cs.QveProblem(complex(x, QVE_Y), a, S) for x in QVE_XS]
    scalar = [cs.QveProblem(complex(x, QVE_Y), np.zeros(1), np.ones((1, 1)))
              for x in SEMICIRCLE_XS]
    return banded, scalar


# -- checks -------------------------------------------------------------------


def _within(what: str, value: float, target: float, tol: float) -> None:
    if not abs(value - target) <= tol:
        raise CheckFailed(f"{what} = {value:.8g}, expected {target:.8g} +- {tol:.3g}")


def _check_density(grid: cs.DensityGrid, ref: list[float], upper_mass: float | None) -> None:
    d = grid.density
    if not (np.all(np.isfinite(d)) and d.min() >= 0.0):
        raise CheckFailed("density has non-finite or negative values")
    _within("density mass", np.trapezoid(d, grid.xs) + grid.dirac_at_zero, 1.0, 0.01)
    if upper_mass is not None:
        upper = grid.xs >= 3.0
        _within("upper-bulk mass", np.trapezoid(d[upper], grid.xs[upper]), upper_mass, 0.005)
    want = np.asarray(ref)
    _within("max |density - reference|", float(np.max(np.abs(d - want))), 0.0,
            1e-6 * float(want.max()))


def _check_support(est: cs.SupportEstimate, ref: dict) -> None:
    """Edges within half the scan's coarse stride (its one bisection level)
    plus the reference grid's stride."""
    tol = 0.5 * est.upper_bound_x0 / 200 + ref["stride"]
    want = ref["intervals"]
    if len(est.intervals) != len(want):
        raise CheckFailed(f"support intervals {est.intervals}, reference {want}")
    for got, exp in zip(est.intervals, want):
        for g, e in zip(got, exp):
            _within("support edge", g, e, tol)


def _derivative_op(model: cs.EnsembleModel, opts: cs.SolverOptions | None) -> Op:
    lam = cs.solve_lambda(model, Z_DERIVATIVE, opts).lam

    def check(d: np.ndarray) -> None:
        up = cs.solve_lambda(model, Z_DERIVATIVE + FD_STEP, opts).lam.values
        down = cs.solve_lambda(model, Z_DERIVATIVE - FD_STEP, opts).lam.values
        fd = (up - down) / (2 * FD_STEP)
        _within("relative |dlambda/dz - finite difference|",
                float(np.max(np.abs(d - fd)) / np.max(np.abs(d))), 0.0, 1e-6)

    return Op("derivative", lambda: cs.lambda_derivative(model, Z_DERIVATIVE, lam), check)


def _mean_eigenvalue(model: cs.EnsembleModel) -> float:
    """E[(1/p) tr((1/n) X X^T)] = (1/(p n)) sum_i tr(Sigma_i)."""
    return float(model.traces_against_all(np.eye(model.p)).real.mean()) / model.p


# -- workloads ----------------------------------------------------------------


def fig1_diag(seed: int, out_dir: str, ref: dict) -> Workload:
    config = os.path.join(out_dir, "fig1-diag-model.json")
    with open(config, "w") as fh:
        json.dump(fig1_diag_config(), fh)
    report = os.path.join(out_dir, "fig1-diag-validate")
    summary = os.path.join(report, "summary.json")
    contour = cs.ContourSpec(3.0, 15.0, 0.5, 64)

    def warm_up(model):
        cs.solve_lambda(model, Z_DERIVATIVE)
        cs.spectrum(cs.sample_matrix(model, seed))

    def check_validate(code):
        if code != 0:
            raise CheckFailed(f"validate exited with {code}")
        with open(summary) as fh:
            l1 = json.load(fh)["l1_density_error"]
        os.remove(summary)  # the next repetition must write its own
        if not np.isfinite(l1):
            raise CheckFailed(f"l1_density_error = {l1}")

    def ops(model):
        return [
            Op("density", lambda: cs.density_grid(model, 0.01, 16.0, 400, y=1e-3),
               lambda g: _check_density(g, ref["density"], upper_mass=20 / 80)),
            Op("support", lambda: cs.support_scan(model),
               lambda s: _check_support(s, ref["support"])),
            Op("projection", lambda: cs.eigenvalue_count(model, contour),
               lambda c: _within("eigenvalue count", c, 20.0, 0.05)),
            _derivative_op(model, None),
            Op("validate",
               lambda: cli.main(["validate", "--model", config, "--trials", "10",
                                 "--seed", str(seed), "--out", report,
                                 "--functional", "identity", "--contour", "3,15,0.5,64",
                                 "--interval", "3,15"]),
               check_validate),
        ]

    return Workload("fig1-diag", lambda: cs.load_model(config), warm_up, ops)


def fig1_rotated(seed: int, out_dir: str, ref: dict) -> Workload:
    opts = ROTATED_OPTS

    def warm_up(model):
        cs.solve_lambda(model, Z_DERIVATIVE, opts)
        cs.spectrum(cs.sample_matrix(model, seed))

    def ops(model):
        mean_eig = _mean_eigenvalue(model)

        def check_sampling(batch):
            eigs = batch.eigenvalue_sets
            if eigs.shape != (10, FIG1_P) or not np.all(np.isfinite(eigs)) or eigs.min() < 0:
                raise CheckFailed(f"eigenvalue sets of shape {eigs.shape} out of range")
            if np.any(np.diff(eigs, axis=1) > 0):
                raise CheckFailed("eigenvalues are not nonincreasing")
            _within("mean eigenvalue", float(eigs.mean()), mean_eig, 0.05 * mean_eig)
            if not np.array_equal(eigs[0], cs.spectrum(cs.sample_matrix(model, seed))):
                raise CheckFailed("trial 0 does not reproduce bit for bit")

        return [
            Op("density", lambda: cs.density_grid(model, 1e-12, 10.0, 120, y=1e-3, opts=opts),
               lambda g: _check_density(g, ref["density"], upper_mass=None)),
            Op("support", lambda: cs.support_scan(model, opts=opts),
               lambda s: _check_support(s, ref["support"])),
            _derivative_op(model, opts),
            Op("sampling", lambda: cs.sample_batch(model, 10, seed), check_sampling),
        ]

    return Workload("fig1-rotated", fig1_rotated_model, warm_up, ops)


def fig2_mixture(seed: int, out_dir: str, ref: dict) -> Workload:
    def warm_up(inputs):
        model, A = inputs
        cs.solve_lambda(model, FIG2_CONTOUR.upper_nodes()[0][0])
        cs.empirical_projection(cs.sample_matrix(model, seed), A, (6.0, 45.0))

    def check_projection(results):
        proj, count = (r.value for r in results)
        _within("eigenvalue count", count, 10.0, 0.1)
        _within("tr(Pi Un Un^T) against the paper", proj, FIG2_PAPER_PROJECTION,
                0.1 * FIG2_PAPER_PROJECTION)
        # 64 nodes per side give 9.5307: a better quadrature stays inside
        _within("tr(Pi Un Un^T) against the reference", proj, ref["projection"],
                1e-4 * ref["projection"])

    def check_sampling(values):
        values = np.asarray(values)
        if values.shape != (10,) or values.min() < 0 or values.max() > FIG2_K + 1e-9:
            raise CheckFailed(f"empirical projections {values} outside [0, {FIG2_K}]")
        _within("mean empirical tr(Pi Un Un^T)", float(values.mean()), ref["projection"],
                0.1 * ref["projection"])

    def ops(inputs):
        model, A = inputs
        eye = np.eye(FIG2_P)

        def projection():
            solves = cs.contour_solves(model, FIG2_CONTOUR)
            return cs.project_functionals(model, [A, eye], FIG2_CONTOUR, solves=solves)

        return [
            Op("projection", projection, check_projection),
            Op("sampling",
               lambda: [cs.empirical_projection(cs.sample_matrix(model, seed, trial=t), A,
                                                (6.0, 45.0)) for t in range(10)],
               check_sampling),
        ]

    return Workload("fig2-mixture", fig2_inputs, warm_up, ops)


def qve_sweep(seed: int, out_dir: str, ref: dict) -> Workload:
    def warm_up(problems):
        banded, scalar = problems
        cs.solve_qve(banded[len(banded) // 2])
        cs.solve_qve(scalar[0])

    def ops(problems):
        banded, scalar = problems

        def check(solutions):
            ms, ss = solutions
            for prob, m in zip(banded + scalar, ms + ss):
                residual = cs.qve_residual(prob, m)
                if not (np.all(m.imag > 0) and residual < 1e-10):
                    raise CheckFailed(f"QVE at z={prob.z}: residual {residual:.3g}")
            for x, m in zip(SEMICIRCLE_XS, ss):
                _within(f"semicircle density at x={x:.2f}", m[0].imag / np.pi,
                        np.sqrt(max(4.0 - x * x, 0.0)) / (2 * np.pi), 5e-4)

        return [Op("qve", lambda: ([cs.solve_qve(p) for p in banded],
                                   [cs.solve_qve(p) for p in scalar]), check)]

    return Workload("qve-sweep", lambda: qve_problems(seed), warm_up, ops)


WORKLOADS = {
    "fig1-diag": fig1_diag,
    "fig1-rotated": fig1_rotated,
    "fig2-mixture": fig2_mixture,
    "qve-sweep": qve_sweep,
}
