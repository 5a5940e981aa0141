"""
Fixed-point machinery for the deterministic-equivalent diagonal.

The map takes a diagonal L (with Im L > 0 and Im(L/z) > 0) to
``z - diag((1/n) tr(Sigma_i Q(L)))`` with
``Q(L) = (I_p - (1/n) sum_j Sigma_j / L_j)^{-1}``.  It is a contraction for
the semi-metric d_s, which gives existence and uniqueness of the fixed point
and justifies the Picard iteration used here.  Anderson acceleration is
layered on top with a domain guard, because plain iteration slows down
drastically near the real axis.

``_contract`` is the one iteration loop of the package: ``solve_lambda`` runs
it on this map and ``qve.solve_qve`` on the quadratic vector equation, which
is a d_s contraction of the same kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .model import EnsembleModel
from .semimetric import UpperDiagonal, _ds, _in_domain, in_solver_domain

__all__ = [
    "SolverOptions",
    "FixedPointResult",
    "DomainError",
    "NonConvergenceError",
    "q_tilde",
    "apply_Iz",
    "contraction_factor",
    "solve_lambda",
    "continuation_solve",
    "psi_matrix",
    "lambda_derivative",
]

_ANDERSON_WINDOW = 5  # Anderson mixes this many latest differences of iterates


class DomainError(ValueError):
    """Input diagonal outside the solver domain."""


class NonConvergenceError(RuntimeError):
    """Picard iteration exhausted max_iter without reaching tolerance, or
    produced a non-finite residual."""

    def __init__(self, iterations: int, last_residual: float, index: int | None = None):
        self.iterations = iterations
        self.last_residual = last_residual
        self.index = index
        where = "" if index is None else f" at path index {index}"
        super().__init__(
            f"no convergence after {iterations} iterations{where} "
            f"(last residual {last_residual:.3e})"
        )


@dataclass(frozen=True)
class SolverOptions:
    tol_ds: float = 1e-12
    max_iter: int = 50_000
    acceleration: str = "anderson"  # "anderson" | "none"

    def __post_init__(self) -> None:
        if not self.tol_ds > 0.0:
            raise ValueError("tol_ds must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.acceleration not in ("anderson", "none"):
            raise ValueError("acceleration must be 'anderson' or 'none'")


@dataclass(frozen=True)
class FixedPointResult:
    lam: UpperDiagonal
    iterations: int
    residual_ds: float
    contraction_estimate: float
    phi: float


def _raw_iz(model: EnsembleModel, z: complex, values: NDArray) -> NDArray:
    Q = _raw_q_tilde(model, values)
    return z - model.traces_against_all(Q) / model.n


def _raw_q_tilde(model: EnsembleModel, values: NDArray) -> NDArray:
    try:
        return model.factor_inverse(1.0 / values)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"singular resolvent factor: {exc}") from exc


def q_tilde(model: EnsembleModel, L: UpperDiagonal) -> NDArray[np.complex128]:
    """(I_p - (1/n) sum_i Sigma_i / L_i)^{-1}."""
    if len(L) != model.n:
        raise DomainError(f"diagonal length {len(L)} != n={model.n}")
    return _raw_q_tilde(model, L.values)


def apply_Iz(model: EnsembleModel, z: complex, L: UpperDiagonal) -> UpperDiagonal:
    """One application of the fixed-point map; stays in the solver domain."""
    if len(L) != model.n:
        raise DomainError(f"diagonal length {len(L)} != n={model.n}")
    if not in_solver_domain(L, z):
        raise DomainError("L is outside the solver domain for this z")
    return UpperDiagonal(_raw_iz(model, z, L.values))


def _phi(model: EnsembleModel, z: complex, L: UpperDiagonal) -> float:
    mapped = _raw_iz(model, z, L.values)
    return z.imag / float(mapped.imag.max())


def contraction_factor(
    model: EnsembleModel, z: complex, L: UpperDiagonal, Lp: UpperDiagonal
) -> float:
    """sqrt((1 - phi(z, L)) (1 - phi(z, L'))) with phi = Im z / max Im(map(L))."""
    for D in (L, Lp):
        if not in_solver_domain(D, z):
            raise DomainError("diagonal outside the solver domain")
    pL, pLp = _phi(model, z, L), _phi(model, z, Lp)
    return float(np.sqrt(max(1.0 - pL, 0.0) * max(1.0 - pLp, 0.0)))


def _contract(
    step: Callable[[NDArray], NDArray],
    x0: NDArray,
    opts: SolverOptions,
    in_domain: Callable[[NDArray], bool],
) -> tuple[NDArray, int, float, float]:
    """Iterate x <- step(x) from x0 until consecutive iterates are closer than
    opts.tol_ds in d_s, with Anderson acceleration (Walker & Ni 2011) unless
    opts.acceleration is "none".  Returns (x, iterations, residual, ratio of
    the last two residuals); raises NonConvergenceError after max_iter steps,
    or at once on a non-finite residual."""
    use_aa = opts.acceleration == "anderson"
    g_hist: list[NDArray] = []
    f_hist: list[NDArray] = []

    x = x0
    residual = np.inf
    prev_residual = np.inf
    contraction = 1.0
    for k in range(1, opts.max_iter + 1):
        gx = step(x)
        f = gx - x
        prev_residual, residual = residual, _ds(gx, x)
        contraction = residual / prev_residual if np.isfinite(prev_residual) else 1.0
        if residual < opts.tol_ds:
            return gx, k, residual, contraction
        if not math.isfinite(residual):
            raise NonConvergenceError(k, residual)

        x_next = gx
        if use_aa:
            g_hist.append(gx)
            f_hist.append(f)
            if len(f_hist) > _ANDERSON_WINDOW + 1:
                g_hist.pop(0)
                f_hist.pop(0)
            m = len(f_hist) - 1
            if m >= 1:
                dF = np.stack([f_hist[j + 1] - f_hist[j] for j in range(m)], axis=1)
                dG = np.stack([g_hist[j + 1] - g_hist[j] for j in range(m)], axis=1)
                gamma, *_ = np.linalg.lstsq(dF, f, rcond=None)
                candidate = gx - dG @ gamma
                # any accelerated step leaving the domain falls back to Picard
                if in_domain(candidate):
                    x_next = candidate
        x = x_next

    raise NonConvergenceError(opts.max_iter, residual)


def solve_lambda(
    model: EnsembleModel,
    z: complex,
    opts: SolverOptions | None = None,
    warm: UpperDiagonal | None = None,
) -> FixedPointResult:
    """Solve the fixed-point equation at z (Im z > 0).

    Starts from one application of the map at the boundary point z*ones
    (which lands strictly inside the domain), or from a warm start.  Stops
    when consecutive iterates are closer than tol_ds in the d_s semi-metric.
    """
    if not complex(z).imag > 0.0:
        raise DomainError("z must lie in the upper half-plane")
    z = complex(z)
    opts = opts or SolverOptions()

    if warm is not None:
        if len(warm) != model.n:
            raise DomainError("warm start has wrong length")
        x = warm.values.copy()
        if not _in_domain(x, z):
            raise DomainError("warm start outside the solver domain")
    else:
        x = _raw_iz(model, z, np.full(model.n, z, dtype=np.complex128))

    x, k, residual, contraction = _contract(
        lambda v: _raw_iz(model, z, v), x, opts, lambda v: _in_domain(v, z)
    )
    return FixedPointResult(
        lam=UpperDiagonal(x),
        iterations=k,
        residual_ds=residual,
        contraction_estimate=min(contraction, 1.0 - 1e-16),
        phi=z.imag / float(x.imag.max()),
    )


def continuation_solve(
    model: EnsembleModel,
    zs: Sequence[complex],
    opts: SolverOptions | None = None,
) -> list[FixedPointResult]:
    """Solve along an ordered z-path, warm-starting each point from the
    previous solution (imaginary part floored at Im(z_next) if needed)."""
    if len(zs) == 0:
        raise ValueError("empty z path")
    opts = opts or SolverOptions()
    results: list[FixedPointResult] = []
    warm: UpperDiagonal | None = None
    for idx, z in enumerate(zs):
        z = complex(z)
        if warm is not None:
            v = warm.values.copy()
            lift = z.imag - v.imag
            v[lift > 0] += 1j * lift[lift > 0]
            warm = UpperDiagonal(v) if _in_domain(v, z) else None
        try:
            res = solve_lambda(model, z, opts, warm=warm)
        except NonConvergenceError as exc:
            raise NonConvergenceError(exc.iterations, exc.last_residual, index=idx) from exc
        results.append(res)
        warm = res.lam
    return results


def psi_matrix(
    model: EnsembleModel, D: UpperDiagonal, Dp: UpperDiagonal
) -> NDArray[np.complex128]:
    """Stability matrix: entry (i, j) is
    (1/n^2) tr(Sigma_i Q(D) Sigma_j Q(D')) / (D_j D'_j).

    This is the transfer matrix of the fixed-point map: at a solved point,
    d(lambda)/dz = (I - Psi)^{-1} ones and ||Psi|| < 1."""
    n = model.n
    Q = q_tilde(model, D)
    Qp = q_tilde(model, Dp)
    # columns of one class share Sigma_j: one product pair per class
    _, first = np.unique(model.column_class, return_index=True)
    traces = np.array([model.traces_against_all(Q @ model.realize_sigma(j) @ Qp)
                       for j in first])
    return traces[model.column_class].T / (n * n * D.values * Dp.values)


def lambda_derivative(
    model: EnsembleModel, z: complex, lam: UpperDiagonal
) -> NDArray[np.complex128]:
    """d(lambda)/dz at a converged fixed point: solves (I - Psi) x = ones."""
    psi = psi_matrix(model, lam, lam)
    A = np.eye(model.n, dtype=np.complex128) - psi
    try:
        return np.linalg.solve(A, np.ones(model.n, dtype=np.complex128))
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "I - Psi is singular; input is not a converged fixed point"
        ) from exc
