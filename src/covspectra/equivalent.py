"""
Deterministic-equivalent resolvent, Stieltjes transform, and spectral density.

From a solved diagonal the resolvent equivalent is
``R(z) = ((1/n) sum_i z Sigma_i / lambda_i - z I_p)^{-1}`` and the Stieltjes
transform ``g(z) = (1/z)(n/p - 1) - (1/p) sum_i 1/lambda_i``.  The density is
recovered as Im g(x + iy)/pi on grids with a small, explicit y offset.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from numpy.typing import NDArray

from .fixedpoint import SolverOptions, continuation_solve, q_tilde, solve_lambda
from .model import EnsembleModel
from .semimetric import UpperDiagonal

__all__ = [
    "DensityGrid",
    "SupportEstimate",
    "r_tilde",
    "stieltjes_g",
    "per_column_stieltjes",
    "density_grid",
    "support_scan",
    "linear_functional",
]


@dataclass(frozen=True)
class DensityGrid:
    xs: NDArray[np.float64]
    y: float
    density: NDArray[np.float64]
    dirac_at_zero: float = 0.0

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.density):
            raise ValueError("xs and density must have equal length")

    def write_csv(self, path: str) -> None:
        _write_csv(path, ("x", "density"), zip(self.xs, self.density),
                   comment=f"dirac_at_zero={self.dirac_at_zero:.17g}, y={self.y:.17g}")


def _write_csv(path: str, header: tuple[str, ...], rows: Iterable,
               comment: str | None = None) -> None:
    """The package's one CSV writer: an optional '# comment' line, the header,
    then the rows, floats in their shortest exact form and None as ''."""
    with open(path, "w", newline="") as fh:
        fh.write("" if comment is None else f"# {comment}\n")
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


@dataclass(frozen=True)
class SupportEstimate:
    intervals: list[tuple[float, float]]
    threshold: float
    upper_bound_x0: float


def r_tilde(
    model: EnsembleModel, z: complex, lam: UpperDiagonal
) -> NDArray[np.complex128]:
    """((1/n) sum_i (z / lambda_i) Sigma_i - z I_p)^{-1}, computed as
    -(1/z) * q_tilde(lam)."""
    return -q_tilde(model, lam) / complex(z)


def stieltjes_g(model: EnsembleModel, z: complex, lam: UpperDiagonal) -> complex:
    """(1/z)(n/p - 1) - (1/p) sum_i 1/lambda_i."""
    z = complex(z)
    return (1.0 / z) * (model.n / model.p - 1.0) - complex(
        np.sum(1.0 / lam.values)
    ) / model.p


def per_column_stieltjes(lam: UpperDiagonal, i: int) -> complex:
    """Stieltjes transform of the column-i measure: -1/lambda_i."""
    if not 0 <= i < len(lam):
        raise IndexError(f"index {i} out of range [0, {len(lam)})")
    return complex(-1.0 / lam.values[i])


def density_grid(
    model: EnsembleModel,
    x_lo: float,
    x_hi: float,
    count: int,
    y: float,
    opts: SolverOptions | None = None,
) -> DensityGrid:
    """Im g(x + iy)/pi on a uniform grid, continuation-solved left to right."""
    if not x_lo < x_hi:
        raise ValueError("x_lo must be < x_hi")
    if count < 2:
        raise ValueError("count must be >= 2")
    if not y > 0.0:
        raise ValueError("y must be positive")
    xs = np.linspace(x_lo, x_hi, count)
    results = continuation_solve(model, xs + 1j * y, opts)
    dens = np.array(
        [stieltjes_g(model, x + 1j * y, r.lam).imag / np.pi for x, r in zip(xs, results)]
    )
    dens = np.maximum(dens, 0.0)
    dirac = max(0.0, 1.0 - model.n / model.p)
    return DensityGrid(xs=xs, y=float(y), density=dens, dirac_at_zero=dirac)


def support_scan(
    model: EnsembleModel,
    y: float = 1e-3,
    threshold: float = 1e-3,
    opts: SolverOptions | None = None,
) -> SupportEstimate:
    """Locate the intervals where the limiting density exceeds a threshold.

    The scan covers [0, x0] where x0 = 1.5 * max((8/n) max_i tr(Sigma_i),
    4 * nu_hat); the deterministic nu_hat proxy can undershoot the
    probabilistic bound, hence the 1.5x inflation.  Coarse stride x0/200 with
    one level of bisection refinement at threshold crossings.
    """
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    x0 = 1.5 * max(8.0 / model.n * model.max_trace(), 4.0 * model.nu_hat())
    grid = density_grid(model, 1e-12, x0, 201, y, opts)
    above = grid.density > threshold
    xs = grid.xs

    def refine(inside: float, outside: float) -> float:
        """One bisection level between a grid point above the threshold and
        its neighbour below it."""
        mid = 0.5 * (inside + outside)
        z = complex(mid, y)
        d = stieltjes_g(model, z, solve_lambda(model, z, opts).lam).imag / np.pi
        return mid if d > threshold else 0.5 * (mid + inside)

    edges: list[tuple[float, float]] = []
    i = 0
    while i < len(xs):
        if above[i]:
            j = i
            while j + 1 < len(xs) and above[j + 1]:
                j += 1
            lo = refine(xs[i], xs[i - 1]) if i > 0 else xs[i]
            hi = refine(xs[j], xs[j + 1]) if j + 1 < len(xs) else xs[j]
            edges.append((max(float(lo), 0.0), min(float(hi), x0)))
            i = j + 1
        else:
            i += 1
    return SupportEstimate(intervals=edges, threshold=threshold, upper_bound_x0=x0)


def linear_functional(A: NDArray, R: NDArray) -> complex:
    """tr(A R)."""
    A = np.asarray(A)
    R = np.asarray(R)
    if A.shape != R.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("dimension mismatch")
    return complex(np.einsum("ij,ji->", A, R))
