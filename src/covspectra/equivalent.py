"""
Deterministic-equivalent resolvent, Stieltjes transform, and spectral density.

From a solved diagonal the resolvent equivalent is
``R(z) = ((1/n) sum_i z Sigma_i / lambda_i - z I_p)^{-1}`` and the Stieltjes
transform ``g(z) = (1/z)(n/p - 1) - (1/p) sum_i 1/lambda_i``.  The density is
recovered as Im g(x + iy)/pi on grids with a small, explicit y offset.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from .fixedpoint import SolverOptions, _class_sums, _solve_path
from .model import EnsembleModel
from .semimetric import UpperDiagonal, _upper_z

__all__ = [
    "DensityGrid",
    "SupportEstimate",
    "r_tilde",
    "stieltjes_g",
    "density_grid",
    "support_scan",
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
    -(1/z) (I_p - (1/n) sum_i Sigma_i / lambda_i)^{-1}; DomainError unless
    z is finite with Im z > 0."""
    z = _upper_z(z)
    return -model.factor_inverses(_class_sums(model, lam))[0] / z


def stieltjes_g(model: EnsembleModel, z: complex, lam: UpperDiagonal) -> complex:
    """(1/z)(n/p - 1) - (1/p) sum_i 1/lambda_i; DomainError unless z is
    finite with Im z > 0."""
    return complex(_g(model, _upper_z(z), _class_sums(model, lam))[0])


def _g(model: EnsembleModel, z: NDArray | complex, Wc: NDArray) -> NDArray:
    """g at each z (m,) from the class sums Wc (m, k) of the 1/lambda_i."""
    return (1.0 / z) * (model.n / model.p - 1.0) - Wc.sum(axis=1) / model.p


def _path_g(model: EnsembleModel, zs: Sequence[complex], opts: SolverOptions | None) -> NDArray:
    """g at every node of the z-path zs, solved as continuation_solve solves
    it but read from the class values, with no per-node result."""
    zs, lam, _ = _solve_path(model, zs, opts)
    return _g(model, zs, model._class_size / lam)


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
    if not np.isfinite([x_lo, x_hi]).all():
        raise ValueError("x_lo and x_hi must be finite")
    if not isinstance(count, (int, np.integer)):
        raise ValueError("count must be an integer")
    if count < 2:
        raise ValueError("count must be >= 2")
    if not y > 0.0:
        raise ValueError("y must be positive")
    xs = np.linspace(x_lo, x_hi, count)
    dens = np.maximum(_path_g(model, xs + 1j * y, opts).imag / np.pi, 0.0)
    dirac = max(0.0, 1.0 - model.n / model.p)
    return DensityGrid(xs=xs, y=float(y), density=dens, dirac_at_zero=dirac)


def _scan_range(model: EnsembleModel) -> tuple[float, float]:
    """support_scan's x0 and its bound b on the support, from one nu_hat and
    one max_trace."""
    nu, trace = model.nu_hat(), model.max_trace()
    b = (np.sqrt(nu) + np.sqrt(trace / model.n)) ** 2
    return 1.5 * max(8.0 / model.n * trace, 4.0 * nu), b


def support_scan(
    model: EnsembleModel,
    y: float = 1e-3,
    threshold: float = 1e-3,
    opts: SolverOptions | None = None,
) -> SupportEstimate:
    """Locate the intervals where the limiting density exceeds a threshold.

    The scan covers [0, x0] where x0 = 1.5 * max((8/n) max_i tr(Sigma_i),
    4 * nu_hat); the deterministic nu_hat proxy can undershoot the
    probabilistic bound, hence the 1.5x inflation.  The grid's stride is
    x0/200.  Each crossing of the threshold between adjacent grid points is
    bisected once, every midpoint solved on one path: its edge is the
    midpoint where the density there exceeds the threshold, and otherwise
    halfway from the midpoint to the crossing's inside grid point.  A run
    still above the threshold at the grid's first or last point ends there.

    Only the grid points x <= b (1 + 1e-9) + sqrt(y / (pi threshold)) are
    solved, b = (sqrt(nu_hat) + sqrt(max_i tr(Sigma_i) / n))^2; the others
    read density 0.  The relative margin 1e-9 covers the rounding of nu_hat
    and of the traces, a few p eps.  The limit spectrum mu, whose Stieltjes
    transform is g, lies in [0, b]:

    The fixed point reads the columns only through their second moments
    Sigma_i, so the N-fold replica (N p rows, N n columns, column (i, k) of
    second moment I_N (x) Sigma_i) has the same lambda and g.  Take its
    columns centred Gaussian, X = sum_j A_j g_j with independent standard
    g_j.  The paper's theorem (concentrated columns, ||Sigma_i|| bounded,
    p/n fixed: true for every N) takes the spectrum of (1/(N n)) X X^T to
    mu as N -> inf.  Bandeira, Boedihardjo & van Handel (Invent. Math.
    2023), on the Hermitian dilation, bound E||X|| by ||X_free|| +
    O(N^(1/4) log^(3/4) N), X_free = sum_j A_j (x) s_j with free
    semicirculars s_j.  Each s_j is a creation plus an annihilation
    operator on the full Fock space, so ||X_free|| <= ||E X^T X||^(1/2) +
    ||E X X^T||^(1/2) = sqrt(N max_i tr(Sigma_i)) + sqrt(N n nu_hat)
    (Lehner, Amer. J. Math. 1999, gives the exact norm).  With Gaussian
    concentration of ||X||, the replica's largest eigenvalue is at most
    b + o(1) almost surely, so mu has no mass beyond b.  At x = b + d > b,
    Im g(x + iy)/pi = (1/pi) int y / ((x - t)^2 + y^2) dmu(t) <= y/(pi d^2),
    at most the threshold once d >= sqrt(y / (pi threshold)), 0.564 at the
    defaults.  Marchenko-Pastur (Sigma_i = I) gives b = (1 + sqrt(p/n))^2,
    its right edge.
    """
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    if not y > 0.0:
        raise ValueError("y must be positive")
    x0, b = _scan_range(model)
    if not 1e-12 < x0 < np.inf:
        raise ValueError(f"scan range [1e-12, {x0}] is empty or not finite")
    xs = np.linspace(1e-12, x0, 201)
    near = xs[xs <= b * (1.0 + 1e-9) + np.sqrt(y / (np.pi * threshold))]
    density = np.zeros_like(xs)
    density[:near.size] = _path_g(model, near + 1j * y, opts).imag / np.pi
    above = density > threshold
    c = np.flatnonzero(above[1:] != above[:-1])  # between xs[c] and xs[c + 1]
    mid = 0.5 * (xs[c] + xs[c + 1])
    if c.size:
        passes = _path_g(model, mid + 1j * y, opts).imag / np.pi > threshold
        mid = np.where(passes, mid, 0.5 * (mid + np.where(above[c], xs[c], xs[c + 1])))
    pts = np.r_[xs[:1][above[:1]], mid, xs[-1:][above[-1:]]]
    edges = [(float(lo), float(hi)) for lo, hi in zip(pts[::2], pts[1::2])]
    return SupportEstimate(intervals=edges, threshold=threshold, upper_bound_x0=x0)
