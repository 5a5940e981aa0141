"""
Semi-metric on complex diagonals with positive imaginary parts.

``d_s(D, D') = max_i |D_i - D_i'| / sqrt(Im(D_i) Im(D_i'))`` is the geometry
in which the deterministic-equivalent fixed-point map contracts.  It is not a
metric (no triangle inequality) and must not be fed to generic metric-space
algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "UpperDiagonal",
    "d_s",
    "in_solver_domain",
    "stieltjes_lipschitz_check",
]


@dataclass(frozen=True)
class UpperDiagonal:
    """Complex diagonal with strictly positive imaginary parts.

    Entries with Im <= 0 are rejected at construction: the semi-metric is
    undefined there and silent NaNs would poison convergence tests.
    """

    values: NDArray[np.complex128]

    def __post_init__(self) -> None:
        v = np.atleast_1d(np.asarray(self.values, dtype=np.complex128))
        if v.ndim != 1 or v.size == 0:
            raise ValueError("UpperDiagonal needs a nonempty 1-d array")
        if not _in_upper(v):
            raise ValueError("UpperDiagonal entries must have Im > 0")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


def _ds(a, b) -> float:
    """d_s on unchecked arrays or scalars.

    Evaluated as |a - b| / (sqrt(Im a) * sqrt(Im b)) so the product of tiny
    imaginary parts cannot underflow.
    """
    return float(np.max(np.abs(a - b) / (np.sqrt(a.imag) * np.sqrt(b.imag))))


def _in_upper(values) -> bool:
    return bool(np.all(values.imag > 0.0))


def _in_domain(values, z: complex) -> bool:
    """The solver domain on unchecked arrays: Im(v_i) > 0 and Im(v_i/z) > 0."""
    return _in_upper(values) and _in_upper(values / z)


def d_s(D: UpperDiagonal, Dp: UpperDiagonal) -> float:
    """Semi-metric between two diagonals of equal length."""
    a, b = D.values, Dp.values
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return _ds(a, b)


def in_solver_domain(D: UpperDiagonal, z: complex) -> bool:
    """True iff every entry satisfies Im(D_i) > 0 and Im(D_i / z) > 0."""
    if not z.imag > 0.0:
        raise ValueError("z must lie in the upper half-plane")
    return _in_domain(D.values, z)


def _discrete_stieltjes(locs: NDArray, masses: NDArray, w: complex) -> complex:
    return complex(np.sum(masses / (locs - w)))


def stieltjes_lipschitz_check(
    atoms: list[tuple[float, float]], z: complex, zp: complex
) -> tuple[float, float]:
    """Evaluate both sides of the 1-Lipschitz property of the Stieltjes
    transform of a discrete measure.

    Returns ``(lhs, rhs)`` where ``lhs = |g(z) - g(z')|`` and
    ``rhs = sqrt(Im g(z) Im g(z')) * d_s(z, z')``; callers assert
    ``lhs <= rhs * (1 + 1e-12)``.
    """
    if not atoms:
        raise ValueError("atom list must be nonempty")
    locs = np.asarray([a[0] for a in atoms], dtype=np.float64)
    masses = np.asarray([a[1] for a in atoms], dtype=np.float64)
    if masses.min() < 0.0 or masses.sum() <= 0.0:
        raise ValueError("atom masses must be nonnegative with positive total")
    if not (z.imag > 0.0 and zp.imag > 0.0):
        raise ValueError("z and z' must lie in the upper half-plane")
    g, gp = _discrete_stieltjes(locs, masses, z), _discrete_stieltjes(locs, masses, zp)
    lhs = abs(g - gp)
    rhs = float(np.sqrt(g.imag * gp.imag) * _ds(z, zp))
    return lhs, rhs
