"""
Semi-metric on complex diagonals with positive imaginary parts.

``d_s(D, D') = max_i |D_i - D_i'| / sqrt(Im(D_i) Im(D_i'))`` is the geometry
in which the deterministic-equivalent fixed-point map contracts.  It is not a
metric (no triangle inequality) and must not be fed to generic metric-space
algorithms.  The solver domain (z finite with Im z > 0, Im D_i > 0 and
Im(D_i / z) > 0, or D_i = z) and its checks live here alone: outside it is a
DomainError.  D_i = z is the one boundary point an entry reaches: the map's
value for a column of zero second moment, or one whose trace rounds away.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "DomainError",
    "UpperDiagonal",
    "d_s",
    "in_solver_domain",
    "stieltjes_lipschitz_check",
]


class DomainError(ValueError):
    """Input outside the solver domain."""


def _upper_z(z: complex) -> complex:
    """complex(z), a DomainError unless it is finite with Im z > 0."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError("z must be finite")
    if not z.imag > 0.0:
        raise DomainError("z must lie in the upper half-plane")
    return z


@dataclass(frozen=True)
class UpperDiagonal:
    """Complex diagonal with finite entries and strictly positive imaginary
    parts; others are a DomainError at construction: the semi-metric is
    undefined there and silent NaNs would poison convergence tests."""

    values: NDArray[np.complex128]

    def __post_init__(self) -> None:
        v = np.atleast_1d(np.asarray(self.values, dtype=np.complex128))
        if v.ndim != 1 or v.size == 0:
            raise ValueError("UpperDiagonal needs a nonempty 1-d array")
        if not np.isfinite(v).all():
            raise DomainError("UpperDiagonal entries must be finite")
        if not _in_upper(v):
            raise DomainError("UpperDiagonal entries must have Im > 0")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


def _ds(a, b, axis=None):
    """d_s on unchecked arrays or scalars; with an axis, one value per row.

    Evaluated as |a - b| / (sqrt(Im a) * sqrt(Im b)) so the product of tiny
    imaginary parts cannot underflow.
    """
    return (np.abs(a - b) / (np.sqrt(a.imag) * np.sqrt(b.imag))).max(axis=axis)


def _in_upper(values, axis=None):
    return (values.imag > 0.0).all(axis=axis)


def _in_domain(values, z, axis=None):
    """The solver domain on unchecked arrays: Im(v_i) > 0 and either
    Im(v_i/z) > 0 or v_i = z, judged from the values alone; with an axis,
    one answer per row (z then broadcasts against the rows)."""
    return _in_upper(values, axis) & (((values / z).imag > 0.0) | (values == z)).all(axis=axis)


def _domain_values(D: UpperDiagonal, n: int, z: complex | None = None) -> NDArray:
    """D's entries, a DomainError unless there are n of them and, given z,
    all in the solver domain at z."""
    if len(D) != n:
        raise DomainError(f"diagonal length {len(D)} != n={n}")
    if z is not None and not _in_domain(D.values, z):
        raise DomainError("diagonal outside the solver domain for this z")
    return D.values


def d_s(D: UpperDiagonal, Dp: UpperDiagonal) -> float:
    """Semi-metric between two diagonals of equal length."""
    a, b = D.values, Dp.values
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return float(_ds(a, b))


def in_solver_domain(D: UpperDiagonal, z: complex) -> bool:
    """True iff every entry satisfies Im(D_i) > 0 and either Im(D_i / z) > 0
    or D_i = z."""
    return bool(_in_domain(D.values, _upper_z(z)))


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
    if not (np.isfinite(locs).all() and np.isfinite(masses).all()):
        raise ValueError("atom locations and masses must be finite")
    if masses.min() < 0.0 or masses.sum() <= 0.0:
        raise ValueError("atom masses must be nonnegative with positive total")
    z, zp = _upper_z(z), _upper_z(zp)
    g, gp = (complex(np.sum(masses / (locs - w))) for w in (z, zp))
    lhs = abs(g - gp)
    rhs = float(np.sqrt(g.imag * gp.imag) * _ds(z, zp))
    return lhs, rhs
