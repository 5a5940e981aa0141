"""
Quadratic vector equation solver: -1/m = z*ones + a + S m on the upper
half-plane, for real a and entrywise-nonnegative S.

Solved through the auxiliary iteration x <- z*ones + a - S (1/x), which is a
d_s contraction with factor at most 1 - Im(z)/kappa where
kappa = max((Im(z) I + S/Im(z)) ones); the solution is m = -1/x.  The
iteration runs in the loop that also solves the deterministic-equivalent
fixed point (``fixedpoint._contract``), Anderson acceleration included; its
domain guard keeps Im x > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .fixedpoint import SolverOptions, _contract
from .semimetric import _in_upper

__all__ = ["QveProblem", "solve_qve", "qve_residual"]


@dataclass(frozen=True)
class QveProblem:
    z: complex
    a: NDArray[np.float64]
    S: NDArray[np.float64]

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.float64).ravel()
        S = np.asarray(self.S, dtype=np.float64)
        if S.shape != (a.size, a.size):
            raise ValueError("S must be square with side len(a)")
        if not S.min() >= 0.0:
            raise ValueError("S entries must be nonnegative numbers")
        if not np.isfinite(a).all():
            raise ValueError("a entries must be finite")
        if not complex(self.z).imag > 0.0:
            raise ValueError("z must lie in the upper half-plane")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "z", complex(self.z))


def qve_residual(prob: QveProblem, m: NDArray[np.complex128]) -> float:
    """Infinity norm of -1/m - (z*ones + a + S m)."""
    return float(np.max(np.abs(-1.0 / m - (prob.z + prob.a + prob.S @ m))))


def solve_qve(prob: QveProblem, opts: SolverOptions | None = None) -> NDArray[np.complex128]:
    """Unique solution m with Im(m_i) > 0 for all i."""
    z, a, S = prob.z, prob.a, prob.S
    # +inf is caught here, where a pass over S is cheap against the solve
    if not S.max() < np.inf:
        raise ValueError("S entries must be finite")
    # z + a is in the upper half-plane since a is real
    x, *_ = _contract(
        lambda x: z + a - S @ (1.0 / x), z + a + 0j, opts or SolverOptions(), _in_upper
    )
    return -1.0 / x
