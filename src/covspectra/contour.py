"""
Contour integration of deterministic-equivalent functionals.

Eigenvalue counts and eigenspace projections are recovered from the resolvent
equivalent by a Cauchy integral over a closed rectangle around the targeted
part of the spectrum.  Only the upper half of the rectangle is solved; the
lower half follows from conjugate symmetry of the resolvent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .equivalent import SupportEstimate, _write_csv, r_tilde
from .fixedpoint import FixedPointResult, SolverOptions, continuation_solve
from .model import EnsembleModel

__all__ = [
    "ContourSpec",
    "ProjectionResult",
    "contour_solves",
    "project_functionals",
    "project_functional",
    "eigenvalue_count",
]


@dataclass(frozen=True)
class ContourSpec:
    """Closed rectangle [a, b] x [-h, h], traversed counterclockwise."""

    a: float
    b: float
    h: float
    nodes_per_side: int = 64

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError("contour requires a < b")
        if not self.h > 0.0:
            raise ValueError("contour half-height must be positive")
        if self.nodes_per_side < 8:
            raise ValueError("nodes_per_side must be >= 8")

    def check_margin(self, support: SupportEstimate) -> None:
        """Each support interval must be fully enclosed or fully excluded,
        at horizontal distance >= h/2 from the vertical sides."""
        margin = self.h / 2.0
        for lo, hi in support.intervals:
            enclosed = self.a + margin <= lo and hi <= self.b - margin
            excluded = hi <= self.a - margin or lo >= self.b + margin
            if not (enclosed or excluded):
                raise ValueError(
                    f"contour [{self.a}, {self.b}] comes within {margin:.3g} of "
                    f"support interval [{lo:.4g}, {hi:.4g}]"
                )

    def upper_nodes(self) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
        """Upper-half nodes and their dz weights, ordered as a warm-start
        chain (up the right side, along the top, down the left side).

        Midpoint sampling per side keeps every node strictly off the real
        axis for any node count.
        """
        N = self.nodes_per_side
        half = max(N // 2, 4)
        ys = (np.arange(half) + 0.5) * (self.h / half)  # ascending, all > 0
        dy = 1j * (self.h / half)
        right = self.b + 1j * ys
        left = self.a + 1j * ys[::-1]
        xs = self.b - (np.arange(N) + 0.5) * ((self.b - self.a) / N)  # b -> a
        top = xs + 1j * self.h
        dx = -(self.b - self.a) / N
        nodes = np.concatenate([right, top, left])
        weights = np.concatenate(
            [np.full(half, dy), np.full(N, dx + 0j), np.full(half, -dy)]
        )
        return nodes, weights


@dataclass(frozen=True)
class ProjectionResult:
    value: float
    imag_residue: float
    nodes: int

    def __float__(self) -> float:
        return self.value


def contour_solves(
    model: EnsembleModel, contour: ContourSpec, opts: SolverOptions | None = None
) -> list[FixedPointResult]:
    """Fixed-point solves at every upper-half node, reusable across
    functionals evaluated on the same contour."""
    nodes, _ = contour.upper_nodes()
    return continuation_solve(model, nodes, opts)


def project_functionals(
    model: EnsembleModel,
    As: list[NDArray],
    contour: ContourSpec,
    opts: SolverOptions | None = None,
    support: SupportEstimate | None = None,
    solves: list[FixedPointResult] | None = None,
) -> list[ProjectionResult]:
    """Cauchy-integral projections tr(Pi A) for several real matrices A
    sharing one contour (one resolvent factorization per node).

    Each node's mirror at conj(z) contributes the conjugate of its term, since
    tr(A conj(R)) = conj(tr(A R)) for real A, so ``imag_residue`` is zero by
    construction; complex A is rejected."""
    if support is not None:
        contour.check_margin(support)
    for A in As:
        if np.shape(A) != (model.p, model.p):
            raise ValueError("functional matrix dimension mismatch")
        if np.iscomplexobj(A):
            raise ValueError("functional matrix must be real")
    nodes, weights = contour.upper_nodes()
    if solves is None:
        solves = continuation_solve(model, nodes, opts)

    totals = np.zeros(len(As), dtype=np.complex128)
    for z, w, res in zip(nodes, weights, solves):
        R = r_tilde(model, z, res.lam)
        for k, A in enumerate(As):
            up = np.einsum("ij,ji->", A, R) * w
            # mirror node at conj(z) carries weight -conj(w)
            totals[k] += up - np.conj(up)

    return [
        ProjectionResult(float(v.real), float(v.imag), contour.nodes_per_side)
        for v in -totals / (2j * np.pi)
    ]


def project_functional(
    model: EnsembleModel,
    A: NDArray,
    contour: ContourSpec,
    opts: SolverOptions | None = None,
    support: SupportEstimate | None = None,
    solves: list[FixedPointResult] | None = None,
) -> ProjectionResult:
    """tr(Pi A) for the eigenvalues enclosed by the contour."""
    return project_functionals(model, [A], contour, opts, support, solves)[0]


def eigenvalue_count(
    model: EnsembleModel,
    contour: ContourSpec,
    opts: SolverOptions | None = None,
    support: SupportEstimate | None = None,
    solves: list[FixedPointResult] | None = None,
) -> float:
    """Predicted number of eigenvalues of (1/n) X X^T inside the contour."""
    return project_functional(
        model, np.eye(model.p), contour, opts, support, solves
    ).value


def write_projection_csv(
    path: str, rows: list[tuple[str, ContourSpec, ProjectionResult]]
) -> None:
    """Projection report: functional,contour_a,contour_b,contour_h,nodes,value,imag_residue."""
    _write_csv(
        path,
        ("functional", "contour_a", "contour_b", "contour_h", "nodes", "value",
         "imag_residue"),
        ((name, spec.a, spec.b, spec.h, res.nodes, res.value, res.imag_residue)
         for name, spec, res in rows),
    )
