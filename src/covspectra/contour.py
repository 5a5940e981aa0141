"""
Contour integration of deterministic-equivalent functionals.

Eigenvalue counts and eigenspace projections are recovered from the resolvent
equivalent by a Cauchy integral over a closed rectangle around the targeted
part of the spectrum.  Only the upper half of the rectangle is solved; the
lower half follows from conjugate symmetry of the resolvent.  All nodes'
functionals come from one call of the model's ``functional_traces``, which
batches the nodes within the model's memory budget; the count reads g alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .equivalent import SupportEstimate, _path_g, _write_csv
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
        if not np.isfinite([self.a, self.b, self.h]).all():
            raise ValueError("contour a, b and h must be finite")
        if not self.a < self.b:
            raise ValueError("contour requires a < b")
        if not self.h > 0.0:
            raise ValueError("contour half-height must be positive")
        if not isinstance(self.nodes_per_side, (int, np.integer)):
            raise ValueError("nodes_per_side must be an integer")
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
        """Upper-half nodes and their dz weights, ordered as one continuation
        path (up the right side, along the top, down the left side).

        Midpoint sampling per side keeps every node strictly off the real
        axis for any node count.
        """
        N = self.nodes_per_side
        half = N // 2
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
    solves: list[FixedPointResult] | None = None,
) -> list[ProjectionResult]:
    """Cauchy-integral projections tr(Pi A) for several real matrices A
    sharing one contour.  With tr(A R(z)) = -tr(A Q)/z, every functional at
    every node comes from one call of the model's ``functional_traces`` on
    the nodes' class sums n_c / Lambda_c, which batches the nodes itself:
    with no dense class from r x r blocks, never forming a p x p resolvent.
    ``solves``, one result of this model per upper node (``contour_solves``),
    shares the nodes' solves between calls.

    Each node's mirror at conj(z) contributes the conjugate of its term, since
    tr(A conj(R)) = conj(tr(A R)) for real A, so the integral is real and
    the value is Im(sum_z (w/z) tr(A Q(z)))/pi over the upper nodes, w the
    nodes' dz weights; complex A is rejected."""
    for A in As:
        if np.shape(A) != (model.p, model.p):
            raise ValueError("functional matrix dimension mismatch")
        if np.iscomplexobj(A):
            raise ValueError("functional matrix must be real")
    nodes, weights = contour.upper_nodes()
    if solves is None:
        solves = continuation_solve(model, nodes, opts)
    elif len(solves) != nodes.size or any(r.column_class is not model.column_class
                                           for r in solves):
        raise ValueError(f"solves must be {nodes.size} results of this model, "
                         "one per upper contour node")

    As = np.asarray(As, dtype=np.float64).reshape(len(As), model.p, model.p)
    Wc = model._class_size / np.array([res.class_values for res in solves])
    traces = model.functional_traces(Wc, As)
    return [ProjectionResult(float(v)) for v in ((weights / nodes) @ traces).imag / np.pi]


def project_functional(
    model: EnsembleModel, A: NDArray, contour: ContourSpec, opts: SolverOptions | None = None
) -> ProjectionResult:
    """tr(Pi A) for the eigenvalues enclosed by the contour."""
    return project_functionals(model, [A], contour, opts)[0]


def eigenvalue_count(
    model: EnsembleModel, contour: ContourSpec, opts: SolverOptions | None = None
) -> float:
    """Predicted number of eigenvalues of (1/n) X X^T inside the contour, tr(Pi I_p):
    by tr R(z) = p g(z), -p Im(sum_z w g(z))/pi over the upper nodes."""
    nodes, weights = contour.upper_nodes()
    return float(-model.p * (weights @ _path_g(model, nodes, opts)).imag / np.pi)


def write_projection_csv(
    path: str, rows: list[tuple[str, ContourSpec, ProjectionResult]]
) -> None:
    """Projection report: functional,contour_a,contour_b,contour_h,nodes,value."""
    _write_csv(
        path,
        ("functional", "contour_a", "contour_b", "contour_h", "nodes", "value"),
        ((name, spec.a, spec.b, spec.h, spec.nodes_per_side, res.value)
         for name, spec, res in rows),
    )
