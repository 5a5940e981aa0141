"""
Monte Carlo ground truth for the deterministic predictions.

Samples Gaussian-column random matrices matching a model, computes empirical
spectra, Stieltjes transforms and eigenspace projections, and aggregates them
into comparison reports against the solver's predictions.

RNG contract: Philox (counter-based).  Column i of trial t is drawn from the
generator keyed by the integers (seed, t * 2^32 + i), Gaussians via numpy's
ziggurat.  Identical seed and config give bit-identical draws.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np
from numpy.typing import NDArray

from .contour import ContourSpec, project_functionals
from .equivalent import DensityGrid, _path_g, _write_csv, density_grid
from .fixedpoint import SolverOptions
from .model import EnsembleModel

__all__ = [
    "RNG_NAME",
    "SampleBatch",
    "FunctionalSpec",
    "FunctionalRow",
    "ComparisonReport",
    "sample_matrix",
    "spectrum",
    "empirical_stieltjes",
    "empirical_projection",
    "resolvent_identity_check",
    "compare",
]

RNG_NAME = "philox4x64+numpy-ziggurat"
_GRID_POINTS_PER_BIN = 8  # of the density grid compare integrates per bin

_T = TypeVar("_T")


def _column_rng(seed: int, trial: int, i: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64((trial << 32) + i)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_matrix(model: EnsembleModel, seed: int, trial: int = 0) -> NDArray[np.float64]:
    """One p x n draw: column i is mu_i + C_i^{1/2} g, g standard normal from
    column i's own generator, the roots applied class by class
    (``EnsembleModel.columns_from_normals``).  A seed or trial that is not
    an integer (int or numpy integer) is a TypeError; a seed outside
    [0, 2^64) or a trial outside [0, 2^32) is a ValueError.

    One generator serves the call: before each column its state is reset to
    the fresh state of column i's generator (key (seed, trial * 2^32 + i),
    counter 0, empty buffer), which draws what _column_rng(seed, trial, i)
    draws without building a generator per column.  It stays local, so
    threads drawing trials at once share nothing."""
    if not (isinstance(seed, (int, np.integer)) and isinstance(trial, (int, np.integer))):
        raise TypeError(f"seed {seed!r} and trial {trial!r} must be integers")
    seed, trial = int(seed), int(trial)
    if not (0 <= seed < 1 << 64 and 0 <= trial < 1 << 32):
        raise ValueError(f"seed {seed} or trial {trial} outside [0, 2^64) x [0, 2^32)")
    rng = _column_rng(seed, trial, 0)
    fresh = rng.bit_generator.state
    G = np.empty((model.p, model.n))
    for i in range(model.n):
        fresh["state"]["key"][1] = (trial << 32) + i
        rng.bit_generator.state = fresh
        G[:, i] = rng.standard_normal(model.p)
    return model.columns_from_normals(G)


def _gram_eigh(X: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Eigenvalues (ascending) and eigenvectors of (1/n) X X^T: the one
    eigendecomposition behind spectrum, empirical_projection and compare."""
    return np.linalg.eigh(X @ X.T / X.shape[1])


def _projection(w: NDArray, v: NDArray, A: NDArray, interval: tuple[float, float]) -> float:
    """tr(Pi A), Pi projecting on the eigenvectors v whose eigenvalue w lies
    in the interval (zero when none does)."""
    V = v[:, (w >= interval[0]) & (w <= interval[1])]
    return float(np.sum(V * (np.asarray(A) @ V)).real)


def spectrum(X: NDArray[np.float64]) -> NDArray[np.float64]:
    """Eigenvalues of (1/n) X X^T, nonincreasing, clamped at zero."""
    return np.clip(_gram_eigh(X)[0][::-1], 0.0, None)


@dataclass(frozen=True)
class SampleBatch:
    seed: int
    trials: int
    eigenvalue_sets: NDArray[np.float64]  # (trials, p), rows nonincreasing


def _map_trials(one: Callable[[int], _T], trials: int, jobs: int) -> list[_T]:
    """one(t) for every trial t, in trial order, so that parallelism cannot
    change results; at most min(jobs, trials, cpu count) threads."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=min(jobs, trials, os.cpu_count() or 1)) as pool:
            return list(pool.map(one, range(trials)))
    return [one(t) for t in range(trials)]


def sample_batch(model: EnsembleModel, trials: int, seed: int, jobs: int = 1) -> SampleBatch:
    """Independent trials; aggregation ordered by trial index so parallelism
    cannot change results."""
    sets = _map_trials(lambda t: spectrum(sample_matrix(model, seed, trial=t)), trials, jobs)
    return SampleBatch(seed=seed, trials=trials, eigenvalue_sets=np.stack(sets))


def empirical_stieltjes(eigs: NDArray[np.float64], z: complex) -> complex:
    """(1/p) sum_k 1/(lambda_k - z); a ValueError for a non-finite z or no eigs."""
    if not np.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    eigs = np.asarray(eigs, dtype=np.float64)
    if not eigs.size:
        raise ValueError("empirical_stieltjes needs at least one eigenvalue")
    if np.min(np.abs(eigs - z)) < 1e-12:
        raise ValueError("z is too close to an eigenvalue")
    return complex(np.mean(1.0 / (eigs - z)))


def empirical_projection(
    X: NDArray[np.float64], A: NDArray, interval: tuple[float, float]
) -> float:
    """tr(Pi A) with Pi the projector on eigenvectors of (1/n) X X^T whose
    eigenvalue lies in the interval."""
    return _projection(*_gram_eigh(X), A, interval)


def resolvent_identity_check(X: NDArray[np.float64], z: complex) -> float:
    """max_i |z / Lambda_i - (Qcheck)_{ii}| for the leave-one-out diagonal
    Lambda_i = z - (1/n) x_i^T Q_{-i} x_i and Qcheck = (I_n - X^T X/(zn))^{-1}.

    An exact algebraic identity: expected below 1e-8 up to roundoff.
    Leave-one-out resolvents are computed naively; this is a correctness
    oracle, not a performance path.
    """
    p, n = X.shape
    z = complex(z)
    Qcheck = np.linalg.inv(np.eye(n) - X.T @ X / (z * n))
    worst = 0.0
    for i in range(n):
        Xi = X.copy()
        Xi[:, i] = 0.0
        Qmi = np.linalg.inv(np.eye(p) - Xi @ Xi.T / (z * n))
        lam_i = z - X[:, i] @ Qmi @ X[:, i] / n
        worst = max(worst, abs(z / lam_i - Qcheck[i, i]))
    return worst


@dataclass(frozen=True)
class FunctionalSpec:
    """A functional to compare: predicted by contour integration, measured by
    empirical eigenprojection over a real interval."""

    name: str
    matrix: NDArray
    contour: ContourSpec
    interval: tuple[float, float]


@dataclass(frozen=True)
class FunctionalRow:
    name: str
    predicted: float
    empirical_mean: float
    empirical_std: float | None
    contour: ContourSpec


@dataclass(frozen=True)
class ComparisonReport:
    grid: DensityGrid
    bin_edges: NDArray[np.float64]
    frequencies: NDArray[np.float64]  # empirical probability mass per bin
    predicted_mass: NDArray[np.float64]
    sup_g_error: float
    l1_density_error: float
    functionals: list[FunctionalRow]
    seed: int
    trials: int
    rng_name: str = RNG_NAME

    def write(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(
            os.path.join(out_dir, "histogram.csv"),
            ("bin_lo", "bin_hi", "frequency"),
            zip(self.bin_edges[:-1], self.bin_edges[1:], self.frequencies),
        )
        _write_csv(
            os.path.join(out_dir, "functionals.csv"),
            ("functional", "contour_a", "contour_b", "contour_h", "nodes", "value",
             "empirical_mean", "empirical_std", "trials"),
            (
                (row.name,
                 row.contour.a, row.contour.b, row.contour.h, row.contour.nodes_per_side,
                 row.predicted, row.empirical_mean, row.empirical_std, self.trials)
                for row in self.functionals
            ),
        )
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(
                {
                    "sup_g_error": self.sup_g_error,
                    "l1_density_error": self.l1_density_error,
                    "seed": self.seed,
                    "rng_name": self.rng_name,
                    "trials": self.trials,
                },
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")


def _bin_masses(grid: DensityGrid, edges: NDArray[np.float64]) -> NDArray[np.float64]:
    """Predicted probability mass per bin: differences of the grid's
    cumulative trapezoid integral, interpolated at the bin edges, so the
    masses add up to the grid's integral; the explicit Dirac mass at zero goes
    to the bin that holds 0."""
    steps = np.diff(grid.xs) * (grid.density[1:] + grid.density[:-1]) / 2.0
    masses = np.diff(np.interp(edges, grid.xs, np.r_[0.0, np.cumsum(steps)]))
    masses[(edges[:-1] <= 0.0) & (0.0 < edges[1:])] += grid.dirac_at_zero
    return masses


def compare(
    model: EnsembleModel,
    trials: int,
    seed: int,
    bin_width: float = 0.5,
    functionals: list[FunctionalSpec] | None = None,
    y: float = 1e-3,
    opts: SolverOptions | None = None,
    jobs: int = 1,
) -> ComparisonReport:
    """Monte Carlo draws pooled into a histogram, compared bin-by-bin with the
    predicted density, plus Stieltjes sup-error and functional rows."""
    if not 0.0 < bin_width < np.inf:
        raise ValueError("bin_width must be positive and finite")
    specs = functionals or []

    def one(t: int) -> tuple[NDArray[np.float64], list[float]]:
        # each trial is drawn and decomposed once, for its spectrum and for
        # every functional
        w, v = _gram_eigh(sample_matrix(model, seed, trial=t))
        values = [_projection(w, v, s.matrix, s.interval) for s in specs]
        return np.clip(w[::-1], 0.0, None), values

    draws = _map_trials(one, trials, jobs)
    eigenvalue_sets = np.stack([eigs for eigs, _ in draws])
    pooled = eigenvalue_sets.ravel()
    x_max = float(pooled.max()) + bin_width
    edges = np.arange(0.0, x_max + bin_width, bin_width)
    counts, _ = np.histogram(pooled, bins=edges)
    freq = counts / pooled.size

    count = _GRID_POINTS_PER_BIN * (len(edges) - 1)
    grid = density_grid(model, 1e-12, float(edges[-1]), count, y, opts)
    predicted = _bin_masses(grid, edges)
    l1 = float(np.abs(freq - predicted).sum())

    # seven Stieltjes probes at Im z = 0.5 across and beyond the histogram
    probes = np.linspace(0.2 * edges[-1], 1.2 * edges[-1], 7) + 0.5j
    empirical = [np.mean([empirical_stieltjes(ev, z) for ev in eigenvalue_sets])
                 for z in probes]
    sup_err = np.abs(np.array(empirical) - _path_g(model, probes, opts)).max()

    # one projection per contour, its solves and traces shared by the specs on it
    on_contour: dict[ContourSpec, list[int]] = {}
    for k, spec in enumerate(specs):
        on_contour.setdefault(spec.contour, []).append(k)
    predicted_values = np.empty(len(specs))
    for c, ks in on_contour.items():
        results = project_functionals(model, [specs[k].matrix for k in ks], c, opts)
        predicted_values[ks] = [r.value for r in results]
    rows: list[FunctionalRow] = []
    for k, spec in enumerate(specs):
        vals = [values[k] for _, values in draws]
        rows.append(
            FunctionalRow(
                name=spec.name,
                predicted=float(predicted_values[k]),
                empirical_mean=float(np.mean(vals)),
                empirical_std=float(np.std(vals, ddof=1)) if trials > 1 else None,
                contour=spec.contour,
            )
        )

    return ComparisonReport(
        grid=grid,
        bin_edges=edges,
        frequencies=freq,
        predicted_mass=predicted,
        sup_g_error=float(sup_err),
        l1_density_error=l1,
        functionals=rows,
        seed=seed,
        trials=trials,
    )
