import numpy as np
import pytest

from covspectra import (
    Column,
    Dense,
    Diagonal,
    EnsembleModel,
    RotatedFamily,
    ScaledIdentity,
    density_grid,
    random_orthogonal,
)
from covspectra.equivalent import _path_g


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=20240817))


def covariance_oracle(spec, p: int) -> np.ndarray:
    """The p x p covariance of one spec, built from its fields alone:
    diag(entries), sigma2 I, (P^k)^T diag(d) P^k with P^k from
    np.linalg.matrix_power, or the matrix.  It reads neither the model's
    packed stack nor its stepped rotations, so it stays independent of the
    code it checks."""
    if isinstance(spec, Diagonal):
        return np.diag(spec.entries)
    if isinstance(spec, ScaledIdentity):
        return spec.sigma2 * np.eye(p)
    if isinstance(spec, RotatedFamily):
        R = np.linalg.matrix_power(spec.orthogonal, spec.rotations)
        return R.T @ (spec.base[:, None] * R)
    return spec.matrix.copy()


def sigma_oracle(cols, p: int) -> list[np.ndarray]:
    """Sigma_i = C_i + mu_i mu_i^T for every column, from covariance_oracle."""
    return [covariance_oracle(c.cov, p) + (0.0 if c.mean is None else np.outer(c.mean, c.mean))
            for c in cols]


def mp_model(p: int, n: int, sigma2: float = 1.0) -> EnsembleModel:
    """All columns share sigma2 * I: the Marchenko-Pastur setting."""
    return EnsembleModel(p, n, [Column(ScaledIdentity(sigma2))] * n)


def random_model(p: int, n: int, rng: np.random.Generator) -> EnsembleModel:
    """Small random model mixing covariance kinds."""
    return EnsembleModel(p, n, random_columns(p, n, rng))


def random_columns(p: int, n: int, rng: np.random.Generator) -> list[Column]:
    """random_model's columns."""
    cols = []
    for i in range(n):
        kind = rng.integers(3)
        if kind == 0:
            cols.append(Column(Diagonal(rng.uniform(0.2, 3.0, p))))
        elif kind == 1:
            cols.append(Column(ScaledIdentity(float(rng.uniform(0.5, 2.0)))))
        else:
            B = rng.standard_normal((p, p))
            cols.append(Column(Dense(B @ B.T / p + 0.1 * np.eye(p))))
    return cols


def structured_model(p: int, n: int, rng: np.random.Generator) -> EnsembleModel:
    """Random model taking every path of the model's kernels: each covariance
    kind, rotated families with and without rotations, signal-plus-noise
    columns (sigma^2 I with a mean), and columns with a nonzero mean, a zero
    mean and no mean."""
    return EnsembleModel(p, n, structured_columns(p, n, rng))


def structured_columns(p: int, n: int, rng: np.random.Generator) -> list[Column]:
    """structured_model's columns."""
    P = random_orthogonal(p, seed=int(rng.integers(1 << 31)))
    cols = []
    for i in range(n):
        kind = i % 6
        if kind == 0:
            cov = Diagonal(rng.uniform(0.2, 3.0, p))
        elif kind == 1:
            cov = ScaledIdentity(float(rng.uniform(0.5, 2.0)))
        elif kind == 2:
            B = rng.standard_normal((p, p))
            cov = Dense(B @ B.T / p + 0.1 * np.eye(p))
        elif kind == 3:
            cov = RotatedFamily(rng.uniform(0.2, 3.0, p), P, int(rng.integers(1, 4)))
        elif kind == 4:
            cov = RotatedFamily(rng.uniform(0.2, 3.0, p), P, 0)
        else:
            cov = ScaledIdentity(0.5)  # signal plus noise: always a mean
        mean = None
        if i % 4 == 1 or kind == 5:
            mean = rng.standard_normal(p) / np.sqrt(p)
        elif i % 4 == 2:
            mean = np.zeros(p)
        cols.append(Column(cov, mean=mean))
    return cols


def mixture_model(p: int, n: int, k: int, seed: int = 7) -> EnsembleModel:
    """Figure-2 shape: column i is N(u_{i mod k}, I) for k seeded Gaussian
    vectors, each column getting its own view U[:, j] as its mean."""
    return EnsembleModel(p, n, mixture_columns(p, n, k, seed), mean_norm_bound=1e9)


def mixture_columns(p: int, n: int, k: int, seed: int = 7) -> list[Column]:
    """mixture_model's columns."""
    U = np.random.Generator(np.random.Philox(key=[seed, 0])).standard_normal((p, k))
    return [Column(ScaledIdentity(1.0), mean=U[:, i % k]) for i in range(n)]


def full_grid_support(model: EnsembleModel, y: float = 1e-3, threshold: float = 1e-3,
                      opts=None):
    """support_scan's grid, x0 and crossing rule with no node skipped: every
    one of the 201 points solved by density_grid.  The grid and the
    intervals."""
    x0 = 1.5 * max(8.0 / model.n * model.max_trace(), 4.0 * model.nu_hat())
    grid = density_grid(model, 1e-12, x0, 201, y, opts)
    xs, above = grid.xs, grid.density > threshold
    c = np.flatnonzero(above[1:] != above[:-1])
    mid = 0.5 * (xs[c] + xs[c + 1])
    if c.size:
        passes = _path_g(model, mid + 1j * y, opts).imag / np.pi > threshold
        mid = np.where(passes, mid, 0.5 * (mid + np.where(above[c], xs[c], xs[c + 1])))
    pts = np.r_[xs[:1][above[:1]], mid, xs[-1:][above[-1:]]]
    return grid, [(float(lo), float(hi)) for lo, hi in zip(pts[::2], pts[1::2])]


def mp_stieltjes(z: complex, c: float) -> complex:
    """Closed-form Marchenko-Pastur Stieltjes transform, branch with Im > 0."""
    s = np.sqrt(complex((1 - c - z) ** 2 - 4 * c * z))
    for sign in (1.0, -1.0):
        m = (1 - c - z + sign * s) / (2 * c * z)
        if m.imag > 0:
            return m
    raise AssertionError("no upper-half-plane branch")


@pytest.fixture
def report_line(pytestconfig):
    """Emit a line on the real terminal, bypassing pytest's fd-level capture."""
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    def emit(line: str) -> None:
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)

    return emit
