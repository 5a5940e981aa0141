import numpy as np
import pytest

from covspectra import (
    Column,
    Dense,
    Diagonal,
    EnsembleModel,
    LowRankPlusIdentity,
    RotatedFamily,
    ScaledIdentity,
    random_orthogonal,
)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=20240817))


def mp_model(p: int, n: int, sigma2: float = 1.0) -> EnsembleModel:
    """All columns share sigma2 * I: the Marchenko-Pastur setting."""
    return EnsembleModel(p, n, [Column(ScaledIdentity(sigma2))] * n)


def random_model(p: int, n: int, rng: np.random.Generator) -> EnsembleModel:
    """Small random model mixing covariance kinds."""
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
    return EnsembleModel(p, n, cols)


def structured_model(p: int, n: int, rng: np.random.Generator) -> EnsembleModel:
    """Random model taking every path of the model's kernels: each covariance
    kind, rotated families with and without rotations, low-rank signals, and
    columns with a nonzero mean, a zero mean and no mean.  Low-rank columns
    get no nonzero mean, which the model rejects."""
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
            cov = LowRankPlusIdentity(rng.standard_normal(p) / np.sqrt(p), 0.5)
        mean = None
        if i % 4 == 1 and kind != 5:
            mean = rng.standard_normal(p) / np.sqrt(p)
        elif i % 4 == 2:
            mean = np.zeros(p)
        cols.append(Column(cov, mean=mean))
    return EnsembleModel(p, n, cols)


def mixture_model(p: int, n: int, k: int, seed: int = 7) -> EnsembleModel:
    """Figure-2 shape: column i is N(u_{i mod k}, I) for k seeded Gaussian
    vectors, each column getting its own view U[:, j] as its mean."""
    U = np.random.Generator(np.random.Philox(key=[seed, 0])).standard_normal((p, k))
    cols = [Column(ScaledIdentity(1.0), mean=U[:, i % k]) for i in range(n)]
    return EnsembleModel(p, n, cols, mean_norm_bound=1e9)


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
