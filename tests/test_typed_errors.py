"""Input checks that raise a typed error before any work is done: each call
below is malformed, and each must fail with its own exception and message."""

import numpy as np
import pytest

from covspectra import (
    Column,
    ContourSpec,
    Dense,
    Diagonal,
    EnsembleModel,
    QveProblem,
    RotatedFamily,
    ScaledIdentity,
    SolverOptions,
    UpperDiagonal,
    continuation_solve,
    density_grid,
    random_orthogonal,
    support_scan,
)
from covspectra.empirical import empirical_stieltjes, sample_batch, sample_matrix
from covspectra.equivalent import DensityGrid
from covspectra.model import ModelError, model_from_config
from covspectra.semimetric import d_s


def small_model() -> EnsembleModel:
    return EnsembleModel(3, 4, [Column(ScaledIdentity(1.0))] * 4)


def config(entry: dict, n: int = 2) -> dict:
    return {"p": 2, "n": n, "columns": [entry]}


def rotated(**fields) -> dict:
    """A config entry of n = 3 columns from a rotated family on p = 2."""
    cov = {"kind": "rotated_family", "base": [2.0, 1.0], "orthogonal": {"seed": 1}}
    return {"cov": {**cov, **fields}, "repeat": 3}


def figure1_rotation(k: int) -> EnsembleModel:
    """One column of the Figure-1 rotated family (p = 80, tr Sigma = 220)
    rotated k times."""
    base = np.r_[[8.0] * 20, [1.0] * 60]
    return EnsembleModel(80, 1, [Column(RotatedFamily(base, random_orthogonal(80, 314), k))])


IDENTITY = {"cov": {"kind": "scaled_identity", "sigma2": 1.0}, "repeat": 2}
INTEGER = "cannot be interpreted as an integer"


CASES = {
    "tol_ds zero": (ValueError, "tol_ds", lambda: SolverOptions(tol_ds=0)),
    "max_iter zero": (ValueError, "max_iter", lambda: SolverOptions(max_iter=0)),
    "unknown acceleration": (ValueError, "acceleration",
                             lambda: SolverOptions(acceleration="newton")),
    "empty path": (ValueError, "empty z path", lambda: continuation_solve(small_model(), [])),
    "d_s lengths": (ValueError, "length mismatch",
                    lambda: d_s(UpperDiagonal(np.full(2, 1j)), UpperDiagonal(np.full(3, 1j)))),
    "2-d diagonal": (ValueError, "1-d", lambda: UpperDiagonal(np.full((2, 2), 1j))),
    "empty diagonal": (ValueError, "nonempty", lambda: UpperDiagonal(np.array([], complex))),
    "threshold zero": (ValueError, "threshold", lambda: support_scan(small_model(), threshold=0)),
    "scan y zero": (ValueError, "y must be positive", lambda: support_scan(small_model(), y=0)),
    # density_grid's "x_lo must be < x_hi" when the scan called it
    "scan of zero covariances": (
        ValueError, "scan range",
        lambda: support_scan(EnsembleModel(3, 4, [Column(Diagonal(np.zeros(3)))] * 4))),
    "grid lengths": (ValueError, "equal length",
                     lambda: DensityGrid(np.arange(3.0), 1e-3, np.zeros(2))),
    "trace shape": (ModelError, "dimension mismatch",
                    lambda: small_model().class_traces_of(np.zeros((1, 2, 2), complex))),
    "weight count": (ModelError, "weight vector has length 3",
                     lambda: small_model().mixture_matrix(np.ones(3, complex))),
    "p zero": (ModelError, "positive", lambda: EnsembleModel(0, 1, [Column(ScaledIdentity(1.0))])),
    "too few columns": (ModelError, "expected 4 columns",
                        lambda: EnsembleModel(3, 4, [Column(ScaledIdentity(1.0))] * 3)),
    "covariance dimension": (ModelError, "dimension 2 != p=3",
                             lambda: EnsembleModel(3, 1, [Column(Diagonal(np.ones(2)))])),
    "mean length": (ModelError, "mean has wrong length",
                    lambda: EnsembleModel(3, 1, [Column(ScaledIdentity(1.0), mean=np.ones(2))])),
    "dense not square": (ModelError, "square", lambda: Dense(np.ones((2, 3)))),
    "dense not symmetric": (ModelError, "symmetric", lambda: Dense(np.array([[1.0, 0.5], [0.0, 1.0]]))),
    "diagonal empty": (ModelError, "at least one entry", lambda: Diagonal(np.array([]))),
    "rotated negative base": (ModelError, "nonnegative",
                              lambda: RotatedFamily(np.array([1.0, -1.0]), np.eye(2))),
    "rotated P shape": (ModelError, "wrong shape", lambda: RotatedFamily(np.ones(2), np.eye(3))),
    "unknown kind": (ModelError, "unknown covariance kind",
                     lambda: model_from_config(config({"cov": {"kind": "banded"}}))),
    "repeat zero": (ModelError, "repeat must be >= 1",
                    lambda: model_from_config(config({"cov": {"kind": "scaled_identity",
                                                              "sigma2": 1.0}, "repeat": 0}))),
    "no trials": (ValueError, "trials must be >= 1", lambda: sample_batch(small_model(), 0, 1)),
    "config without p": (ModelError, "invalid model config: 'p'",
                         lambda: model_from_config({"n": 2, "columns": []})),
    # drew exactly what seed 1 draws
    "float seed": (TypeError, "must be integers", lambda: sample_matrix(small_model(), 1.5)),
    # constructed, then upper_nodes failed in numpy on a half count of 4.0
    "float node count": (ValueError, "nodes_per_side must be an integer",
                         lambda: ContourSpec(0, 1, 0.5, 8.5)),
    # every row stopped after one map application and reported convergence
    "tol_ds inf": (ValueError, "tol_ds", lambda: SolverOptions(tol_ds=float("inf"))),
    # constructed, then the solve failed inside range()
    "float max_iter": (ValueError, "max_iter", lambda: SolverOptions(max_iter=2.5)),
    # the config loader truncated each of these to an integer
    "float p": (ModelError, INTEGER, lambda: model_from_config({**config(IDENTITY), "p": 2.5})),
    "string p": (ModelError, INTEGER, lambda: model_from_config({**config(IDENTITY), "p": "3"})),
    "float repeat": (ModelError, INTEGER,
                     lambda: model_from_config(config({**IDENTITY, "repeat": 2.7}))),
    "float rotation_step": (ModelError, INTEGER,
                            lambda: model_from_config(config(rotated(rotation_step=0.5), n=3))),
    # a MemoryError from expanding the entry into 10^12 columns
    "repeat past n": (
        ModelError, "column entry 0: repeat 1000000000000 exceeds the 2 columns left",
        lambda: model_from_config(config({**IDENTITY, "repeat": 10 ** 12}))),
    # a bare MemoryError from CPython's list-size check, which allocates nothing
    "n past memory": (
        ModelError, f"column entry 0: n = {2 ** 62} columns do not fit in memory",
        lambda: model_from_config(config({**IDENTITY, "repeat": 2 ** 62}, n=2 ** 62))),
    # built two million rotated families for 25 s, then "expands to 2000000 columns"
    "rotated repeat past n": (
        ModelError, "column entry 0: repeat 2000000 exceeds the 2 columns left",
        lambda: model_from_config(config({**rotated(rotation_step=1), "repeat": 2 * 10 ** 6}))),
    # accepted: a NaN entry passed the d.min() < 0 test, and an inf base
    # reached the model's packed product, which warned twice before the
    # model refused it
    "diagonal nan": (ModelError, "finite", lambda: Diagonal(np.array([1.0, np.nan]))),
    "diagonal inf": (ModelError, "finite", lambda: Diagonal(np.array([np.inf, 1.0]))),
    "rotated nan base": (ModelError, "finite",
                         lambda: RotatedFamily(np.array([np.nan, 1.0]), np.eye(2))),
    "rotated inf base": (ModelError, "finite",
                         lambda: RotatedFamily(np.array([1.0, np.inf]), np.eye(2))),
    # reported as "not orthogonal"
    "rotated nan P": (ModelError, "finite",
                      lambda: RotatedFamily(np.ones(2), np.array([[1.0, np.nan], [0.0, 1.0]]))),
    "float orthogonal seed": (
        ModelError, INTEGER,
        lambda: model_from_config(config(rotated(orthogonal={"seed": 1.9}), n=3))),
    # each stored its real part, with only numpy's ComplexWarning
    "complex diagonal": (ModelError, "diagonal covariance entries must be real",
                         lambda: Diagonal(np.array([1 + 1j, 2]))),
    "complex dense": (ModelError, "dense covariance must be real",
                      lambda: Dense(np.eye(2) * (1 + 1e-3j))),
    "complex rotated base": (ModelError, "rotated family base must be real",
                             lambda: RotatedFamily(np.array([1.0, 2j]), np.eye(2))),
    "complex rotated P": (ModelError, "rotated family orthogonal matrix must be real",
                          lambda: RotatedFamily(np.ones(2), np.eye(2) * (1 + 1j))),
    "complex mean": (ModelError, "column 0: mean must be real",
                     lambda: EnsembleModel(2, 1, [Column(ScaledIdentity(1.0),
                                                         mean=np.array([1.0, 1j]))])),
    "complex QVE a": (ValueError, "a must be real",
                      lambda: QveProblem(1j, np.array([0.0, 1e-9j]), np.eye(2))),
    # solved S = I
    "complex QVE S": (ValueError, "S must be real",
                      lambda: QveProblem(1j, np.zeros(2), np.eye(2) * (1 + 1j))),
    # numpy's "zero-size array to reduction operation minimum"
    "empty QVE": (ValueError, "at least one entry",
                  lambda: QveProblem(1j, np.zeros(0), np.zeros((0, 0)))),
    # failed inside numpy: "'float' object cannot be interpreted as an integer"
    "float model p": (ModelError, "p must be an integer",
                      lambda: EnsembleModel(2.5, 1, [Column(ScaledIdentity(1.0))])),
    # failed inside numpy: "expected a sequence of integers"
    "float model n": (ModelError, "n must be an integer",
                      lambda: EnsembleModel(2, 1.0, [Column(ScaledIdentity(1.0))])),
    # constructed, then the model build failed in matrix_power
    "float rotations": (ModelError, "rotation count must be an integer",
                        lambda: RotatedFamily(np.ones(2), np.eye(2), 1.5)),
    # built a model whose max_trace() read 223.93, with no warning
    "rotation count drift": (ModelError, f"rotation count {2 ** 50}: P\\^k has drifted",
                             lambda: figure1_rotation(2 ** 50)),
    # warned of overflow in matmul, then "covariances and means must be finite"
    "rotation count overflow": (ModelError, f"rotation count {2 ** 70}: P\\^k has drifted",
                                lambda: figure1_rotation(2 ** 70)),
    # numpy's "zero-size array to reduction operation minimum"
    "no eigenvalues": (ValueError, "at least one eigenvalue", lambda: empirical_stieltjes([], 1j)),
    # warned of overflow in matmul and divide, then LinAlgError from nu_hat
    "second moments overflow": (
        ModelError, "second moments overflow",
        lambda: support_scan(EnsembleModel(3, 4, [Column(Diagonal(np.full(3, 1e308)))] * 4))),
    # failed inside np.linspace: "'float' object cannot be interpreted as an integer"
    "float grid count": (ValueError, "count must be an integer",
                         lambda: density_grid(small_model(), 0, 4, 2.5, 1e-3)),
    # returned the root of the last column, as numpy reads a negative index
    "negative root column": (IndexError, r"column index -1 out of range \[0, 4\)",
                             lambda: small_model().column_root_matvec(-1, np.ones(3))),
    "negative sigma column": (IndexError, r"column index -1 out of range \[0, 4\)",
                              lambda: small_model().realize_sigma(-1)),
    # read g as a (3, 2) block and returned the 6-vector [0, 1, 4, 6, 12, 15]
    "root of a wrong-length g": (
        ModelError, r"matrix dimension mismatch: g has shape \(6,\), p = 3",
        lambda: EnsembleModel(3, 1, [Column(Diagonal(np.arange(1.0, 4.0) ** 2))])
        .column_root_matvec(0, np.arange(6.0))),
    # broadcast one normal vector to four identical columns
    "draw of a short G": (
        ModelError, r"matrix dimension mismatch: G has shape \(3, 1\), expected \(p, n\)",
        lambda: small_model().columns_from_normals(np.arange(3.0)[:, None])),
    # numpy's "index 1 is out of bounds"
    "dense draw of a short G": (
        ModelError, r"matrix dimension mismatch: G has shape \(3, 1\), expected \(p, n\)",
        lambda: EnsembleModel(3, 4, [Column(Dense(np.eye(3)))] * 4)
        .columns_from_normals(np.arange(3.0)[:, None])),
}


@pytest.mark.parametrize("name", CASES)
def test_malformed_input_raises_its_typed_error(name):
    error, message, call = CASES[name]
    with pytest.raises(error, match=message):
        call()


def test_complex_input_with_zero_imaginary_parts_is_real():
    # taken as its real part, with no ComplexWarning
    np.testing.assert_array_equal(Diagonal(np.array([1 + 0j, 2])).entries, [1.0, 2.0])
    P = RotatedFamily(np.ones(2) + 0j, np.eye(2) + 0j).orthogonal
    assert P.dtype == np.float64
    model = EnsembleModel(2, 1, [Column(Dense(np.eye(2) + 0j), mean=np.array([1.0, 0j]))])
    assert model._offsets.dtype == np.float64
    prob = QveProblem(1j, np.zeros(2, complex), np.eye(2) + 0j)
    assert prob.a.dtype == prob.S.dtype == np.float64


def test_numpy_integers_stay_accepted():
    # a np.uint32 trial shifted in its own width, so trial 2 drew trial 0
    m = small_model()
    np.testing.assert_array_equal(sample_matrix(m, np.int64(1), np.uint32(2)),
                                  sample_matrix(m, 1, 2))
    for got, want in zip(ContourSpec(0, 1, 0.5, np.int64(9)).upper_nodes(),
                         ContourSpec(0, 1, 0.5, 9).upper_nodes()):
        np.testing.assert_array_equal(got, want)
    assert SolverOptions(max_iter=np.int64(5)).max_iter == 5
    assert EnsembleModel(np.int64(3), np.uint8(4), [Column(ScaledIdentity(1.0))] * 4).n == 4
    assert RotatedFamily(np.ones(2), np.eye(2), np.int64(1)).rotations == 1
    np.testing.assert_array_equal(density_grid(m, 0, 4, np.int64(5), 1e-3).density,
                                  density_grid(m, 0, 4, 5, 1e-3).density)
