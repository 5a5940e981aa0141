import json

import numpy as np
import pytest

from covspectra import (
    Column,
    Dense,
    Diagonal,
    EnsembleModel,
    LowRankPlusIdentity,
    ModelError,
    QveProblem,
    RotatedFamily,
    ScaledIdentity,
    load_model,
    random_orthogonal,
)
from covspectra.model import model_from_config

from conftest import mixture_model, random_model, structured_model


def test_realize_identity():
    m = EnsembleModel(2, 1, [Column(ScaledIdentity(1.0))])
    np.testing.assert_array_equal(m.realize_sigma(0), np.eye(2))


def test_realize_diagonal():
    m = EnsembleModel(2, 1, [Column(Diagonal(np.array([1.0, 8.0])))])
    np.testing.assert_array_equal(m.realize_sigma(0), np.diag([1.0, 8.0]))


def test_realize_mean_adds_rank_one():
    m = EnsembleModel(2, 1, [Column(ScaledIdentity(1.0), mean=np.array([1.0, 0.0]))])
    np.testing.assert_allclose(m.realize_sigma(0), np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_realize_index_out_of_range():
    m = EnsembleModel(2, 1, [Column(ScaledIdentity(1.0))])
    with pytest.raises(IndexError):
        m.realize_sigma(1)


def test_mixture_identity_average():
    m = EnsembleModel(3, 4, [Column(ScaledIdentity(1.0))] * 4)
    np.testing.assert_allclose(m.mixture_matrix(np.ones(4)), np.eye(3))


def test_mixture_arithmetic_mean():
    cols = [
        Column(Diagonal(np.array([1.0, 8.0]))),
        Column(Diagonal(np.array([8.0, 1.0]))),
    ]
    m = EnsembleModel(2, 2, cols)
    np.testing.assert_allclose(m.mixture_matrix(np.ones(2)), np.diag([4.5, 4.5]))


def test_mixture_matches_naive_sum(rng):
    m = random_model(5, 7, rng)
    w = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    naive = sum(w[i] * m.realize_sigma(i) for i in range(7)) / 7
    np.testing.assert_allclose(m.mixture_matrix(w), naive, atol=1e-14, rtol=1e-14)


def test_mixture_linear_in_weights(rng):
    m = random_model(4, 6, rng)
    w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    a, b = 1.3 - 0.2j, -0.7 + 1.1j
    lhs = m.mixture_matrix(a * w + b * v)
    rhs = a * m.mixture_matrix(w) + b * m.mixture_matrix(v)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_trace_against_trivial_cases():
    m = EnsembleModel(3, 1, [Column(ScaledIdentity(1.0))])
    assert m.traces_against_all(np.eye(3))[0] == pytest.approx(3.0)
    m2 = EnsembleModel(2, 1, [Column(Diagonal(np.array([1.0, 8.0])))])
    assert m2.traces_against_all(1j * np.eye(2))[0] == pytest.approx(9j)


def test_trace_against_matches_dense_oracle(rng):
    m = random_model(5, 6, rng)
    for _ in range(100):
        M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        got = m.traces_against_all(M)
        for i in range(6):
            want = np.trace(m.realize_sigma(i) @ M)
            assert abs(got[i] - want) <= 1e-13 * max(abs(want), 1.0)


@pytest.mark.parametrize("kind", ["complex", "real-nonsymmetric"])
def test_traces_against_all_structured_oracle(rng, kind):
    m = structured_model(6, 12, rng)
    assert m._dense.shape[0] and m._V.shape[1]  # dense and vector paths are taken
    for _ in range(20):
        M = rng.standard_normal((6, 6))
        if kind == "complex":
            M = M + 1j * rng.standard_normal((6, 6))
        got = m.traces_against_all(M)
        for i in range(12):
            want = np.trace(m.realize_sigma(i) @ M)
            assert abs(got[i] - want) <= 1e-13 * max(abs(want), 1.0)


@pytest.mark.parametrize("kind", ["complex", "real"])
def test_mixture_structured_oracle(rng, kind):
    m = structured_model(6, 12, rng)
    for _ in range(20):
        w = rng.standard_normal(12)
        if kind == "complex":
            w = w + 1j * rng.standard_normal(12)
        naive = sum(w[i] * m.realize_sigma(i) for i in range(12)) / 12
        np.testing.assert_allclose(m.mixture_matrix(w), naive, rtol=1e-13, atol=1e-13)


def test_is_diagonal_plus_low_rank():
    P = random_orthogonal(2, seed=3)
    diagonal = [
        Column(Diagonal(np.array([1.0, 2.0]))),
        Column(ScaledIdentity(1.0), mean=np.zeros(2)),
        Column(RotatedFamily(np.array([1.0, 2.0]), P, 0)),
    ]
    m = EnsembleModel(2, 3, diagonal)
    assert m.is_diagonal_plus_low_rank and m._V.shape[1] == 0  # diagonal
    for extra in (
        Column(ScaledIdentity(1.0), mean=np.array([0.0, 1.0])),
        Column(LowRankPlusIdentity(np.array([1.0, 0.0]), 1.0)),
    ):
        m = EnsembleModel(2, 4, diagonal + [extra])
        assert m.is_diagonal_plus_low_rank and m._V.shape[1] == 1
    for extra in (
        Column(RotatedFamily(np.array([1.0, 2.0]), P, 1)),
        Column(Dense(np.eye(2))),
    ):
        assert not EnsembleModel(2, 4, diagonal + [extra]).is_diagonal_plus_low_rank


def test_vectors_stored_once_by_content(rng):
    p = 4
    mu = rng.standard_normal(p)
    other = rng.standard_normal(p)
    cols = [
        Column(ScaledIdentity(1.0), mean=mu),
        Column(Diagonal(rng.uniform(0.2, 3.0, p)), mean=mu.copy()),
        Column(ScaledIdentity(2.0), mean=np.stack([other, mu], axis=1)[:, 1]),  # a view
        Column(LowRankPlusIdentity(mu.copy(), 0.5)),
        Column(ScaledIdentity(1.0), mean=other),
    ]
    m = EnsembleModel(p, 5, cols)
    # one vector per class: five (covariance, vector) pairs
    assert m._V.shape == (p, 5)
    # a low-rank column with a mean of its own would carry two vectors
    with pytest.raises(ModelError, match="low-rank"):
        EnsembleModel(p, 1, [Column(LowRankPlusIdentity(mu.copy(), 0.5), mean=mu.copy())])
    for _ in range(5):
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        naive = sum(w[i] * m.realize_sigma(i) for i in range(5)) / 5
        np.testing.assert_allclose(m.mixture_matrix(w), naive, rtol=1e-13, atol=1e-13)
        M = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        want = [np.trace(m.realize_sigma(i) @ M) for i in range(5)]
        np.testing.assert_allclose(m.traces_against_all(M), want, rtol=1e-13, atol=1e-13)
    # Figure 2: ten classes over 200 columns, each column a new U[:, j] view
    assert mixture_model(200, 200, 10)._V.shape == (200, 10)


def n_classes(m: EnsembleModel) -> int:
    k = m._diag.shape[0]
    assert np.array_equal(np.unique(m.column_class), np.arange(k))
    return k


def test_column_classes(rng):
    p = 4
    fig1 = {"p": p, "n": 6, "columns": [
        {"cov": {"kind": "diagonal", "entries": [1.0, 2.0, 3.0, 4.0]}, "repeat": 6}]}
    assert n_classes(model_from_config(fig1)) == 1
    m = mixture_model(200, 200, 10)
    assert n_classes(m) == 10 and m._V.shape == (200, 10)
    assert m._V.flags.c_contiguous
    # copies and views of one mean under equal covariances: one class
    mu = rng.standard_normal(p)
    views = [mu, mu.copy(), np.stack([mu, mu], axis=1)[:, 1]]
    m = EnsembleModel(p, 3, [Column(ScaledIdentity(1.0), mean=v) for v in views])
    assert n_classes(m) == 1 and m._V.shape == (p, 1)
    # an equal mean under different covariances: separate classes
    covs = [ScaledIdentity(1.0), ScaledIdentity(2.0), Diagonal(np.arange(1.0, p + 1.0)),
            Dense(np.eye(p))]
    m = EnsembleModel(p, 4, [Column(c, mean=mu) for c in covs])
    assert n_classes(m) == 4 and m._V.shape == (p, 4)
    for i in range(4):
        np.testing.assert_array_equal(m.column_mean(i), mu)


def test_dense_class_realised_once(monkeypatch):
    calls = []
    realize = Dense.realize
    monkeypatch.setattr(Dense, "realize", lambda self, p: calls.append(p) or realize(self, p))
    spec = Dense(np.array([[2.0, 0.5], [0.5, 1.0]]))
    m = EnsembleModel(2, 5, [Column(spec)] * 5)
    assert len(calls) == 1 and n_classes(m) == 1 and m._dense.shape == (1, 4)
    np.testing.assert_allclose(m.mixture_matrix(np.ones(5)), spec.matrix, rtol=1e-15)


def test_rotated_family_k0_equals_base():
    P = random_orthogonal(3, seed=5)
    spec = RotatedFamily(base=np.array([1.0, 2.0, 3.0]), orthogonal=P, rotations=0)
    np.testing.assert_array_equal(spec.realize(3), np.diag([1.0, 2.0, 3.0]))


def test_rotated_family_realization(rng):
    P = random_orthogonal(4, seed=9)
    d = np.array([1.0, 2.0, 3.0, 4.0])
    spec = RotatedFamily(base=d, orthogonal=P, rotations=3)
    R = np.linalg.matrix_power(P, 3)
    np.testing.assert_allclose(spec.realize(4), R.T @ np.diag(d) @ R, atol=1e-12)


def test_low_rank_plus_identity_realize():
    u = np.array([1.0, 2.0])
    spec = LowRankPlusIdentity(u=u, sigma2=0.5)
    np.testing.assert_allclose(spec.realize(2), 0.5 * np.eye(2) + np.outer(u, u))


def test_low_rank_column_rejects_nonzero_mean():
    # the sampler draws mu + u + sigma g, whose second moment carries
    # (mu + u)(mu + u)^T and not the model's u u^T + mu mu^T
    u = np.array([1.0, 0.0, 0.0])
    mu = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ModelError, match="low-rank"):
        EnsembleModel(3, 1, [Column(LowRankPlusIdentity(u, 1.0), mean=mu)])
    cov = {"kind": "low_rank_plus_identity", "u": u.tolist(), "sigma2": 1.0}
    cfg = {"p": 3, "n": 2, "columns": [{"cov": cov, "mean": u.tolist(), "repeat": 2}]}
    with pytest.raises(ModelError, match="low-rank"):
        model_from_config(cfg)
    # a zero mean is allowed: the column's offset is u alone
    m = EnsembleModel(3, 1, [Column(LowRankPlusIdentity(u, 1.0), mean=np.zeros(3))])
    np.testing.assert_array_equal(m.column_mean(0), u)
    np.testing.assert_array_equal(m.realize_sigma(0), np.eye(3) + np.outer(u, u))
    assert m._V.shape == (3, 1)


def test_negative_diagonal_entry_fatal():
    with pytest.raises(ModelError):
        Diagonal(np.array([1.0, -0.5]))


def test_non_psd_dense_fatal():
    with pytest.raises(ModelError):
        Dense(np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_dense_fatal(bad):
    with pytest.raises(ModelError, match="must be finite"):
        Dense(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_sigma2_must_be_positive():
    with pytest.raises(ModelError):
        ScaledIdentity(0.0)


def test_assumption_warnings_collected():
    big_mean = np.full(4, 10.0)
    m = EnsembleModel(
        4, 1, [Column(ScaledIdentity(1.0), mean=big_mean)], mean_norm_bound=5.0
    )
    assert any("mean norm" in w for w in m.warnings)
    m2 = EnsembleModel(2, 1, [Column(Diagonal(np.array([0.0, 1.0])))])
    assert any("smallest eigenvalue" in w for w in m2.warnings)


def test_load_minimal_config(tmp_path):
    cfg = {"p": 1, "n": 1, "columns": [{"cov": {"kind": "scaled_identity", "sigma2": 1.0}}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cfg))
    m = load_model(str(path))
    assert (m.p, m.n) == (1, 1)


def test_load_figure1_style_config(tmp_path):
    base = [1.0] * 20 + [8.0] * 60
    cfg = {
        "p": 80,
        "n": 160,
        "columns": [
            {
                "cov": {
                    "kind": "rotated_family",
                    "base": base,
                    "orthogonal": {"seed": 42},
                    "rotations": 0,
                    "rotation_step": 1,
                },
                "repeat": 160,
            }
        ],
    }
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(cfg))
    m = load_model(str(path))
    assert m.n == 160
    # all second moments distinct
    s0 = m.realize_sigma(0)
    s1 = m.realize_sigma(1)
    s2 = m.realize_sigma(73)
    assert not np.allclose(s0, s1)
    assert not np.allclose(s1, s2)
    # same spectrum though
    np.testing.assert_allclose(
        np.linalg.eigvalsh(s1), np.sort(base), atol=1e-9
    )


def test_load_rejects_negative_diagonal(tmp_path):
    cfg = {"p": 2, "n": 1, "columns": [{"cov": {"kind": "diagonal", "entries": [1.0, -1.0]}}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ModelError):
        load_model(str(path))


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(ModelError):
        load_model(str(path))


def test_config_repeat_count_mismatch():
    cfg = {"p": 1, "n": 3, "columns": [{"cov": {"kind": "scaled_identity", "sigma2": 1.0}}]}
    with pytest.raises(ModelError):
        model_from_config(cfg)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: EnsembleModel(2, 1, [Column(Diagonal(np.array([1.0, np.nan])))]), ModelError),
        (lambda: EnsembleModel(2, 1, [Column(ScaledIdentity(np.inf))]), ModelError),
        (
            lambda: EnsembleModel(
                2, 1, [Column(RotatedFamily(np.array([1.0, np.nan]), np.eye(2)))]
            ),
            ModelError,
        ),
        (
            lambda: EnsembleModel(
                2, 1, [Column(ScaledIdentity(1.0), mean=np.array([0.0, np.nan]))]
            ),
            ModelError,
        ),
        (lambda: QveProblem(1j, np.zeros(2), np.array([[1.0, np.nan], [0.0, 1.0]])), ValueError),
        (lambda: QveProblem(1j, np.array([0.0, np.nan]), np.eye(2)), ValueError),
    ],
    ids=["diagonal-nan", "scaled-identity-inf", "rotated-base-nan", "mean-nan",
         "qve-S-nan", "qve-a-nan"],
)
def test_non_finite_inputs_rejected(build, error):
    with pytest.raises(error):
        build()
