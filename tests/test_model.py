import gc
import json
import tracemalloc

import numpy as np
import pytest

from covspectra import (
    Column,
    Dense,
    Diagonal,
    DomainError,
    EnsembleModel,
    ModelError,
    QveProblem,
    RotatedFamily,
    ScaledIdentity,
    load_model,
    random_orthogonal,
    sample_matrix,
    solve_lambda,
)
from covspectra import model as model_module
from covspectra.model import model_from_config

from conftest import (
    covariance_oracle,
    mixture_model,
    random_columns,
    random_model,
    sigma_oracle,
    structured_columns,
)


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
    cols = random_columns(5, 7, rng)
    m, sigmas = EnsembleModel(5, 7, cols), sigma_oracle(cols, 5)
    w = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    naive = sum(w[i] * sigmas[i] for i in range(7)) / 7
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
    cols = random_columns(5, 6, rng)
    m, sigmas = EnsembleModel(5, 6, cols), sigma_oracle(cols, 5)
    for _ in range(100):
        M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        got = m.traces_against_all(M)
        for i in range(6):
            want = np.trace(sigmas[i] @ M)
            assert abs(got[i] - want) <= 1e-13 * max(abs(want), 1.0)


@pytest.mark.parametrize("kind", ["complex", "real-nonsymmetric"])
def test_traces_against_all_structured_oracle(rng, kind):
    cols = structured_columns(6, 12, rng)
    m, sigmas = EnsembleModel(6, 12, cols), sigma_oracle(cols, 6)
    assert m._dense.shape[0] and m._V.shape[1]  # dense and vector paths are taken
    for _ in range(20):
        M = rng.standard_normal((6, 6))
        if kind == "complex":
            M = M + 1j * rng.standard_normal((6, 6))
        got = m.traces_against_all(M)
        for i in range(12):
            want = np.trace(sigmas[i] @ M)
            assert abs(got[i] - want) <= 1e-13 * max(abs(want), 1.0)


@pytest.mark.parametrize("kind", ["complex", "real"])
def test_mixture_structured_oracle(rng, kind):
    cols = structured_columns(6, 12, rng)
    m, sigmas = EnsembleModel(6, 12, cols), sigma_oracle(cols, 6)
    for _ in range(20):
        w = rng.standard_normal(12)
        if kind == "complex":
            w = w + 1j * rng.standard_normal(12)
        naive = sum(w[i] * sigmas[i] for i in range(12)) / 12
        np.testing.assert_allclose(m.mixture_matrix(w), naive, rtol=1e-13, atol=1e-13)


def test_is_diagonal_plus_low_rank():
    # no dense class: every factor is diagonal plus a rank-r correction
    P = random_orthogonal(2, seed=3)
    diagonal = [
        Column(Diagonal(np.array([1.0, 2.0]))),
        Column(ScaledIdentity(1.0), mean=np.zeros(2)),
        Column(RotatedFamily(np.array([1.0, 2.0]), P, 0)),
    ]
    m = EnsembleModel(2, 3, diagonal)
    assert not m._dense_rows.size and m._V.shape[1] == 0  # diagonal
    for extra in (
        Column(ScaledIdentity(1.0), mean=np.array([0.0, 1.0])),
        Column(Diagonal(np.array([1.0, 3.0])), mean=np.array([1.0, 0.0])),
    ):
        m = EnsembleModel(2, 4, diagonal + [extra])
        assert not m._dense_rows.size and m._V.shape[1] == 1
    for extra in (
        Column(RotatedFamily(np.array([1.0, 2.0]), P, 1)),
        Column(Dense(np.eye(2))),
    ):
        assert EnsembleModel(2, 4, diagonal + [extra])._dense_rows.size


def test_vectors_stored_once_by_content(rng):
    p = 4
    mu = rng.standard_normal(p)
    other = rng.standard_normal(p)
    cols = [
        Column(ScaledIdentity(1.0), mean=mu),
        Column(Diagonal(rng.uniform(0.2, 3.0, p)), mean=mu.copy()),
        Column(ScaledIdentity(2.0), mean=np.stack([other, mu], axis=1)[:, 1]),  # a view
        Column(ScaledIdentity(0.5), mean=mu.copy()),
        Column(ScaledIdentity(1.0), mean=other),
    ]
    m, sigmas = EnsembleModel(p, 5, cols), sigma_oracle(cols, p)
    # one vector per class: five (covariance, vector) pairs
    assert m._V.shape == (p, 5)
    for _ in range(5):
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        naive = sum(w[i] * sigmas[i] for i in range(5)) / 5
        np.testing.assert_allclose(m.mixture_matrix(w), naive, rtol=1e-13, atol=1e-13)
        M = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        want = [np.trace(s @ M) for s in sigmas]
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
        np.testing.assert_array_equal(m._offsets[m.column_class[i]], mu)


def test_dense_class_realised_once(monkeypatch):
    calls = []
    pack = EnsembleModel._pack
    monkeypatch.setattr(EnsembleModel, "_pack",
                        lambda self, specs: calls.append(len(specs)) or pack(self, specs))
    spec = Dense(np.array([[2.0, 0.5], [0.5, 1.0]]))
    m = EnsembleModel(2, 5, [Column(spec)] * 5)
    assert calls == [1] and n_classes(m) == 1 and m._dense.shape == (1, 3)
    np.testing.assert_allclose(m.mixture_matrix(np.ones(5)), spec.matrix, rtol=1e-15)


def test_rotated_family_k0_equals_base():
    P = random_orthogonal(3, seed=5)
    spec = RotatedFamily(base=np.array([1.0, 2.0, 3.0]), orthogonal=P, rotations=0)
    m = EnsembleModel(3, 1, [Column(spec)])
    np.testing.assert_array_equal(m.realize_sigma(0), np.diag([1.0, 2.0, 3.0]))


def test_rotated_family_realization(rng):
    P = random_orthogonal(4, seed=9)
    d = np.array([1.0, 2.0, 3.0, 4.0])
    spec = RotatedFamily(base=d, orthogonal=P, rotations=3)
    R = np.linalg.matrix_power(P, 3)
    m = EnsembleModel(4, 1, [Column(spec)])
    np.testing.assert_allclose(m.realize_sigma(0), R.T @ np.diag(d) @ R, atol=1e-12)


def test_rotated_family_rejects_bad_inputs():
    # P passes first: the check is recorded by identity, so its sheared and
    # rescaled copies, new objects, are checked, and P's shape still is
    P = random_orthogonal(3, seed=5)
    RotatedFamily(np.ones(3), P)
    with pytest.raises(ModelError, match="wrong shape"):
        RotatedFamily(np.ones(2), P)
    sheared = P.copy()
    sheared[0] += 1e-8 * P[1]  # off the diagonal of P P^T: atol 1e-10 alone
    for bad in (sheared, P * np.sqrt(1 + 2e-5), np.full((3, 3), np.nan)):
        with pytest.raises(ModelError, match="not orthogonal"):
            RotatedFamily(np.ones(3), bad)
    with pytest.raises(ModelError, match="nonnegative"):
        RotatedFamily(np.ones(3), P, -1)
    # allclose's own tolerance: atol 1e-10, plus rtol 1e-5 on the diagonal
    RotatedFamily(np.ones(3), P * np.sqrt(1 + 5e-6))


def test_families_on_one_matrix_check_it_once(monkeypatch):
    checked = []
    check = model_module._check_orthogonal
    monkeypatch.setattr(model_module, "_check_orthogonal", lambda P: checked.append(P) or check(P))
    monkeypatch.setattr(model_module, "_ORTHOGONAL", model_module.weakref.WeakValueDictionary())
    P, base = random_orthogonal(80, 314), np.r_[[8.0] * 20, [1.0] * 60]
    m = EnsembleModel(80, 160, [Column(RotatedFamily(base, P, i)) for i in range(160)])
    assert len(checked) == 1 and checked[0] is P and m._dense_rows.size == 159


def test_checked_matrices_are_not_kept_alive(monkeypatch):
    record = model_module.weakref.WeakValueDictionary()
    monkeypatch.setattr(model_module, "_ORTHOGONAL", record)
    P = random_orthogonal(4, seed=2)
    spec = RotatedFamily(np.ones(4), P, 3)
    assert list(record.values()) == [P]
    del P, spec
    gc.collect()
    assert len(record) == 0


def test_column_root_is_the_power_of_the_rotation(rng):
    # (P^k)^T (sqrt(d) * g) for counts that leave the bit loop at different bits
    p = 6
    P = random_orthogonal(p, seed=4)
    d, G = rng.uniform(0.2, 3.0, p), rng.standard_normal((p, 3))
    counts = [1, 2, 7, 64, 255, 1000]
    m = EnsembleModel(p, len(counts), [Column(RotatedFamily(d, P, k)) for k in counts])
    for i, k in enumerate(counts):
        want = np.linalg.matrix_power(P, k).T @ (np.sqrt(d)[:, None] * G)
        got = m.column_root_matvec(i, G)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        np.testing.assert_allclose(m.column_root_matvec(i, G[:, 0]), want[:, 0], rtol=0,
                                   atol=1e-12 * np.abs(want).max())


def test_exact_rotation_takes_any_count():
    # a signed permutation's powers are exact, so no count drifts; 2^70 is
    # past int64, and this P has order 4, so P^(2^70) = I
    P = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    d = np.array([1.0, 2.0, 3.0])
    m = EnsembleModel(3, 2, [Column(RotatedFamily(d, P, 2 ** 70)),
                             Column(RotatedFamily(d, P, 2 ** 70 + 1))])
    np.testing.assert_array_equal(m.realize_sigma(0), np.diag(d))
    g = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(m.column_root_matvec(0, g), np.sqrt(d) * g)
    np.testing.assert_array_equal(m.column_root_matvec(1, g), P.T @ (np.sqrt(d) * g))
    X = sample_matrix(m, seed=3)
    assert X.shape == (3, 2) and np.isfinite(X).all()


def test_rotation_count_where_the_power_drifts_is_refused():
    # at p = 80 the realised P^k drifts from orthogonal as k grows: a count
    # of a million is accepted, 2^30 is not (tests/test_typed_errors.py has
    # 2^50 and 2^70)
    P, base = random_orthogonal(80, 314), np.r_[[8.0] * 20, [1.0] * 60]
    m = EnsembleModel(80, 1, [Column(RotatedFamily(base, P, 10 ** 6))])
    assert m.max_trace() == pytest.approx(220.0, rel=1e-10)
    with pytest.raises(ModelError, match=f"rotation count {2 ** 30}: P\\^k has drifted"):
        EnsembleModel(80, 1, [Column(RotatedFamily(base, P, 2 ** 30))])


@pytest.mark.parametrize("kind", ["diagonal", "rotated", "mean"])
def test_second_moments_that_overflow_are_rejected(kind):
    # tr Sigma_i about 1.2e308 (diagonal part, packed dense diagonal or
    # |mu_i|^2): one column of it is finite and two overflow, whatever
    # class storage holds the trace
    P = random_orthogonal(3, seed=1)
    column = {"diagonal": Column(Diagonal(np.full(3, 4e307))),
              "rotated": Column(RotatedFamily(np.full(3, 4e307), P, 1)),
              "mean": Column(ScaledIdentity(1.0), mean=np.full(3, 6.3e153))}[kind]
    EnsembleModel(3, 1, [column])
    with pytest.raises(ModelError, match="second moments overflow"):
        EnsembleModel(3, 2, [column] * 2)


def pack(S: np.ndarray) -> np.ndarray:
    """The upper triangle, row by row, of the symmetric part of S."""
    return ((S + S.T) / 2)[np.triu_indices(len(S))]


def test_rotated_stack_rows_match_realize(rng):
    # shuffled and repeated rotation counts over two orthogonal matrices: the
    # orbit steps forward, repeats a power and falls back when a count drops
    p = 5
    Ps = random_orthogonal(p, seed=1), random_orthogonal(p, seed=2)
    counts = rng.permutation(np.r_[1:13, 3, 7, 7, 12])
    cols = [Column(RotatedFamily(rng.uniform(0.2, 3.0, p), Ps[i % 2], int(k)))
            for i, k in enumerate(counts)]
    m = EnsembleModel(p, len(cols), cols)
    assert m._dense.shape == (len(cols), p * (p + 1) // 2)
    for row, c in zip(m._dense, m._dense_rows):
        np.testing.assert_allclose(row, pack(covariance_oracle(m._class_dense[c], p)),
                                   rtol=0, atol=1e-13)


FIGURE1_BASE = np.r_[[8.0] * 20, [1.0] * 60]


@pytest.mark.parametrize("bases", [
    [FIGURE1_BASE],
    [np.full(80, 2.5)],
    [np.linspace(1.0, 4.0, 80)],
    [np.r_[0.0, np.linspace(0.5, 3.0, 79)]],
    [FIGURE1_BASE, np.linspace(1.0, 4.0, 80)],
], ids=["figure 1", "all equal", "distinct", "zero minimum", "two bases on one P"])
def test_rotated_rows_match_the_power_of_the_rotation(bases):
    # counts out of order, so a walk steps forward and raises P again when a
    # count falls; two bases on one P lift different rows and walk apart
    P = random_orthogonal(80, 314)
    specs = [RotatedFamily(base, P, k) for k in (5, 3, 1000, 6, 2) for base in bases]
    m = EnsembleModel(80, len(specs), [Column(spec) for spec in specs])
    assert m._dense_rows.size == len(specs)
    for row, c in zip(m._dense, m._dense_rows):
        spec = m._class_dense[c]
        R = np.linalg.matrix_power(P, spec.rotations)
        want = (R.T @ (spec.base[:, None] * R))[np.triu_indices(80)]
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-13 * np.abs(want).max())
        if np.ptp(spec.base) == 0:
            np.testing.assert_array_equal(row, pack(spec.base.min() * np.eye(80)))


def test_orbit_walks_the_lifted_rows():
    # the Figure-1 base lifts 20 of its 80 entries above its minimum
    P = random_orthogonal(80, 314)
    (Y,) = model_module._orbit([RotatedFamily(FIGURE1_BASE, P, 3)])
    assert Y.shape == (20, 80)


def test_packed_kernel_matches_realized_oracle(rng):
    # up to 40 rotations, so each realised Sigma is symmetric only up to roundoff
    p, n = 6, 24
    P = random_orthogonal(p, seed=11)
    cols = [Column(RotatedFamily(rng.uniform(0.2, 3.0, p), P, int(k)),
                   mean=rng.standard_normal(p) / p if i % 3 == 0 else None)
            for i, k in enumerate(rng.integers(0, 41, n))]
    m = EnsembleModel(p, n, cols)
    k_d = m._dense_rows.size
    assert k_d and m._dense.shape == (k_d, p * (p + 1) // 2)
    sigmas = sigma_oracle(cols, p)
    k = m.column_class.max() + 1
    W = rng.uniform(0.05, 0.6, (4, k)) * np.exp(1j * rng.uniform(-2.5, -0.1, (4, k)))
    T = m.class_traces(W)
    for row, t in zip(W, T):
        w = row[m.column_class]
        mix = sum(wi * s for wi, s in zip(w, sigmas)) / n
        np.testing.assert_allclose(m.mixture_matrix(w), mix, rtol=0,
                                   atol=1e-12 * np.abs(mix).max())
        Q = np.linalg.inv(np.eye(p) - mix)
        np.testing.assert_allclose(m.factor_inverses(row[None])[0], Q, rtol=0,
                                   atol=1e-12 * np.abs(Q).max())
        want = np.array([np.trace(s @ Q) for s in sigmas])
        np.testing.assert_allclose(t[m.column_class], want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())


def test_negative_diagonal_entry_fatal():
    with pytest.raises(ModelError):
        Diagonal(np.array([1.0, -0.5]))


def test_dense_nearly_symmetric_stored_symmetric():
    # within the symmetry tolerance but not symmetric: the solver's mixture
    # and the sampler's root must describe one covariance
    spec = Dense(np.array([[2.0, 1.0], [1.0 + 1e-6, 2.0]]))
    m = EnsembleModel(2, 1, [Column(spec)])
    R = np.column_stack([m.column_root_matvec(0, e) for e in np.eye(2)])
    np.testing.assert_allclose(R @ R.T, spec.matrix, rtol=0, atol=1e-14)
    np.testing.assert_allclose(m.mixture_matrix(np.ones(1)), spec.matrix, rtol=0, atol=1e-14)


def test_column_root_and_mean_oracle(rng):
    p = 6
    cols = structured_columns(p, 12, rng)
    m = EnsembleModel(p, 12, cols)
    for i, col in enumerate(cols):
        R = np.column_stack([m.column_root_matvec(i, e) for e in np.eye(p)])
        np.testing.assert_allclose(R @ R.T, covariance_oracle(col.cov, p), rtol=0, atol=1e-12)
        want = np.zeros(p) if col.mean is None else col.mean
        np.testing.assert_array_equal(m._offsets[m.column_class[i]], want)


def test_realize_sigma_is_a_view_of_the_classes(rng):
    # every column's Sigma_i read from its class against the oracle built
    # from the column's own spec and mean, on every covariance kind
    p = 6
    cols = structured_columns(p, 12, rng)
    m = EnsembleModel(p, 12, cols)
    for i, want in enumerate(sigma_oracle(cols, p)):
        np.testing.assert_allclose(m.realize_sigma(i), want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("m", [3, 5], ids=["wide", "square"])
def test_root_matvec_takes_a_block(rng, m):
    p = 5
    B = rng.standard_normal((p, p))
    specs = [Dense(B @ B.T / p + 0.1 * np.eye(p)),
             RotatedFamily(rng.uniform(0.2, 3.0, p), random_orthogonal(p, 3), 2)]
    G = rng.standard_normal((p, m))
    model = EnsembleModel(p, 2, [Column(spec) for spec in specs])
    for i in range(2):
        want = np.column_stack([model.column_root_matvec(i, g) for g in G.T])
        np.testing.assert_allclose(model.column_root_matvec(i, G), want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())


def test_dense_decomposed_once(monkeypatch, rng):
    calls = []
    for name in ("eigh", "eigvalsh"):
        f = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, f=f, name=name: calls.append(name) or f(a))
    B = rng.standard_normal((40, 40))
    m = EnsembleModel(40, 80, [Column(Dense(B @ B.T / 40 + 0.1 * np.eye(40)))] * 80)
    for trial in range(3):
        sample_matrix(m, 7, trial=trial)
    assert calls == ["eigh"]


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
    # per column: column 0 breaks the floor, the dense column 1 does not
    P = random_orthogonal(2, seed=3)
    for cov in (
        Diagonal(np.array([0.0, 1.0])),
        ScaledIdentity(1e-9),
        RotatedFamily(np.array([0.0, 1.0]), P, 0),
        Dense(np.array([[1.0, 1.0], [1.0, 1.0]])),
        RotatedFamily(np.array([0.0, 1.0]), P, 1),
    ):
        m2 = EnsembleModel(2, 2, [Column(cov), Column(RotatedFamily(np.array([1.0, 2.0]), P, 1))])
        assert [w[:9] for w in m2.warnings if "smallest eigenvalue" in w] == ["column 0:"]


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


def _json_dense_case():
    A = np.random.default_rng(3).standard_normal((3, 3))
    C = A @ A.T
    return ({"kind": "dense", "matrix": C.tolist()}, [Column(Dense(C))] * 2)


def _json_orthogonal_case():
    base, P = np.array([1.0, 2.0, 5.0]), random_orthogonal(3, 9)
    return ({"kind": "rotated_family", "base": base.tolist(), "orthogonal": P.tolist(),
             "rotations": 1, "rotation_step": 1},
            [Column(RotatedFamily(base, P, 1 + j)) for j in range(2)])


@pytest.mark.parametrize("case", [_json_dense_case, _json_orthogonal_case],
                         ids=["dense", "orthogonal"])
def test_json_model_matches_in_code_model(case, tmp_path):
    cov, columns = case()
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"p": 3, "n": 2, "columns": [{"cov": cov, "repeat": 2}]}))
    loaded, built = load_model(str(path)), EnsembleModel(3, 2, columns)
    np.testing.assert_array_equal(loaded.column_class, built.column_class)
    for i in range(2):
        np.testing.assert_array_equal(loaded.realize_sigma(i), built.realize_sigma(i))


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


@pytest.mark.parametrize(
    "columns, match",
    [([{"cov": {"kind": "diagonal"}}], "column entry 0: missing key 'entries'"),
     ([{"cov": {"kind": "scaled_identity", "sigma2": 1.0}}, 3], "column entry 1"),
     (5, "must be a list")],
    ids=["missing-key", "entry-not-object", "columns-not-list"],
)
def test_malformed_config_is_model_error(columns, match):
    with pytest.raises(ModelError, match=match):
        model_from_config({"p": 2, "n": 2, "columns": columns})


def test_rotated_family_rejects_empty_base():
    with pytest.raises(ModelError, match="at least one"):
        RotatedFamily(np.array([]), np.zeros((0, 0)))


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


def _class_traces_model(kind: str, rng) -> tuple[EnsembleModel, list[Column]]:
    """structured_model's columns ("dense"), or only those with no dense
    class ("woodbury"), or only those with no dense class and no mean
    ("diagonal"); each column twice, shuffled, so that a class sum is not
    the class's weight.  The model and its columns."""
    cols = structured_columns(7, 36, rng)
    if kind != "dense":
        cols = [c for c in cols
                if isinstance(c.cov, (Diagonal, ScaledIdentity))
                or (isinstance(c.cov, RotatedFamily) and c.cov.rotations == 0)]
    if kind == "diagonal":
        cols = [c for c in cols if c.mean is None or not np.any(c.mean)]
    cols = [cols[i] for i in rng.permutation(np.repeat(np.arange(len(cols)), 2))]
    return EnsembleModel(7, len(cols), cols), cols


@pytest.mark.parametrize("kind", ["diagonal", "woodbury", "dense"])
def test_class_traces_oracle(rng, kind):
    m, cols = _class_traces_model(kind, rng)
    assert (not m._dense_rows.size) == (kind != "dense")
    assert (m._V.shape[1] == 0) == (kind == "diagonal")
    k = m.column_class.max() + 1
    assert (m._class_size == 2).all()
    # one weight per class, so each class's sum is its size times that weight
    W = rng.uniform(0.05, 0.6, (5, k)) * np.exp(1j * rng.uniform(-2.5, -0.1, (5, k)))
    T = m.class_traces(W * m._class_size)
    assert T.shape == (5, k)
    Tp = m.class_pair_traces(W * m._class_size)[0]
    sigmas = sigma_oracle(cols, m.p)
    for row, t, tp in zip(W, T, Tp):
        w = row[m.column_class]
        Q = np.linalg.inv(np.eye(m.p) - sum(wi * s for wi, s in zip(w, sigmas)) / m.n)
        want = np.array([np.trace(s @ Q) for s in sigmas])
        np.testing.assert_allclose(t[m.column_class], want, rtol=1e-13,
                                   atol=1e-13 * np.abs(want).max())
        np.testing.assert_allclose(tp[m.column_class], want, rtol=1e-13,
                                   atol=1e-13 * np.abs(want).max())


def test_class_pair_traces_class_chunks(rng, monkeypatch):
    # a budget shrunk to c = 5 classes' temporaries for one row: each
    # mixtures call that forms the Sigma_c of one class_pair_traces call takes
    # at most c classes, ceil(k / c) calls cover the k classes in order, and
    # the pairs still match the explicit-trace oracle
    m, cols = _class_traces_model("dense", rng)
    k, p, c = m._class_size.size, m.p, 5
    assert k > c and k % c
    monkeypatch.setattr(model_module, "_CHAIN_BYTES", c * 5 * 16 * p * p)
    assert model_module._per_batch(5 * 16 * p * p) == c
    calls = []
    mixtures = m.mixtures
    monkeypatch.setattr(m, "mixtures", lambda Wc: calls.append(Wc) or mixtures(Wc))
    W = rng.uniform(0.05, 0.6, (1, k)) * np.exp(1j * rng.uniform(-2.5, -0.1, (1, k)))
    Wc = W * m._class_size
    pairs = m.class_pair_traces(Wc)[1][0]
    factor, *chunks = calls  # the resolvent's own mixture, then the classes
    np.testing.assert_array_equal(factor, Wc)
    assert len(chunks) == -(-k // c) and max(len(rows) for rows in chunks) <= c
    np.testing.assert_array_equal(np.concatenate(chunks), m.n * np.eye(k))
    sigmas = sigma_oracle(cols, p)
    S = [sigmas[i] for i in np.unique(m.column_class, return_index=True)[1]]
    w = W[0, m.column_class]
    Q = np.linalg.inv(np.eye(p) - sum(wi * s for wi, s in zip(w, sigmas)) / m.n)
    want = np.array([[np.trace(a @ Q @ b @ Q) for b in S] for a in S])
    np.testing.assert_allclose(pairs, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("kind", ["diagonal", "woodbury", "dense"])
def test_functional_traces_oracle(rng, kind, monkeypatch):
    # tr(A Q[row]) against the explicit trace of A times each resolvent, for
    # symmetric and non-symmetric A, with class sums that are not class values,
    # over more rows than two passes; with a dense class, a budget shrunk to
    # three rows' temporaries caps each pass at three rows
    m, _ = _class_traces_model(kind, rng)
    k = m.column_class.max() + 1
    W = rng.uniform(0.05, 0.6, (19, k)) * np.exp(1j * rng.uniform(-2.5, -0.1, (19, k)))
    Wc = W * m._class_size
    B = rng.standard_normal((m.p, m.p))
    As = np.stack([np.eye(m.p), B @ B.T, B])
    rows = []
    if kind == "dense":
        monkeypatch.setattr(model_module, "_CHAIN_BYTES", 3 * 5 * 16 * 7 * 7)
        assert m._rows_within_budget() == 3
        factor = m.factor_inverses
        monkeypatch.setattr(m, "factor_inverses", lambda Wr: rows.append(len(Wr)) or factor(Wr))
    T = m.functional_traces(Wc, As)
    assert T.shape == (19, 3)
    if kind == "dense":
        assert max(rows) <= 3 and sum(rows) == 19
    want = np.array([[np.trace(A @ Q) for A in As] for Q in m.factor_inverses(Wc)])
    np.testing.assert_allclose(T, want, rtol=1e-13)


def test_woodbury_kernels_near_the_axis():
    # the r x r inverse of the Woodbury path against the dense resolvent of
    # the realised Sigma_i, at Im z = 1e-6 inside the noise bulk of a model
    # with mean vectors and two noise levels
    p, n = 30, 60
    U = np.random.Generator(np.random.Philox(key=[3, 0])).standard_normal((p, 3))
    cols = [Column(ScaledIdentity(1.0 + (i % 2)), mean=U[:, i % 3]) for i in range(n)]
    m = EnsembleModel(p, n, cols, mean_norm_bound=1e9)
    assert not m._dense_rows.size and m._V.shape[1] == 6
    lam = solve_lambda(m, 1.5 + 1e-6j).lam.values
    Wc = m._class_weights(1.0 / lam)[None]
    sigmas = sigma_oracle(cols, p)
    Q = np.linalg.inv(np.eye(p) - sum(s / li for s, li in zip(sigmas, lam)) / n)
    got = m.factor_inverses(Wc)[0]
    np.testing.assert_allclose(got, Q, rtol=1e-13, atol=1e-13 * np.abs(Q).max())
    want = np.array([np.trace(s @ Q) for s in sigmas])
    np.testing.assert_allclose(m.class_traces(Wc)[0, m.column_class], want, rtol=1e-13,
                               atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("kind", ["dense", "woodbury"])
def test_kernels_raise_domain_error_on_singular_factor(kind):
    # dense: I - Sigma / 1 = 0 at the class sum 1.  Woodbury: Sigma = I + e1 e1^T
    # at the class sum 1/2, where D = I / 2 and K = 1 - 2 / 2 = 0
    if kind == "dense":
        m, Wc = EnsembleModel(2, 1, [Column(Dense(np.eye(2)))]), np.array([[1.0]])
    else:
        m = EnsembleModel(2, 1, [Column(ScaledIdentity(1.0), mean=np.array([1.0, 0.0]))])
        Wc = np.array([[0.5]])
    assert bool(m._dense_rows.size) == (kind == "dense")
    for kernel in (m.factor_inverses, m.class_traces, m.class_pair_traces,
                   lambda W: m.functional_traces(W, np.eye(2)[None])):
        with pytest.raises(DomainError, match="singular"):
            kernel(Wc)


def test_specs_compare_by_identity():
    # array fields: == and hash by identity instead of numpy's ambiguous truth
    # value and TypeError
    specs = [Dense(np.eye(2)), Diagonal(np.ones(2)),
             RotatedFamily(np.ones(2), np.eye(2), 1),
             Column(ScaledIdentity(1.0), mean=np.zeros(2))]
    twins = [Dense(np.eye(2)), Diagonal(np.ones(2)),
             RotatedFamily(np.ones(2), np.eye(2), 1),
             Column(ScaledIdentity(1.0), mean=np.zeros(2))]
    for a, b in zip(specs, twins):
        assert a == a and a != b
        assert hash(a) == hash(a)
    assert len(set(specs + twins)) == 8


@pytest.mark.parametrize("layout", ["diagonal", "woodbury", "lu"])
@pytest.mark.parametrize("U", [1, 2, 6])
def test_coordinate_class_kernels_oracle(rng, U, layout):
    # the kernels on U coordinate classes against the explicit resolvent of
    # the realised Sigma_i: one (scaled identities), two (a permuted two-level
    # diagonal, as Figure-1 left) and six (random levels).  The r = 4 or 6
    # vector classes have 2r < p = 13, so the kernels take the Woodbury path;
    # at p = 6 the same classes have 2r >= p, and with no dense class they take
    # the stacked p x p LU
    p = 6 if layout == "lu" else 13
    if U == 1:
        covs = [ScaledIdentity(1.0), ScaledIdentity(2.5)]
    elif U == 2:
        base = rng.permutation(np.r_[[4.0] * 2, [1.0] * (p - 2)])
        covs = [Diagonal(base), ScaledIdentity(2.0), Diagonal(0.5 + base / 4)]
    else:
        covs = [Diagonal(rng.uniform(0.2, 3.0, 6)[np.arange(p) % 6]), ScaledIdentity(1.5)]
    vectors = 0 if layout == "diagonal" else 2
    means = [None] + [rng.standard_normal(p) / 2 for _ in range(vectors)]
    cols = [Column(c, mean=mu) for c in covs for mu in means] * 2
    m = EnsembleModel(p, len(cols), cols)
    assert m._lu == (layout == "lu") and not m._dense_rows.size
    if not m._lu:
        assert m._coord_size.size == U and m._coord_size.sum() == p
        np.testing.assert_array_equal(m._coord_diag[:, m._coord], m._diag)
    assert m.is_diagonal == (layout == "diagonal")
    k = m._class_size.size
    W = rng.uniform(0.05, 0.6, (5, k)) * np.exp(1j * rng.uniform(-2.5, -0.1, (5, k)))
    Wc = W * m._class_size
    B = rng.standard_normal((p, p))
    As = np.stack([np.eye(p), B @ B.T, B])
    traces, (traces2, pairs) = m.class_traces(Wc), m.class_pair_traces(Wc)
    functionals, factors = m.functional_traces(Wc, As), m.factor_inverses(Wc)
    sigmas = sigma_oracle(cols, p)
    S = [sigmas[i] for i in np.unique(m.column_class, return_index=True)[1]]
    for row, t, t2, pair, f, Q in zip(W, traces, traces2, pairs, functionals, factors):
        w = row[m.column_class]
        want = np.linalg.inv(np.eye(p) - sum(wi * s for wi, s in zip(w, sigmas)) / m.n)
        for got, oracle in ((Q, want), (t, [np.trace(s @ want) for s in S]),
                            (t2, [np.trace(s @ want) for s in S]),
                            (f, [np.trace(A @ want) for A in As]),
                            (pair, [[np.trace(a @ want @ b @ want) for b in S] for a in S])):
            oracle = np.asarray(oracle)
            np.testing.assert_allclose(got, oracle, rtol=1e-13, atol=1e-13 * np.abs(oracle).max())


def test_functional_traces_coordinate_class_chunks(rng, monkeypatch):
    # a budget shrunk to two coordinate classes' A P_u V products: the
    # functionals on p = 6 coordinate classes, over three chunks and more
    # rows than one pass, still match the explicit resolvent
    p, n = 6, 12
    cols = [Column(Diagonal(rng.uniform(0.2, 3.0, p)), mean=rng.standard_normal(p))
            for _ in range(2)] * (n // 2)
    m = EnsembleModel(p, n, cols)
    a, r = 2, m._V.shape[1]
    monkeypatch.setattr(model_module, "_CHAIN_BYTES", 2 * 8 * p * r * (1 + 2 * a))
    W = rng.uniform(0.05, 0.6, (11, 2)) * np.exp(1j * rng.uniform(-2.5, -0.1, (11, 2)))
    B = rng.standard_normal((p, p))
    As = np.stack([B @ B.T, B])
    got = m.functional_traces(W * m._class_size, As)
    want = [[np.trace(A @ Q) for A in As] for Q in m.factor_inverses(W * m._class_size)]
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_gram_blocks_are_built_within_what_is_stored(rng):
    # p = 400, U = 4 coordinate classes and r = 150 vectors: the blocks B_u
    # take 0.72 MB, where forming every v_j v_j^T before summing them took a
    # (p, r^2) temporary of 72 MB
    p, n, r = 400, 800, 150
    d = Diagonal(np.repeat([1.0, 2.0, 3.0, 4.0], p // 4))
    means = 0.1 * rng.standard_normal((r, p))
    cols = [Column(d, mean=means[i % r]) for i in range(n)]
    tracemalloc.start()
    try:
        m = EnsembleModel(p, n, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not m._lu and m._coord_gram.shape == (4, r * r)
    stored = sum(x.nbytes for x in vars(m).values() if isinstance(x, np.ndarray))
    assert peak < 3 * stored
    for u, B in enumerate(m._coord_gram.reshape(4, r, r)):
        V = m._V[m._coord == u]
        np.testing.assert_allclose(B, V.T @ V, rtol=1e-13, atol=1e-13 * np.abs(B).max())


@pytest.mark.parametrize("kind", ["diagonal", "woodbury", "dense"])
def test_repeated_column_object_matches_equal_columns(rng, kind, monkeypatch):
    # [col] * n is classified once, and gives the classes and, bit for bit,
    # the kernels of n distinct columns equal to col (sharing a dense spec
    # object, which is how dense classes are told apart)
    p, n = 5, 12
    spec = {"diagonal": Diagonal(rng.uniform(0.2, 3.0, p)),
            "woodbury": ScaledIdentity(1.5),
            "dense": RotatedFamily(rng.uniform(0.2, 3.0, p), random_orthogonal(p, 5), 2)}[kind]
    mu = None if kind == "diagonal" else rng.standard_normal(p)
    other = Column(Diagonal(rng.uniform(0.2, 3.0, p)))
    calls = []
    classify = EnsembleModel._classify
    monkeypatch.setattr(EnsembleModel, "_classify",
                        lambda self, i, *a: calls.append(i) or classify(self, i, *a))
    col = Column(spec, mean=mu)
    one = EnsembleModel(p, n, [col, other] * (n // 2))
    assert calls == [0, 1]
    copies = [Column(spec, mean=None if mu is None else mu.copy()) for _ in range(n // 2)]
    many = EnsembleModel(p, n, [c for pair in zip(copies, [other] * (n // 2)) for c in pair])
    np.testing.assert_array_equal(one.column_class, many.column_class)
    W = rng.uniform(0.05, 0.6, (3, 2)) * np.exp(1j * rng.uniform(-2.5, -0.1, (3, 2)))
    Wc = W * one._class_size
    As = rng.standard_normal((1, p, p))
    for a, b in ((one.class_traces(Wc), many.class_traces(Wc)),
                 (one.factor_inverses(Wc), many.factor_inverses(Wc)),
                 (one.functional_traces(Wc, As), many.functional_traces(Wc, As)),
                 *zip(one.class_pair_traces(Wc), many.class_pair_traces(Wc))):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("case", ["r=0", "U=1", "U=p", "r=p/2-1", "no pole at top", "lu",
                                  "vectors 1e-90", "vectors 1e90"])
def test_nu_hat_oracle(rng, case):
    # nu_hat against eigvalsh of the average second moment: where the
    # resolvent takes Woodbury from the secular equation on U coordinate
    # classes with r vector classes, where it takes the LU from the mean field.
    # "no pole at top": the vectors are zero on the coordinate class of the
    # largest average entry, so the root is sought from that entry itself.
    # Vectors far from the diagonal's scale square to 1e-180 or 1e180
    p = 12
    U = {"U=1": 1, "U=p": p}.get(case, 3)
    r = {"r=0": 0, "r=p/2-1": p // 2 - 1, "lu": 6}.get(case, 2)
    coord = np.arange(p) % U
    d = [rng.uniform(0.2, 3.0, U)[coord] for _ in range(2)]
    scale = {"vectors 1e-90": 1e-90, "vectors 1e90": 1e90}.get(case, 1.0)
    vectors = rng.standard_normal((r, p)) * scale
    if case == "no pole at top":
        average = (2 + r) * d[0] + d[1]  # n times the average diagonal
        vectors[:, coord == coord[np.argmax(average)]] = 0.0
    cols = ([Column(Diagonal(d[0])), Column(Diagonal(d[1]))]
            + [Column(Diagonal(d[0]), mean=v) for v in vectors])
    m = EnsembleModel(p, len(cols), cols, mean_norm_bound=np.inf)
    assert m._lu == (case == "lu")
    want = np.linalg.eigvalsh(m.mixtures(m._class_size[None])[0].real).max()
    assert m.nu_hat() == pytest.approx(want, rel=1e-13, abs=0)
    if case == "no pole at top":
        assert m.nu_hat() > ((m._class_size / m.n) @ m._coord_diag).max()
    if case == "lu":
        assert m.nu_hat() == m._mean_field._diag.max()


def test_nu_hat_is_solved_once_per_model(rng, monkeypatch):
    # on the Woodbury layout nu_hat solves a secular equation by r x r
    # eigensolves; support_scan reads it on every scan, so a second call
    # returns the first answer and solves nothing
    p, coord = 12, np.arange(12) % 3
    d = rng.uniform(0.2, 3.0, 3)[coord]
    cols = [Column(Diagonal(d))] * 2 + [Column(Diagonal(d), mean=v)
                                        for v in rng.standard_normal((2, p))]
    m = EnsembleModel(p, len(cols), cols)
    assert not m._lu
    first = m.nu_hat()
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: pytest.fail("np.linalg.eigh"))
    assert m.nu_hat() is first


def test_nu_hat_of_one_diagonal_class_is_its_largest_entry(rng):
    d = rng.uniform(0.2, 3.0, 7)
    assert EnsembleModel(7, 3, [Column(Diagonal(d))] * 3).nu_hat() == d.max()
