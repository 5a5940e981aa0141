import numpy as np
import pytest

from conftest import mixture_model, mp_model, mp_stieltjes, random_model, structured_model

from covspectra import (
    Column,
    Diagonal,
    DomainError,
    EnsembleModel,
    LowRankPlusIdentity,
    NonConvergenceError,
    QveProblem,
    ScaledIdentity,
    SolverOptions,
    UpperDiagonal,
    apply_Iz,
    contraction_factor,
    continuation_solve,
    lambda_derivative,
    psi_matrix,
    q_tilde,
    solve_lambda,
    solve_qve,
    stieltjes_g,
)


def scalar_fixed_point(z: complex, sigma2: float = 1.0) -> complex:
    """[DERIVED] p = n = 1, Sigma = sigma2: Lambda = z - sigma2/(1 - sigma2/Lambda),
    i.e. Lambda^2 - z*Lambda + sigma2*(z - ... ) -> quadratic
    Lambda*(1 - sigma2/Lambda)*... Expand: Lambda = z - sigma2*Lambda/(Lambda - sigma2)
    => Lambda^2 - sigma2*Lambda = z*Lambda - z*sigma2 - sigma2*Lambda
    => Lambda^2 - z*Lambda + z*sigma2 = 0."""
    disc = np.sqrt(complex(z * z - 4.0 * z * sigma2))
    for sign in (1.0, -1.0):
        lam = (z + sign * disc) / 2.0
        if lam.imag > 0 and (lam / z).imag >= -1e-15:
            return lam
    raise AssertionError("no admissible root")


def test_scalar_oracle():
    m = mp_model(1, 1)
    for z in (5j, 1.0 + 1.0j, -2.0 + 0.3j):
        res = solve_lambda(m, z, SolverOptions(tol_ds=1e-14))
        want = scalar_fixed_point(z)
        assert abs(res.lam.values[0] - want) < 1e-10


def test_mp_oracle_via_g():
    # [DERIVED] identical scaled-identity columns reduce to Marchenko-Pastur
    p, n = 100, 200
    m = mp_model(p, n)
    c = p / n
    for z in (1.0 + 0.5j, 3.0 + 0.1j, -1.0 + 1.0j, 5.0j):
        res = solve_lambda(m, z)
        g = stieltjes_g(m, z, res.lam)
        assert abs(g - mp_stieltjes(z, c)) < 1e-9


def test_identical_columns_give_identical_lambda():
    m = mp_model(10, 20)
    res = solve_lambda(m, 1.0 + 1.0j)
    assert np.ptp(res.lam.values.real) < 1e-12
    assert np.ptp(res.lam.values.imag) < 1e-12


def test_fixed_point_residual_small(rng):
    m = random_model(8, 12, rng)
    z = 2.0 + 0.5j
    res = solve_lambda(m, z)
    mapped = apply_Iz(m, z, res.lam)
    from covspectra import d_s

    assert d_s(res.lam, mapped) < 1e-10


def test_im_lambda_at_least_im_z(rng):
    m = random_model(6, 9, rng)
    for y in (1.0, 0.1, 1e-3):
        res = solve_lambda(m, 2.0 + 1j * y)
        assert np.all(res.lam.values.imag >= y * (1 - 1e-9))


def test_solution_independent_of_start(rng):
    # uniqueness: warm starts from very different domain points agree
    m = random_model(6, 10, rng)
    z = 1.5 + 0.2j
    base = solve_lambda(m, z, SolverOptions(tol_ds=1e-13))
    for scale in (0.1, 10.0, 100.0):
        warm = UpperDiagonal(np.full(10, z * scale + 1j))
        if not np.all((warm.values / z).imag > 0):
            continue
        res = solve_lambda(m, z, SolverOptions(tol_ds=1e-13), warm=warm)
        assert np.max(np.abs(res.lam.values - base.lam.values)) < 1e-9


@pytest.mark.parametrize("solver", ["solve_lambda", "solve_qve"])
def test_picard_matches_anderson(rng, solver):
    z = 0.5 + 0.8j
    if solver == "solve_lambda":
        m = random_model(5, 8, rng)
        solve = lambda opts: solve_lambda(m, z, opts).lam.values
    else:
        S = rng.uniform(0.0, 2.0, (8, 8))
        prob = QveProblem(z=z, a=rng.uniform(-1.0, 1.0, 8), S=(S + S.T) / 2.0)
        solve = lambda opts: solve_qve(prob, opts)
    a = solve(SolverOptions(tol_ds=1e-13, acceleration="anderson"))
    p = solve(SolverOptions(tol_ds=1e-13, acceleration="none"))
    assert np.max(np.abs(a - p)) < 1e-10


def test_rejects_lower_halfplane():
    m = mp_model(2, 2)
    with pytest.raises(DomainError):
        solve_lambda(m, 1.0 - 1.0j)
    with pytest.raises(DomainError):
        solve_lambda(m, 1.0 + 0.0j)


def test_apply_iz_rejects_bad_diagonal():
    m = mp_model(2, 3)
    with pytest.raises(DomainError):
        apply_Iz(m, 1j, UpperDiagonal(np.array([1j, 1j])))  # wrong length
    with pytest.raises(DomainError):
        # Im(D/z) < 0 for z = 1 + i, D = 5 + 0.1i
        apply_Iz(m, 1 + 1j, UpperDiagonal(np.full(3, 5.0 + 0.1j)))


def test_nonconvergence_raises():
    m = mp_model(20, 40)
    with pytest.raises(NonConvergenceError) as exc:
        solve_lambda(m, 2.0 + 1e-6j, SolverOptions(tol_ds=1e-14, max_iter=3))
    assert exc.value.iterations == 3
    assert exc.value.last_residual > 0


def test_contraction_factor_below_one(rng):
    m = random_model(5, 8, rng)
    z = 1.0 + 0.5j
    res = solve_lambda(m, z)
    other = UpperDiagonal(res.lam.values + 0.3j)
    rho = contraction_factor(m, z, res.lam, other)
    assert 0.0 <= rho < 1.0


def test_map_contracts_in_ds(rng):
    # 200 random (model, z, pair) cases: d_s(I(D), I(D')) <= rho * d_s(D, D')
    from covspectra import d_s

    for trial in range(20):
        m = random_model(4, 6, rng)
        for _ in range(10):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 2.0))
            base = solve_lambda(m, z).lam.values
            D = UpperDiagonal(base * rng.uniform(0.5, 2.0))
            Dp = UpperDiagonal(base * rng.uniform(0.5, 2.0))
            rho = contraction_factor(m, z, D, Dp)
            lhs = d_s(apply_Iz(m, z, D), apply_Iz(m, z, Dp))
            assert lhs <= rho * d_s(D, Dp) * (1.0 + 1e-9)


def test_q_tilde_identity_oracle():
    # [DERIVED] all Sigma = I, L = 2*ones(n): Q = (1 - 1/2)^{-1} I = 2I
    m = mp_model(3, 4)
    L = UpperDiagonal(np.full(4, 2.0 + 1e-12j))
    np.testing.assert_allclose(q_tilde(m, L), 2.0 * np.eye(3), atol=1e-9)


def explicit_q(m: EnsembleModel, lam: np.ndarray) -> np.ndarray:
    """Oracle: the inverse of the explicitly summed p x p factor."""
    factor = np.eye(m.p) - sum(m.realize_sigma(i) / lam[i] for i in range(m.n)) / m.n
    return np.linalg.inv(factor)


def assert_q_tilde_oracle(m: EnsembleModel, rng: np.random.Generator) -> None:
    for _ in range(10):
        L = UpperDiagonal(rng.standard_normal(m.n) + 1j * rng.uniform(0.1, 2.0, m.n))
        want = explicit_q(m, L.values)
        np.testing.assert_allclose(q_tilde(m, L), want, rtol=1e-13, atol=1e-13)


def test_q_tilde_diagonal_model_oracle(rng):
    cols = [Column(Diagonal(rng.uniform(0.2, 3.0, 5))) for _ in range(4)]
    cols += [Column(ScaledIdentity(1.5), mean=np.zeros(5))] * 3
    m = EnsembleModel(5, 7, cols)
    assert m.is_diagonal_plus_low_rank and m._V.shape[1] == 0
    assert_q_tilde_oracle(m, rng)


def test_q_tilde_woodbury_oracle(rng):
    p = 6
    mu, nu, u, u2 = (rng.standard_normal(p) / np.sqrt(p) for _ in range(4))
    cols = [
        Column(Diagonal(rng.uniform(0.2, 3.0, p)), mean=mu),
        Column(ScaledIdentity(1.5), mean=mu.copy()),  # repeated mean, own class
        Column(ScaledIdentity(0.7), mean=nu),  # distinct mean
        Column(LowRankPlusIdentity(u, 0.5)),
        Column(LowRankPlusIdentity(u2, 1.2)),
        Column(Diagonal(rng.uniform(0.2, 3.0, p)), mean=np.zeros(p)),
        Column(ScaledIdentity(2.0)),
    ]
    m = EnsembleModel(p, 7, cols)
    # one vector per class: mu under two covariances is stored twice
    assert m.is_diagonal_plus_low_rank and m._V.shape[1] == 5
    assert_q_tilde_oracle(m, rng)


def test_solve_lambda_woodbury_fixed_point():
    # Figure-2 shape: 4 classes over 40 columns; residual of the solution
    # under the map evaluated with the explicit p x p inverse
    m = mixture_model(40, 40, 4)
    for z in (0.5 + 0.05j, 3.0 + 0.01j, 12.0 + 1.0j):
        lam = solve_lambda(m, z).lam.values
        Q = explicit_q(m, lam)
        mapped = z - np.array([np.trace(m.realize_sigma(i) @ Q) for i in range(40)]) / 40
        assert np.max(np.abs(mapped - lam)) <= 1e-10 * np.max(np.abs(lam))


def test_q_tilde_singular_factor_raises():
    # [DERIVED] Sigma = I + e1 e1^T, L = 2 (Im L underflows in 1/L): the
    # factor diag(1 - 2/L, 1 - 1/L) is singular, and so is Woodbury's 1x1 system
    m = EnsembleModel(2, 1, [Column(ScaledIdentity(1.0), mean=np.array([1.0, 0.0]))])
    with pytest.raises(DomainError, match="singular"):
        q_tilde(m, UpperDiagonal(np.array([2.0 + 5e-324j])))


def test_continuation_matches_cold(rng):
    m = random_model(5, 8, rng)
    zs = np.linspace(0.5, 3.0, 7) + 0.05j
    chained = continuation_solve(m, zs)
    for z, r in zip(zs, chained):
        cold = solve_lambda(m, complex(z))
        assert np.max(np.abs(r.lam.values - cold.lam.values)) < 1e-8


def test_psi_matrix_scalar_oracle():
    # [DERIVED] p = n = 1, Sigma = s: Psi = (s Q)^2 / D^2 with Q = 1/(1 - s/D)
    s = 2.0
    m = EnsembleModel(1, 1, [Column(ScaledIdentity(s))])
    D = UpperDiagonal(np.array([1.0 + 3.0j]))
    Q = 1.0 / (1.0 - s / D.values[0])
    want = (s * Q) ** 2 / D.values[0] ** 2
    got = psi_matrix(m, D, D)[0, 0]
    assert abs(got - want) < 1e-12


def test_psi_matrix_class_oracle(rng):
    # each structured column three times, shuffled: 8 classes over 24 columns
    base = structured_model(5, 8, rng)
    order = rng.permutation(np.repeat(np.arange(8), 3))
    m = EnsembleModel(5, 24, [base.columns[i] for i in order])
    assert m._diag.shape[0] == 8
    n = m.n
    sigmas = [m.realize_sigma(i) for i in range(n)]
    for _ in range(3):
        D, Dp = (UpperDiagonal(rng.standard_normal(n) + 1j * rng.uniform(0.5, 2.0, n))
                 for _ in range(2))
        Q, Qp = explicit_q(m, D.values), explicit_q(m, Dp.values)
        want = np.array([[np.trace(sigmas[i] @ Q @ sigmas[j] @ Qp) for j in range(n)]
                         for i in range(n)]) / (n * n * D.values * Dp.values)
        np.testing.assert_allclose(psi_matrix(m, D, Dp), want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


def test_psi_matrix_one_product_pair_per_class(monkeypatch):
    m = mp_model(6, 12)
    calls = []
    realize = EnsembleModel.realize_sigma
    monkeypatch.setattr(EnsembleModel, "realize_sigma",
                        lambda self, i: calls.append(i) or realize(self, i))
    lam = solve_lambda(m, 1.0 + 0.5j).lam
    psi = psi_matrix(m, lam, lam)
    assert calls == [0]
    np.testing.assert_allclose(psi, psi[0, 0], rtol=1e-14)


def test_psi_norm_below_one_at_fixed_point(rng):
    m = random_model(5, 8, rng)
    for z in (1.0 + 0.5j, -1.0 + 1.0j):
        lam = solve_lambda(m, z).lam
        psi = psi_matrix(m, lam, lam)
        assert np.linalg.norm(psi, 2) < 1.0


def test_lambda_derivative_matches_finite_difference(rng):
    m = random_model(5, 8, rng)
    z = 1.2 + 0.7j
    opts = SolverOptions(tol_ds=1e-13)
    lam = solve_lambda(m, z, opts).lam
    deriv = lambda_derivative(m, z, lam)
    h = 1e-6
    lp = solve_lambda(m, z + h, opts, warm=lam).lam.values
    lm = solve_lambda(m, z - h, opts, warm=lam).lam.values
    fd = (lp - lm) / (2.0 * h)
    assert np.max(np.abs(deriv - fd)) < 1e-5 * max(1.0, np.max(np.abs(fd)))
