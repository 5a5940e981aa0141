import warnings

import numpy as np
import pytest

from conftest import (
    mixture_columns,
    mixture_model,
    mp_model,
    mp_stieltjes,
    random_model,
    sigma_oracle,
    structured_columns,
    structured_model,
)

from covspectra import (
    Column,
    ContourSpec,
    Dense,
    Diagonal,
    DomainError,
    EnsembleModel,
    NonConvergenceError,
    QveProblem,
    RotatedFamily,
    ScaledIdentity,
    SolverOptions,
    UpperDiagonal,
    apply_Iz,
    contraction_factor,
    continuation_solve,
    contour_solves,
    density_grid,
    lambda_derivative,
    psi_matrix,
    r_tilde,
    random_orthogonal,
    solve_lambda,
    solve_qve,
    stieltjes_g,
)
from covspectra import fixedpoint
from covspectra import model as model_module
from covspectra.fixedpoint import _anderson_coefficients, _contract
from covspectra.model import _per_batch
from covspectra.semimetric import _in_domain


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


@pytest.mark.parametrize("z", [complex(np.nan, 1.0), complex(np.inf, 1.0),
                               complex(1.0, np.inf), complex(np.nan, np.nan)])
def test_rejects_non_finite_z(monkeypatch, z):
    # before any map evaluation: a non-finite z used to run one iteration
    # with RuntimeWarnings and fail with a residual of nan
    monkeypatch.setattr(EnsembleModel, "class_traces",
                        lambda *a: pytest.fail("map evaluated at a non-finite z"))
    m = mp_model(4, 8)
    with pytest.raises(DomainError, match="finite"):
        solve_lambda(m, z)
    with pytest.raises(DomainError, match="finite"):
        continuation_solve(m, [1.0 + 1.0j, z, 2.0 + 1.0j])


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


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_contraction_factor_rejects_wrong_length(rng, dense):
    m = random_model(4, 6, rng) if dense else mp_model(4, 6)
    assert bool(m._dense_rows.size) == dense
    z = 1.0 + 0.5j
    L = solve_lambda(m, z).lam
    short = UpperDiagonal(L.values[:-1])
    for args in ((L, short), (short, L)):
        with pytest.raises(DomainError, match="diagonal length 5 != n=6"):
            contraction_factor(m, z, *args)


def repeated_structured_columns(rng) -> list[Column]:
    """structured_model's 8 columns three times each, shuffled."""
    base = structured_columns(5, 8, rng)
    order = rng.permutation(np.repeat(np.arange(8), 3))
    return [base[i] for i in order]


@pytest.mark.parametrize("build", [
    lambda rng: (6, [Column(ScaledIdentity(1.0))] * 12),
    lambda rng: (20, mixture_columns(20, 40, 4)),
    lambda rng: (5, repeated_structured_columns(rng)),
], ids=["mp", "mixture", "structured-repeated"])
def test_class_sum_kernel_on_l_varying_within_class(rng, build):
    from covspectra import d_s

    p, cols = build(rng)
    m = EnsembleModel(p, len(cols), cols, mean_norm_bound=1e9)
    assert m._class_size.size < m.n
    opts = SolverOptions()
    sigmas = sigma_oracle(cols, p)
    for z in (1.0 + 0.5j, 3.0 + 0.05j):
        cold = solve_lambda(m, z, opts).lam
        # a positive scale per column keeps Im L > 0 and Im(L/z) > 0
        L = UpperDiagonal(cold.values * rng.uniform(0.5, 2.0, m.n))
        Q = explicit_q(sigmas, L.values)
        want = z - np.array([np.trace(s @ Q) for s in sigmas]) / m.n
        np.testing.assert_allclose(apply_Iz(m, z, L).values, want, rtol=1e-13)
        warm = solve_lambda(m, z, opts, warm=L).lam
        assert d_s(warm, cold) < 10 * opts.tol_ds


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
    # [DERIVED] all Sigma = I, L = 2*ones(n): Q = (1 - 1/2)^{-1} I = 2I, read
    # as -z R(z) at any z
    m = mp_model(3, 4)
    L = UpperDiagonal(np.full(4, 2.0 + 1e-12j))
    z = 0.5 + 1.0j
    np.testing.assert_allclose(-z * r_tilde(m, z, L), 2.0 * np.eye(3), atol=1e-9)


def explicit_q(sigmas: list[np.ndarray], lam: np.ndarray) -> np.ndarray:
    """Oracle: the inverse of the explicitly summed p x p factor, from the
    columns' Sigma_i."""
    factor = np.eye(len(sigmas[0])) - sum(s / li for s, li in zip(sigmas, lam)) / len(sigmas)
    return np.linalg.inv(factor)


def assert_q_tilde_oracle(m: EnsembleModel, cols: list[Column],
                          rng: np.random.Generator) -> None:
    """Q = -z R(z) against explicit_q, at z = 0.5 + 1j."""
    sigmas, z = sigma_oracle(cols, m.p), 0.5 + 1.0j
    for _ in range(10):
        L = UpperDiagonal(rng.standard_normal(m.n) + 1j * rng.uniform(0.1, 2.0, m.n))
        want = explicit_q(sigmas, L.values)
        np.testing.assert_allclose(-z * r_tilde(m, z, L), want, rtol=1e-13, atol=1e-13)


def test_q_tilde_diagonal_model_oracle(rng):
    cols = [Column(Diagonal(rng.uniform(0.2, 3.0, 5))) for _ in range(4)]
    cols += [Column(ScaledIdentity(1.5), mean=np.zeros(5))] * 3
    m = EnsembleModel(5, 7, cols)
    assert not m._dense_rows.size and m._V.shape[1] == 0
    assert_q_tilde_oracle(m, cols, rng)


def test_q_tilde_woodbury_oracle(rng):
    p = 6
    mu, nu, u, u2 = (rng.standard_normal(p) / np.sqrt(p) for _ in range(4))
    cols = [
        Column(Diagonal(rng.uniform(0.2, 3.0, p)), mean=mu),
        Column(ScaledIdentity(1.5), mean=mu.copy()),  # repeated mean, own class
        Column(ScaledIdentity(0.7), mean=nu),  # distinct mean
        Column(ScaledIdentity(0.5), mean=u),
        Column(ScaledIdentity(1.2), mean=u2),
        Column(Diagonal(rng.uniform(0.2, 3.0, p)), mean=np.zeros(p)),
        Column(ScaledIdentity(2.0)),
    ]
    m = EnsembleModel(p, 7, cols)
    # one vector per class: mu under two covariances is stored twice
    assert not m._dense_rows.size and m._V.shape[1] == 5
    assert_q_tilde_oracle(m, cols, rng)


def test_solve_lambda_woodbury_fixed_point():
    # Figure-2 shape: 4 classes over 40 columns; residual of the solution
    # under the map evaluated with the explicit p x p inverse
    m, sigmas = mixture_model(40, 40, 4), sigma_oracle(mixture_columns(40, 40, 4), 40)
    for z in (0.5 + 0.05j, 3.0 + 0.01j, 12.0 + 1.0j):
        lam = solve_lambda(m, z).lam.values
        Q = explicit_q(sigmas, lam)
        mapped = z - np.array([np.trace(s @ Q) for s in sigmas]) / 40
        assert np.max(np.abs(mapped - lam)) <= 1e-10 * np.max(np.abs(lam))


def test_q_tilde_singular_factor_raises():
    # [DERIVED] Sigma = I + e1 e1^T, L = 2 (Im L underflows in 1/L): the
    # factor diag(1 - 2/L, 1 - 1/L) is singular, and so is Woodbury's 1x1 system
    m = EnsembleModel(2, 1, [Column(ScaledIdentity(1.0), mean=np.array([1.0, 0.0]))])
    with pytest.raises(DomainError, match="singular"):
        r_tilde(m, 1j, UpperDiagonal(np.array([2.0 + 5e-324j])))


def assert_inverting_calls_raise(m: EnsembleModel, L: UpperDiagonal) -> None:
    """r_tilde, psi_matrix and lambda_derivative at L each raise the
    DomainError of a singular resolvent factor, with warnings as errors."""
    calls = (lambda: r_tilde(m, 1j, L), lambda: psi_matrix(m, L, L),
             lambda: lambda_derivative(m, 1j, L))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(DomainError, match="singular resolvent factor"):
                call()


def test_singular_diagonal_factor_raises():
    # [DERIVED] Sigma = I with no mean, L = 1 + 5e-324i: the factor's
    # diagonal 1 - 1/L has modulus 5e-324, whose inverse overflows; a
    # DomainError, not a warning and NaN, from every entry point that inverts it
    m = EnsembleModel(2, 1, [Column(ScaledIdentity(1.0))])
    assert_inverting_calls_raise(m, UpperDiagonal(np.array([1.0 + 5e-324j])))


def test_dense_near_singular_factor_raises():
    # the same factor 5e-324i I from a Dense identity: the stacked LU finds
    # a nonzero pivot, so numpy raises nothing, and its inverse overflows to
    # NaN; the model's one rule turns that into the DomainError
    m = EnsembleModel(2, 1, [Column(Dense(np.eye(2)))])
    assert m._dense_rows.size
    assert_inverting_calls_raise(m, UpperDiagonal(np.array([1.0 + 5e-324j])))


def test_continuation_matches_cold(rng):
    m = random_model(5, 8, rng)
    zs = np.linspace(0.5, 3.0, 7) + 0.05j
    chained = continuation_solve(m, zs)
    for z, r in zip(zs, chained):
        cold = solve_lambda(m, complex(z))
        assert np.max(np.abs(r.lam.values - cold.lam.values)) < 1e-8


def record_levels(monkeypatch, *models: EnsembleModel) -> list[list[int]]:
    """The path indices of the nodes of each batched _contract on one of
    models, in order: a continuation's first is its level 0, the nodes solved
    from cold starts.  The solves of a model's mean field, which start those
    nodes, are not recorded."""
    calls = []
    stage = fixedpoint._stage

    def recording(model, *a, labels=None, **k):
        if any(model is m for m in models):
            calls.append(None if labels is None else labels.tolist())
        return stage(model, *a, labels=labels, **k)

    monkeypatch.setattr(fixedpoint, "_stage", recording)
    return calls


@pytest.mark.parametrize("kind", ["woodbury", "dense"])
def test_lockstep_continuation_matches_cold(rng, kind, monkeypatch):
    # 23 nodes, ceil(sqrt(23)) = 5 within one batch: level 0 solves nodes 0,
    # 8, 16 and 22 from cold starts, and three levels of halving the rest
    # from interpolants
    cols = structured_columns(6, 18, rng)
    if kind == "woodbury":
        cols = [c for c in cols if isinstance(c.cov, (Diagonal, ScaledIdentity))]
    m = EnsembleModel(6, len(cols), cols)
    assert (not m._dense_rows.size) == (kind == "woodbury")
    zs = np.linspace(-0.5, 4.0, 23) + 0.05j
    levels = record_levels(monkeypatch, m)
    chained = continuation_solve(m, zs)
    assert levels == [[0, 8, 16, 22], [4, 12, 20], [2, 6, 10, 14, 18],
                      [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21]]
    for z, r in zip(zs, chained):
        cold = solve_lambda(m, complex(z))
        assert len(r.lam) == m.n
        assert np.max(np.abs(r.lam.values - cold.lam.values)) < 1e-8


@pytest.mark.parametrize("build", [lambda: dense_model(10, 20, seed=3),
                                   lambda: mixture_model(12, 30, 3)], ids=["dense", "woodbury"])
def test_results_expand_class_values_once(build):
    # lam is the k class values expanded through the model's column_class, bit
    # for bit, built on first read and kept
    m = build()
    assert m._class_size.size < m.n
    results = [solve_lambda(m, 1.0 + 0.1j),
               *continuation_solve(m, np.linspace(0.5, 3.0, 5) + 0.1j)]
    for res in results:
        assert res.class_values.shape == m._class_size.shape
        assert res.column_class is m.column_class
        assert res.lam is res.lam
        np.testing.assert_array_equal(res.lam.values, res.class_values[m.column_class])


def assert_matches_cold(m: EnsembleModel, zs: np.ndarray) -> None:
    """continuation_solve along zs agrees with a cold solve_lambda at every
    node to 1e-11 relative."""
    for z, r in zip(zs, continuation_solve(m, zs)):
        cold = solve_lambda(m, complex(z)).lam.values
        assert np.max(np.abs(r.lam.values - cold)) < 1e-11 * np.max(np.abs(cold))


@pytest.mark.parametrize("path", ["rotated-grid", "woodbury-grid", "contour", "repeated"])
def test_predicted_starts_match_cold(rng, path):
    # 40, 32 or 30 nodes, 7, 6 or 6 of them from cold starts, so most nodes
    # start from the cubic through four solved nodes around them; the
    # contour's interpolants span its corners, and on a path that repeats its
    # nodes coincident nodes leave no interpolant
    if path == "rotated-grid":
        P = random_orthogonal(10, seed=3)
        base = np.r_[[4.0] * 3, [1.0] * 7]
        m = EnsembleModel(10, 20, [Column(RotatedFamily(base, P, i)) for i in range(20)])
        zs = np.linspace(0.01, 8.0, 40) + 1e-2j
    elif path == "woodbury-grid":
        cols = [c for c in structured_columns(6, 18, rng)
                if isinstance(c.cov, (Diagonal, ScaledIdentity))]
        m = EnsembleModel(6, len(cols), cols)
        assert not m._dense_rows.size
        zs = np.linspace(-0.5, 4.0, 40) + 1e-2j
    elif path == "contour":
        m = structured_model(6, 18, rng)
        zs = ContourSpec(0.05, 5.0, 0.5, 16).upper_nodes()[0]
    else:
        m = mp_model(10, 20)
        zs = np.repeat(np.linspace(0.5, 3.0, 10), 3) + 0.05j
    assert_matches_cold(m, zs)


def test_extrapolated_start_outside_domain_falls_back(monkeypatch):
    # a zigzag between 1.9 + 0.5i and 0.1 + 1e-3i, inside the Marchenko-Pastur
    # bulk: the interpolants through solved nodes, two of them at one z, fall
    # out of the domain, and the nearest solved node takes their place
    outside = []

    def recording(zp, xp, z):
        x = extrapolate(zp, xp, z)
        outside.append(~_in_domain(fixedpoint._lift(x, z), z, axis=1))
        return x

    extrapolate = fixedpoint._extrapolate
    monkeypatch.setattr(fixedpoint, "_extrapolate", recording)
    j = np.arange(30)
    zs = 1.0 + 0.9 * (-1.0) ** j + 1j * np.where(j % 2, 1e-3, 0.5)
    assert_matches_cold(mp_model(20, 40), zs)
    assert np.concatenate(outside).any()


def test_predicted_starts_save_iterations():
    # 60 nodes on 0.01..4 + 1e-3i.  Under Anderson steps: 661 iterations in
    # all when every warm node started from its predecessor, 518 from the
    # three-point extrapolation of lockstep chains.  Under the Newton steps
    # that this one-class model now takes: 344, 293, and 274 from the
    # four-point interpolants of coarse-to-fine levels
    zs = np.linspace(0.01, 4.0, 60) + 1e-3j
    assert sum(r.iterations for r in continuation_solve(mp_model(20, 40), zs)) < 590


def test_chains_capped_by_dense_temporaries(monkeypatch):
    # level 0, one batch of cold starts, spaces its nodes by the power of two
    # at or above (m - 1) / min(ceil(sqrt(m)), batch).  201 nodes:
    # ceil(sqrt(201)) = 15, every 16th node and the last, 14 cold nodes; a
    # dense p = 80 class caps the batch at 4 MiB / (5 complex 80 x 80 arrays)
    # = 8, every 32nd node and the last, 8 cold nodes.  1, 4 and 5 nodes: 1,
    # 3 and 3 cold nodes
    diag = EnsembleModel(80, 160, [Column(Diagonal(np.ones(80)))] * 160)
    dense = EnsembleModel(80, 160, [Column(Dense(np.eye(80)))] * 160)
    levels = record_levels(monkeypatch, diag, dense)
    cold = []
    for m, size in ((diag, 201), (dense, 201), (diag, 1), (diag, 4), (diag, 5)):
        levels.clear()
        continuation_solve(m, np.linspace(0.5, 3.0, size) + 1j)
        cold.append(levels[0])
    assert cold == [[*range(0, 200, 16), 200], [*range(0, 200, 32), 200], [0], [0, 2, 3],
                    [0, 2, 4]]


def test_dense_batches_stay_within_the_budget(monkeypatch):
    # a budget shrunk to three 10 x 10 rows' temporaries: level 0 solves
    # three nodes from cold starts, every batched _contract of a dense model's
    # path takes at most three rows, each of the 30 nodes in one of them, and
    # the answers match cold solves
    m = dense_model(10, 20, seed=3)
    monkeypatch.setattr(model_module, "_CHAIN_BYTES", 3 * 5 * 16 * 10 * 10)
    assert m._rows_within_budget() == 3
    batches = record_levels(monkeypatch, m)
    zs = np.linspace(0.01, 4.0, 30) + 1e-2j
    results = continuation_solve(m, zs)
    rows = [len(b) for b in batches]
    assert batches[0] == [0, 16, 29] and max(rows) == 3 and sum(rows) == 30
    for z, r in zip(zs, results):
        cold = solve_lambda(m, complex(z)).lam.values
        assert np.max(np.abs(r.lam.values - cold)) < 1e-11 * np.max(np.abs(cold))


@pytest.mark.parametrize("hard", [0, 4, 7, 9])
def test_continuation_error_names_path_index(hard):
    # 10 nodes: level 0 solves 0, 4, 8 and 9, then 2 and 6, then the odd
    # ones; Picard at 1 + 1e-7i, inside the Marchenko-Pastur bulk, needs far
    # more than 200 steps, and every other node fewer than 30
    zs = np.linspace(0.5, 3.0, 10) + 1.0j
    zs[hard] = 1.0 + 1e-7j
    with pytest.raises(NonConvergenceError) as exc:
        continuation_solve(mp_model(20, 40), zs, SolverOptions(max_iter=200, acceleration="none"))
    assert exc.value.index == hard
    assert exc.value.iterations == 200


def test_contract_stops_at_roundoff_floor():
    # iterates that jitter by 4 ulps around c = 1e3 + 1e-3i never get closer
    # than 4 eps |c| / Im c = 8.9e-10 in d_s, far above tol_ds = 1e-12 but
    # below the floor 16 eps |c| / Im c = 3.6e-9; a second row converges
    # exactly, so the rows stop apart
    c = np.array([1e3 + 1e-3j, 2.0 + 1.0j])
    eps = np.finfo(float).eps
    jitter = iter(np.tile([2 * eps, -2 * eps], 50))

    def step(x, rows):
        return np.array([c[0] * (1 + next(jitter)), c[1]])[rows, None]

    x, its, res, _ = _contract(step, c[:, None] * 1.5, SolverOptions(max_iter=100),
                               lambda x, rows: np.ones(len(rows), bool))
    assert list(its) == [2, 2]
    assert 1e-12 < res[0] < 16 * eps * abs(c[0]) / c[0].imag
    np.testing.assert_allclose(x[:, 0], c, rtol=1e-14)


def normal_equations(dF: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrices dF^H dF and right sides dF^H f of a stack of
    histories dF (m, d, h) and steps f (m, d)."""
    dFh = dF.conj().transpose(0, 2, 1)
    return dFh @ dF, dFh @ f[:, :, None]


def complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("d, h", [(8, 5), (12, 3), (40, 5)])
def test_anderson_coefficients_match_lstsq(rng, d, h):
    # full-rank histories: the ridge moves gamma by about 1e-13 cond(dF)^2
    dF, f = complex_normal(rng, 4, d, h), complex_normal(rng, 4, d)
    gamma = _anderson_coefficients(*normal_equations(dF, f))[:, :, 0]
    for r in range(4):
        want = np.linalg.lstsq(dF[r], f[r], rcond=None)[0]
        assert np.max(np.abs(gamma[r] - want)) < 1e-9 * np.max(np.abs(want))


def test_anderson_candidate_on_rank_one_history_is_min_norm(rng):
    # d = 1: every history of h > 1 differences has rank 1, so G is singular
    # without the ridge; the candidate gx - dG gamma is lstsq's min-norm one.
    # The histories are a scalar affine map's, g(x) = a x + b, so dG = a dX
    # and dF = (a - 1) dX lie along each other: gamma's component outside
    # dF's row space is roundoff amplified by 1/_RIDGE, and dG drops it
    a, dX = complex_normal(rng, 3, 1, 1), complex_normal(rng, 3, 1, 5)
    dF, dG = (a - 1.0) * dX, a * dX
    f, gx = complex_normal(rng, 3, 1), complex_normal(rng, 3, 1)
    candidate = gx - (dG @ _anderson_coefficients(*normal_equations(dF, f)))[:, :, 0]
    for r in range(3):
        want = gx[r] - dG[r] @ np.linalg.lstsq(dF[r], f[r], rcond=None)[0]
        assert np.max(np.abs(candidate[r] - want)) < 1e-9 * np.max(np.abs(want))


def test_anderson_zero_history_takes_picard_step(rng):
    # an all-zero history gets gamma = 0, its Picard step, and leaves the
    # other rows of the stack as they are
    dF, f = complex_normal(rng, 3, 6, 4), complex_normal(rng, 3, 6)
    dF[1] = 0.0
    G, b = normal_equations(dF, f)
    with np.errstate(all="raise"):
        gamma = _anderson_coefficients(G, b)
    assert np.all(gamma[1] == 0.0)
    np.testing.assert_array_equal(gamma[[0, 2]], _anderson_coefficients(G[[0, 2]], b[[0, 2]]))


def test_contract_matches_lstsq_anderson(rng):
    # three affine contractions side by side, row 1 constant, so it leaves
    # before the first Anderson step; the others run past the window, and
    # every iterate matches a per-row Anderson step taken with lstsq
    d, steps = 12, 9
    A = complex_normal(rng, 3, d, d)
    A *= 0.2 / np.linalg.norm(A, 2, axis=(1, 2))[:, None, None]
    A[1] = 0.0
    c = rng.uniform(-1.0, 1.0, (3, d)) + 10j
    seen = [[] for _ in range(3)]

    def step(x, rows):
        for r, v in zip(rows, x):
            seen[r].append(v)
        return (A[rows] @ x[:, :, None])[:, :, 0] + c[rows]

    with pytest.raises(NonConvergenceError):
        _contract(step, c + 1j, SolverOptions(tol_ds=1e-300, max_iter=steps),
                  lambda x, rows: np.ones(len(rows), bool))
    assert [len(xs) for xs in seen] == [steps, 2, steps]
    for r in (0, 2):
        x, dG, dF, g_prev = c[r] + 1j, [], [], None
        for k in range(steps):
            np.testing.assert_allclose(seen[r][k], x, rtol=1e-9)
            gx = A[r] @ x + c[r]
            if g_prev is not None:
                dG, dF = (dG + [gx - g_prev])[-5:], (dF + [gx - x - f_prev])[-5:]
                x_next = gx - np.array(dG).T @ np.linalg.lstsq(
                    np.array(dF).T, gx - x, rcond=None)[0]
            else:
                x_next = gx
            g_prev, f_prev, x = gx, gx - x, x_next


def test_contract_makes_one_solve_per_accelerated_iteration(monkeypatch):
    # iterations 2 .. K - 1 each take one stacked solve, whatever rows are
    # left; iteration 1 has no history, and at K every row has stopped
    for name in ("lstsq", "qr", "svd"):
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _name=name, **k: pytest.fail(f"np.linalg.{_name}"))
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a, **k: calls.append(1) or solve(*a, **k))
    # mean vectors: Anderson steps, as on every model but few diagonal classes
    res = solve_lambda(mixture_model(10, 20, 3), 1.0 + 0.05j)
    assert len(calls) == res.iterations - 2
    # a QVE at four z's, rows stopping apart
    S = np.abs(np.subtract.outer(np.arange(30), np.arange(30))) <= 3
    S = S / 7.0 + 0j
    z = np.array([[-1.5], [0.0], [0.5], [1.8]]) + 1e-2j
    calls.clear()
    _, its, *_ = _contract(lambda x, rows: z[rows] - (1.0 / x) @ S.T,
                           np.repeat(z, 30, axis=1), SolverOptions(),
                           lambda x, rows: (x.imag > 0.0).all(axis=1))
    assert len(set(its)) > 1
    assert len(calls) == its.max() - 2


def test_newton_makes_one_solve_per_iteration(monkeypatch):
    # a diagonal model of one class takes Newton steps: iterations 1 .. K - 1
    # each take one stacked solve of I - Psi, and at K the row has stopped
    for name in ("lstsq", "qr", "svd"):
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _name=name, **k: pytest.fail(f"np.linalg.{_name}"))
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a, **k: calls.append(a[1].shape) or solve(*a, **k))
    res = solve_lambda(mp_model(10, 20), 1.0 + 0.05j)
    assert calls == [(1, 1, 1)] * (res.iterations - 1)


def count_contracts(monkeypatch) -> list:
    """The outputs of every fixedpoint._contract call from here on."""
    calls = []
    contract = fixedpoint._contract
    monkeypatch.setattr(fixedpoint, "_contract",
                        lambda *a, **k: calls.append(contract(*a, **k)) or calls[-1])
    return calls


def figure1_left() -> EnsembleModel:
    base = np.r_[[8.0] * 20, [1.0] * 60]
    return EnsembleModel(80, 160, [Column(Diagonal(base))] * 160)


def test_figure1_density_grid_iterations(monkeypatch):
    # Figure-1 left, d = k = 1.  Under Anderson steps: 2,209 row iterations
    # with lstsq's min-norm step, 2,208 with the ridge; without the ridge every
    # history of two or more differences makes the solve singular, and
    # Picard steps there took 8,199.  Under Newton steps: 1,411 in 20 lockstep
    # chains, 1,280 in 6 coarse-to-fine levels, and 1,284 with the floor from
    # |x - z|.  A batched evaluation serves every row of a _contract at once,
    # so a call costs its largest iteration count: 135 in all for the chains,
    # 54 for the levels and 55 with that floor, each level one call
    total = count_contracts(monkeypatch)
    density_grid(figure1_left(), 0.01, 16.0, 400, y=1e-3)
    assert sum(int(out[1].sum()) for out in total) <= 2320
    assert sum(int(out[1].sum()) for out in total) <= 1550
    assert sum(int(out[1].max()) for out in total) <= 60
    assert len(total) == 6


def test_figure1_right_grid_iterations(monkeypatch):
    # the dense path's work without a clock: Figure-1 right, 160 distinct
    # rotations of one diagonal (p = 80), on the 120-node grid at y = 1e-3.
    # Its row iterations, mean-field stages included, are 755, and its
    # batched evaluations (each call's largest iteration count) 153
    P = random_orthogonal(80, 314)
    base = np.r_[[8.0] * 20, [1.0] * 60]
    m = EnsembleModel(80, 160, [Column(RotatedFamily(base, P, i)) for i in range(160)])
    calls = count_contracts(monkeypatch)
    density_grid(m, 1e-12, 10.0, 120, y=1e-3, opts=SolverOptions(max_iter=500))
    assert sum(int(out[1].sum()) for out in calls) <= 830
    assert sum(int(out[1].max()) for out in calls) <= 168


def test_figure2_contour_iterations(monkeypatch):
    # the Woodbury path's work without a clock: Figure 2's ten mean vectors of
    # twenty columns each (p = n = 200) on its 32-node contour, 785 row
    # iterations and 96 batched evaluations
    U = np.random.Generator(np.random.Philox(key=[7, 0])).standard_normal((200, 10))
    m = EnsembleModel(200, 200, [Column(ScaledIdentity(1.0), mean=U[:, i % 10])
                                 for i in range(200)], mean_norm_bound=1e9)
    calls = count_contracts(monkeypatch)
    contour_solves(m, ContourSpec(6.0, 45.0, 0.5, 32))
    assert sum(int(out[1].sum()) for out in calls) <= 864
    assert sum(int(out[1].max()) for out in calls) <= 106


def test_many_class_path_batches(monkeypatch):
    # 600 distinct diagonal columns (p = 60, k = 600, no dense class): a row
    # is charged its kernel arrays alone, so the 64-node grid is solved in a
    # few batched _contract calls, 4 calls and 54 batched evaluations; a row
    # charged a k x k Newton derivative besides took one node per call, 64
    # calls and 424 evaluations.  The answers are those of per-node solves
    d = np.random.Generator(np.random.Philox(key=11)).uniform(0.2, 3.0, (600, 60))
    m = EnsembleModel(60, 600, [Column(Diagonal(row)) for row in d])
    assert m._class_size.size == 600 and not m._dense_rows.size
    calls = count_contracts(monkeypatch)
    grid = density_grid(m, 0.05, 6.0, 64, y=1e-2)
    assert len(calls) <= 8
    assert sum(int(out[1].max()) for out in calls) <= 80
    want = np.array([stieltjes_g(m, z, solve_lambda(m, z).lam) for z in grid.xs + 1e-2j])
    np.testing.assert_allclose(grid.density, np.maximum(want.imag / np.pi, 0.0), rtol=0,
                               atol=1e-12 * max(1.0, np.abs(want).max()))


def diagonal_model(p: int, n: int, k: int, seed: int) -> EnsembleModel:
    """k seeded diagonal classes, column i in class i mod k."""
    d = np.random.Generator(np.random.Philox(key=seed)).uniform(0.2, 3.0, (k, p))
    specs = [Diagonal(row) for row in d]
    return EnsembleModel(p, n, [Column(specs[i % k]) for i in range(n)])


def dense_model(p: int, n: int, seed: int) -> EnsembleModel:
    """Two seeded dense classes, column i in class i mod 2."""
    B = np.random.Generator(np.random.Philox(key=seed)).standard_normal((2, p, p))
    specs = [Dense(b @ b.T / p + 0.1 * np.eye(p)) for b in B]
    return EnsembleModel(p, n, [Column(specs[i % 2]) for i in range(n)])


@pytest.mark.parametrize("name", ["mp-p<n", "mp-p>n", "figure1-left", "k=2", "k=3", "k=4"])
def test_newton_matches_picard(name):
    # the 1e-2 points lie in the bulk, the 1e-3 ones outside it, where a cold
    # Picard solve stays short; the fixed point is unique, so the steps taken
    # change iteration counts, not answers
    zs = [0.5 + 0.5j, 1.0 + 1e-2j, -0.5 + 1e-3j, 8.0 + 1e-3j]
    if name.startswith("mp"):
        m = mp_model(20, 40) if name == "mp-p<n" else mp_model(40, 20)
    elif name == "figure1-left":
        m = figure1_left()
        zs = [1.0 + 1e-2j, 5.0 + 1e-2j, 3.0 + 1e-3j, 20.0 + 1e-3j, -0.5 + 1e-3j]
    else:
        k = int(name[2:])
        m = diagonal_model(12, 24, k, seed=k)
        assert m.is_diagonal and m._class_size.size == k
    picard = SolverOptions(acceleration="none")
    for z in zs:
        want = solve_lambda(m, z, picard).lam.values
        got = solve_lambda(m, z).lam.values
        assert np.max(np.abs(got - want)) < 1e-11 * np.max(np.abs(want))
    for r, z in zip(continuation_solve(m, zs), zs):
        want = solve_lambda(m, z, picard).lam.values
        assert np.max(np.abs(r.lam.values - want)) < 1e-11 * np.max(np.abs(want))


def test_newton_on_zigzag_path_matches_picard():
    # the zigzag of test_extrapolated_start_outside_domain_falls_back has two
    # distinct nodes, 0.1 + 1e-3i in the bulk next to its lower edge and
    # 1.9 + 0.5i
    m = mp_model(20, 40)
    j = np.arange(30)
    zs = 1.0 + 0.9 * (-1.0) ** j + 1j * np.where(j % 2, 1e-3, 0.5)
    picard = SolverOptions(acceleration="none")
    want = {z: solve_lambda(m, z, picard).lam.values for z in zs[:2]}
    for z, r in zip(zs, continuation_solve(m, zs)):
        assert np.max(np.abs(r.lam.values - want[z])) < 1e-11 * np.max(np.abs(want[z]))


def test_newton_step_guards():
    # a constant map c with a made-up derivative Psi per row.  Row 0's first
    # Newton candidate x + (c - x)/(1 - 2) = 1 - 1i leaves the domain, so it
    # takes its Picard step c.  Row 1's candidates 2c - x alternate between
    # 1 + 5i and 1 + 1i: the first lowers its residual, the second raises
    # it, so its next step is Picard's
    c = 1.0 + 3.0j
    psi = np.array([2.0, 0.5])[:, None, None] + 0j
    seen = [[], []]

    def step(x, rows):
        for r, v in zip(rows, x[:, 0]):
            seen[r].append(v)
        return np.full_like(x, c), psi[rows]

    x, its, *_ = _contract(step, np.full((2, 1), 1.0 + 1.0j), SolverOptions(),
                           lambda x, rows: (x.imag > 0.0).all(axis=1), newton=True)
    assert seen == [[1 + 1j, c], [1 + 1j, 1 + 5j, 1 + 1j, c]]
    assert list(its) == [2, 4] and np.all(x == c)


def test_anderson_step_guards():
    # the rule of test_newton_step_guards on Anderson's candidate.  Row 1's
    # map x/2 + 1 + 2i is affine, so its first candidate, the secant step
    # from the map values 1.5 + 2.5i and 1.75 + 3.25i, is its fixed point
    # 2 + 4i, taken as its residual fell.  Row 0's map values are scripted:
    # 1 + 2i, then 1 + 8i from there on, so its residual rises from 0.71 to
    # 1.5 and its candidate 1 + 0.8i, in the domain, is refused for its
    # Picard step 1 + 8i
    scripted = iter([1 + 2j] + [1 + 8j] * 10)
    seen = [[], []]

    def step(x, rows):
        for r, v in zip(rows, x[:, 0]):
            seen[r].append(v)
        return np.array([[next(scripted)] if r == 0 else [x[i, 0] / 2 + 1 + 2j]
                         for i, r in enumerate(rows)])

    judged = []

    def in_domain(x, rows):
        judged.append(x[:, 0].copy())
        return (x.imag > 0.0).all(axis=1)

    x, its, *_ = _contract(step, np.full((2, 1), 1.0 + 1.0j), SolverOptions(), in_domain)
    np.testing.assert_allclose(judged[0], [1 + 0.8j, 2 + 4j], rtol=1e-12)
    assert seen[0] == [1 + 1j, 1 + 2j, 1 + 8j] and seen[1][:2] == [1 + 1j, 1.5 + 2.5j]
    assert list(its) == [3, 3] and x[0, 0] == 1 + 8j
    np.testing.assert_allclose([seen[1][2], x[1, 0]], 2 + 4j, rtol=1e-12)


def test_newton_singular_jacobian_takes_picard_step():
    # Psi = 1 makes I - Psi singular: every row takes its Picard step
    c = 1.0 + 3.0j
    seen = []

    def step(x, rows):
        seen.extend(x[:, 0])
        return np.full_like(x, c), np.ones((len(rows), 1, 1), dtype=complex)

    x, its, *_ = _contract(step, np.full((2, 1), 1.0 + 1.0j), SolverOptions(),
                           lambda x, rows: (x.imag > 0.0).all(axis=1), newton=True)
    assert seen == [1 + 1j, 1 + 1j, c, c] and list(its) == [2, 2]


def test_newton_jacobian_matches_finite_difference(rng):
    # Psi on class values is the derivative of the class map, which is
    # holomorphic in them: a central difference along each class value
    m = diagonal_model(7, 12, 3, seed=11)
    size, z, h = m._class_size, 1.3 + 0.2j, 1e-6
    x = rng.uniform(0.5, 2.0, (2, 3)) + 1j * rng.uniform(0.5, 2.0, (2, 3))
    t, pair = m.class_pair_traces(size / x)
    psi = fixedpoint._class_psi(m, x, pair)
    np.testing.assert_array_equal(t, m.class_traces(size / x))
    for c in range(3):
        e = h * np.eye(3)[c]
        fd = (fixedpoint._class_map(m, z, size / (x + e))
              - fixedpoint._class_map(m, z, size / (x - e))) / (2 * h)
        np.testing.assert_allclose(psi[:, :, c], fd, rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("name, path, single", [
    ("k=5", 268, 13), ("mixture", 308, 15), ("dense", 198, 8)])
def test_anderson_models_keep_their_iterations(name, path, single):
    # five diagonal classes are one more than _NEWTON_CLASSES, and mean
    # vectors or dense classes take Anderson steps at any k: the single
    # solves take the counts these models had before Newton steps existed,
    # and the path those of coarse-to-fine levels (303, 383 and 272 in
    # lockstep chains; 271 and 314 while an Anderson step was taken wherever
    # it stayed in the domain, the residual rising or not).  The dense
    # model's cold nodes start from its mean field's fixed point, where a
    # start from z takes 227 and 11
    m = {"k=5": lambda: diagonal_model(10, 20, 5, seed=5),
         "mixture": lambda: mixture_model(10, 20, 3),
         "dense": lambda: dense_model(10, 20, seed=3)}[name]()
    zs = np.linspace(0.01, 4.0, 30) + 1e-2j
    assert sum(r.iterations for r in continuation_solve(m, zs)) == path
    assert solve_lambda(m, 1.0 + 0.05j).iterations == single


def test_shared_dense_covariance_starts_at_its_mean_field():
    # every column shares one Dense Sigma, so the model is its mean field, the
    # Diagonal model of Sigma's eigenvalues, rotated: a cold solve starts at
    # the fixed point and stops within 3 iterations
    B = np.random.Generator(np.random.Philox(key=4)).standard_normal((12, 12))
    sigma = B @ B.T / 12 + 0.1 * np.eye(12)
    m = EnsembleModel(12, 30, [Column(Dense(sigma))] * 30)
    oracle = EnsembleModel(12, 30, [Column(Diagonal(np.linalg.eigvalsh(sigma)))] * 30)
    assert m._mean_field is m._mean_field and m._dense_rows.size
    for z in (1.0 + 0.05j, 0.2 + 1e-3j, 3.0 + 1e-2j, -1.0 + 0.5j):
        res = solve_lambda(m, z)
        want = solve_lambda(oracle, z).class_values
        assert res.iterations <= 3
        np.testing.assert_allclose(res.class_values, want, rtol=1e-11)


def test_mean_field_failure_starts_from_z(monkeypatch):
    # a mean-field solve that raises NonConvergenceError leaves its rows the
    # start from z: the counts and answers of that start, 227 row iterations
    # on the path and 11 for the single solve
    m = dense_model(10, 20, seed=3)
    zs = np.linspace(0.01, 4.0, 30) + 1e-2j
    want = [r.class_values for r in continuation_solve(m, zs)]
    stage = fixedpoint._stage

    def failing(model, *a, **k):
        if model is m._mean_field:
            raise NonConvergenceError(1, 1.0)
        return stage(model, *a, **k)

    monkeypatch.setattr(fixedpoint, "_stage", failing)
    results = continuation_solve(m, zs)
    assert sum(r.iterations for r in results) == 227
    assert solve_lambda(m, 1.0 + 0.05j).iterations == 11
    for r, w in zip(results, want):
        assert np.max(np.abs(r.class_values - w)) < 1e-11 * np.max(np.abs(w))


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
    cols = repeated_structured_columns(rng)
    m = EnsembleModel(5, 24, cols)
    assert m._diag.shape[0] == 8
    n = m.n
    sigmas = sigma_oracle(cols, 5)
    for _ in range(3):
        D, Dp = (UpperDiagonal(rng.standard_normal(n) + 1j * rng.uniform(0.5, 2.0, n))
                 for _ in range(2))
        Q, Qp = explicit_q(sigmas, D.values), explicit_q(sigmas, Dp.values)
        want = np.array([[np.trace(sigmas[i] @ Q @ sigmas[j] @ Qp) for j in range(n)]
                         for i in range(n)]) / (n * n * D.values * Dp.values)
        np.testing.assert_allclose(psi_matrix(m, D, Dp), want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


def chunked_model(rng: np.random.Generator) -> tuple[EnsembleModel, list[Column]]:
    """At p = 80, more dense classes than one chunk of Q Sigma_c Q' products
    holds, rotation counts shuffled, next to a diagonal and a mean class.
    The model and its columns."""
    p = 80
    b = _per_batch(5 * 16 * p * p)
    P = random_orthogonal(p, 5)
    base = rng.uniform(0.2, 3.0, p)
    B = rng.standard_normal((p, p))
    cols = [Column(RotatedFamily(base, P, int(k))) for k in rng.permutation(b + 3) + 1]
    cols += [cols[0], Column(Dense(B @ B.T / p + 0.1 * np.eye(p))),
             Column(Diagonal(base)), Column(ScaledIdentity(0.5), mean=base / p)]
    cols = [cols[i] for i in rng.permutation(len(cols))]
    m = EnsembleModel(p, len(cols), cols)
    assert m._dense_rows.size > b
    return m, cols


def test_psi_matrix_oracle_over_several_chunks(rng):
    m, cols = chunked_model(rng)
    n = m.n
    sigmas = sigma_oracle(cols, m.p)
    D, Dp = (UpperDiagonal(3 * rng.standard_normal(n) + 1j * rng.uniform(2.0, 4.0, n))
             for _ in range(2))
    Q, Qp = explicit_q(sigmas, D.values), explicit_q(sigmas, Dp.values)
    want = np.array([[np.trace(sigmas[i] @ Q @ sigmas[j] @ Qp) for j in range(n)]
                     for i in range(n)]) / (n * n * D.values * Dp.values)
    np.testing.assert_allclose(psi_matrix(m, D, Dp), want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


def test_psi_matrix_diagonal_oracle(rng, monkeypatch):
    # three diagonal classes, one of them a scaled identity, and D varying
    # within each class: the traces come from one product of Q's diagonals,
    # in one block of the rows d_c d_c' or in one block per class
    d = rng.uniform(0.2, 3.0, (2, 6))
    specs = [Diagonal(d[0]), Diagonal(d[1]), ScaledIdentity(0.7)]
    cols = [Column(specs[i % 3]) for i in range(15)]
    m = EnsembleModel(6, 15, cols)
    assert m.is_diagonal and m._class_size.size == 3
    n = m.n
    sigmas = sigma_oracle(cols, 6)
    D, Dp = (UpperDiagonal(rng.standard_normal(n) + 1j * rng.uniform(0.5, 2.0, n))
             for _ in range(2))
    Q, Qp = explicit_q(sigmas, D.values), explicit_q(sigmas, Dp.values)
    want = np.array([[np.trace(sigmas[i] @ Q @ sigmas[j] @ Qp) for j in range(n)]
                     for i in range(n)]) / (n * n * D.values * Dp.values)
    psi = psi_matrix(m, D, Dp)
    np.testing.assert_allclose(psi, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    monkeypatch.setattr(model_module, "_CHAIN_BYTES", 1)
    np.testing.assert_allclose(psi_matrix(m, D, Dp), psi, rtol=1e-14)


def test_psi_matrix_one_product_pair_per_class(monkeypatch):
    # Psi forms each class's second moment once, as mixtures(n e_c), and no
    # other mixture: the mixture model's r = 3 vector classes have 2r < p, so
    # its resolvent takes the Woodbury path, with no mixture to factor.
    # A diagonal model forms none: its traces come from Q's diagonal alone
    rows = []
    mixtures = EnsembleModel.mixtures
    monkeypatch.setattr(EnsembleModel, "mixtures",
                        lambda self, Wc: rows.append(Wc) or mixtures(self, Wc))
    for m in (mixture_model(7, 12, 3), mp_model(6, 12)):
        assert not m._lu
        lam = solve_lambda(m, 1.0 + 0.5j).lam
        rows.clear()
        psi = psi_matrix(m, lam, lam)
        if m.is_diagonal:
            assert rows == []
        else:
            np.testing.assert_array_equal(np.concatenate(rows),
                                          m.n * np.eye(m._class_size.size))
    # one class: a constant Psi
    np.testing.assert_allclose(psi, psi[0, 0], rtol=1e-14)


def test_psi_norm_below_one_at_fixed_point(rng):
    m = random_model(5, 8, rng)
    for z in (1.0 + 0.5j, -1.0 + 1.0j):
        lam = solve_lambda(m, z).lam
        psi = psi_matrix(m, lam, lam)
        assert np.linalg.norm(psi, 2) < 1.0


@pytest.mark.parametrize("build", ["structured", "chunked", "diagonal"])
def test_lambda_derivative_matches_n_by_n_solve(rng, build):
    # the k x k system on class values, expanded, solves the n x n one
    base = structured_columns(5, 8, rng)
    # structured columns three times each, shuffled: 8 classes over 24 columns
    m = {"structured": lambda: EnsembleModel(5, 24, [
            base[i] for i in rng.permutation(np.repeat(np.arange(8), 3))]),
         "chunked": lambda: chunked_model(rng)[0],
         "diagonal": lambda: diagonal_model(6, 12, 3, seed=2)}[build]()
    z = 0.7 + 0.4j
    lam = solve_lambda(m, z).lam
    want = np.linalg.solve(np.eye(m.n) - psi_matrix(m, lam, lam), np.ones(m.n))
    got = lambda_derivative(m, z, lam)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_lambda_derivative_refuses_a_singular_system(monkeypatch):
    # with Psi = I the k x k system I - Psi is zero: a ValueError, not numpy's
    m = mp_model(3, 6)
    lam = solve_lambda(m, 1 + 1j).lam
    monkeypatch.setattr(fixedpoint, "_class_psi", lambda model, x, pair: np.eye(1)[None])
    with pytest.raises(ValueError, match="I - Psi is singular") as info:
        lambda_derivative(m, 1 + 1j, lam)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


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
