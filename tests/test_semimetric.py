import inspect
import warnings

import numpy as np
import pytest

from conftest import mp_model

import covspectra
from covspectra import (
    Column,
    DomainError,
    EnsembleModel,
    QveProblem,
    ScaledIdentity,
    UpperDiagonal,
    apply_Iz,
    continuation_solve,
    contraction_factor,
    d_s,
    in_solver_domain,
    lambda_derivative,
    r_tilde,
    solve_lambda,
    stieltjes_lipschitz_check,
    stieltjes_g,
)


def test_ds_identical_points_is_zero():
    D = UpperDiagonal(np.array([1.0 + 1.0j, 2.0 + 0.5j]))
    assert d_s(D, D) == 0.0


def test_ds_symmetry(rng):
    a = rng.standard_normal(6) + 1j * rng.exponential(1.0, 6)
    b = rng.standard_normal(6) + 1j * rng.exponential(1.0, 6)
    D, E = UpperDiagonal(a), UpperDiagonal(b)
    assert d_s(D, E) == pytest.approx(d_s(E, D), rel=1e-15)


def test_ds_known_value():
    # [DERIVED] |2i - i| / sqrt(2 * 1) = 1/sqrt(2)
    D = UpperDiagonal(np.array([2.0j]))
    E = UpperDiagonal(np.array([1.0j]))
    assert d_s(D, E) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)


def test_ds_real_shift_scales_inverse_imag():
    # [DERIVED] entries i and 1 + i: |1| / sqrt(1*1) = 1
    D = UpperDiagonal(np.array([1.0j]))
    E = UpperDiagonal(np.array([1.0 + 1.0j]))
    assert d_s(D, E) == pytest.approx(1.0, abs=1e-15)


def test_ds_max_over_entries():
    D = UpperDiagonal(np.array([1.0j, 4.0j]))
    E = UpperDiagonal(np.array([1.0j, 1.0j]))
    # second entry: |4i - i| / sqrt(4*1) = 1.5
    assert d_s(D, E) == pytest.approx(1.5, abs=1e-15)


def test_ds_no_overflow_tiny_imag():
    D = UpperDiagonal(np.array([1e-300j]))
    E = UpperDiagonal(np.array([1.0 + 1e-300j]))
    val = d_s(D, E)
    assert np.isfinite(val)
    assert val == pytest.approx(1e300, rel=1e-10)


def test_rejects_nonpositive_imag():
    with pytest.raises(ValueError):
        UpperDiagonal(np.array([1.0 + 0.0j]))
    with pytest.raises(ValueError):
        UpperDiagonal(np.array([1.0 - 1.0j]))


@pytest.mark.parametrize("v", [complex(np.nan, 1.0), complex(np.inf, 1.0),
                               complex(1.0, np.inf)], ids=["nan", "inf", "inf-imag"])
def test_rejects_non_finite_entries(v):
    # accepted before, and d_s then returned nan
    with pytest.raises(DomainError, match="UpperDiagonal entries must be finite"):
        UpperDiagonal(np.array([1.0j, v]))


# every public function that takes a z of the solver: each checks it in
# semimetric._upper_z.  empirical_stieltjes and resolvent_identity_check take
# any z off the spectrum, real or in the lower half-plane too
_Z_CALLS = {
    "solve_lambda": lambda m, L, z: solve_lambda(m, z),
    "continuation_solve": lambda m, L, z: continuation_solve(m, [1.0 + 1.0j, z]),
    "apply_Iz": lambda m, L, z: apply_Iz(m, z, L),
    "contraction_factor": lambda m, L, z: contraction_factor(m, z, L, L),
    "lambda_derivative": lambda m, L, z: lambda_derivative(m, z, L),
    "r_tilde": lambda m, L, z: r_tilde(m, z, L),
    "stieltjes_g": lambda m, L, z: stieltjes_g(m, z, L),
    "in_solver_domain": lambda m, L, z: in_solver_domain(L, z),
    "stieltjes_lipschitz_check": lambda m, L, z: stieltjes_lipschitz_check([(0.0, 1.0)], 1j, z),
    "QveProblem": lambda m, L, z: QveProblem(z=z, a=np.zeros(2), S=np.eye(2)),
}
_OFF_SPECTRUM_Z = {"empirical_stieltjes", "resolvent_identity_check"}


def test_z_calls_cover_every_public_function_taking_z():
    takes_z = {name for name in covspectra.__all__
               if callable(obj := getattr(covspectra, name))
               and not (isinstance(obj, type) and issubclass(obj, Exception))
               and "z" in inspect.signature(obj).parameters}
    takes_z |= {"continuation_solve"}  # its path is zs
    assert takes_z == set(_Z_CALLS) | _OFF_SPECTRUM_Z


@pytest.mark.parametrize("z, message", [
    (complex(np.nan, 1.0), "z must be finite"),
    (complex(np.inf, 1.0), "z must be finite"),
    (complex(1.0, np.inf), "z must be finite"),
    (1.0 - 1.0j, "z must lie in the upper half-plane"),
    (0, "z must lie in the upper half-plane"),
], ids=["nan", "inf", "inf-imag", "lower", "zero"])
@pytest.mark.parametrize("name", sorted(_Z_CALLS))
def test_z_outside_the_domain_is_one_domain_error(name, z, message):
    m = mp_model(3, 6)
    L = solve_lambda(m, 1.0 + 1.0j).lam
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as exc:
            _Z_CALLS[name](m, L, z)
    assert str(exc.value) == message


def test_diagonal_domain_checked_where_it_is_iterated():
    # Im(D/z) < 0 at z = 1 + i: the functions that iterate or map a diagonal
    # reject it, those that only read a resolvent from it answer
    m, z = mp_model(3, 4), 1.0 + 1.0j
    D = UpperDiagonal(np.full(4, 5.0 + 0.1j))
    assert not in_solver_domain(D, z)
    for check in (lambda: apply_Iz(m, z, D), lambda: contraction_factor(m, z, D, D),
                  lambda: solve_lambda(m, z, warm=D)):
        with pytest.raises(DomainError, match="outside the solver domain"):
            check()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(r_tilde(m, z, D)).all()
        assert np.isfinite(stieltjes_g(m, z, D))
        assert np.isfinite(lambda_derivative(m, z, D)).all()


def test_in_solver_domain():
    z = 1.0 + 1.0j
    good = UpperDiagonal(np.array([1.0 + 2.0j]))
    assert in_solver_domain(good, z)
    # arg(5 + 0.1i) < arg(1 + i) so Im(D/z) < 0
    bad = UpperDiagonal(np.array([5.0 + 0.1j]))
    assert not in_solver_domain(bad, z)


def test_fixed_points_lie_in_domain(rng):
    m = mp_model(20, 40)
    for z in (1.0 + 1.0j, -2.0 + 0.5j, 3.0j):
        res = solve_lambda(m, z)
        assert in_solver_domain(res.lam, z)


def test_stieltjes_lipschitz_bound(rng):
    # [DERIVED] for any Stieltjes transform g of a positive measure,
    # |g(z) - g(z')| <= sqrt(Im g(z) Im g(z')) * d_s(z, z'); checked on
    # random discrete measures.
    for _ in range(200):
        locs = rng.uniform(-5, 5, 6)
        masses = rng.exponential(1.0, 6)
        atoms = list(zip(locs.tolist(), masses.tolist()))
        z1 = complex(rng.uniform(-3, 3), rng.uniform(0.05, 2.0))
        z2 = complex(rng.uniform(-3, 3), rng.uniform(0.05, 2.0))
        lhs, rhs = stieltjes_lipschitz_check(atoms, z1, z2)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_lipschitz_check_rejects_bad_input():
    with pytest.raises(ValueError):
        stieltjes_lipschitz_check([], 1j, 2j)
    with pytest.raises(ValueError):
        stieltjes_lipschitz_check([(0.0, 1.0)], 1j, 1.0 - 1j)
    with pytest.raises(ValueError):
        stieltjes_lipschitz_check([(0.0, -1.0)], 1j, 2j)


@pytest.mark.parametrize("atom", [(np.inf, 1.0), (1.0, np.nan), (np.nan, 1.0)],
                         ids=["inf-location", "nan-mass", "nan-location"])
def test_lipschitz_check_rejects_non_finite_atoms(atom):
    # (inf, 1) returned (0, 0), which passes lhs <= rhs vacuously; (1, nan)
    # returned (nan, nan); (nan, 1) warned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            stieltjes_lipschitz_check([atom], 1.0 + 1.0j, 2.0 + 1.0j)


def test_solver_stieltjes_obeys_lipschitz(rng):
    # the deterministic-equivalent g inherits the same bound
    m = mp_model(15, 30)
    for _ in range(10):
        z1 = complex(rng.uniform(-3, 3), rng.uniform(0.3, 2.0))
        z2 = complex(rng.uniform(-3, 3), rng.uniform(0.3, 2.0))
        g1 = stieltjes_g(m, z1, solve_lambda(m, z1).lam)
        g2 = stieltjes_g(m, z2, solve_lambda(m, z2).lam)
        ds_zz = abs(z1 - z2) / np.sqrt(z1.imag * z2.imag)
        assert abs(g1 - g2) <= np.sqrt(g1.imag * g2.imag) * ds_zz * (1 + 1e-9)
