import numpy as np
import pytest

from covspectra import NonConvergenceError, QveProblem, qve_residual, solve_qve


def test_problem_validation():
    with pytest.raises(ValueError):
        QveProblem(z=1.0 - 1.0j, a=np.zeros(2), S=np.eye(2))  # lower half-plane
    with pytest.raises(ValueError):
        QveProblem(z=1j, a=np.zeros(3), S=np.eye(2))  # shape mismatch
    with pytest.raises(ValueError):
        QveProblem(z=1j, a=np.zeros(2), S=-np.eye(2))  # negative entries


def test_scalar_semicircle_oracle():
    # [DERIVED] n=1, a=0, S=1: -1/m = z + m  =>  m = (-z + sqrt(z^2 - 4))/2,
    # the Stieltjes transform of the semicircle law.
    for z in (1j, 1.0 + 0.5j, -2.0 + 0.1j):
        prob = QveProblem(z=z, a=np.zeros(1), S=np.ones((1, 1)))
        m = solve_qve(prob)
        disc = np.sqrt(complex(z * z - 4.0))
        roots = [(-z + disc) / 2.0, (-z - disc) / 2.0]
        want = next(r for r in roots if r.imag > 0)
        assert abs(m[0] - want) < 1e-9


def test_residual_small_and_upper_halfplane(rng):
    for _ in range(50):
        n = int(rng.integers(2, 12))
        a = rng.uniform(-1.0, 1.0, n)
        S = rng.uniform(0.0, 2.0, (n, n))
        S = (S + S.T) / 2.0
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 2.0))
        prob = QveProblem(z=z, a=a, S=S)
        m = solve_qve(prob)
        assert qve_residual(prob, m) < 1e-10
        assert np.all(m.imag > 0.0)


def test_identical_rows_give_identical_solution(rng):
    # symmetry: permutation-invariant data yields a constant vector
    n = 6
    S = np.full((n, n), 0.5)
    prob = QveProblem(z=0.3 + 0.7j, a=np.zeros(n), S=S)
    m = solve_qve(prob)
    assert np.ptp(m.real) < 1e-10
    assert np.ptp(m.imag) < 1e-10


def test_residual_of_wrong_vector_is_large():
    prob = QveProblem(z=1j, a=np.zeros(2), S=np.eye(2))
    bad = np.array([1.0 + 1.0j, 1.0 + 1.0j])
    assert qve_residual(prob, bad) > 0.1


def test_non_finite_iterate_stops_at_once():
    # finite entries whose products overflow
    prob = QveProblem(z=1j, a=np.zeros(2), S=np.full((2, 2), 1e308))
    with np.errstate(all="ignore"), pytest.raises(NonConvergenceError) as exc:
        solve_qve(prob)
    assert exc.value.iterations <= 3


def test_infinite_s_rejected_before_iterating(monkeypatch):
    import covspectra.qve as qve

    def no_iteration(*args, **kwargs):
        raise AssertionError("solve_qve iterated")

    monkeypatch.setattr(qve, "_contract", no_iteration)
    prob = QveProblem(z=1j, a=np.zeros(2), S=np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="S entries must be finite"):
        solve_qve(prob)
