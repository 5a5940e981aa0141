import warnings

import numpy as np
import pytest

from covspectra import NonConvergenceError, QveProblem, qve_residual, solve_qve
from covspectra.fixedpoint import SolverOptions, _contract
from covspectra.qve import _row_sum_start
from covspectra.semimetric import _in_upper


def test_problem_validation():
    with pytest.raises(ValueError):
        QveProblem(z=1.0 - 1.0j, a=np.zeros(2), S=np.eye(2))  # lower half-plane
    with pytest.raises(ValueError):
        QveProblem(z=1j, a=np.zeros(3), S=np.eye(2))  # shape mismatch
    with pytest.raises(ValueError):
        QveProblem(z=1j, a=np.zeros(2), S=-np.eye(2))  # negative entries
    for z in (complex(np.nan, 1.0), complex(np.inf, 1.0), complex(1.0, np.inf)):
        with pytest.raises(ValueError, match="z must be finite"):
            QveProblem(z=z, a=np.zeros(2), S=np.eye(2))


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


@pytest.mark.parametrize("banded", [True, False], ids=["banded", "semicircle"])
def test_solve_matches_per_step_product_bit_for_bit(banded):
    # S converted once per solve makes the same complex product each step
    # that S @ (1/x) made from its own complex copy of S
    if banded:
        idx = np.arange(60)
        S = (np.abs(np.subtract.outer(idx, idx)) <= 10) / 21.0
        prob = QveProblem(z=0.4 + 1e-2j, a=np.linspace(-0.5, 0.5, 60)[::-1], S=S)
    else:
        prob = QveProblem(z=-1.2 + 1e-3j, a=np.zeros(1), S=np.ones((1, 1)))
    # from the start and with the floor's anchor solve_qve takes
    z, a, S = prob.z, prob.a, prob.S
    x0 = _row_sum_start(z, a, S)[None]
    x, *_ = _contract(lambda x, _: (z + a - S @ (1.0 / x[0]))[None], x0,
                      SolverOptions(), lambda x, _: _in_upper(x, axis=1), anchor=(z + a)[None])
    np.testing.assert_array_equal(solve_qve(prob), -1.0 / x[0])


def record_iterations(monkeypatch) -> list[int]:
    """The iterations of every solve_qve from here on, one entry per solve."""
    import covspectra.qve as qve

    counts = []

    def recording(*args, **kwargs):
        out = _contract(*args, **kwargs)
        counts.append(int(out[1][0]))
        return out

    monkeypatch.setattr(qve, "_contract", recording)
    return counts


@pytest.mark.parametrize("kind", ["semicircle", "circulant"])
def test_constant_row_sums_start_at_the_solution(kind, monkeypatch):
    # [DERIVED] a = 0 and every row of S summing to c: m = mu ones solves the
    # QVE where -1/mu = z + c mu, which is the start's own equation, so the
    # start is the solution, mu = (-z + sqrt(z^2 - 4c)) / (2c) with Im mu > 0
    if kind == "semicircle":
        S = np.ones((1, 1))
    else:
        row = np.random.Generator(np.random.Philox(key=5)).uniform(0.0, 1.0, 9)
        S = np.array([np.roll(row, i) for i in range(9)])
    c = S.sum(axis=1)[0]
    counts = record_iterations(monkeypatch)
    for z in (1j, 1.0 + 0.5j, -1.8 + 1e-3j, 0.3 + 1e-6j, 5.0 + 1e-3j):
        m = solve_qve(QveProblem(z=z, a=np.zeros(len(S)), S=S))
        disc = np.sqrt(complex(z * z - 4.0 * c))
        want = next(r for r in ((-z + disc) / (2 * c), (-z - disc) / (2 * c)) if r.imag > 0)
        np.testing.assert_allclose(m, want, rtol=1e-12)
    assert max(counts) <= 2


def test_start_falls_back_to_z_plus_a():
    # a zero row of S starts at z + a_i, the solution for S = 0, bit for bit;
    # row sums that overflow start there too, with no warning
    z, a = 0.5 + 1e-3j, np.array([0.25, -1.0, 2.0])
    S = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.0], [0.0, 2.0, 1.0]])
    x = _row_sum_start(z, a, S)
    assert x[0] == z + a[0]
    assert np.all(x.imag > 0.0) and np.all(x[1:] != z + a[1:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = _row_sum_start(z, a, np.full((3, 3), 1e308))
    np.testing.assert_array_equal(x, z + a)


def test_banded_sweep_iterations(monkeypatch):
    # a count of the QVE loop's work that needs no clock: 21 points at
    # Im z = 1e-3 across the spectrum of a banded profile of side 120.  The
    # solves took 541 iterations in all from z + a, the solution for S = 0,
    # and take 347 from the row-sum start
    idx = np.arange(120)
    S = (np.abs(np.subtract.outer(idx, idx)) <= 30) / 61.0
    rng = np.random.Generator(np.random.Philox(key=[0, 1]))
    a = rng.permutation(np.linspace(-0.5, 0.5, 120))
    counts = record_iterations(monkeypatch)
    for x in np.linspace(-2.2, 2.2, 21):
        prob = QveProblem(complex(x, 1e-3), a, S)
        assert qve_residual(prob, solve_qve(prob)) < 1e-10
    assert len(counts) == 21 and sum(counts) <= 380
