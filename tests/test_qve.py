import tracemalloc
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


def banded_problem(N: int, z: complex = 0.4 + 1e-2j) -> QveProblem:
    """A band of width 21 in S, each row summing to at most 1, and a falling a."""
    idx = np.arange(N)
    S = (np.abs(np.subtract.outer(idx, idx)) <= 10) / 21.0
    return QveProblem(z=z, a=np.linspace(-0.5, 0.5, N)[::-1], S=S)


def reference_solve(prob: QveProblem, product) -> np.ndarray:
    """The solve written out: solve_qve's start, anchor and domain test, with
    the map's S (1/x) computed by product(S, 1/x)."""
    z, a, S = prob.z, prob.a, prob.S
    x, *_ = _contract(lambda x, _: (z + a - product(S, 1.0 / x[0]))[None],
                      _row_sum_start(z, a, S)[None], SolverOptions(),
                      lambda x, _: _in_upper(x, axis=1), anchor=(z + a)[None])
    return -1.0 / x[0]


def real_product(S, y):
    # one real product of S with the columns Re y and Im y
    return (S @ y.view(np.float64).reshape(-1, 2)).view(np.complex128)[:, 0]


def complex_product(S, y):
    # the product solve_qve made before, through a complex copy of S
    return S.astype(np.complex128) @ y


@pytest.mark.parametrize("banded", [True, False], ids=["banded", "semicircle"])
def test_solve_matches_per_step_product_bit_for_bit(banded):
    # solve_qve makes the same real product each step as the reference, and
    # stays within rounding of the complex product it made before: each
    # entry of S (1/x) is a sum of N products, so the two differ by at most
    # N eps of |S| |1/x|, and the contraction carries that to the answer
    if banded:
        prob = banded_problem(60)
    else:
        prob = QveProblem(z=-1.2 + 1e-3j, a=np.zeros(1), S=np.ones((1, 1)))
    m = solve_qve(prob)
    np.testing.assert_array_equal(m, reference_solve(prob, real_product))
    np.testing.assert_allclose(m, reference_solve(prob, complex_product),
                               rtol=len(prob.a) * np.finfo(float).eps, atol=0)


def test_scalar_semicircle_unchanged_bit_for_bit():
    # at N = 1 the real product is the complex one's real arithmetic, s Re y
    # and s Im y, so the 1x1 problems keep the complex product's answers
    for x in np.linspace(-2.5, 2.5, 11):
        prob = QveProblem(z=complex(x, 1e-3), a=np.zeros(1), S=np.ones((1, 1)))
        np.testing.assert_array_equal(solve_qve(prob), reference_solve(prob, complex_product))


def test_solve_forms_no_complex_copy_of_s():
    # the loop's own arrays are O(N): the Anderson rings hold 2 * 5 * N
    # complex entries and each step a few more vectors of N, far below one
    # real copy of S, N^2 * 8 bytes; a complex copy of S alone is N^2 * 16
    prob = banded_problem(400)
    solve_qve(prob)  # numpy's and the solver's one-time allocations
    tracemalloc.start()
    try:
        solve_qve(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    N = len(prob.a)
    assert peak < N * N * 8


def test_strided_and_transposed_s_match_a_contiguous_copy():
    # a strided or transposed S is copied once per solve into C order, still
    # real, and answers as its contiguous copy does
    big = banded_problem(800).S
    rng = np.random.Generator(np.random.Philox(key=3))
    skew = rng.uniform(0.0, 2.0 / 400, (400, 400))
    for S in (big[::2, ::2], skew.T):
        assert not S.flags.c_contiguous
        for x in (-1.0, 0.3):
            z, a = complex(x, 1e-3), np.linspace(-0.5, 0.5, 400)
            want = solve_qve(QveProblem(z, a, np.ascontiguousarray(S)))
            np.testing.assert_allclose(solve_qve(QveProblem(z, a, S)), want, rtol=1e-13, atol=0)


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
