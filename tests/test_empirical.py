import json
import sys
import warnings

import numpy as np
import pytest

from conftest import mixture_model, mp_model, mp_stieltjes, random_model

from covspectra import contour, empirical

from covspectra import (
    Column,
    ContourSpec,
    Dense,
    Diagonal,
    EnsembleModel,
    FunctionalSpec,
    RotatedFamily,
    ScaledIdentity,
    compare,
    empirical_projection,
    empirical_stieltjes,
    project_functional,
    random_orthogonal,
    resolvent_identity_check,
    sample_batch,
    sample_matrix,
    spectrum,
)


def test_sample_matrix_shape_and_determinism():
    m = mp_model(6, 10)
    X1 = sample_matrix(m, seed=7)
    X2 = sample_matrix(m, seed=7)
    assert X1.shape == (6, 10)
    np.testing.assert_array_equal(X1, X2)
    X3 = sample_matrix(m, seed=8)
    assert not np.array_equal(X1, X3)
    X4 = sample_matrix(m, seed=7, trial=1)
    assert not np.array_equal(X1, X4)


@pytest.mark.parametrize("seed, trial", [(-1, 0), (1 << 64, 0), (0, -1), (0, 1 << 32)],
                         ids=["seed-negative", "seed-2^64", "trial-negative", "trial-2^32"])
def test_sample_matrix_rejects_out_of_range_seed(seed, trial):
    # the generator key is (seed, trial * 2^32 + i) in two uint64 words
    m = mp_model(2, 3)
    with pytest.raises(ValueError, match="outside"):
        sample_matrix(m, seed, trial)
    assert sample_matrix(m, (1 << 64) - 1, (1 << 32) - 1).shape == (2, 3)


def test_sample_matrix_column_statistics():
    # column covariance and mean honored: sigma2=4, mean=3*ones
    p, n = 3, 2000
    mean = np.full(p, 3.0)
    m = EnsembleModel(
        p, n, [Column(ScaledIdentity(4.0), mean=mean)] * n, mean_norm_bound=100.0
    )
    X = sample_matrix(m, seed=11)
    emp_mean = X.mean(axis=1)
    np.testing.assert_allclose(emp_mean, mean, atol=0.2)
    centered = X - mean[:, None]
    emp_cov = centered @ centered.T / n
    np.testing.assert_allclose(emp_cov, 4.0 * np.eye(p), atol=0.5)


def test_spectrum_descending_nonnegative():
    m = mp_model(5, 10)
    w = spectrum(sample_matrix(m, seed=1))
    assert np.all(np.diff(w) <= 0)
    assert np.all(w >= 0)
    assert len(w) == 5


def test_sample_batch_parallel_matches_serial():
    m = mp_model(6, 12)
    serial = sample_batch(m, trials=4, seed=3, jobs=1)
    parallel = sample_batch(m, trials=4, seed=3, jobs=3)
    np.testing.assert_array_equal(serial.eigenvalue_sets, parallel.eigenvalue_sets)


@pytest.mark.parametrize("cpus, trials, want", [(3, 4, 3), (3, 2, 2), (None, 4, 1)])
def test_sample_batch_threads_capped(cpus, trials, want, monkeypatch):
    # jobs = 10**6 asked the pool for a million threads, and validate --jobs J
    # --trials T for min(J, T); the pool takes min(jobs, trials, cpu count)
    # workers.  The fake pool maps serially, so no thread starts
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    m = mp_model(6, 12)
    serial = sample_batch(m, trials=trials, seed=3)
    monkeypatch.setattr(empirical, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(empirical.os, "cpu_count", lambda: cpus)
    batch = sample_batch(m, trials=trials, seed=3, jobs=10**6)
    assert workers == [want]
    np.testing.assert_array_equal(batch.eigenvalue_sets, serial.eigenvalue_sets)


def test_sample_batch_two_threads_bit_identical():
    # each call draws from its own generator, reset per column: two threads
    # drawing long trials at once, switched often, give the serial draws bit
    # for bit
    m = mixture_model(20, 400, 4)
    serial = sample_batch(m, trials=6, seed=2, jobs=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = sample_batch(m, trials=6, seed=2, jobs=2)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(threads.eigenvalue_sets, serial.eigenvalue_sets)
    for t, eigs in enumerate(serial.eigenvalue_sets):
        np.testing.assert_array_equal(eigs, spectrum(sample_matrix(m, 2, trial=t)))


def test_compare_one_projection_per_contour(monkeypatch):
    # specs sharing a contour take one projection with all their matrices:
    # the kernel runs once per contour, whatever the count
    # of functionals, and the values are those of separate projections
    p, n = 20, 40
    m = mp_model(p, n)
    u = np.zeros(p)
    u[0] = 1.0
    near, far = ContourSpec(0.005, 4.0, 0.5, 16), ContourSpec(0.005, 5.0, 0.5, 32)
    specs = [FunctionalSpec("identity", np.eye(p), near, (0.0, 4.0)),
             FunctionalSpec("e1", np.outer(u, u), far, (0.0, 5.0)),
             FunctionalSpec("ones", np.ones((p, p)), near, (0.0, 4.0))]
    want = [project_functional(m, s.matrix, s.contour).value for s in specs]
    calls = []
    kernel = m.functional_traces
    monkeypatch.setattr(m, "functional_traces",
                        lambda Wc, As: calls.append(len(As)) or kernel(Wc, As))
    rep = compare(m, trials=2, seed=1, functionals=specs)
    assert len(calls) == 2
    assert sorted(set(calls)) == [1, 2]
    np.testing.assert_allclose([row.predicted for row in rep.functionals], want,
                               rtol=1e-13, atol=1e-13)


def test_empirical_stieltjes_oracle():
    eigs = np.array([1.0, 3.0])
    z = 2.0 + 1.0j
    want = 0.5 * (1.0 / (1.0 - z) + 1.0 / (3.0 - z))
    assert empirical_stieltjes(eigs, z) == pytest.approx(want)
    with pytest.raises(ValueError):
        empirical_stieltjes(eigs, 1.0 + 0j)


@pytest.mark.parametrize("z", [complex(np.nan, 1.0), complex(np.inf, 1.0),
                               complex(1.0, np.inf), complex(1.0, np.nan)])
def test_empirical_stieltjes_rejects_non_finite_z(z):
    # a ValueError, not nan with a RuntimeWarning or a silent 0j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            empirical_stieltjes(np.array([1.0, 2.0]), z)


def test_empirical_stieltjes_converges_to_mp():
    p, n = 400, 800
    m = mp_model(p, n)
    X = sample_matrix(m, seed=21)
    z = 1.5 + 0.5j
    g = empirical_stieltjes(spectrum(X), z)
    assert abs(g - mp_stieltjes(z, p / n)) < 0.02


def test_empirical_projection_identity_counts():
    m = mp_model(10, 20)
    X = sample_matrix(m, seed=2)
    w = spectrum(X)
    cnt = empirical_projection(X, np.eye(10), (float(w.min()) - 0.1, float(w.max()) + 0.1))
    assert cnt == pytest.approx(10.0, abs=1e-9)
    assert empirical_projection(X, np.eye(10), (100.0, 200.0)) == 0.0


def test_resolvent_identity_exact(rng):
    m = random_model(5, 8, rng)
    X = sample_matrix(m, seed=4)
    assert resolvent_identity_check(X, 1.0 + 1.0j) < 1e-10


def test_compare_mp_report(tmp_path):
    p, n = 60, 120
    m = mp_model(p, n)
    rep = compare(m, trials=4, seed=13, bin_width=0.5, y=1e-3)
    assert rep.l1_density_error < 0.15
    assert rep.sup_g_error < 0.1
    assert rep.trials == 4
    # report files
    out = tmp_path / "report"
    rep.write(str(out))
    hist = (out / "histogram.csv").read_text().splitlines()
    assert hist[0] == "bin_lo,bin_hi,frequency"
    assert len(hist) == len(rep.bin_edges)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 13
    assert summary["trials"] == 4
    assert summary["rng_name"]
    assert summary["l1_density_error"] == pytest.approx(rep.l1_density_error)


def test_compare_bin_masses_add_up_to_grid_integral():
    # Figure-1 left: the bins tile the grid, so each bin's mass includes the
    # stretch of grid spacing across its edges
    base = np.r_[[8.0] * 20, [1.0] * 60]
    m = EnsembleModel(80, 160, [Column(Diagonal(base))] * 160)
    rep = compare(m, 10, 0)
    g = rep.grid
    total = np.trapezoid(g.density, g.xs) + g.dirac_at_zero
    assert abs(rep.predicted_mass.sum() - total) < 1e-12
    assert rep.predicted_mass.min() >= 0.0


def test_compare_solves_each_contour_once(monkeypatch):
    p, n = 20, 40
    m = mp_model(p, n)
    calls = []

    def counting(model, zs, opts=None):
        calls.append(len(zs))
        return solve(model, zs, opts)

    solve = contour.continuation_solve
    monkeypatch.setattr(contour, "continuation_solve", counting)
    spec = ContourSpec(0.005, 4.0, 0.5, 16)
    first = np.zeros((p, p))
    first[0, 0] = 1.0
    specs = [FunctionalSpec(name, A, spec, (0.0, 4.0))
             for name, A in (("identity", np.eye(p)), ("first", first))]
    rep = compare(m, trials=2, seed=1, functionals=specs)
    assert calls == [spec.upper_nodes()[0].size]
    assert rep.functionals[0].predicted == pytest.approx(p, rel=0.01)


def test_compare_functional_rows(tmp_path):
    p, n = 40, 80
    m = mp_model(p, n)
    hi = (1 + np.sqrt(0.5)) ** 2
    spec = FunctionalSpec(
        name="identity",
        matrix=np.eye(p),
        contour=ContourSpec(0.005, hi + 1.0, 0.5, 32),
        interval=(0.0, hi + 1.0),
    )
    rep = compare(m, trials=3, seed=9, functionals=[spec])
    row = rep.functionals[0]
    assert row.predicted == pytest.approx(p, rel=0.01)
    assert row.empirical_mean == pytest.approx(p, abs=1e-6)
    assert row.empirical_std is not None
    out = tmp_path / "report"
    rep.write(str(out))
    lines = (out / "functionals.csv").read_text().splitlines()
    assert lines[0].startswith("functional,contour_a")
    assert lines[1].split(",")[0] == "identity"


def test_compare_draws_each_trial_once(monkeypatch):
    p, n, trials, seed = 20, 40, 3, 11
    m = mp_model(p, n)
    u = np.zeros(p)
    u[0] = 1.0
    contour = ContourSpec(0.005, 4.0, 0.5, 16)
    specs = [
        FunctionalSpec("identity", np.eye(p), contour, (0.0, 4.0)),
        FunctionalSpec("e1", np.outer(u, u), contour, (1.0, 4.0)),
    ]
    # the values of one draw per trial for the histogram and per functional
    pooled = sample_batch(m, trials, seed).eigenvalue_sets.ravel()
    want_vals = [
        [empirical_projection(sample_matrix(m, seed, trial=t), s.matrix, s.interval)
         for t in range(trials)]
        for s in specs
    ]

    calls = []
    draw = empirical.sample_matrix
    monkeypatch.setattr(
        empirical, "sample_matrix", lambda *a, **k: calls.append(1) or draw(*a, **k)
    )
    rep = compare(m, trials=trials, seed=seed, functionals=specs)
    assert len(calls) == trials

    counts, _ = np.histogram(pooled, bins=rep.bin_edges)
    np.testing.assert_array_equal(rep.frequencies, counts / pooled.size)
    for row, vals in zip(rep.functionals, want_vals):
        assert row.empirical_mean == float(np.mean(vals))
        assert row.empirical_std == float(np.std(vals, ddof=1))


def test_compare_decomposes_each_trial_once(monkeypatch):
    # one eigendecomposition per trial gives its spectrum and every functional
    p, n, trials = 20, 40, 3
    m = mp_model(p, n)
    contour = ContourSpec(0.005, 4.0, 0.5, 16)
    specs = [
        FunctionalSpec("identity", np.eye(p), contour, (0.0, 4.0)),
        FunctionalSpec("ones", np.ones((p, p)), contour, (1.0, 4.0)),
    ]
    calls = []
    for name in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k)
        )
    compare(m, trials=trials, seed=11, functionals=specs)
    assert len(calls) == trials


@pytest.mark.parametrize("width", [0.0, -1.0, float("nan")])
def test_compare_rejects_nonpositive_bin_width(monkeypatch, width):
    # raised before any draw
    monkeypatch.setattr(empirical, "sample_matrix", lambda *a, **k: pytest.fail("drew"))
    with pytest.raises(ValueError, match="bin_width must be positive"):
        compare(mp_model(10, 20), trials=2, seed=1, bin_width=width)


def test_histogram_frequencies_sum_to_one():
    m = mp_model(30, 60)
    rep = compare(m, trials=2, seed=5)
    assert rep.frequencies.sum() == pytest.approx(1.0)


def test_sample_matrix_matches_per_column_roots(rng):
    # the class-by-class roots against mu_i + column_root_matvec(i, g_i):
    # diagonal and mean-vector columns bit for bit, dense and rotated columns
    # (rotation counts shuffled and repeated, two orthogonal matrices) to
    # rounding
    p = 6
    P, P2 = random_orthogonal(p, 1), random_orthogonal(p, 2)
    mean = rng.standard_normal(p) / np.sqrt(p)
    B = rng.standard_normal((p, p))
    dense = Dense(B @ B.T / p + 0.1 * np.eye(p))
    diagonal = Diagonal(rng.uniform(0.2, 3.0, p))
    exact = [Column(diagonal), Column(diagonal, mean=mean), Column(ScaledIdentity(2.0)),
             Column(ScaledIdentity(0.5), mean=mean),
             Column(RotatedFamily(rng.uniform(0.2, 3.0, p), P, 0))]
    rounded = [Column(dense), Column(dense, mean=mean)]
    rounded += [Column(RotatedFamily(rng.uniform(0.2, 3.0, p), P, k))
                for k in (3, 1, 4, 1, 5, 9, 2, 6)]
    rounded += [Column(RotatedFamily(rng.uniform(0.2, 3.0, p), P2, k), mean=mean)
                for k in (2, 1)]
    cols = [c for c in exact + rounded for _ in range(int(rng.integers(1, 4)))]
    order = rng.permutation(len(cols))
    m = EnsembleModel(p, len(cols), [cols[i] for i in order])
    X = sample_matrix(m, seed=5, trial=2)
    means = [np.zeros(p) if cols[j].mean is None else cols[j].mean for j in order]
    want = np.column_stack([
        means[i] + m.column_root_matvec(i, empirical._column_rng(5, 2, i).standard_normal(p))
        for i in range(m.n)])
    is_exact = np.isin(order, [j for j, c in enumerate(cols) if c in exact])
    np.testing.assert_array_equal(X[:, is_exact], want[:, is_exact])
    np.testing.assert_allclose(X[:, ~is_exact], want[:, ~is_exact], rtol=0,
                               atol=1e-12 * np.abs(want).max())


def test_sampled_rotations_match_per_column_roots(rng):
    # rotation counts 0..1000, shuffled and repeated, over two orthogonal
    # matrices and with some means: columns leave the bit loop at different
    # bits, and each matches mu_i + column_root_matvec(i, g_i)
    p = 8
    Ps = random_orthogonal(p, 1), random_orthogonal(p, 2)
    counts = rng.permutation(np.r_[0:1001, rng.integers(0, 1001, 100)])
    means = [rng.standard_normal(p) / np.sqrt(p) if j % 5 == 0 else None
             for j in range(counts.size)]
    cols = [Column(RotatedFamily(rng.uniform(0.2, 3.0, p), Ps[j % 2], int(k)), mean=mu)
            for j, (k, mu) in enumerate(zip(counts, means))]
    m = EnsembleModel(p, len(cols), cols)
    X = sample_matrix(m, seed=4, trial=1)
    want = np.column_stack([
        (np.zeros(p) if mu is None else mu)
        + m.column_root_matvec(i, empirical._column_rng(4, 1, i).standard_normal(p))
        for i, mu in enumerate(means)])
    np.testing.assert_allclose(X, want, rtol=0, atol=1e-12 * np.abs(want).max())
