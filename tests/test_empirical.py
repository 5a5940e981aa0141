import json

import numpy as np
import pytest

from conftest import mp_model, mp_stieltjes, random_model

from covspectra import empirical

from covspectra import (
    Column,
    ContourSpec,
    EnsembleModel,
    FunctionalSpec,
    LowRankPlusIdentity,
    ScaledIdentity,
    compare,
    empirical_projection,
    empirical_stieltjes,
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


def test_low_rank_sampling_mean():
    # LowRankPlusIdentity draws x ~ N(u, sigma2 I)
    p, n = 4, 4000
    u = np.array([1.0, -2.0, 0.5, 3.0])
    m = EnsembleModel(
        p, n, [Column(LowRankPlusIdentity(u=u, sigma2=1.0))] * n, mean_norm_bound=100.0
    )
    X = sample_matrix(m, seed=5)
    np.testing.assert_allclose(X.mean(axis=1), u, atol=0.15)


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


def test_empirical_stieltjes_oracle():
    eigs = np.array([1.0, 3.0])
    z = 2.0 + 1.0j
    want = 0.5 * (1.0 / (1.0 - z) + 1.0 / (3.0 - z))
    assert empirical_stieltjes(eigs, z) == pytest.approx(want)
    with pytest.raises(ValueError):
        empirical_stieltjes(eigs, 1.0 + 0j)


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


def test_histogram_frequencies_sum_to_one():
    m = mp_model(30, 60)
    rep = compare(m, trials=2, seed=5)
    assert rep.frequencies.sum() == pytest.approx(1.0)
